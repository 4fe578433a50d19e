"""Conjugate-gradient solver for the symmetric positive semi-definite
Galerkin systems.

The Gram matrices have known null spaces (gradient circulations for the
curl system, constants for the gradient system) but assembly guarantees a
consistent right-hand side, so plain CG started at zero converges inside
the range of the matrix and the reconstructed field is kernel-invariant.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import SparseSymMatrix

__all__ = ["SolveReport", "solve_spsd"]


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool


def solve_spsd(A: SparseSymMatrix, b: np.ndarray, tol: float = 1e-12,
               max_iter: int | None = None, atol: float = 0.0):
    """Solve A x = b by Jacobi-preconditioned conjugate gradients.

    Parameters
    ----------
    A : SparseSymMatrix (positive semi-definite)
    b : right-hand side, must be consistent (orthogonal to ker A)
    tol : relative residual target |A x - b| / |b|
    max_iter : defaults to 10 * n
    atol : absolute residual floor. A right-hand side with |b| <= atol is
        treated as zero: for a singular consistent system, an rhs at
        rounding-noise level has nothing left to solve for, and iterating
        on it would only amplify its (inconsistent) kernel part.

    Returns
    -------
    (x, SolveReport)
        Non-convergence is reported, not raised; the caller decides.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    atol = float(atol)
    b = np.asarray(b, dtype=np.float64)
    n = A.n
    if b.shape != (n,):
        raise ValueError(f"rhs must have shape ({n},), got {b.shape}")
    if max_iter is None:
        max_iter = 10 * n

    b_norm = float(np.linalg.norm(b))
    if b_norm <= atol:
        return np.zeros(n), SolveReport(iterations=0, relative_residual=0.0,
                                        converged=True)

    diag = A.diagonal()
    if (diag <= 0).any():
        raise ValueError("matrix has non-positive diagonal entries")
    inv_diag = 1.0 / diag
    target = max(tol * b_norm, atol)

    # x and x_prev alternate as the buffers of consecutive iterates, so the
    # best iterate is copied out only when the residual rises after it.
    x, x_prev = np.zeros(n), np.empty(n)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    best_res, best_it, best_x = b_norm, 0, None
    it = 0
    while it < max_iter:
        Ap = A.matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            break  # numerical loss of positivity; keep best iterate
        alpha = rz / pAp
        np.multiply(p, alpha, out=x_prev)
        x_prev += x
        x, x_prev = x_prev, x
        Ap *= alpha
        r -= Ap
        it += 1
        res = math.sqrt(float(r @ r))
        if res < best_res:
            best_res, best_it = res, it
        elif best_it == it - 1:
            best_x = x_prev.copy()
        if res <= target:
            break
        if res > 1e6 * best_res:
            break  # diverging on an (effectively) inconsistent rhs
        np.multiply(inv_diag, r, out=z)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
    if best_it == it:
        best_x = x
    rel = best_res / b_norm
    return best_x, SolveReport(iterations=it, relative_residual=rel,
                               converged=best_res <= target)
