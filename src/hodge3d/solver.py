"""Preconditioned conjugate gradients for the symmetric positive
semi-definite Galerkin systems, and the multilevel cycle that
preconditions the face (Crouzeix-Raviart) systems.

The Gram matrices have known null spaces (gradient circulations for the
curl system, constants for the gradient system) but assembly guarantees a
consistent right-hand side, so CG started at zero converges inside the
range of the matrix and the reconstructed field is kernel-invariant. Any
symmetric positive definite preconditioner keeps this.

CG is Jacobi-preconditioned unless the caller passes a cycle. The face
systems get an auxiliary-space cycle (Xu, Computing 56, 1996): Jacobi
smoothing on the face system around a correction from the conforming P1
vertex Laplacian L = P^T A P, where P sets each face's value to the mean
of its vertex values, and L is solved by one smoothed-aggregation V-cycle
(Vanek, Mandel & Brezina, Computing 56, 1996). With it the iteration
count barely grows with the tet count, where Jacobi's grows like 1/h.
Each level of the vertex hierarchy bounds its own smoother, so the
hierarchy depends on L alone.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import SparseSymMatrix

__all__ = ["SolveReport", "solve_spsd", "auxiliary_space_cycle"]

# Every Jacobi smoother's weight is this over an upper bound on
# lambda_max(D^-1 A). Any factor below 2 keeps the smoothers, and so the
# symmetric cycles, positive definite while the bound holds. The bounds
# exceed lambda_max by 0-10% on lattice meshes and about 20% on fitted
# ones; on both, a factor near 2 took 15% fewer face iterations than the
# textbook 4/3.
_SMOOTHING = 1.85
# The vertex hierarchy coarsens until a level has at most this many dofs,
# and that level is applied as a dense generalized inverse, whose cost
# grows like the cube of its size (2 ms at 100 dofs).
_COARSE_DOFS = 100
# Aggregation follows the strong connections, |a_ij| > _STRONG
# sqrt(a_ii a_jj). 0.02 took as many iterations as the 0.08 of Vanek et
# al.; larger values stall the coarsening of the denser coarse levels
# (0.15 went from 455 to 441 dofs on the benchmark's ball).
_STRONG = 0.02


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool


def solve_spsd(A: SparseSymMatrix, b: np.ndarray, tol: float = 1e-12,
               max_iter: int | None = None, atol: float = 0.0, M=None,
               kernel: np.ndarray | None = None):
    """Solve A x = b by preconditioned conjugate gradients.

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
    M : callable r -> z that applies a symmetric positive definite
        preconditioner, such as an `auxiliary_space_cycle`, and leaves r
        unchanged. Defaults to Jacobi, z = r / diag(A). The stopping rule
        and the best-iterate logic do not depend on M.
    kernel : integer label per unknown, where the constants on the unknowns
        of each label span ker A, such as the faces of each connected
        solid in the unconstrained face system. After every update the
        residual loses its mean over each label: rounding puts kernel
        components into the recursively updated residual, and unfiltered
        they grow until the residual stalls above `tol` (seen at 116k
        tets and beyond).

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
    if M is None:
        M = functools.partial(np.multiply, 1.0 / diag, out=np.empty(n))
    target = max(tol * b_norm, atol)
    if kernel is not None:
        if np.shape(kernel) != (n,):
            raise ValueError(f"kernel must have shape ({n},), got {np.shape(kernel)}")
        kernel_sizes = np.bincount(kernel)

    # x and x_prev alternate as the buffers of consecutive iterates, so the
    # best iterate is copied out only when the residual rises after it.
    x, x_prev = np.zeros(n), np.empty(n)
    r = b.copy()
    z = M(r)
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
        if kernel is not None:
            # one label, the common case, by a pairwise sum: about 6x
            # faster than bincount's running sum into a single bin
            r -= r.mean() if len(kernel_sizes) == 1 else \
                (np.bincount(kernel, weights=r) / kernel_sizes)[kernel]
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
        z = M(r)
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


def _inverse_diagonal(A) -> np.ndarray:
    """1 / diag(A), with 0 where the diagonal is at rounding level (a
    coarse dof that spans a kernel vector)."""
    d = A.diagonal()
    return np.divide(1.0, d, out=np.zeros_like(d),
                     where=d > 1e-12 * d.max(initial=0.0))


def _aggregates(A):
    """Aggregate index of every dof, and the aggregate count.

    The roots are a maximal set of dofs at pairwise graph distance 3 or
    more in the strong-connection graph, found in rounds: an undecided dof
    whose weight (a fixed scramble of its index) is the largest within
    distance 2 becomes a root, and everything within distance 2 of it is
    decided. Each root's neighbours join it, and the dofs left, all at
    distance 2 from a root, join the highest-numbered aggregate next to
    them.
    """
    n = A.shape[0]
    coo = A.tocoo()
    d = np.abs(A.diagonal())
    strong = np.abs(coo.data) > _STRONG * np.sqrt(d[coo.row] * d[coo.col])
    graph = (sp.csr_matrix((np.ones(int(strong.sum())),
                            (coo.row[strong], coo.col[strong])), shape=(n, n))
             + sp.identity(n, format="csr"))
    starts, neighbours = graph.indptr[:-1], graph.indices

    def neighbour_max(v):
        return np.maximum.reduceat(v[neighbours], starts)

    # distinct for n < 2^32, since the multiplier is odd
    weight = (np.arange(1, n + 1, dtype=np.uint64) * 2654435761) % 2**32
    undecided, root = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    while undecided.any():
        w = np.where(undecided, weight, 0)
        new = undecided & (neighbour_max(neighbour_max(w)) == w)
        root |= new
        undecided &= neighbour_max(neighbour_max(new.view(np.int8))) == 0
    agg = np.where(root, np.cumsum(root) - 1, -1)
    for _ in range(2):
        agg = np.where(agg < 0, neighbour_max(agg), agg)
    return agg, int(root.sum())


def _generalized_inverse(C: np.ndarray) -> np.ndarray:
    """Symmetric positive semi-definite G with C G C = C, for a small
    dense SPSD matrix C, by Gauss-Jordan sweeps.

    A pivot that has fallen to rounding level against its diagonal entry
    belongs to a column that depends on the columns swept before it, such
    as one vertex per connected solid of the unconstrained Laplacian,
    whose constants span its kernel. It is skipped, and its row and column
    of G stay zero: G inverts C on the swept columns and leaves out the
    near-zero eigenvalues of C. Plain numpy on purpose: the first LAPACK
    call of a process adds about 1 MB of library pages to its resident
    memory.
    """
    G = np.array(C, dtype=np.float64)
    diag = G.diagonal().copy()
    for k in range(len(G)):
        pivot = G[k, k]
        if not pivot > 1e-10 * diag[k]:
            G[k], G[:, k] = 0.0, 0.0
            continue
        row = G[k] / pivot
        G -= np.multiply.outer(G[:, k], row)
        G[k], G[:, k] = row, row
        G[k, k] = -1.0 / pivot
    return -0.5 * (G + G.T)


def _vertex_levels(L):
    """Smoothed-aggregation hierarchy of L, and a generalized inverse of
    its coarsest level.

    A level is (operator, Jacobi weights, prolongation, restriction). The
    prolongation smooths the aggregates' indicator vectors by one damped
    Jacobi step, so it keeps L's constants; the next operator is the
    Galerkin product. Every level bounds its lambda_max(D^-1 L) by
    Gershgorin, max_i sum_j |l_ij| / l_ii.
    """
    levels = []
    while L.shape[0] > _COARSE_DOFS:
        n = L.shape[0]
        agg, n_agg = _aggregates(L)
        if n_agg == n:
            break
        smooth = _inverse_diagonal(L)
        smooth *= _SMOOTHING / float((smooth * (abs(L) @ np.ones(n))).max())
        T = sp.csr_matrix((np.ones(n), (np.arange(n), agg)), shape=(n, n_agg))
        P = (T - sp.diags(smooth) @ (L @ T)).tocsr()
        levels.append((L, smooth, P.__matmul__, P.T.__matmul__))
        L = (P.T @ (L @ P)).tocsr()
    return levels, _generalized_inverse(L.toarray())


def _v_cycle(levels, coarse, b, k=0):
    """One symmetric V-cycle from level k for the rhs b, started at zero."""
    if k == len(levels):
        return coarse @ b
    A, smooth, prolong, restrict = levels[k]
    x = smooth * b
    r = A @ x
    np.subtract(b, r, out=r)
    x += prolong(_v_cycle(levels, coarse, restrict(r), k + 1))
    r = A @ x
    np.subtract(b, r, out=r)
    r *= smooth
    x += r
    return x


def auxiliary_space_cycle(A, P, L, bound: float):
    """The preconditioner z = M(r) of a face system A, for `solve_spsd`.

    One application is a damped Jacobi step on A, the restriction of the
    residual to the vertices, one smoothed-aggregation V-cycle on the
    vertex operator L, the prolongation of its result, and a second Jacobi
    step: a symmetric multiplicative cycle, positive definite on the whole
    space when `bound` bounds lambda_max(D^-1 A).

    A : CSR of the face system
    P : CSR that sets each of the system's faces to the mean of its
        vertex values, on the vertices the vertex operator keeps (for a
        boundary-constrained system, the interior faces and vertices)
    L : CSR of the vertex operator P^T A P
    bound : upper bound on lambda_max(D^-1 A) of the face system only
    """
    levels, coarse = _vertex_levels(L)
    face = (A, _SMOOTHING / bound * _inverse_diagonal(A), P.__matmul__,
            P.T.__matmul__)
    return functools.partial(_v_cycle, [face] + levels, coarse)
