"""Galerkin assembly of Gram matrices and projection right-hand sides.

All integrands are constant per tet, so every integral is exact; there is
no quadrature order anywhere. The engine solves a boundary-constrained
system on the interior block of the one Gram it assembles per space.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import FieldError
from .fem import DofMap, ElementTables
from .fields import Pcvf
from .mesh import TetMesh

__all__ = ["SparseSymMatrix", "assemble_gram", "assemble_rhs", "reconstruct"]

# Tets per assembly chunk; fixed so the summation order (and thus every
# bit of the result) never depends on the environment.
_CHUNK = 1 << 18


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric positive semi-definite matrix in CSR form."""

    csr: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def diagonal(self) -> np.ndarray:
        return self.csr.diagonal()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.csr @ x

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()


def _table_for(tables: ElementTables, dofmap: DofMap) -> np.ndarray:
    if dofmap.kind == "edge_based":
        return tables.ned_curls
    if dofmap.kind == "face_based":
        return tables.cr_gradients
    raise ValueError(f"unknown dof kind '{dofmap.kind}'")


def assemble_gram(mesh: TetMesh, tables: ElementTables,
                  dofmap: DofMap) -> SparseSymMatrix:
    """Gram matrix of the derivative basis: A_ij = sum_t vol(t) <d_i, d_j>."""
    table = _table_for(tables, dofmap)
    n = dofmap.n_dofs
    # COO indices in the dtype scipy keeps, so it makes no converted copies
    dofs = dofmap.tet_to_dof.astype(np.int32 if n < 2**31 else np.int64)

    acc = None
    for start in range(0, mesh.n_t, _CHUNK):
        sl = slice(start, min(start + _CHUNK, mesh.n_t))
        d = table[sl]
        blocks = np.einsum("tld,tmd->tlm", d, d)
        blocks *= mesh.volumes[sl, None, None]
        rows = np.broadcast_to(dofs[sl][:, :, None], blocks.shape).ravel()
        cols = np.broadcast_to(dofs[sl][:, None, :], blocks.shape).ravel()
        part = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        acc = part if acc is None else acc + part
    # a sum drops the zeros it makes; the first chunk's are dropped here
    acc.eliminate_zeros()
    acc.sum_duplicates()
    acc.sort_indices()
    return SparseSymMatrix(csr=acc)


def assemble_rhs(X: Pcvf, tables: ElementTables, dofmap: DofMap) -> np.ndarray:
    """Projection vector b_j = sum_t vol(t) <X_t, d_j>."""
    if X.mesh.n_t != tables.cr_gradients.shape[0]:
        raise FieldError("field and element tables belong to different meshes")
    table = _table_for(tables, dofmap)
    contrib = X.mesh.volumes[:, None] * np.einsum("td,tld->tl", X.vectors, table)
    return np.bincount(dofmap.tet_to_dof.ravel(), weights=contrib.ravel(),
                       minlength=dofmap.n_dofs)


def reconstruct(mesh: TetMesh, tables: ElementTables, dofmap: DofMap,
                coefficients: np.ndarray) -> Pcvf:
    """Map a coefficient vector to the piecewise constant field sum_i c_i d_i."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.shape != (dofmap.n_dofs,):
        raise ValueError(f"expected {dofmap.n_dofs} coefficients, "
                         f"got shape {coefficients.shape}")
    table = _table_for(tables, dofmap)
    local = coefficients[dofmap.tet_to_dof]                  # (n_t, k)
    return Pcvf(mesh, np.einsum("tl,tld->td", local, table))

