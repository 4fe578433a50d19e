"""Galerkin assembly of Gram matrices and projection right-hand sides.

All integrands are constant per tet, so every integral is exact; there is
no quadrature order anywhere. The engine solves a boundary-constrained
system on the interior block of the one Gram it assembles per space.
"""

import operator
from dataclasses import dataclass
from functools import reduce

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
    def nnz(self) -> int:
        return self.csr.nnz


def _table_for(tables: ElementTables, dofmap: DofMap) -> np.ndarray:
    if dofmap.kind == "edge_based":
        return tables.ned_curls
    if dofmap.kind == "face_based":
        return tables.cr_gradients
    raise ValueError(f"unknown dof kind '{dofmap.kind}'")


def _chunk_gram(table, volumes, dofs, n: int) -> sp.csr_matrix:
    """The Gram of the tets whose rows `table`, `volumes` and `dofs` hold."""
    blocks = np.einsum("tld,tmd->tlm", table, table)
    blocks *= volumes[:, None, None]
    rows = np.broadcast_to(dofs[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], blocks.shape).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble_gram(mesh: TetMesh, tables: ElementTables,
                  dofmap: DofMap) -> SparseSymMatrix:
    """Gram matrix of the derivative basis: A_ij = sum_t vol(t) <d_i, d_j>."""
    table = _table_for(tables, dofmap)
    chunks = (slice(start, start + _CHUNK) for start in range(0, mesh.n_t, _CHUNK))
    # each chunk's temporaries die with its call, before the sum
    acc = reduce(operator.add, (
        _chunk_gram(table[sl], mesh.volumes[sl], dofmap.tet_to_dof[sl],
                    dofmap.n_dofs) for sl in chunks))
    # a sum drops the zeros it makes; the first chunk's are dropped here.
    # tocsr() chunks and their sums are canonical: sorted, no duplicates
    acc.eliminate_zeros()
    # scipy keeps a pruned array as a view of its unpruned buffer while the
    # view is at least half of it, so the face Gram's 16 entries per tet,
    # summed to 10-11, would keep the rest alive with the engine
    for name in ("data", "indices"):
        if getattr(acc, name).base is not None:
            setattr(acc, name, getattr(acc, name).copy())
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

