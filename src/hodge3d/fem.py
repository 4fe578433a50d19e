"""Element tables for the edge-based and face-based ansatz spaces.

For lowest-order elements both projection targets are themselves piecewise
constant: the gradient of a Crouzeix-Raviart function and the curl of a
Nedelec edge function are constant on every tet. Only these derivative
tables are built; basis values are never needed.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import TetMesh, _LOCAL_EDGES

__all__ = ["DofMap", "ElementTables", "build_element_tables", "barycentric_gradients"]

# Tets per table chunk; a tet's entries do not depend on it.
_CHUNK = 4096


@dataclass(frozen=True)
class DofMap:
    """Global degree-of-freedom layout of one ansatz space.

    kind : "edge_based" (one dof per edge) or "face_based" (one per face)
    interior_mask : True where the carrying simplex is interior; the
        boundary-constrained subspace keeps exactly the interior dofs.
    tet_to_dof : (n_t, k) int32 global dof index per tet-local edge/face:
        the mesh's own tet_edges or tet_faces
    """

    kind: str
    n_dofs: int
    interior_mask: np.ndarray
    tet_to_dof: np.ndarray


@dataclass(frozen=True)
class ElementTables:
    """Per-tet constant derivative vectors of the two basis families.

    mesh : the mesh whose tets the rows follow
    cr_gradients : (n_t, 4, 3) gradient of the face-barycenter basis
        function associated with the face opposite local vertex k;
        equals -3 * grad(phi_k).
    ned_curls : (n_t, 6, 3) curl of the global edge basis function on each
        tet-local edge, already corrected to the global low-to-high edge
        orientation: 2 * grad(phi_i) x grad(phi_j) for the edge (i, j).
        Built from `mesh` on first read: only the curl projections read it.
    """

    mesh: TetMesh
    cr_gradients: np.ndarray

    @cached_property
    def ned_curls(self) -> np.ndarray:
        mesh = self.mesh
        a, b = _LOCAL_EDGES.T
        out = np.empty((mesh.n_t, 6, 3))
        for sl in _chunks(mesh.n_t):
            grads = _gradients(mesh.vertices, mesh.tets[sl])
            np.multiply(mesh.tet_edge_signs[sl, :, None],
                        2.0 * np.cross(grads[:, a, :], grads[:, b, :]),
                        out=out[sl])
        out.setflags(write=False)
        return out


def _chunks(n: int):
    """Slices of at most _CHUNK tets that cover range(n), in order."""
    return (slice(start, min(start + _CHUNK, n))
            for start in range(0, n, _CHUNK))


def _gradients(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """(len(tets), 4, 3) hat-function gradients of the given tets."""
    edge_mat = vertices[tets[:, 1:]] - vertices[tets[:, :1]]  # rows v_j - v_0
    inv = np.linalg.inv(edge_mat)
    grads = np.empty((len(tets), 4, 3))
    grads[:, 1:, :] = np.transpose(inv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads


def barycentric_gradients(mesh: TetMesh) -> np.ndarray:
    """(n_t, 4, 3) hat-function gradients for all tets at once."""
    return _gradients(mesh.vertices, mesh.tets)


def build_element_tables(mesh: TetMesh):
    """Build derivative tables and dof maps for both ansatz spaces.

    The tables are built _CHUNK tets at a time, so their temporaries stay
    small; every tet is computed alone, so the chunk does not change a bit.

    Returns
    -------
    (ElementTables, DofMap, DofMap)
        The tables plus the edge-based and face-based dof maps.
    """
    cr_gradients = np.empty((mesh.n_t, 4, 3))
    for sl in _chunks(mesh.n_t):
        np.multiply(-3.0, _gradients(mesh.vertices, mesh.tets[sl]),
                    out=cr_gradients[sl])
    cr_gradients.setflags(write=False)

    dof_edge = DofMap(kind="edge_based",
                      n_dofs=mesh.n_e,
                      interior_mask=~mesh.boundary_edge,
                      tet_to_dof=mesh.tet_edges)
    dof_face = DofMap(kind="face_based",
                      n_dofs=mesh.n_f,
                      interior_mask=~mesh.boundary_face,
                      tet_to_dof=mesh.tet_faces)
    return ElementTables(mesh=mesh, cr_gradients=cr_gradients), \
        dof_edge, dof_face
