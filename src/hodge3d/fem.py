"""Element tables for the edge-based and face-based ansatz spaces.

For lowest-order elements both projection targets are themselves piecewise
constant: the gradient of a Crouzeix-Raviart function and the curl of a
Nedelec edge function are constant on every tet. Only these derivative
tables are built; basis values are never needed.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import TetMesh, _LOCAL_EDGES

__all__ = ["DofMap", "ElementTables", "build_element_tables", "barycentric_gradients"]


@dataclass(frozen=True)
class DofMap:
    """Global degree-of-freedom layout of one ansatz space.

    kind : "edge_based" (one dof per edge) or "face_based" (one per face)
    interior_mask : True where the carrying simplex is interior; the
        boundary-constrained subspace keeps exactly the interior dofs.
    tet_to_dof : (n_t, k) global dof index per tet-local edge/face
    """

    kind: str
    n_dofs: int
    interior_mask: np.ndarray
    tet_to_dof: np.ndarray


@dataclass(frozen=True)
class ElementTables:
    """Per-tet constant derivative vectors of the two basis families.

    cr_gradients : (n_t, 4, 3) gradient of the face-barycenter basis
        function associated with the face opposite local vertex k;
        equals -3 * grad(phi_k).
    ned_curls : (n_t, 6, 3) curl of the global edge basis function on each
        tet-local edge, already corrected to the global low-to-high edge
        orientation: 2 * grad(phi_i) x grad(phi_j) for the edge (i, j).
    """

    cr_gradients: np.ndarray
    ned_curls: np.ndarray


def barycentric_gradients(mesh: TetMesh) -> np.ndarray:
    """(n_t, 4, 3) hat-function gradients for all tets at once."""
    v = mesh.vertices
    edge_mat = v[mesh.tets[:, 1:]] - v[mesh.tets[:, :1]]     # rows v_j - v_0
    inv = np.linalg.inv(edge_mat)
    grads = np.empty((mesh.n_t, 4, 3))
    grads[:, 1:, :] = np.transpose(inv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads


def build_element_tables(mesh: TetMesh):
    """Build derivative tables and dof maps for both ansatz spaces.

    Returns
    -------
    (ElementTables, DofMap, DofMap)
        The tables plus the edge-based and face-based dof maps.
    """
    grads = barycentric_gradients(mesh)

    cr_gradients = -3.0 * grads

    a = _LOCAL_EDGES[:, 0]
    b = _LOCAL_EDGES[:, 1]
    cross = 2.0 * np.cross(grads[:, a, :], grads[:, b, :])   # (n_t, 6, 3)
    ned_curls = mesh.tet_edge_signs[:, :, None] * cross

    dof_edge = DofMap(kind="edge_based",
                      n_dofs=mesh.n_e,
                      interior_mask=~mesh.boundary_edge,
                      tet_to_dof=mesh.tet_edges)
    dof_face = DofMap(kind="face_based",
                      n_dofs=mesh.n_f,
                      interior_mask=~mesh.boundary_face,
                      tet_to_dof=mesh.tet_faces)
    for arr in (cr_gradients, ned_curls):
        arr.setflags(write=False)
    return ElementTables(cr_gradients=cr_gradients, ned_curls=ned_curls), \
        dof_edge, dof_face
