"""Tetrahedral simplicial complexes.

Connectivity (edge/face enumeration with a global orientation), boundary
classification, per-tet geometry, topology invariants, and voxel-based
generation of the built-in test domains.
"""

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import MeshError, NonManifoldError, TopologyError

__all__ = [
    "TetMesh",
    "MeshCounts",
    "BettiNumbers",
    "build_complex",
    "betti_numbers",
    "generate_voxel_domain",
    "DOMAIN_TOPOLOGY",
]

# Local simplex conventions: edge l connects the local vertex pair
# _LOCAL_EDGES[l]; face k is opposite local vertex k.
_LOCAL_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_LOCAL_FACES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])
# Tet-local edges of the face opposite each local vertex.
_FACE_EDGES = np.array([[j for j, e in enumerate(_LOCAL_EDGES) if k not in e]
                        for k in range(4)])

# Every connectivity array is int32, so a mesh holds at most this many
# vertices, edges, faces and tets.
_MAX_COUNT = 2**31 - 1


class MeshCounts(NamedTuple):
    n_v: int
    n_e: int
    n_f: int
    n_t: int
    n_bv: int
    n_be: int
    n_bf: int
    n_iv: int
    n_ie: int
    n_if: int


class BettiNumbers(NamedTuple):
    """Betti numbers (b0, b1, b2) of a solid embedded in 3-space."""

    b0: int
    b1: int
    b2: int

    @property
    def h2(self) -> int:
        """Dimension of the absolute second cohomology (number of cavities)."""
        return self.b2

    @property
    def h2_rel(self) -> int:
        """Dimension of the relative second cohomology (handles/tunnels)."""
        return self.b1


class TetMesh:
    """Immutable tetrahedral complex with global edge/face enumeration.

    Attributes
    ----------
    vertices : (n_v, 3) float array
    tets : (n_t, 4) int32 array, positively oriented
    edges : (n_e, 2) int32 array, each row (i, j) with i < j
    faces : (n_f, 3) int32 array, each row sorted ascending
    tet_edges : (n_t, 6) int32 array, global edge index per local edge
    tet_edge_signs : (n_t, 6) int8 array, +1 iff the local directed edge
        agrees with the global low-to-high orientation
    tet_faces : (n_t, 4) int32 array, global face index of the face opposite
        local vertex k
    boundary_vertex, boundary_edge, boundary_face : boolean masks
    volumes : (n_t,) positive tet volumes
    """

    def __init__(self, vertices, tets, edges, faces, tet_edges, tet_edge_signs,
                 tet_faces, boundary_vertex, boundary_edge, boundary_face, volumes):
        self.vertices = vertices
        self.tets = tets
        self.edges = edges
        self.faces = faces
        self.tet_edges = tet_edges
        self.tet_edge_signs = tet_edge_signs
        self.tet_faces = tet_faces
        self.boundary_vertex = boundary_vertex
        self.boundary_edge = boundary_edge
        self.boundary_face = boundary_face
        self.volumes = volumes
        for a in (vertices, tets, edges, faces, tet_edges, tet_edge_signs,
                  tet_faces, boundary_vertex, boundary_edge, boundary_face, volumes):
            a.setflags(write=False)

    @property
    def n_v(self) -> int:
        return len(self.vertices)

    @property
    def n_e(self) -> int:
        return len(self.edges)

    @property
    def n_f(self) -> int:
        return len(self.faces)

    @property
    def n_t(self) -> int:
        return len(self.tets)

    @property
    def counts(self) -> MeshCounts:
        n_bv = int(self.boundary_vertex.sum())
        n_be = int(self.boundary_edge.sum())
        n_bf = int(self.boundary_face.sum())
        return MeshCounts(self.n_v, self.n_e, self.n_f, self.n_t,
                          n_bv, n_be, n_bf,
                          self.n_v - n_bv, self.n_e - n_be, self.n_f - n_bf)

    @property
    def euler_characteristic(self) -> int:
        return self.n_v - self.n_e + self.n_f - self.n_t

    # The two graphs the topology is read from, each labelled once per mesh.
    # A property that raises caches nothing, so a pinched mesh raises again.

    @cached_property
    def _tet_forest(self):
        """Spanning forest of the tet adjacency graph, whose edges are the
        interior faces in `_interior_face_tets` order: (count, label per
        tet, in_forest per interior face)."""
        owner, _, other = _interior_face_tets(self)
        count, label, in_forest = _spanning_forest(self.n_t, owner, other)
        label.setflags(write=False)
        in_forest.setflags(write=False)
        return count, label, in_forest

    @cached_property
    def _boundary_surfaces(self):
        """The boundary faces labelled by the closed surface they lie on.

        Two boundary faces lie on one surface when they share a boundary
        edge.

        Returns
        -------
        (bface_ids, face_label, n_surf)
            The boundary face indices, the surface label of each of them,
            and the number of surfaces.

        Raises
        ------
        NonManifoldError
            If there is no boundary, or a boundary edge does not have
            exactly two boundary faces.
        """
        bface_ids = np.flatnonzero(self.boundary_face)
        n_bf = len(bface_ids)
        if n_bf == 0:
            raise NonManifoldError("complex has no boundary (not a solid in 3-space)")
        edges = _boundary_face_edges(self.tet_faces, self.tet_edges,
                                     self.boundary_face).ravel()
        # entry i of `edges` is an edge of boundary face i // 3
        order = np.argsort(edges, kind="stable")
        edges = edges[order]
        starts = np.flatnonzero(np.r_[True, edges[1:] != edges[:-1]])
        group_sizes = np.diff(np.r_[starts, len(edges)])
        if (group_sizes != 2).any():
            raise NonManifoldError("boundary edge without exactly two boundary "
                                   "faces (pinched boundary)")
        n_surf, face_label, _ = _spanning_forest(n_bf, order[starts] // 3,
                                                 order[starts + 1] // 3)
        for a in (bface_ids, face_label):
            a.setflags(write=False)
        return bface_ids, face_label, n_surf

    def total_volume(self) -> float:
        return float(self.volumes.sum())

    def barycenters(self) -> np.ndarray:
        # bit-equal to vertices[tets].mean(axis=1), without its n_t x 4 x 3
        # gather
        b = self.vertices[self.tets[:, 0]]
        for k in (1, 2, 3):
            b += self.vertices[self.tets[:, k]]
        b /= 4
        return b

    def __repr__(self):
        c = self.counts
        return (f"TetMesh(n_v={c.n_v}, n_e={c.n_e}, n_f={c.n_f}, n_t={c.n_t}, "
                f"boundary_faces={c.n_bf})")


def build_complex(vertices, tets) -> TetMesh:
    """Build a validated tetrahedral complex from raw connectivity.

    Edges and faces are deduplicated with a canonical vertex ordering
    (edges oriented low-to-high global index, faces sorted ascending) and
    tets are reordered so that their signed volume is positive.

    Parameters
    ----------
    vertices : array_like (n_v, 3)
    tets : array_like (n_t, 4) of vertex indices

    Raises
    ------
    MeshError
        Non-finite coordinates, out-of-range or unused vertex indices,
        degenerate tets.
    NonManifoldError
        Duplicate tets or a face shared by three or more tets.
    """
    vertices = np.ascontiguousarray(np.asarray(vertices, dtype=np.float64))
    tets = np.ascontiguousarray(np.asarray(tets, dtype=np.int64))
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise MeshError("vertices must be an (n, 3) array")
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        v = int(np.argmin(finite))
        raise MeshError(f"vertex {v} has a non-finite coordinate "
                        f"{vertices[v].tolist()}")
    if tets.ndim != 2 or tets.shape[1] != 4 or len(tets) == 0:
        raise MeshError("at least one tetrahedron (4 vertex indices) is required")
    n_v = len(vertices)
    _check_count(n_v, "vertices")
    _check_count(len(tets), "tets")
    if tets.min() < 0 or tets.max() >= n_v:
        raise MeshError("tetrahedron vertex index out of range")
    used = np.zeros(n_v, dtype=bool)
    used[tets] = True
    if not used.all():
        raise MeshError(f"{int((~used).sum())} vertices are not referenced by any tet")

    canon = np.sort(tets, axis=1)
    canon = canon[np.lexsort(canon.T)]
    if (canon[1:] == canon[:-1]).all(axis=1).any():
        raise NonManifoldError("duplicate tetrahedron (same vertex set appears twice)")
    del canon

    # Scale-invariant degeneracy guard relative to the bounding box.
    span = vertices.max(axis=0) - vertices.min(axis=0)
    diag = float(np.linalg.norm(span))
    eps_vol = 1e-12 * diag**3

    det = np.linalg.det(vertices[tets[:, 1:]] - vertices[tets[:, :1]])
    volumes = np.abs(det) / 6.0
    if (volumes <= eps_vol).any():
        t = int(np.argmax(volumes <= eps_vol))
        raise MeshError(f"degenerate tetrahedron {t} (volume {volumes[t]:.3e} "
                        f"<= threshold {eps_vol:.3e})")
    flip = det < 0.0
    del det
    if flip.any():
        tets = tets.copy()
        tmp = tets[flip, 2].copy()
        tets[flip, 2] = tets[flip, 3]
        tets[flip, 3] = tmp

    # The keys are int64 and every stored index array int32; each
    # temporary is dropped as soon as it is used, since the face
    # enumeration sets the memory peak of a build.
    n_t = len(tets)

    ev = tets[:, _LOCAL_EDGES]                          # (n_t, 6, 2)
    tet_edge_signs = np.where(ev[..., 0] < ev[..., 1], 1, -1).astype(np.int8)
    ekey = ev.min(axis=-1) * n_v + ev.max(axis=-1)
    del ev
    edge_keys, tet_edges = _enumerate(ekey, "edges")
    del ekey

    # A face i < j < k is (number of its lowest edge (i, j), k); edges are
    # numbered in (i, j) order, so faces come in (i, j, k) order, and the
    # keys stay below n_e * n_v < 2**62.
    fkey = tet_edges[:, _FACE_EDGES].min(axis=-1) * np.int64(n_v) + \
        tets[:, _LOCAL_FACES].max(axis=-1)
    face_keys, tet_faces = _enumerate(fkey, "faces")
    del fkey
    low = edge_keys[face_keys // n_v]
    faces = np.stack([low // n_v, low % n_v, face_keys % n_v], axis=1)
    del face_keys, low

    incidence = np.bincount(tet_faces.ravel(), minlength=len(faces))
    if (incidence > 2).any():
        f = int(np.argmax(incidence > 2))
        raise NonManifoldError(f"face {tuple(faces[f])} is shared by "
                               f"{int(incidence[f])} tets")
    boundary_face = incidence == 1

    boundary_vertex = np.zeros(n_v, dtype=bool)
    boundary_vertex[faces[boundary_face]] = True
    boundary_edge = np.zeros(len(edge_keys), dtype=bool)
    boundary_edge[_boundary_face_edges(tet_faces, tet_edges, boundary_face)] = True
    edges = np.stack([edge_keys // n_v, edge_keys % n_v], axis=1)

    return TetMesh(vertices, tets.astype(np.int32), edges.astype(np.int32),
                   faces.astype(np.int32), tet_edges, tet_edge_signs, tet_faces,
                   boundary_vertex, boundary_edge, boundary_face, volumes)


def _check_count(n: int, what: str):
    if n > _MAX_COUNT:
        raise MeshError(f"{n} {what}: a mesh holds at most {_MAX_COUNT} "
                        "(its indices are int32)")


def _enumerate(keys, what: str):
    """The distinct entries of `keys`, ascending, and the int32 number of
    each entry among them, in the shape of `keys`."""
    distinct, number = np.unique(keys, return_inverse=True)
    _check_count(len(distinct), what)
    return distinct, number.reshape(keys.shape).astype(np.int32)


def _boundary_face_edges(tet_faces, tet_edges, boundary_face):
    """(n_bf, 3): each boundary face's edge numbers, read from its one tet."""
    flat = tet_faces.ravel()
    slot = np.flatnonzero(boundary_face[flat])
    slot = slot[np.argsort(flat[slot])]             # in face order
    return tet_edges[slot[:, None] // 4, _FACE_EDGES[slot % 4]]


def _interior_face_tets(mesh: TetMesh):
    """The two tets of each interior face: (owner, slot, other), where the
    owner is the lower-indexed tet and the face is its local face `slot`."""
    flat = mesh.tet_faces.ravel()
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    pair = np.flatnonzero(flat[1:] == flat[:-1])
    del flat
    first, second = order[pair], order[pair + 1]
    del order, pair
    return ((first // 4).astype(np.int32), (first % 4).astype(np.int32),
            (second // 4).astype(np.int32))


def _spanning_forest(n: int, a, b):
    """Components and minimum spanning forest of the graph on the nodes
    0..n-1 whose edge i joins a[i] and b[i] and weighs i.

    Borůvka rounds: each component's root picks its lowest-index crossing
    edge and hooks to the root at the edge's other end; when two roots
    pick the same edge, the lower one stays a root. Pointer jumping then
    points every node at its new root. The weights are distinct, so the
    forest is unique: the one scipy.sparse.csgraph.minimum_spanning_tree
    finds for weights 1..len(a).

    Returns
    -------
    (count, label, in_forest)
        The number of components, the component of each node (numbered
        by their lowest node, as scipy.sparse.csgraph.connected_components
        numbers them) and a mask of the forest's edges.
    """
    m = len(a)
    # 4-byte indices halve the temporaries (at 1M tets 8-byte ones left
    # about 20 MB of heap resident after the call); every count of a mesh
    # fits them
    idx = np.int32
    parent = np.arange(n, dtype=idx)
    in_forest = np.zeros(m, dtype=bool)
    # per root, the position in `live` of its lightest crossing edge (m: none)
    best = np.full(n, m, dtype=idx)
    # the crossing edges, ascending, and the roots of their two ends
    live = np.arange(m, dtype=idx)
    ra, rb = a.astype(idx, copy=False), b.astype(idx, copy=False)
    while True:
        cross = ra != rb
        live, ra, rb = live[cross], ra[cross], rb[cross]
        if not len(live):
            break
        pos = np.arange(len(live), dtype=idx)
        np.minimum.at(best, ra, pos)
        np.minimum.at(best, rb, pos)
        roots = np.flatnonzero(best < m)
        pick = best[roots]
        in_forest[live[pick]] = True
        ends = ra[pick], rb[pick]
        other = np.where(ends[0] == roots, ends[1], ends[0])
        hook = (best[other] != pick) | (other < roots)
        best[roots] = m
        parent[roots[hook]] = other[hook]
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent = up
        ra, rb = parent[ra], parent[rb]
    low = np.full(n, n, dtype=idx)
    np.minimum.at(low, parent, np.arange(n, dtype=idx))
    low = low[parent]
    first = low == np.arange(n)
    return int(first.sum()), (np.cumsum(first, dtype=idx) - 1)[low], in_forest


def betti_numbers(mesh: TetMesh) -> BettiNumbers:
    """Betti numbers (b0, b1, b2) from boundary-surface Euler characteristics.

    Valid for compact solids embedded in 3-space: b0 is the number of
    connected solids, b1 the total genus of the boundary surfaces
    (handles/tunnels), b2 the number of cavities. The result's `h2` and
    `h2_rel` name the harmonic-space dimensions these induce.

    Raises
    ------
    NonManifoldError
        If a boundary edge does not have exactly two boundary faces, a
        boundary component has odd Euler characteristic, or the interior
        Euler characteristic is inconsistent with the boundary's.
    """
    n_v = mesh.n_v
    b0 = mesh._tet_forest[0]
    bface_ids, face_label, n_surf = mesh._boundary_surfaces

    f_per = np.bincount(face_label, minlength=n_surf)
    # each boundary edge joins exactly two faces, of one surface
    e_per = 3 * f_per // 2
    # Vertices counted once per (surface component, vertex) pair.
    pair = face_label[:, None] * np.int64(n_v) + mesh.faces[bface_ids]
    upair = np.unique(pair)
    v_per = np.bincount((upair // n_v).astype(np.intp), minlength=n_surf)

    chi = v_per - e_per + f_per
    if (chi % 2 != 0).any():
        raise NonManifoldError("boundary component with odd Euler characteristic "
                               "(non-manifold input)")
    genus = (2 - chi) // 2
    if (genus < 0).any():
        raise NonManifoldError("boundary component with negative genus")
    if 2 * mesh.euler_characteristic != int(chi.sum()):
        raise NonManifoldError("Euler characteristic of the solid does not match "
                               "half the boundary's (non-manifold input)")
    return BettiNumbers(b0=b0, b1=int(genus.sum()), b2=n_surf - b0)


# --- voxel domain generation -------------------------------------------------

# Corner codes: bit 0 -> +x, bit 1 -> +y, bit 2 -> +z.
_CUBE_OFFSETS = np.array([[(c >> 0) & 1, (c >> 1) & 1, (c >> 2) & 1]
                          for c in range(8)])

# Six tets per cube sharing the main diagonal (corner 0 to corner 7); one tet
# per axis permutation, compatible across adjacent cubes.
_KUHN_TETS = np.array([
    [0, 1, 3, 7],   # x, y, z
    [0, 1, 5, 7],   # x, z, y
    [0, 2, 3, 7],   # y, x, z
    [0, 2, 6, 7],   # y, z, x
    [0, 4, 5, 7],   # z, x, y
    [0, 4, 6, 7],   # z, y, x
])

DOMAIN_TOPOLOGY = {
    "ball": (1, 0, 0),
    "ball_with_cavity": (1, 0, 1),
    "solid_torus": (1, 1, 0),
    "cylinder": (1, 0, 0),
    "box": (1, 0, 0),
}


def _onto_sphere(p, r):
    """Closest points on the sphere of radius r about the origin (the
    origin itself maps to the north pole)."""
    n = np.linalg.norm(p, axis=1, keepdims=True)
    pole = np.broadcast_to([0.0, 0.0, 1.0], p.shape)
    return r * np.divide(p, n, out=pole.copy(), where=n > 0.0)


def _radial_unit(p):
    """Unit vectors (x, y) / rho in the xy-plane; +x on the z axis."""
    rho = np.hypot(p[:, 0], p[:, 1])[:, None]
    east = np.broadcast_to([1.0, 0.0], (len(p), 2))
    return np.divide(p[:, :2], rho, out=east.copy(), where=rho > 0.0), rho[:, 0]


def _domain_shape(domain: str, params: dict):
    """Indicator, half-extent bounds and closest-surface-point map of a
    named domain.

    The closest-point map takes an (n, 3) array of points and returns the
    closest points on the domain's smooth boundary surface; it is defined
    everywhere, including the points where the closest point is not
    unique (the center of a ball, the axis of a cylinder, ...).
    """
    if domain == "ball":
        r = params.pop("radius", 1.0)
        return (lambda x, y, z: x * x + y * y + z * z < r * r), (r, r, r), \
            (lambda p: _onto_sphere(p, r))
    if domain == "ball_with_cavity":
        r = params.pop("radius", 1.0)
        rc = params.pop("cavity_radius", 0.3)
        if not 0.0 < rc < r:
            raise MeshError("cavity_radius must lie strictly between 0 and radius")

        def ind(x, y, z, r=r, rc=rc):
            q = x * x + y * y + z * z
            return (q < r * r) & (q > rc * rc)

        def closest(p):
            inner = np.linalg.norm(p, axis=1, keepdims=True) < 0.5 * (r + rc)
            return np.where(inner, _onto_sphere(p, rc), _onto_sphere(p, r))

        return ind, (r, r, r), closest
    if domain == "solid_torus":
        ring = params.pop("ring_radius", 1.0)
        tube = params.pop("tube_radius", 0.4)
        if not 0.0 < tube < ring:
            raise MeshError("tube_radius must lie strictly between 0 and ring_radius")

        def ind(x, y, z, ring=ring, tube=tube):
            rho = np.sqrt(x * x + y * y)
            return (rho - ring) ** 2 + z * z < tube * tube

        def closest(p):
            u, _ = _radial_unit(p)
            core = np.column_stack([ring * u, np.zeros(len(p))])
            return core + _onto_sphere(p - core, tube)

        return ind, (ring + tube, ring + tube, tube), closest
    if domain == "cylinder":
        r = params.pop("radius", 1.0)
        hz = params.pop("height", 2.0) / 2.0

        def closest(p):
            u, rho = _radial_unit(p)
            z = p[:, 2]
            side, cap = r - rho, hz - np.abs(z)
            inside = (side >= 0.0) & (cap >= 0.0)
            to_side = (side < 0.0) | (inside & (side <= cap))
            to_cap = (cap < 0.0) | (inside & (side > cap))
            xy = np.where(to_side[:, None], r * u, p[:, :2])
            return np.column_stack([xy, np.where(to_cap, np.copysign(hz, z), z)])

        return (lambda x, y, z: (x * x + y * y < r * r) & (np.abs(z) < hz)), \
            (r, r, hz), closest
    if domain == "box":
        ext = params.pop("extents", (1.0, 1.0, 1.0))
        half = np.array(ext, dtype=np.float64) / 2
        if half.shape != (3,):
            raise MeshError("extents must be three lengths")

        def closest(p):
            q = np.clip(p, -half, half)
            inside = (np.abs(p) <= half).all(axis=1)
            rows = np.flatnonzero(inside)
            axis = np.argmin(half - np.abs(p[rows]), axis=1)
            q[rows, axis] = np.copysign(half[axis], p[rows, axis])
            return q

        return (lambda x, y, z: (np.abs(x) < half[0]) & (np.abs(y) < half[1])
                & (np.abs(z) < half[2])), tuple(half), closest
    raise MeshError(f"unknown domain '{domain}' "
                    f"(choose from {sorted(DOMAIN_TOPOLOGY)})")


# A fitted tet keeps at least this fraction of its voxel volume.
_MIN_KEEP = 0.3


def _fit_boundary(verts, tets, boundary, closest):
    """Move the boundary vertices toward the smooth surface.

    Each boundary vertex starts at its full move to `closest`; a vertex's
    move is halved while any tet incident to it keeps less than _MIN_KEEP
    of its (signed) voxel volume. Only the tets that touch a boundary
    vertex are evaluated.
    """
    ids = np.flatnonzero(boundary)
    move = closest(verts[ids]) - verts[ids]
    near = tets[boundary[tets].any(axis=1)]

    def signed_volumes(v):
        return np.linalg.det(v[near[:, 1:]] - v[near[:, :1]])

    voxel = signed_volumes(verts)
    scale = np.ones(len(verts))     # only the boundary entries are used
    fitted = verts.copy()
    while True:
        fitted[ids] = verts[ids] + scale[ids, None] * move
        thin = signed_volumes(fitted) / voxel < _MIN_KEEP
        if not thin.any():
            return fitted
        scale[near[thin]] *= 0.5    # once per vertex, however many thin tets


def _voxel_complex(domain, indicator, half_extent, h):
    """Vertices, int32 tets and boundary-vertex mask of the Kuhn split of
    every lattice cube whose center the indicator keeps. The lattice's
    temporaries are freed on return, before the complex is built."""
    lo = [int(np.floor(-ext / h)) - 1 for ext in half_extent]
    hi = [int(np.ceil(ext / h)) + 1 for ext in half_extent]
    # the cube centers of each axis, which the indicator broadcasts
    centers = [(np.arange(a, b + 1) + 0.5) * h for a, b in zip(lo, hi)]
    kept = np.argwhere(indicator(*np.ix_(*centers))) + lo     # (K, 3), C order
    if not len(kept):
        raise TopologyError(f"domain '{domain}' contains no voxel centers at h={h}")

    corners = kept[:, None, :] + _CUBE_OFFSETS                # (K, 8, 3)
    base = np.array(lo) - 1
    dims = [b - a + 3 for a, b in zip(lo, hi)]
    keys = np.ravel_multi_index(np.moveaxis(corners - base, -1, 0), dims)
    ukeys, corner_ids = _enumerate(keys, "vertices")
    verts = (np.stack(np.unravel_index(ukeys, dims), axis=1) + base) * float(h)
    # a lattice vertex is on the boundary iff a cube around it is not kept
    boundary = np.bincount(corner_ids.ravel(), minlength=len(verts)) < 8
    return verts, corner_ids[:, _KUHN_TETS].reshape(-1, 4), boundary


_FITS = ("surface", "voxel")


def generate_voxel_domain(domain: str, h: float, fit: str = "surface",
                          **params) -> TetMesh:
    """Generate one of the built-in test domains from a voxel lattice.

    Every lattice cube whose center lies inside the domain's indicator
    function is split into 6 tets sharing the cube's main diagonal, which
    keeps the face diagonals of adjacent cubes compatible. With
    fit="surface" (the default) every boundary vertex is then moved toward
    the closest point of the domain's smooth surface, as far as each
    incident tet keeps at least 30% of its voxel volume; connectivity and
    orientation stay those of the voxel mesh. fit="voxel" leaves every
    vertex on the lattice (a staircase boundary). The resulting complex is
    validated and its Betti numbers are checked against the domain's known
    topology.

    Parameters
    ----------
    domain : one of "ball", "ball_with_cavity", "solid_torus", "cylinder", "box"
    h : voxel edge length (must resolve the domain's features)
    fit : "surface" (boundary-fitted) or "voxel" (lattice staircase)
    **params : domain parameters, e.g. radius=1.0, cavity_radius=0.3,
        ring_radius=1.0, tube_radius=0.4, height=2.0, extents=(1, 1, 1)

    Raises
    ------
    MeshError
        If h is not positive, or a domain parameter is unknown, out of
        range or not finite, or if the lattice would have 2**63 corners
        or more.
    TopologyError
        If the voxelization is empty or its Betti numbers do not match the
        declared topology of the domain (h too coarse).
    """
    if not h > 0.0:
        raise MeshError("voxel size h must be positive")
    if fit not in _FITS:
        raise MeshError(f"unknown fit '{fit}' (choose from {list(_FITS)})")
    params = dict(params)
    indicator, half_extent, closest = _domain_shape(domain, params)
    if params:
        raise MeshError(f"unknown parameters for domain '{domain}': {sorted(params)}")
    if not np.isfinite(half_extent).all():
        raise MeshError(f"the size parameters of domain '{domain}' must be finite")
    # the corner keys below are int64; an axis spans 2 ceil(ext / h) + 5
    # corners
    spans = [float(ext) / float(h) for ext in half_extent]
    if not all(map(math.isfinite, spans)) or \
            math.prod(2 * math.ceil(s) + 5 for s in spans) >= 2**63:
        raise MeshError(f"h={h} is too small for domain '{domain}': its "
                        "lattice would have 2**63 corners or more")

    verts, tets, boundary = _voxel_complex(domain, indicator, half_extent, h)
    if fit == "surface":
        verts = _fit_boundary(verts, tets, boundary, closest)

    mesh = build_complex(verts, tets)
    expected = DOMAIN_TOPOLOGY[domain]
    found = betti_numbers(mesh)
    if tuple(found) != expected:
        raise TopologyError(f"domain '{domain}' not resolved at h={h}: Betti numbers "
                            f"{tuple(found)} != expected {expected}")
    return mesh
