import warnings

import numpy as np
import pytest

import hodge3d as h
from hodge3d.errors import MeshError, NonManifoldError, TopologyError

from conftest import REF_VERTS
from oracles import betti_gf2


def test_reference_tet_counts(ref_tet):
    c = ref_tet.counts
    assert (c.n_v, c.n_e, c.n_f, c.n_t) == (4, 6, 4, 1)
    # a single tet is all boundary
    assert (c.n_bv, c.n_be, c.n_bf) == (4, 6, 4)
    assert (c.n_iv, c.n_ie, c.n_if) == (0, 0, 0)


def test_two_tet_counts(two_tet):
    c = two_tet.counts
    assert (c.n_v, c.n_e, c.n_f, c.n_t) == (5, 9, 7, 2)
    assert c.n_if == 1
    assert c.n_ie == 0


def test_duplicate_tet_rejected():
    with pytest.raises(NonManifoldError):
        h.build_complex(REF_VERTS, [(0, 1, 2, 3), (1, 0, 3, 2)])


def test_three_tets_on_one_face_rejected():
    verts = REF_VERTS + [(1.0, 1.0, 1.0), (-1.0, -1.0, -1.0)]
    with pytest.raises(NonManifoldError):
        h.build_complex(verts, [(0, 1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 5)])


def test_out_of_range_index():
    with pytest.raises(MeshError):
        h.build_complex(REF_VERTS, [(0, 1, 2, 7)])


def test_degenerate_tet_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]  # coplanar
    with pytest.raises(MeshError):
        h.build_complex(verts, [(0, 1, 2, 3)])
    with pytest.raises(MeshError):
        h.build_complex(REF_VERTS, [(0, 1, 2, 2)])  # repeated vertex


def test_unused_vertex_rejected():
    with pytest.raises(MeshError):
        h.build_complex(REF_VERTS + [(5.0, 5.0, 5.0)], [(0, 1, 2, 3)])


def test_empty_tets_rejected():
    with pytest.raises(MeshError):
        h.build_complex(REF_VERTS, np.zeros((0, 4), dtype=int))


def test_negative_orientation_fixed():
    mesh = h.build_complex(REF_VERTS, [(0, 1, 3, 2)])  # negative volume order
    assert mesh.volumes[0] > 0
    assert sorted(mesh.tets[0]) == [0, 1, 2, 3]


def test_barycentric_gradients_reference(ref_tet):
    grads = h.barycentric_gradients(ref_tet)[0]
    assert ref_tet.volumes[0] == pytest.approx(1.0 / 6.0, rel=1e-15)
    np.testing.assert_allclose(grads[0], [-1.0, -1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(grads[1], [1.0, 0.0, 0.0], atol=1e-14)


def test_barycentric_gradients_scaling(ref_tet):
    scaled = h.build_complex(2.0 * np.asarray(REF_VERTS), [(0, 1, 2, 3)])
    g1 = h.barycentric_gradients(ref_tet)[0]
    g2 = h.barycentric_gradients(scaled)[0]
    assert scaled.volumes[0] == pytest.approx(8.0 / 6.0, rel=1e-15)
    np.testing.assert_allclose(g2, g1 / 2.0, atol=1e-14)


def test_partition_of_unity_random_tets():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal((4, 3))
        if abs(np.linalg.det(v[1:] - v[0])) < 1e-3:
            continue
        mesh = h.build_complex(v, [(0, 1, 2, 3)])
        g = h.barycentric_gradients(mesh)[0]
        scale = np.abs(g).max()
        assert np.abs(g.sum(axis=0)).max() <= 1e-14 * scale


@pytest.mark.parametrize("domain,expected", [
    ("ball", (1, 0, 0)),
    ("ball_with_cavity", (1, 0, 1)),
    ("solid_torus", (1, 1, 0)),
    ("cylinder", (1, 0, 0)),
    ("box", (1, 0, 0)),
])
def test_generated_domain_topology(domain, expected):
    hh = {"ball": 0.25, "ball_with_cavity": 0.15, "solid_torus": 0.15,
          "cylinder": 0.25, "box": 0.34}[domain]
    mesh = h.generate_voxel_domain(domain, hh)
    assert tuple(h.betti_numbers(mesh)) == expected


def test_betti_h2_accessors(torus_coarse, cavity_coarse):
    bt = h.betti_numbers(torus_coarse)
    assert bt.h2 == 0 and bt.h2_rel == 1
    bc = h.betti_numbers(cavity_coarse)
    assert bc.h2 == 1 and bc.h2_rel == 0


def test_betti_matches_gf2_oracle(ball_tiny, torus_coarse, cavity_coarse):
    for mesh in (ball_tiny, torus_coarse, cavity_coarse):
        c = mesh.counts
        assert c.n_v + c.n_e + c.n_f + c.n_t <= 12000
        assert tuple(h.betti_numbers(mesh)) == betti_gf2(mesh)


def _two_disjoint_balls():
    m1 = h.generate_voxel_domain("ball", 0.5)
    verts = np.vstack([m1.vertices, m1.vertices + [10.0, 0.0, 0.0]])
    tets = np.vstack([m1.tets, m1.tets + m1.n_v])
    return h.build_complex(verts, tets)


def test_two_disjoint_balls_betti():
    assert tuple(h.betti_numbers(_two_disjoint_balls())) == (2, 0, 0)


def _spanning_forest_oracle(n, a, b):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

    graph = coo_matrix((np.arange(1.0, len(a) + 1), (a, b)), shape=(n, n))
    count, label = connected_components(graph, directed=False)
    in_forest = np.zeros(len(a), dtype=bool)
    in_forest[minimum_spanning_tree(graph).data.astype(np.intp) - 1] = True
    return count, label, in_forest


def _random_graphs(rng):
    """Simple graphs in a random edge order: isolated nodes, no edges,
    many components and a few large ones."""
    yield 1, np.zeros(0, np.int64), np.zeros(0, np.int64)
    yield 7, np.zeros(0, np.int64), np.zeros(0, np.int64)
    for _ in range(60):
        n = int(rng.integers(2, 300))
        m = int(rng.integers(0, 3 * n))
        a, b = rng.integers(0, n, m), rng.integers(0, n, m)
        keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
        keys = rng.permutation(keys[keys // n != keys % n])
        yield n, keys // n, keys % n


def test_spanning_forest_matches_scipy():
    from hodge3d.mesh import _interior_face_tets, _spanning_forest

    balls = _two_disjoint_balls()
    owner, _, other = _interior_face_tets(balls)
    graphs = list(_random_graphs(np.random.default_rng(5)))
    graphs.append((balls.n_t, owner, other))
    assert min(_spanning_forest_oracle(*g)[0] for g in graphs[2:]) == 1
    assert max(_spanning_forest_oracle(*g)[0] for g in graphs[2:]) > 50
    for n, a, b in graphs:
        count, label, in_forest = _spanning_forest(n, a, b)
        want = _spanning_forest_oracle(n, a, b)
        assert count == want[0]
        np.testing.assert_array_equal(label, want[1])
        np.testing.assert_array_equal(in_forest, want[2])
        assert in_forest.sum() == n - count
    assert balls._tet_forest[0] == 2


def test_vertex_pinch_detected():
    # two tets sharing exactly one vertex: boundary Euler characteristic
    # is inconsistent with the solid's
    far = [(3.0, 0.0, 0.0), (3.0, 1.0, 0.0), (3.0, 0.0, 1.0)]
    verts = REF_VERTS + far
    tets = [(0, 1, 2, 3), (0, 4, 5, 6)]
    mesh = h.build_complex(verts, tets)
    for _ in range(2):      # a cached topology must not hide the fault
        with pytest.raises(NonManifoldError):
            h.betti_numbers(mesh)


def test_edge_pinch_detected():
    # two tets sharing exactly one edge (vertices 0-1)
    verts = REF_VERTS + [(0.0, -1.0, 0.0), (0.0, 0.0, -1.0)]
    tets = [(0, 1, 2, 3), (0, 1, 4, 5)]
    mesh = h.build_complex(verts, tets)
    for _ in range(2):      # a cached topology must not hide the fault
        with pytest.raises(NonManifoldError):
            h.betti_numbers(mesh)


def test_ball_volume_riemann_oracle():
    # the voxel mesh volume must equal (number of inside centers) * h^3
    # exactly, and approach the smooth ball volume linearly in h
    target = 4.0 * np.pi / 3.0
    errors = []
    for hh in (0.2, 0.1, 0.05):
        mesh = h.generate_voxel_domain("ball", hh, fit="voxel")
        lo = int(np.floor(-1.0 / hh)) - 2
        hi = int(np.ceil(1.0 / hh)) + 2
        idx = np.arange(lo, hi + 1)
        cx, cy, cz = np.meshgrid(*(3 * [(idx + 0.5) * hh]), indexing="ij")
        count = int((cx**2 + cy**2 + cz**2 < 1.0).sum())
        assert mesh.n_t == 6 * count
        assert mesh.total_volume() == pytest.approx(count * hh**3, rel=1e-12)
        errors.append(abs(mesh.total_volume() - target))
        # the midpoint voxelization overshoots the smooth volume here
        assert mesh.total_volume() > target
    assert errors[0] > errors[1] > errors[2]
    for hh, err in zip((0.2, 0.1, 0.05), errors):
        assert err <= 1.2 * hh


def _surface_distance(domain, p):
    """Distance to the smooth boundary of a built-in domain with its
    default parameters."""
    r = np.linalg.norm(p, axis=1)
    rho = np.hypot(p[:, 0], p[:, 1])
    if domain == "ball":
        return np.abs(r - 1.0)
    if domain == "ball_with_cavity":
        return np.minimum(np.abs(r - 1.0), np.abs(r - 0.3))
    if domain == "solid_torus":
        return np.abs(np.hypot(rho - 1.0, p[:, 2]) - 0.4)
    if domain == "cylinder":
        gaps = np.stack([rho - 1.0, np.abs(p[:, 2]) - 1.0], axis=1)
    else:  # box
        gaps = np.abs(p) - 0.5
    outside = np.linalg.norm(np.maximum(gaps, 0.0), axis=1)
    return np.where(outside > 0.0, outside, -gaps.max(axis=1))


@pytest.mark.parametrize("domain,hh", [
    ("ball", 0.25),
    ("ball_with_cavity", 0.15),
    ("solid_torus", 0.15),
    ("cylinder", 0.25),
    ("box", 0.34),
])
def test_fitted_domain_against_voxel(domain, hh):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fitted = h.generate_voxel_domain(domain, hh)
        again = h.generate_voxel_domain(domain, hh)
    voxel = h.generate_voxel_domain(domain, hh, fit="voxel")
    # same complex, only the boundary vertices move
    np.testing.assert_array_equal(fitted.tets, voxel.tets)
    assert fitted.counts == voxel.counts
    assert h.betti_numbers(fitted) == h.betti_numbers(voxel)
    b = voxel.boundary_vertex
    np.testing.assert_array_equal(fitted.boundary_vertex, b)
    np.testing.assert_array_equal(fitted.vertices[~b], voxel.vertices[~b])
    # every tet keeps at least 30% of its voxel volume (orientation is
    # unchanged since the tets are not reordered)
    assert (fitted.volumes >= 0.3 * voxel.volumes).all()
    # no boundary vertex ends farther from the smooth surface, and the
    # boundary as a whole comes much closer to it
    before = _surface_distance(domain, voxel.vertices[b])
    after = _surface_distance(domain, fitted.vertices[b])
    assert (after <= before + 1e-12).all()
    assert after.mean() < 0.5 * before.mean()
    # deterministic
    np.testing.assert_array_equal(again.vertices, fitted.vertices)


def test_closest_point_maps_at_degenerate_points():
    # the centers, axes and core circles where the closest surface point
    # is not unique still map to finite points on the surface
    from hodge3d.mesh import _domain_shape

    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.7], [0.0, 0.0, -1.0],
                    [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.5]])
    for domain in h.DOMAIN_TOPOLOGY:
        closest = _domain_shape(domain, {})[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = closest(pts)
        assert np.isfinite(q).all(), domain
        np.testing.assert_allclose(_surface_distance(domain, q), 0.0,
                                   atol=1e-15, err_msg=domain)


def test_topology_not_resolved():
    # cavity of diameter 0.6 cannot be resolved by 0.4-voxels
    with pytest.raises(TopologyError):
        h.generate_voxel_domain("ball_with_cavity", 0.4)


def test_domain_parameter_validation():
    with pytest.raises(MeshError):
        h.generate_voxel_domain("ball", -0.1)
    with pytest.raises(MeshError):
        h.generate_voxel_domain("ball", 0.5, bogus=1)
    with pytest.raises(MeshError):
        h.generate_voxel_domain("blob", 0.5)
    with pytest.raises(MeshError):
        h.generate_voxel_domain("ball_with_cavity", 0.1, cavity_radius=2.0)
    with pytest.raises(MeshError):
        h.generate_voxel_domain("box", 0.3, extents=(1.0, 2.0))
    with pytest.raises(MeshError, match="fit"):
        h.generate_voxel_domain("ball", 0.5, fit="snap")
    # NaN fails every comparison, so it must not slip past the checks
    with pytest.raises(MeshError):
        h.generate_voxel_domain("ball", float("nan"))
    with pytest.raises(MeshError):
        h.generate_voxel_domain("ball", 0.5, radius=float("nan"))
    with pytest.raises(MeshError):
        h.generate_voxel_domain("cylinder", 0.5, height=float("nan"))


def test_euler_characteristic_consistency(ball_coarse, torus_coarse,
                                          cavity_coarse):
    # chi(solid) = chi(boundary) / 2 on all generated domains
    expected = {id(ball_coarse): 1, id(torus_coarse): 0, id(cavity_coarse): 2}
    for mesh in (ball_coarse, torus_coarse, cavity_coarse):
        assert mesh.euler_characteristic == expected[id(mesh)]


def test_edge_orientation_globally_consistent(torus_coarse):
    mesh = torus_coarse
    local_edges = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    ev = mesh.tets[:, local_edges]                       # (n_t, 6, 2)
    local_vec = mesh.vertices[ev[..., 1]] - mesh.vertices[ev[..., 0]]
    ge = mesh.edges[mesh.tet_edges]                      # (n_t, 6, 2)
    global_vec = mesh.vertices[ge[..., 1]] - mesh.vertices[ge[..., 0]]
    np.testing.assert_allclose(
        mesh.tet_edge_signs[..., None] * global_vec, local_vec, atol=0.0)


def test_mesh_arrays_immutable(ref_tet):
    with pytest.raises(ValueError):
        ref_tet.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        ref_tet.tets[0, 0] = 2
