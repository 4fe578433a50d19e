import numpy as np
import pytest

import hodge3d as h
from hodge3d import fem as h_fem

from conftest import REF_VERTS
from oracles import hat_gradients_direct, linear_field_circulations


def test_cr_gradient_reference_tet(ref_tet):
    tables, _, _ = h.build_element_tables(ref_tet)
    # face 0 is opposite vertex 0; psi = 1 - 3*phi_0 there
    np.testing.assert_allclose(tables.cr_gradients[0, 0], [3.0, 3.0, 3.0],
                               atol=1e-14)


def test_cr_basis_is_delta_at_face_barycenters():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((4, 3)) + np.eye(4, 3) * 2.0
    mesh = h.build_complex(v, [(0, 1, 2, 3)])
    v = mesh.vertices[mesh.tets[0]]
    tables, _, _ = h.build_element_tables(mesh)
    grads = hat_gradients_direct(v)
    for k in range(4):
        # psi_k(x) = 1 - 3 phi_k(x); affine, so evaluate via the gradient
        # and the value 1 at the barycenter of face k
        others = [j for j in range(4) if j != k]
        bk = v[others].mean(axis=0)
        np.testing.assert_allclose(tables.cr_gradients[0, k], -3.0 * grads[k],
                                   rtol=1e-12)
        for kp in range(4):
            bkp = v[[j for j in range(4) if j != kp]].mean(axis=0)
            val = 1.0 + np.dot(-3.0 * grads[k], bkp - bk)
            assert val == pytest.approx(1.0 if kp == k else 0.0, abs=1e-12)


def test_ned_curl_reference_tet(ref_tet):
    tables, _, _ = h.build_element_tables(ref_tet)
    # local edge 0 joins vertices 0 -> 1
    np.testing.assert_allclose(tables.ned_curls[0, 0], [0.0, -2.0, 2.0],
                               atol=1e-14)


def test_ned_curl_negates_under_orientation_flip():
    # same physical tet, but vertex labels swapped so that the edge between
    # the first two physical points flips its global low-to-high direction
    mesh_a = h.build_complex(REF_VERTS, [(0, 1, 2, 3)])
    relabeled = [REF_VERTS[1], REF_VERTS[0], REF_VERTS[2], REF_VERTS[3]]
    mesh_b = h.build_complex(relabeled, [(1, 0, 2, 3)])
    ta, _, _ = h.build_element_tables(mesh_a)
    tb, _, _ = h.build_element_tables(mesh_b)
    # find the local slot of global edge (0,1) in each mesh
    for mesh, tab, sign in ((mesh_a, ta, 1.0), (mesh_b, tb, -1.0)):
        eid = int(np.flatnonzero((mesh.edges == [0, 1]).all(axis=1))[0])
        slot = int(np.flatnonzero(mesh.tet_edges[0] == eid)[0])
        np.testing.assert_allclose(tab.ned_curls[0, slot],
                                   sign * np.array([0.0, -2.0, 2.0]),
                                   atol=1e-14)


def test_cr_partition_of_unity(torus_coarse):
    tables, _, _ = h.build_element_tables(torus_coarse)
    sums = tables.cr_gradients.sum(axis=1)
    scale = np.abs(tables.cr_gradients).max()
    assert np.abs(sums).max() <= 1e-13 * scale


def test_gradient_circulations_have_zero_curl(two_tet, torus_coarse):
    # coefficients (phi_k(v_j) - phi_k(v_i)) per edge reconstruct to the
    # zero field through the curl table: gradients are curl-free
    for mesh in (two_tet, torus_coarse):
        tables, dof_edge, _ = h.build_element_tables(mesh)
        for k in (0, mesh.n_v // 2, mesh.n_v - 1):
            c = ((mesh.edges[:, 1] == k).astype(float)
                 - (mesh.edges[:, 0] == k).astype(float))
            Z = h.reconstruct(mesh, tables, dof_edge, c)
            assert np.abs(Z.vectors).max() <= 1e-12


def test_linear_field_curl_reproduced(two_tet):
    # circulation coefficients of a linear field must reproduce its
    # constant curl through the curl table (commuting interpolation)
    rng = np.random.default_rng(8)
    amat = rng.standard_normal((3, 3))
    bvec = rng.standard_normal(3)
    curl = np.array([amat[2, 1] - amat[1, 2],
                     amat[0, 2] - amat[2, 0],
                     amat[1, 0] - amat[0, 1]])
    tables, dof_edge, _ = h.build_element_tables(two_tet)
    c = linear_field_circulations(two_tet, amat, bvec)
    Z = h.reconstruct(two_tet, tables, dof_edge, c)
    np.testing.assert_allclose(Z.vectors, np.tile(curl, (two_tet.n_t, 1)),
                               rtol=1e-12, atol=1e-12)


def test_constant_field_circulations(two_tet):
    # constants are linear fields with zero curl; their edge circulations
    # must also have zero discrete curl
    c = linear_field_circulations(two_tet, np.zeros((3, 3)),
                                  np.array([1.0, -2.0, 0.5]))
    tables, dof_edge, _ = h.build_element_tables(two_tet)
    Z = h.reconstruct(two_tet, tables, dof_edge, c)
    assert np.abs(Z.vectors).max() <= 1e-13


def test_dof_maps(two_tet):
    _, dof_edge, dof_face = h.build_element_tables(two_tet)
    assert dof_edge.kind == "edge_based"
    assert dof_face.kind == "face_based"
    assert dof_edge.n_dofs == two_tet.n_e
    assert dof_face.n_dofs == two_tet.n_f
    assert int((~dof_edge.interior_mask).sum()) == two_tet.counts.n_be
    assert int((~dof_face.interior_mask).sum()) == two_tet.counts.n_bf
    assert set(np.unique(two_tet.tet_edge_signs)) <= {-1, 1}


def test_tables_match_independent_gradients(torus_coarse):
    tables, _, _ = h.build_element_tables(torus_coarse)
    rng = np.random.default_rng(12)
    for t in rng.integers(0, torus_coarse.n_t, size=5):
        v = torus_coarse.vertices[torus_coarse.tets[t]]
        g = hat_gradients_direct(v)
        np.testing.assert_allclose(tables.cr_gradients[t], -3.0 * g,
                                   rtol=1e-10, atol=1e-12)


def test_tables_do_not_depend_on_the_chunk(torus_coarse, monkeypatch):
    default, _, _ = h.build_element_tables(torus_coarse)
    monkeypatch.setattr(h_fem, "_CHUNK", 7)
    chunked, _, _ = h.build_element_tables(torus_coarse)
    assert np.array_equal(chunked.cr_gradients, default.cr_gradients)
    assert np.array_equal(chunked.ned_curls, default.ned_curls)


def test_ned_curls_are_built_once_on_first_read(ball_coarse, monkeypatch):
    calls = []
    gradients = h_fem._gradients

    def counted(vertices, tets):
        calls.append(len(tets))
        return gradients(vertices, tets)

    monkeypatch.setattr(h_fem, "_gradients", counted)
    engine = h.HodgeDecomposer(ball_coarse)
    # an FD or FULL on a ball reads no curl: only cr_gradients are built
    for scheme in ("FD", "FULL"):
        full = engine.decompose(h.sample_analytic(ball_coarse, "X012"), scheme)
        assert sum(calls) == ball_coarse.n_t
        assert "ned_curls" not in vars(engine.tables)
    # its curly gradient's membership check projects onto the curl space
    assert engine.verify(full).passed
    assert sum(calls) == 2 * ball_coarse.n_t
    curls = engine.tables.ned_curls
    assert not curls.flags.writeable
    assert engine.verify(full).passed
    assert sum(calls) == 2 * ball_coarse.n_t
    assert engine.tables.ned_curls is curls
