import numpy as np
import pytest

import hodge3d as h

from oracles import gram_direct


def test_single_tet_grad_gram_hand_values(ref_tet):
    tables, _, dof_face = h.build_element_tables(ref_tet)
    A = h.assemble_gram(ref_tet, tables, dof_face).toarray()
    # hand matrix in local face order (face k opposite vertex k):
    # A_kl = vol * 9 * <g_k, g_l> with g from the reference tet
    hand_local = 1.5 * np.array([[3.0, -1.0, -1.0, -1.0],
                                 [-1.0, 1.0, 0.0, 0.0],
                                 [-1.0, 0.0, 1.0, 0.0],
                                 [-1.0, 0.0, 0.0, 1.0]])
    loc = ref_tet.tet_faces[0]           # local k -> global face id
    expected = np.zeros((4, 4))
    for k in range(4):
        for m in range(4):
            expected[loc[k], loc[m]] = hand_local[k, m]
    np.testing.assert_allclose(A, expected, atol=1e-14)
    assert A[loc[0], loc[0]] == pytest.approx(4.5, rel=1e-14)


def test_grad_gram_row_sums_vanish(torus_coarse):
    tables, _, dof_face = h.build_element_tables(torus_coarse)
    A = h.assemble_gram(torus_coarse, tables, dof_face)
    rs = np.asarray(A.csr.sum(axis=1)).ravel()
    assert np.abs(rs).max() <= 1e-12 * abs(A.diagonal()).max()


def test_symmetry_exact(torus_coarse):
    tables, dof_edge, dof_face = h.build_element_tables(torus_coarse)
    for dofmap in (dof_edge, dof_face):
        A = h.assemble_gram(torus_coarse, tables, dofmap)
        diff = (A.csr - A.csr.T).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_positive_semidefinite(ball_coarse):
    tables, dof_edge, dof_face = h.build_element_tables(ball_coarse)
    rng = np.random.default_rng(2)
    for dofmap in (dof_edge, dof_face):
        A = h.assemble_gram(ball_coarse, tables, dofmap)
        bound = abs(A.diagonal()).max()
        for _ in range(5):
            x = rng.standard_normal(A.n)
            assert x @ A.matvec(x) >= -1e-10 * (x @ x) * bound


def test_constrained_is_interior_restriction(torus_engine):
    # the engine's constrained system is the interior block of the Gram
    mesh = torus_engine.mesh
    tables, dof_edge, dof_face = h.build_element_tables(mesh)
    for space, dofmap in (("curl", dof_edge), ("grad", dof_face)):
        A = h.assemble_gram(mesh, tables, dofmap).csr
        Ac = torus_engine._gram(space, True).csr
        i = dofmap.interior_mask
        assert Ac.shape == (int(i.sum()),) * 2
        assert (Ac != A[i][:, i]).nnz == 0


def test_engine_assembles_each_space_once(ball_tiny, monkeypatch):
    calls = []
    assemble = h.hodge.assemble_gram

    def counted(mesh, tables, dofmap):
        calls.append(dofmap.kind)
        return assemble(mesh, tables, dofmap)

    monkeypatch.setattr(h.hodge, "assemble_gram", counted)
    engine = h.HodgeDecomposer(ball_tiny)
    for space in ("curl", "grad"):
        for constrained in (True, False, True):
            engine._gram(space, constrained)
    assert sorted(calls) == ["edge_based", "face_based"]


def test_rhs_zero_field(two_tet):
    tables, dof_edge, _ = h.build_element_tables(two_tet)
    zero = h.Pcvf(two_tet, np.zeros((two_tet.n_t, 3)))
    b = h.assemble_rhs(zero, tables, dof_edge)
    assert (b == 0.0).all()


def test_rhs_galerkin_consistency(torus_coarse):
    # X built from basis coefficients pairs back to A @ c
    tables, dof_edge, dof_face = h.build_element_tables(torus_coarse)
    rng = np.random.default_rng(6)
    for dofmap in (dof_edge, dof_face):
        A = h.assemble_gram(torus_coarse, tables, dofmap)
        c = rng.standard_normal(dofmap.n_dofs)
        X = h.reconstruct(torus_coarse, tables, dofmap, c)
        b = h.assemble_rhs(X, tables, dofmap)
        ref = A.matvec(c)
        np.testing.assert_allclose(b, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())


def test_rhs_single_basis_column(torus_coarse):
    tables, dof_edge, _ = h.build_element_tables(torus_coarse)
    A = h.assemble_gram(torus_coarse, tables, dof_edge)
    k = int(np.flatnonzero(dof_edge.interior_mask)[0])
    e = np.zeros(dof_edge.n_dofs)
    e[k] = 1.0
    X = h.reconstruct(torus_coarse, tables, dof_edge, e)
    b = h.assemble_rhs(X, tables, dof_edge)
    col = A.matvec(e)
    np.testing.assert_allclose(b, col, rtol=1e-12,
                               atol=1e-12 * np.abs(col).max())


def test_grad_rhs_sums_to_zero(ball_coarse):
    # pairing against the gradient of the constant-one function
    tables, _, dof_face = h.build_element_tables(ball_coarse)
    X = h.random_field(ball_coarse, seed=3)
    b = h.assemble_rhs(X, tables, dof_face)
    assert abs(b.sum()) <= 1e-12 * np.abs(b).sum()


def test_curl_rhs_consistent_with_gradient_kernel(torus_coarse):
    # the curl system rhs must be orthogonal to hat-gradient circulations
    tables, dof_edge, _ = h.build_element_tables(torus_coarse)
    X = h.random_field(torus_coarse, seed=9)
    b = h.assemble_rhs(X, tables, dof_edge)
    for k in (1, torus_coarse.n_v // 3):
        c = ((torus_coarse.edges[:, 1] == k).astype(float)
             - (torus_coarse.edges[:, 0] == k).astype(float))
        overlap = abs(b @ c) / (np.linalg.norm(b) * np.linalg.norm(c))
        assert overlap <= 1e-12


def test_gram_matches_direct_integration(two_tet, ref_tet):
    for mesh in (ref_tet, two_tet):
        tables, dof_edge, dof_face = h.build_element_tables(mesh)
        for dofmap, which in ((dof_edge, "curl"), (dof_face, "grad")):
            A = h.assemble_gram(mesh, tables, dofmap).toarray()
            D = gram_direct(mesh, which)
            scale = np.abs(D).max()
            np.testing.assert_allclose(A, D, atol=1e-13 * scale)
