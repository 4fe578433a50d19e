import numpy as np
import pytest
import scipy.sparse as sp

import hodge3d as h
from hodge3d.assembly import SparseSymMatrix
from hodge3d.errors import ConvergenceError

from oracles import disjoint_union


def _identity(n):
    return SparseSymMatrix(csr=sp.identity(n, format="csr"))


def test_identity_single_iteration():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(50)
    x, rep = h.solve_spsd(_identity(50), b)
    np.testing.assert_allclose(x, b, rtol=1e-14)
    assert rep.converged
    assert rep.iterations == 1


def test_zero_rhs():
    x, rep = h.solve_spsd(_identity(10), np.zeros(10))
    assert (x == 0.0).all()
    assert rep.converged and rep.iterations == 0
    assert rep.relative_residual == 0.0


def test_exact_recovery_interior_face(two_tet):
    # X = grad(psi) of the single interior face dof; the unconstrained
    # solve recovers the coefficient up to the constant kernel
    tables, _, dof_face = h.build_element_tables(two_tet)
    A = h.assemble_gram(two_tet, tables, dof_face)
    k = int(np.flatnonzero(dof_face.interior_mask)[0])
    e = np.zeros(dof_face.n_dofs)
    e[k] = 1.0
    X = h.reconstruct(two_tet, tables, dof_face, e)
    b = h.assemble_rhs(X, tables, dof_face)
    u, rep = h.solve_spsd(A, b)
    assert rep.converged
    Y = h.reconstruct(two_tet, tables, dof_face, u)
    err = np.sqrt(h.sq_norm(h.combine(Y, X, 1.0, -1.0)) / h.sq_norm(X))
    assert err <= 1e-10
    shift = u - e
    assert np.abs(shift - shift.mean()).max() <= 1e-9


def test_kernel_invariance_of_reconstruction(two_tet):
    # adding a constant vector (gradient-system kernel) to the coefficients
    # leaves the reconstructed field unchanged
    tables, _, dof_face = h.build_element_tables(two_tet)
    rng = np.random.default_rng(5)
    c = rng.standard_normal(dof_face.n_dofs)
    Y1 = h.reconstruct(two_tet, tables, dof_face, c)
    Y2 = h.reconstruct(two_tet, tables, dof_face, c + 3.7)
    scale = np.abs(Y1.vectors).max()
    assert np.abs(Y2.vectors - Y1.vectors).max() <= 1e-12 * scale


def test_consistent_rhs_passes_kernel_check(two_tet):
    tables, _, dof_face = h.build_element_tables(two_tet)
    A = h.assemble_gram(two_tet, tables, dof_face)
    X = h.random_field(two_tet, seed=2)
    b = h.assemble_rhs(X, tables, dof_face)
    kern = np.ones(dof_face.n_dofs)      # constants span the kernel
    # the assembled rhs is consistent: orthogonal to the kernel
    assert abs(b @ kern) <= 1e-8 * np.linalg.norm(b) * np.linalg.norm(kern)
    x, rep = h.solve_spsd(A, b)
    assert rep.converged


def test_nonconvergence_reported_not_raised(ball_coarse):
    tables, dof_edge, _ = h.build_element_tables(ball_coarse)
    free = dof_edge.interior_mask
    A = h.assemble_gram(ball_coarse, tables, dof_edge).csr[free][:, free]
    X = h.random_field(ball_coarse, seed=3)
    b = h.assemble_rhs(X, tables, dof_edge)[free]
    x, rep = h.solve_spsd(h.SparseSymMatrix(csr=A), b, max_iter=2)
    assert not rep.converged
    assert rep.relative_residual > 1e-12


def test_returns_best_iterate(ball_coarse):
    # a stopped solve returns the iterate whose residual it reports, also
    # when the residual rose after that iterate
    tables, _, dof_face = h.build_element_tables(ball_coarse)
    A = h.assemble_gram(ball_coarse, tables, dof_face)
    b = h.assemble_rhs(h.random_field(ball_coarse, seed=3), tables, dof_face)
    xs, rels = [], []
    for k in range(1, 60):
        x, rep = h.solve_spsd(A, b, max_iter=k)
        true = np.linalg.norm(A.csr @ x - b) / np.linalg.norm(b)
        assert true == pytest.approx(rep.relative_residual, rel=1e-9)
        xs.append(x)
        rels.append(rep.relative_residual)
    assert all(a >= b for a, b in zip(rels, rels[1:]))
    # some step raised the residual, so the best iterate was kept
    assert any(np.array_equal(u, v) for u, v in zip(xs, xs[1:]))


def test_engine_raises_convergence_error_with_stage(ball_coarse):
    eng = h.HodgeDecomposer(ball_coarse, max_iter=1)
    X = h.random_field(ball_coarse, seed=3)
    with pytest.raises(ConvergenceError) as exc:
        eng.decompose(X, "FD")
    assert exc.value.stage == "grad_unconstrained"


def test_projection_idempotent_through_solver(torus_engine):
    mesh = torus_engine.mesh
    X = h.random_field(mesh, seed=14)
    P1 = torus_engine.project_grad(X, constrained=False)
    P2 = torus_engine.project_grad(P1, constrained=False)
    diff = np.sqrt(h.sq_norm(h.combine(P2, P1, 1.0, -1.0)))
    assert diff <= 1e-10 * np.sqrt(h.sq_norm(P1))
    C1 = torus_engine.project_curl(X, constrained=True)
    C2 = torus_engine.project_curl(C1, constrained=True)
    diff = np.sqrt(h.sq_norm(h.combine(C2, C1, 1.0, -1.0)))
    assert diff <= 1e-10 * np.sqrt(h.sq_norm(C1))


def test_bad_inputs(ball_tiny):
    A = _identity(4)
    with pytest.raises(ValueError):
        h.solve_spsd(A, np.zeros(3))
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            h.solve_spsd(A, np.zeros(4), tol=tol)
    # an infinite tol would stop every solve after one iteration, converged
    engine = h.HodgeDecomposer(ball_tiny, tol=np.inf)
    with pytest.raises(ValueError, match="tol"):
        engine.decompose(h.sample_analytic(ball_tiny, "X012"), "FD")


@pytest.mark.parametrize("case", ["ball", "voxel_ball", "torus",
                                  "disjoint_solids"])
def test_face_cycle_is_symmetric_positive_definite(case):
    # the cycle applied to every unit vector gives M as a dense matrix; the
    # b0=3 union has one kernel constant per solid in its unconstrained
    # system. On a lattice, Gershgorin's bound on the vertex Laplacian is
    # its lambda_max, so the smoothers' margin is the factor alone; at
    # h=0.25 both vertex operators (461 and 147 vertices) are aggregated.
    if case == "ball":
        mesh = h.generate_voxel_domain("ball", 0.4)
    elif case == "voxel_ball":
        mesh = h.generate_voxel_domain("ball", 0.25, fit="voxel")
    elif case == "torus":
        mesh = h.generate_voxel_domain("solid_torus", 0.3)
    else:
        mesh = disjoint_union(
            h.generate_voxel_domain("ball", 0.4),
            h.generate_voxel_domain("solid_torus", 0.35),
            h.generate_voxel_domain("ball_with_cavity", 0.4, cavity_radius=0.5))
        assert h.betti_numbers(mesh).b0 == 3
    engine = h.HodgeDecomposer(mesh)
    for constrained in (False, True):
        system = engine._system("grad", constrained)
        cycle, n = system.M, system.gram.csr.shape[0]
        M = np.column_stack([cycle(e) for e in np.eye(n)])
        assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()  # seen: 4e-16
        # raises LinAlgError unless positive definite (seen: lambda_min /
        # lambda_max >= 5e-5)
        np.linalg.cholesky(0.5 * (M + M.T))


@pytest.mark.parametrize("engine_name", ["ball_engine", "cavity_engine",
                                         "torus_engine"])
def test_preconditioned_projection_matches_jacobi(request, engine_name):
    engine = request.getfixturevalue(engine_name)
    mesh, dofmap = engine.mesh, engine._dof_face
    X = h.random_field(mesh, seed=4, normalize=True)
    b = h.assemble_rhs(X, engine.tables, dofmap)
    for constrained in (False, True):
        free = dofmap.interior_mask if constrained else slice(None)
        coeff = np.zeros(dofmap.n_dofs)
        coeff[free], rep = h.solve_spsd(
            engine._system("grad", constrained).gram, b[free])
        assert rep.converged
        Q = h.reconstruct(mesh, engine.tables, dofmap, coeff)
        P = engine.project_grad(X, constrained=constrained)
        err = np.sqrt(h.sq_norm(h.combine(P, Q, 1.0, -1.0)))
        assert err <= 1e-9, (constrained, err)          # seen: 2e-12


def test_kernel_labels_filter_each_solids_constant():
    # an rhs with a constant on one solid's faces: that constant lies in the
    # kernel, so the solve must drop it and return the projection of the
    # rest. One label for both solids cannot remove it.
    ball = h.generate_voxel_domain("ball", 0.5)
    mesh = disjoint_union(ball, ball)
    engine = h.HodgeDecomposer(mesh)
    labels = engine._system("grad", False).kernel
    assert labels.max() == 1  # two solids
    X = h.random_field(mesh, seed=4, normalize=True)
    b = h.assemble_rhs(X, engine.tables, engine._dof_face)
    b += 1e-3 * np.linalg.norm(b) * (labels == 1)
    system = engine._system("grad", False)
    A, M = system.gram, system.M
    x, rep = h.solve_spsd(A, b, atol=0.0, M=M, kernel=labels)
    assert rep.converged
    Q = h.reconstruct(mesh, engine.tables, engine._dof_face, x)
    P = engine.project_grad(X, constrained=False)
    assert np.sqrt(h.sq_norm(h.combine(P, Q, 1.0, -1.0))) <= 1e-9  # seen: 1e-12
    _, rep = h.solve_spsd(A, b, atol=0.0, M=M, kernel=np.zeros_like(labels))
    assert not rep.converged
    with pytest.raises(ValueError, match="kernel must have shape"):
        h.solve_spsd(A, b, M=M, kernel=labels[1:])


def test_unconstrained_face_solve_reaches_tol_at_116k_tets():
    # rounding puts kernel components into the updated residual; without
    # the kernel labels this solve took 106 iterations to reach tol
    mesh = h.generate_voxel_domain("ball", 0.06)
    assert mesh.n_t > 100_000
    engine = h.HodgeDecomposer(mesh)
    b = h.assemble_rhs(h.sample_analytic(mesh, "X2"), engine.tables,
                       engine._dof_face)
    system = engine._system("grad", False)
    _, rep = h.solve_spsd(system.gram, b, tol=engine.tol, atol=0.0,
                          M=system.M, kernel=system.kernel)
    assert rep.converged
    assert rep.iterations <= 60  # seen: 53


def test_face_cycle_iterations_barely_grow():
    # Jacobi's count grows like 1/h (254 -> 459 unconstrained); the cycle's
    # grows 42 -> 49
    counts = {}
    for size in (0.2, 0.1):
        mesh = h.generate_voxel_domain("ball", size)
        engine = h.HodgeDecomposer(mesh)
        b = h.assemble_rhs(h.random_field(mesh, seed=4, normalize=True),
                           engine.tables, engine._dof_face)
        for constrained in (False, True):
            system = engine._system("grad", constrained)
            rhs = b[engine._dof_face.interior_mask] if constrained else b
            _, jacobi = h.solve_spsd(system.gram, rhs)
            _, cycle = h.solve_spsd(system.gram, rhs, M=system.M)
            assert jacobi.converged and cycle.converged
            assert 3 * cycle.iterations <= jacobi.iterations, (size, constrained)
            counts[size, constrained] = cycle.iterations
    for constrained in (False, True):
        assert counts[0.1, constrained] < 1.5 * counts[0.2, constrained]
