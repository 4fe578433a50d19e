import numpy as np
import pytest

import hodge3d as h
from hodge3d.errors import FieldError


def _unit(X):
    return h.Pcvf(X.mesh, X.vectors / np.sqrt(h.sq_norm(X)))


def _random_member(engine, space, constrained, seed):
    """Unit-norm random element of one of the four ansatz spaces."""
    dofmap = engine._dof_edge if space == "curl" else engine._dof_face
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(dofmap.n_dofs)
    if constrained:
        c[~dofmap.interior_mask] = 0.0
    return _unit(h.reconstruct(engine.mesh, engine.tables, dofmap, c))


def test_projection_reproduces_members(torus_engine):
    # projection is the identity on fields already inside the target space
    for space, constrained in (("curl", True), ("curl", False),
                               ("grad", True), ("grad", False)):
        X = _random_member(torus_engine, space, constrained, seed=21)
        proj = (torus_engine.project_curl if space == "curl"
                else torus_engine.project_grad)
        Y = proj(X, constrained)
        err = np.sqrt(h.sq_norm(h.combine(Y, X, 1.0, -1.0)))
        assert err <= 1e-10


def test_orthogonality_relations(torus_engine, ball_engine):
    # curl(N) is orthogonal to grad(F0), curl(N0) to grad(F)
    for engine in (torus_engine, ball_engine):
        G0 = _random_member(engine, "grad", True, seed=22)
        assert h.sq_norm(engine.project_curl(G0, constrained=False)) <= 1e-10
        C0 = _random_member(engine, "curl", True, seed=23)
        assert h.sq_norm(engine.project_grad(C0, constrained=False)) <= 1e-10


def test_component_names_and_order(torus_engine):
    X = h.random_field(torus_engine.mesh, seed=1)
    for scheme, names in h.SCHEME_COMPONENTS.items():
        r = torus_engine.decompose(X, scheme)
        assert tuple(r.components) == names
        assert tuple(r.sq_norms) == names
        assert r.scheme == scheme


def test_unknown_scheme(torus_engine):
    X = h.random_field(torus_engine.mesh, seed=1)
    with pytest.raises(ValueError):
        torus_engine.decompose(X, "XY")


def test_mesh_identity_enforced(torus_engine, ball_coarse):
    X = h.random_field(ball_coarse, seed=1)
    with pytest.raises(FieldError):
        torus_engine.decompose(X, "FD")


def test_zero_field_all_zero_flags(torus_engine):
    r = torus_engine.decompose(h.Pcvf.zero(torus_engine.mesh), "FULL")
    assert all(r.zero_flags.values())
    assert r.input_sq_norm == 0.0
    assert all(v == 0.0 for v in r.fractions().values())


def test_x2_goes_central_on_ball(ball_engine):
    X2 = h.sample_analytic(ball_engine.mesh, "X2")
    r = ball_engine.decompose(X2, "FULL")
    fr = r.fractions()
    assert fr["curly_gradient"] >= 0.99
    assert r.zero_flags["harmonic_neumann"]
    assert r.zero_flags["harmonic_dirichlet"]
    assert r.sq_norms["fluxless_knot"] <= 1e-10
    assert r.sq_norms["grounded_gradient"] <= 1e-10


def test_x4_dirichlet_dominant_on_torus(torus_engine):
    X4 = h.sample_analytic(torus_engine.mesh, "X4")
    r = torus_engine.decompose(X4, "FD")
    fr = r.fractions()
    assert max(fr, key=fr.get) == "harmonic_dirichlet"
    assert fr["harmonic_dirichlet"] >= 0.8
    # the vortex is nearly (not exactly) orthogonal to the tangential curls
    assert fr["fluxless_knot"] <= 1e-4


def test_x3_neumann_dominant_on_cavity(cavity_coarse):
    eng = h.HodgeDecomposer(cavity_coarse)
    X3 = h.sample_analytic(cavity_coarse, "X3")
    r = eng.decompose(X3, "FULL")
    fr = r.fractions()
    assert max(fr, key=fr.get) == "harmonic_neumann"
    assert r.zero_flags["harmonic_dirichlet"]


def test_dominance_improves_with_refinement():
    fractions = []
    for hh in (0.25, 0.2, 0.15):
        mesh = h.generate_voxel_domain("ball", hh)
        eng = h.HodgeDecomposer(mesh)
        r = eng.decompose(h.sample_analytic(mesh, "X0"), "FULL")
        fractions.append(r.fractions()["fluxless_knot"])
    assert fractions[0] < fractions[1] < fractions[2]
    assert fractions[2] >= 0.84


def test_decomposition_invariants_random_fields(torus_engine):
    mesh = torus_engine.mesh
    for seed in range(3):
        X = h.random_field(mesh, seed=[77, seed])
        for scheme in h.SCHEMES:
            r = torus_engine.decompose(X, scheme)
            total = X
            for f in r.components.values():
                total = h.combine(total, f, 1.0, -1.0)
            assert np.sqrt(h.sq_norm(total)) <= 1e-10 * np.sqrt(r.input_sq_norm)
            assert abs(r.input_sq_norm - sum(r.sq_norms.values())) \
                <= 1e-8 * r.input_sq_norm
            names = [n for n in r.components if not r.zero_flags[n]]
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    ip = abs(h.l2_inner(r.components[names[i]],
                                        r.components[names[j]]))
                    bound = 1e-8 * np.sqrt(r.sq_norms[names[i]]
                                           * r.sq_norms[names[j]])
                    assert ip <= bound


def test_cross_scheme_agreement(torus_engine):
    # the same subspace reached along different projection routes
    X = h.random_field(torus_engine.mesh, seed=31)
    full = torus_engine.decompose(X, "FULL")
    fd = torus_engine.decompose(X, "FD")
    hmf_n = torus_engine.decompose(X, "HMF_N")
    hmf_d = torus_engine.decompose(X, "HMF_D")
    scale = np.sqrt(full.input_sq_norm)

    def close(A, B):
        return np.sqrt(h.sq_norm(h.combine(A, B, 1.0, -1.0))) <= 1e-8 * scale

    assert close(full.components["harmonic_dirichlet"],
                 fd.components["harmonic_dirichlet"])
    assert close(hmf_n.components["fluxless_knot"],
                 hmf_d.components["fluxless_knot"])
    assert close(hmf_n.components["grounded_gradient"],
                 full.components["grounded_gradient"])
    assert close(hmf_n.components["harmonic_neumann"],
                 full.components["harmonic_neumann"])


def test_decompose_is_idempotent_componentwise(torus_engine):
    X = h.random_field(torus_engine.mesh, seed=41)
    r = torus_engine.decompose(X, "FD")
    for name, comp in r.components.items():
        again = torus_engine.decompose(comp, "FD")
        for other, val in again.sq_norms.items():
            if other == name:
                assert val >= (1.0 - 1e-8) * r.sq_norms[name]
            else:
                assert val <= max(1e-8 * r.sq_norms[name], 1e-16)


def test_sum_of_plain_projections_is_not_decomposition(torus_engine):
    # curl(N) + grad(F) overlap: projecting onto each and adding does not
    # reproduce the field, while the five-term pipeline does
    mesh = torus_engine.mesh
    X = h.random_field(mesh, seed=55)
    c = torus_engine.project_curl(X, constrained=False)
    g = torus_engine.project_grad(X, constrained=False)
    naive = h.combine(c, g, 1.0, 1.0)
    gap = np.sqrt(h.sq_norm(h.combine(naive, X, 1.0, -1.0)))
    assert gap > 0.01 * np.sqrt(h.sq_norm(X))
    r = torus_engine.decompose(X, "FULL")
    total = X
    for f in r.components.values():
        total = h.combine(total, f, 1.0, -1.0)
    assert np.sqrt(h.sq_norm(total)) <= 1e-10 * np.sqrt(h.sq_norm(X))


def test_verify_passes_and_detects_perturbation(torus_engine):
    X = h.sample_analytic(torus_engine.mesh, "X4")
    r = torus_engine.decompose(X, "FD")
    rep = torus_engine.verify(r)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    # perturb one component: reconstruction must now fail
    bad = dict(r.components)
    vec = bad["gradient"].vectors.copy()
    vec[0] += 1e-3
    bad["gradient"] = h.Pcvf(torus_engine.mesh, vec)
    broken = h.DecompositionResult(
        scheme=r.scheme, input=r.input, components=bad,
        sq_norms={k: h.sq_norm(v) for k, v in bad.items()},
        input_sq_norm=r.input_sq_norm,
        zero_flags={k: h.sq_norm(v) < h.ZERO_THRESHOLD for k, v in bad.items()},
        solver_reports=r.solver_reports)
    rep2 = torus_engine.verify(broken)
    assert not rep2.passed
    assert any(c.name == "reconstruction" and not c.passed for c in rep2.checks)


def test_verify_membership_checks_present(torus_engine):
    X = h.sample_analytic(torus_engine.mesh, "X4")
    r = torus_engine.decompose(X, "FD")
    rep = torus_engine.verify(r)
    by_name = {c.name: c for c in rep.checks}
    assert "harmonic_dirichlet_vs_curl_constrained" in by_name
    # the Dirichlet remainder re-projected onto the gradient space carries
    # no energy at all
    assert by_name["harmonic_dirichlet_vs_grad_unconstrained"].value <= 1e-10


# Check names per scheme, in order: reconstruction, Pythagoras, pairwise
# orthogonality, then each relation-carrying component re-projected onto
# the spaces it must be orthogonal to.
_VERIFY_CHECKS = {
    "FN": ("reconstruction", "pythagoras", "orthogonality",
           "harmonic_neumann_vs_curl_unconstrained",
           "harmonic_neumann_vs_grad_constrained"),
    "FD": ("reconstruction", "pythagoras", "orthogonality",
           "harmonic_dirichlet_vs_curl_constrained",
           "harmonic_dirichlet_vs_grad_unconstrained"),
    "HMF_N": ("reconstruction", "pythagoras", "orthogonality",
              "harmonic_curl_vs_curl_constrained",
              "harmonic_curl_vs_grad_constrained",
              "harmonic_neumann_vs_curl_unconstrained",
              "harmonic_neumann_vs_grad_constrained"),
    "HMF_D": ("reconstruction", "pythagoras", "orthogonality",
              "harmonic_gradient_vs_curl_constrained",
              "harmonic_gradient_vs_grad_constrained",
              "harmonic_dirichlet_vs_curl_constrained",
              "harmonic_dirichlet_vs_grad_unconstrained"),
    "FULL": ("reconstruction", "pythagoras", "orthogonality",
             "curly_gradient_vs_curl_constrained",
             "curly_gradient_vs_grad_constrained",
             "harmonic_neumann_vs_curl_unconstrained",
             "harmonic_neumann_vs_grad_constrained",
             "harmonic_dirichlet_vs_curl_constrained",
             "harmonic_dirichlet_vs_grad_unconstrained"),
}


@pytest.mark.parametrize("scheme", sorted(_VERIFY_CHECKS))
def test_verify_check_names_per_scheme(torus_engine, scheme):
    X = h.random_field(torus_engine.mesh, seed=1, normalize=True)
    rep = torus_engine.verify(torus_engine.decompose(X, scheme))
    assert tuple(c.name for c in rep.checks) == _VERIFY_CHECKS[scheme]
    assert rep.passed


def test_estimate_dimensions_coarse(ball_tiny, torus_coarse, cavity_coarse):
    assert h.estimate_harmonic_dimension(ball_tiny, "neumann") == 0
    assert h.estimate_harmonic_dimension(ball_tiny, "dirichlet") == 0
    assert h.estimate_harmonic_dimension(torus_coarse, "dirichlet") == 1
    assert h.estimate_harmonic_dimension(torus_coarse, "neumann") == 0
    assert h.estimate_harmonic_dimension(cavity_coarse, "neumann") == 1
    assert h.estimate_harmonic_dimension(cavity_coarse, "dirichlet") == 0


def test_estimate_dimension_probe_validation(ball_tiny):
    with pytest.raises(ValueError):
        h.estimate_harmonic_dimension(ball_tiny, "neumann", probes=3)
    with pytest.raises(ValueError):
        h.estimate_harmonic_dimension(ball_tiny, "sideways")


def test_one_shot_module_functions(ball_tiny):
    # a fresh engine per call, as a one-off caller would use it
    X = h.sample_analytic(ball_tiny, "X2")
    r = h.HodgeDecomposer(ball_tiny).decompose(X, "full")
    assert r.scheme == "FULL"
    assert r.fractions()["curly_gradient"] >= 0.99
    rep = h.HodgeDecomposer(ball_tiny).verify(r)
    assert rep.passed
    P = h.HodgeDecomposer(ball_tiny).project_grad(X, constrained=False)
    assert h.sq_norm(P) == pytest.approx(h.sq_norm(X), rel=1e-10)
