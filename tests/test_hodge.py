import warnings
from dataclasses import replace

import numpy as np
import pytest

import hodge3d as h
from hodge3d import hodge as hodge_module
from hodge3d.errors import FieldError

from oracles import disjoint_union, renumbered


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
    mesh = torus_engine.mesh
    r = torus_engine.decompose(h.Pcvf(mesh, np.zeros((mesh.n_t, 3))), "FULL")
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


def _membership_checks(rep):
    """(component, space, constrained, check) per membership check."""
    for c in rep.checks:
        if "_vs_" in c.name:
            name, stage = c.name.split("_vs_")
            space, kind = stage.split("_", 1)
            yield name, space, kind == "constrained", c


@pytest.mark.parametrize("domain,analytic", [("ball", "X2"),
                                             ("cavity", "X3"),
                                             ("torus", "X4")])
def test_membership_bound_matches_reprojection(request, domain, analytic):
    # A check answered by the component's own squared norm (Bessel's
    # inequality) must bound the re-projection it replaces and give the
    # same verdict; every other check is the re-projection itself.
    engine = request.getfixturevalue(f"{domain}_engine")
    fields = (h.random_field(engine.mesh, seed=[5, 1], normalize=True),
              h.sample_analytic(engine.mesh, analytic))
    answered = 0
    for X in fields:
        for scheme in h.SCHEMES:
            r = engine.decompose(X, scheme)
            rep = engine.verify(r)
            for name, space, constrained, check in _membership_checks(rep):
                comp = r.components[name]
                proj = (engine.project_curl if space == "curl"
                        else engine.project_grad)
                reprojected = h.sq_norm(proj(comp, constrained))
                if h.sq_norm(comp) <= check.bound:
                    answered += 1
                    assert check.value == h.sq_norm(comp)
                    # exact in exact arithmetic; the solve's rounding can
                    # push a re-projection of the whole field a few ulps
                    # above the field's own norm
                    assert reprojected <= check.value * (1.0 + 1e-12)
                    assert check.passed == (reprojected <= check.bound)
                else:
                    assert check.value == reprojected
    assert answered > 0


def _count_solves(monkeypatch):
    calls = []
    solve = hodge_module.solve_spsd

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(hodge_module, "solve_spsd", counting_solve)
    return calls


def test_full_verify_on_ball_solves_only_curly_gradient(ball_engine,
                                                        monkeypatch):
    # b1 = b2 = 0 on a ball: both harmonic components are within the
    # bound, so only the curly gradient's two relations are re-projected
    X = h.random_field(ball_engine.mesh, seed=8, normalize=True)
    r = ball_engine.decompose(X, "FULL")
    calls = []
    project = h.HodgeDecomposer._project

    def counting_project(self, *args, **kwargs):
        calls.append(args)
        return project(self, *args, **kwargs)

    monkeypatch.setattr(h.HodgeDecomposer, "_project", counting_project)
    rep = ball_engine.verify(r)
    assert rep.passed
    assert len(calls) == 2


def _record_grams(monkeypatch):
    """The dof kind of every Gram assembled from now on, in order."""
    kinds = []
    assemble = hodge_module.assemble_gram

    def recording(mesh, tables, dofmap):
        kinds.append(dofmap.kind)
        return assemble(mesh, tables, dofmap)

    monkeypatch.setattr(hodge_module, "assemble_gram", recording)
    return kinds


@pytest.mark.parametrize("domain", ["ball", "cavity", "torus"])
def test_verify_assembles_no_edge_gram(request, monkeypatch, domain):
    # discrete Stokes makes every curl membership check orthogonal by
    # construction, so its rhs stays at the rounding floor and the edge
    # (Nedelec) Gram is never needed
    kinds = _record_grams(monkeypatch)
    engine = h.HodgeDecomposer(request.getfixturevalue(f"{domain}_coarse"))
    X = h.random_field(engine.mesh, seed=12, normalize=True)
    for scheme in h.SCHEMES:
        assert engine.verify(engine.decompose(X, scheme)).passed, scheme
    assert kinds == ["face_based"]


def test_peak_diagonal_matches_gram(ball_engine, cavity_engine, torus_engine):
    # the tables give the Gram's diagonal with another summation order
    for engine in (ball_engine, cavity_engine, torus_engine):
        for space in ("curl", "grad"):
            for constrained in (False, True):
                peak = engine._gram(space, constrained).diagonal().max()
                got = engine._peak_diagonal(space, constrained)
                assert abs(got - peak) <= 4 * np.spacing(peak), \
                    (space, constrained)


def test_curl_projection_above_floor_still_solves(ball_coarse, monkeypatch):
    kinds = _record_grams(monkeypatch)
    reports = []
    solve = hodge_module.solve_spsd

    def recording_solve(*args, **kwargs):
        out = solve(*args, **kwargs)
        reports.append(out[1])
        return out

    monkeypatch.setattr(hodge_module, "solve_spsd", recording_solve)
    engine = h.HodgeDecomposer(ball_coarse)
    X = h.random_field(ball_coarse, seed=13, normalize=True)
    for constrained in (False, True):
        engine.project_curl(X, constrained=constrained)
    assert kinds == ["edge_based"]
    assert len(reports) == 2
    assert all(rep.converged and rep.iterations > 0 for rep in reports)


def test_verify_catches_gradient_in_harmonic_dirichlet(torus_engine):
    X = h.sample_analytic(torus_engine.mesh, "X4")
    r = torus_engine.decompose(X, "FD")
    G = _random_member(torus_engine, "grad", False, seed=24)
    bad = dict(r.components)
    bad["harmonic_dirichlet"] = h.combine(bad["harmonic_dirichlet"], G,
                                          1.0, 1e-2)
    # the stored norm claims the component vanishes; verify must not
    # trust it
    broken = replace(r, components=bad,
                     sq_norms={**r.sq_norms, "harmonic_dirichlet": 1e-30})
    by_name = {c.name: c for c in torus_engine.verify(broken).checks}
    check = by_name["harmonic_dirichlet_vs_grad_unconstrained"]
    assert not check.passed
    assert check.value >= 1e4 * check.bound


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


def test_verify_ignores_stored_norms(torus_engine):
    # a nonzero component whose stored squared norm is edited to 0.0 must
    # not reach a normalizer: verify takes every norm from the fields
    X = h.sample_analytic(torus_engine.mesh, "X4")
    r = torus_engine.decompose(X, "FD")
    assert r.sq_norms["gradient"] >= h.ZERO_THRESHOLD
    edited = replace(r, sq_norms={**r.sq_norms, "gradient": 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = torus_engine.verify(edited).checks
    want = torus_engine.verify(r).checks
    assert all(np.isfinite(c.value) for c in got)
    assert [(c.name, c.passed) for c in got] == \
        [(c.name, c.passed) for c in want]


def _direct_chain(engine, X, scheme):
    """The components of `scheme` by one direct projection per step, in
    the order that solves every curl projection."""
    def sub(A, B):
        return h.combine(A, B, 1.0, -1.0)

    if scheme in ("FN", "HMF_N"):
        curl = engine.project_curl(X, constrained=False)
        gg = engine.project_grad(sub(X, curl), constrained=True)
        out = {"curl": curl, "grounded_gradient": gg,
               "harmonic_neumann": sub(sub(X, curl), gg)}
        if scheme == "HMF_N":
            knot = engine.project_curl(out.pop("curl"), constrained=True)
            out["fluxless_knot"] = knot
            out["harmonic_curl"] = sub(curl, knot)
        return out
    knot = engine.project_curl(X, constrained=True)
    grad = engine.project_grad(sub(X, knot), constrained=False)
    out = {"fluxless_knot": knot, "gradient": grad,
           "harmonic_dirichlet": sub(sub(X, knot), grad)}
    if scheme in ("HMF_D", "FULL"):
        gg = engine.project_grad(out.pop("gradient"), constrained=True)
        out["grounded_gradient"] = gg
        out["harmonic_gradient"] = sub(grad, gg)
        if scheme == "FULL":
            hg = out.pop("harmonic_gradient")
            out["curly_gradient"] = engine.project_curl(hg, constrained=False)
            out["harmonic_neumann"] = sub(hg, out["curly_gradient"])
    return out


@pytest.mark.parametrize("domain", ["ball", "cavity", "torus"])
def test_components_match_direct_chain(request, domain):
    # decompose solves only gradient projections; every component must
    # still equal the one a solve per projection gives
    engine = request.getfixturevalue(f"{domain}_engine")
    X = h.random_field(engine.mesh, seed=[6, 1], normalize=True)
    for scheme in h.SCHEMES:
        r = engine.decompose(X, scheme)
        chain = _direct_chain(engine, X, scheme)
        assert set(chain) == set(r.components)
        for name, comp in r.components.items():
            err = np.sqrt(h.sq_norm(h.combine(comp, chain[name], 1.0, -1.0)))
            assert err <= 1e-9, (scheme, name, err)


_SOLVES = {"FN": 1, "FD": 1, "HMF_N": 2, "HMF_D": 2, "FULL": 2}


def test_decompose_solves_only_gradients(ball_engine, monkeypatch):
    X = h.random_field(ball_engine.mesh, seed=9, normalize=True)
    ball_engine.decompose(X, "FULL")          # warm: Grams and bases
    calls = _count_solves(monkeypatch)
    for scheme, n in _SOLVES.items():
        del calls[:]
        r = ball_engine.decompose(X, scheme)
        assert len(calls) == n, scheme
        # the report lists exactly the solves that ran
        assert len(r.solver_reports) == n
        assert all(stage.startswith("grad_") for stage, _ in r.solver_reports)


@pytest.mark.parametrize("mesh_name,basis_stages,dims",
                         [("torus_coarse",
                           ["basis_dirichlet/grad_unconstrained"] * 2,
                           {"neumann": 0, "dirichlet": 1}),
                          ("cavity_coarse",
                           ["basis_neumann/grad_constrained"] * 2,
                           {"neumann": 1, "dirichlet": 0})])
def test_harmonic_basis_solves_once_per_engine(request, monkeypatch,
                                               mesh_name, basis_stages, dims):
    # two gradient solves (a solve and a short refinement) per tunnel or
    # cavity, on the first decompose that needs the basis only, and listed
    # in that decompose's report
    engine = h.HodgeDecomposer(request.getfixturevalue(mesh_name))
    X = h.random_field(engine.mesh, seed=10, normalize=True)
    calls = _count_solves(monkeypatch)
    per_round, stages = [], []
    for _ in range(2):
        del calls[:]
        for scheme in h.SCHEMES:
            r = engine.decompose(X, scheme)
            stages += [s for s, _ in r.solver_reports if s.startswith("basis")]
        per_round.append(len(calls))
    assert per_round == [sum(_SOLVES.values()) + len(basis_stages),
                         sum(_SOLVES.values())]
    assert stages == basis_stages
    assert {kind: len(b) for kind, b in engine._bases.items()} == dims


def test_basis_solve_failure_names_the_basis(torus_coarse, monkeypatch):
    engine = h.HodgeDecomposer(torus_coarse)
    X = h.random_field(torus_coarse, seed=11, normalize=True)
    solve = hodge_module.solve_spsd
    calls = []

    def second_fails(*args, **kwargs):
        x, rep = solve(*args, **kwargs)
        calls.append(1)
        return x, replace(rep, converged=len(calls) != 2)

    monkeypatch.setattr(hodge_module, "solve_spsd", second_fails)
    with pytest.raises(h.ConvergenceError) as exc:
        engine.decompose(X, "FD")
    assert exc.value.stage == "basis_dirichlet/grad_unconstrained"


@pytest.mark.parametrize("case", ["disjoint_solids", "finer_torus",
                                  "renumbered_torus"])
def test_harmonic_bases_match_direct_chain(case):
    # two tori and a shelled ball (b0=3, b1=2, b2=1) need a cut per
    # tunnel in separate solids; the finer torus shows that the accuracy
    # of the complements does not degrade with the tet count; on the
    # renumbered torus the cut's peeling stalls twice for one tunnel, so
    # the equations of the unused edges remove a parameter
    if case == "disjoint_solids":
        torus = h.generate_voxel_domain("solid_torus", 0.3)
        cavity = h.generate_voxel_domain("ball_with_cavity", 0.3,
                                         cavity_radius=0.5)
        mesh, schemes = disjoint_union(torus, torus, cavity), h.SCHEMES
    elif case == "finer_torus":
        mesh, schemes = h.generate_voxel_domain("solid_torus", 0.1), ("FD",)
    else:
        mesh = renumbered(h.generate_voxel_domain("solid_torus", 0.15))
        schemes = h.SCHEMES
    b = h.betti_numbers(mesh)
    engine = h.HodgeDecomposer(mesh)
    X = h.random_field(mesh, seed=[6, 2], normalize=True)
    for scheme in schemes:
        r = engine.decompose(X, scheme)
        chain = _direct_chain(engine, X, scheme)
        for name, comp in r.components.items():
            err = np.sqrt(h.sq_norm(h.combine(comp, chain[name], 1.0, -1.0)))
            assert err <= 1e-9, (scheme, name, err)       # seen: 2.8e-12
        checks = {c.name: c for c in engine.verify(r).checks}
        assert all(c.passed for c in checks.values())
        assert checks["orthogonality"].value <= 1e-10     # seen: 4.7e-14
    assert len(engine._bases["dirichlet"]) == b.h2_rel
    if "neumann" in engine._bases:
        assert len(engine._bases["neumann"]) == b.h2


def test_dimension_oracle_does_not_use_harmonic_bases(monkeypatch,
                                                      torus_coarse,
                                                      cavity_coarse):
    def refuse(self, *args):
        raise AssertionError("the dimension oracle built a harmonic basis")

    monkeypatch.setattr(h.HodgeDecomposer, "_harmonic_basis", refuse)
    for mesh, want in ((cavity_coarse, (1, 0)), (torus_coarse, (0, 1))):
        got = tuple(h.estimate_harmonic_dimension(mesh, which)
                    for which in ("neumann", "dirichlet"))
        assert got == want
