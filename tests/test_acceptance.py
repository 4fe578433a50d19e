"""Acceptance suite.

One test per advertised guarantee, each printing a PASS/FAIL line with the
measured value. The dominance thresholds (criterion 2) are evaluated on
the built-in domains at the standard resolutions, whose boundary vertices
are fitted to the smooth surface; the README's note on voxelized domains
gives the measured fractions with and without that fit.
"""

import resource
import time

import numpy as np
import pytest

import hodge3d as h
from hodge3d.cli import main

from oracles import betti_gf2, gram_direct

BALL_H = 0.1
CAVITY_H = 0.15
TORUS_H = 0.15


def _line(cid: str, ok: bool, detail: str = ""):
    print(f"[acceptance {cid}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="session")
def stated():
    """Lazily built engines for the three standard-resolution domains."""
    cache = {}
    domains = {
        "ball": ("ball", BALL_H, {}),
        "cavity": ("ball_with_cavity", CAVITY_H, {}),
        "torus": ("solid_torus", TORUS_H, {}),
    }

    def get(name):
        if name not in cache:
            domain, hh, params = domains[name]
            mesh = h.generate_voxel_domain(domain, hh, **params)
            cache[name] = h.HodgeDecomposer(mesh)
        return cache[name]

    return get


def _pythagoras_and_orthogonality(r) -> tuple:
    """A decomposition's relative Pythagoras defect and its worst relative
    inner product between two nonzero components."""
    pyth = abs(r.input_sq_norm - sum(r.sq_norms.values())) / r.input_sq_norm
    live = [n for n in r.components if not r.zero_flags[n]]
    worst = 0.0
    for i in range(len(live)):
        for j in range(i + 1, len(live)):
            ip = abs(h.l2_inner(r.components[live[i]], r.components[live[j]]))
            worst = max(worst, ip / np.sqrt(r.sq_norms[live[i]]
                                            * r.sq_norms[live[j]]))
    return pyth, worst


def test_criterion_01_orthogonality_suite(stated):
    t0 = time.monotonic()
    worst_orth = 0.0
    worst_pyth = 0.0
    for name in ("ball", "cavity", "torus"):
        engine = stated(name)
        fields = [h.random_field(engine.mesh, seed=[101, k], normalize=True)
                  for k in range(10)]
        for scheme in h.SCHEMES:
            for X in fields:
                pyth, orth = _pythagoras_and_orthogonality(
                    engine.decompose(X, scheme))
                worst_pyth = max(worst_pyth, pyth)
                worst_orth = max(worst_orth, orth)
    elapsed = time.monotonic() - t0
    ok = worst_orth <= 1e-8 and worst_pyth <= 1e-8 and elapsed <= 120.0
    _line("1", ok, f"worst orthogonality {worst_orth:.2e}, worst Pythagoras "
                   f"{worst_pyth:.2e}, {elapsed:.0f}s")
    assert worst_orth <= 1e-8
    assert worst_pyth <= 1e-8
    assert elapsed <= 120.0


@pytest.fixture(scope="session")
def dominance(stated):
    results = {}
    for fname in ("X0", "X1", "X2", "X012"):
        engine = stated("ball")
        results[fname] = engine.decompose(
            h.sample_analytic(engine.mesh, fname), "FULL")
    engine = stated("cavity")
    results["X3"] = engine.decompose(h.sample_analytic(engine.mesh, "X3"),
                                     "FULL")
    engine = stated("torus")
    results["X4"] = engine.decompose(h.sample_analytic(engine.mesh, "X4"),
                                     "FULL")
    return results


def _dominance_check(dominance, fname, component):
    frac = dominance[fname].fractions()[component]
    ok = frac >= 0.95
    _line("2", ok, f"{fname} -> {component}: {frac:.4f} (need >= 0.95)")
    assert frac >= 0.95, (
        f"{fname} puts {frac:.4f} of its energy into {component}; where the "
        f"mesh boundary departs from the smooth surface, energy leaks into "
        f"the other components (see README: numerical behavior on voxelized "
        f"domains)")


def test_criterion_02_rotation_to_fluxless(dominance):
    _dominance_check(dominance, "X0", "fluxless_knot")


def test_criterion_02_radial_to_grounded(dominance):
    _dominance_check(dominance, "X1", "grounded_gradient")


def test_criterion_02_constant_to_central(dominance):
    _dominance_check(dominance, "X2", "curly_gradient")


def test_criterion_02_source_to_neumann(dominance):
    _dominance_check(dominance, "X3", "harmonic_neumann")


def test_criterion_02_vortex_to_dirichlet(dominance):
    _dominance_check(dominance, "X4", "harmonic_dirichlet")


def test_criterion_02_superposition_consistency(dominance):
    r012 = dominance["X012"]
    in_sq = r012.input_sq_norm
    pairs = (("fluxless_knot", "X0"), ("grounded_gradient", "X1"),
             ("curly_gradient", "X2"))
    worst = 0.0
    for comp, src in pairs:
        assert not r012.zero_flags[comp]
        diff = abs(r012.sq_norms[comp] - dominance[src].sq_norms[comp]) / in_sq
        worst = max(worst, diff)
    ok = worst <= 0.02
    _line("2", ok, f"superposition split vs separate fields: worst diff "
                   f"{100 * worst:.2f} pp (need <= 2)")
    assert worst <= 0.02, (
        "the superposition's component energies differ from the separately "
        "decomposed fields' beyond 2 percentage points; the difference is "
        "the boundary leak of the rotation/radial fields (see README)")


def test_criterion_03_analytic_norms_and_volume(stated):
    engine = stated("ball")
    X2 = h.sample_analytic(engine.mesh, "X2")
    rel = abs(h.sq_norm(X2) - 0.75 * engine.mesh.total_volume()) \
        / h.sq_norm(X2)
    target = 4.0 * np.pi / 3.0
    errors = []
    for hh in (0.2, 0.1, 0.05):
        mesh = engine.mesh if hh == BALL_H else \
            h.generate_voxel_domain("ball", hh)
        errors.append(abs(mesh.total_volume() - target))
    rate_ok = errors[0] > errors[1] > errors[2] and all(
        err <= 1.2 * hh for err, hh in zip(errors, (0.2, 0.1, 0.05)))
    ok = rel <= 1e-12 and rate_ok
    _line("3", ok, f"|X2|^2 rel err {rel:.2e}; volume errors "
                   + ", ".join(f"{e:.4f}" for e in errors))
    assert rel <= 1e-12
    assert rate_ok


def test_criterion_04_harmonic_dimensions(stated, ball_tiny):
    t0 = time.monotonic()
    got = {}
    for name, expected in (("ball", (0, 0)), ("cavity", (1, 0)),
                           ("torus", (0, 1))):
        engine = stated(name)
        got[name] = (
            h.estimate_harmonic_dimension(engine.mesh, "neumann"),
            h.estimate_harmonic_dimension(engine.mesh, "dirichlet"),
        )
        assert got[name] == expected, (name, got[name], expected)
    n_bf = ball_tiny.counts.n_bf
    assert ball_tiny.n_t <= 500
    central = h.estimate_harmonic_dimension(ball_tiny, "central")
    elapsed = time.monotonic() - t0
    ok = central == n_bf - 1 and elapsed <= 300.0
    _line("4", ok, f"(neumann, dirichlet) = {got}; central {central} "
                   f"(expected {n_bf - 1}); {elapsed:.0f}s")
    assert central == n_bf - 1
    assert elapsed <= 300.0


def test_criterion_05_orthogonality_relations(ball_medium, torus_coarse):
    worst = 0.0
    for mesh in (ball_medium, torus_coarse):
        engine = h.HodgeDecomposer(mesh)
        tables = engine.tables
        de, df = engine._dof_edge, engine._dof_face
        for k in range(10):
            rng = np.random.default_rng([501, k])
            c = rng.standard_normal(df.n_dofs)
            c[~df.interior_mask] = 0.0
            G0 = h.reconstruct(mesh, tables, df, c)
            G0 = h.Pcvf(mesh, G0.vectors / np.sqrt(h.sq_norm(G0)))
            worst = max(worst, h.sq_norm(engine.project_curl(G0, False)))

            rng = np.random.default_rng([502, k])
            c = rng.standard_normal(de.n_dofs)
            c[~de.interior_mask] = 0.0
            C0 = h.reconstruct(mesh, tables, de, c)
            C0 = h.Pcvf(mesh, C0.vectors / np.sqrt(h.sq_norm(C0)))
            worst = max(worst, h.sq_norm(engine.project_grad(C0, False)))
    ok = worst <= 1e-10
    _line("5", ok, f"worst cross-space projection energy {worst:.2e} "
                   f"(need <= 1e-10, 20+20 unit fields)")
    assert worst <= 1e-10


def test_criterion_06_noise_robustness(stated):
    engine = stated("torus")
    X = h.sample_analytic(engine.mesh, "X4")
    clean = engine.decompose(X, "FD")
    hd0 = clean.components["harmonic_dirichlet"]
    fractions = [clean.fractions()["fluxless_knot"]]
    cosines = []
    for rho in (0.2, 0.5, 0.7, 1.0):
        r = engine.decompose(h.add_noise(X, rho, seed=42), "FD")
        hd = r.components["harmonic_dirichlet"]
        cosines.append(h.l2_inner(hd, hd0)
                       / np.sqrt(h.sq_norm(hd) * h.sq_norm(hd0)))
        fractions.append(r.fractions()["fluxless_knot"])
    monotone = all(a <= b for a, b in zip(fractions, fractions[1:]))
    ok = min(cosines) >= 0.9 and monotone
    _line("6", ok, f"min cosine {min(cosines):.4f}; curl fractions "
                   + " -> ".join(f"{f:.3f}" for f in fractions))
    assert min(cosines) >= 0.9
    assert monotone


def test_criterion_07_refinement_stability():
    levels = (0.2, 0.1, 0.05)
    results = []
    for hh in levels:
        mesh = h.generate_voxel_domain("cylinder", hh)
        engine = h.HodgeDecomposer(mesh)
        results.append(engine.decompose(h.sample_analytic(mesh, "X012"), "FD"))
    details = []
    ok = True
    for name in h.SCHEME_COMPONENTS["FD"]:
        if all(r.zero_flags[name] for r in results):
            details.append(f"{name}: zero at all levels")
            continue
        f = [r.fractions()[name] for r in results]
        d1, d2 = abs(f[1] - f[0]), abs(f[2] - f[1])
        monotone = (f[0] <= f[1] <= f[2]) or (f[0] >= f[1] >= f[2])
        details.append(f"{name}: {f[0]:.4f} -> {f[1]:.4f} -> {f[2]:.4f} "
                       f"(steps {d1:.5f}, {d2:.5f})")
        ok &= d2 < d1 and monotone
    _line("7", ok, "; ".join(details))
    assert ok, details


def test_observed_convergence_order():
    # The leak 1 - (fraction in the target component) is the squared
    # relative L2 error of an orthogonal projection. Measured orders of
    # the last step are 0.91-1.05 with today's boundary fit; 0.8 leaves a
    # margin of 0.11 below the lowest, and no upper bound is set, so a
    # closer fit still passes.
    levels = (0.2, 0.1, 0.05)
    cases = (("X1", "ball", "FN", "grounded_gradient"),
             ("X0", "ball", "FD", "fluxless_knot"),
             ("X4", "solid_torus", "FD", "harmonic_dirichlet"))
    details = []
    ok = True
    for fname, domain, scheme, target in cases:
        leaks = []
        for hh in levels:
            mesh = h.generate_voxel_domain(domain, hh)
            r = h.HodgeDecomposer(mesh).decompose(
                h.sample_analytic(mesh, fname), scheme)
            leaks.append(1.0 - r.fractions()[target])
        order = np.log2(leaks[1] / leaks[2])
        case_ok = leaks[0] > leaks[1] > leaks[2] and order >= 0.8
        ok &= case_ok
        details.append(f"{fname} {domain} {scheme} -> {target}: leaks "
                       + ", ".join(f"{x:.2e}" for x in leaks)
                       + f", order {order:.2f}")
    _line("order", ok, "; ".join(details) + " (need decreasing, last order "
                       ">= 0.8)")
    assert ok, details


def test_criterion_08_oracle_equivalence(two_tet, ref_tet, ball_tiny):
    meshes = [ball_tiny,
              h.generate_voxel_domain("solid_torus", 0.3),
              h.generate_voxel_domain("ball_with_cavity", 0.3,
                                      cavity_radius=0.5)]
    betti_ok = True
    for mesh in meshes:
        c = mesh.counts
        assert c.n_v + c.n_e + c.n_f + c.n_t <= 5000
        betti_ok &= tuple(h.betti_numbers(mesh)) == betti_gf2(mesh)

    worst = 0.0
    for mesh in (ref_tet, two_tet):
        tables, dof_edge, dof_face = h.build_element_tables(mesh)
        for dofmap, which in ((dof_edge, "curl"), (dof_face, "grad")):
            A = h.assemble_gram(mesh, tables, dofmap).csr.toarray()
            D = gram_direct(mesh, which)
            worst = max(worst, np.abs(A - D).max() / np.abs(D).max())
    ok = betti_ok and worst <= 1e-13
    _line("8", ok, f"GF(2) Betti match: {betti_ok}; worst Gram deviation "
                   f"{worst:.2e} (need <= 1e-13)")
    assert betti_ok
    assert worst <= 1e-13


def test_criterion_09_determinism(tmp_path):
    val = ["validate", "--h-ball", "0.25", "--h-cavity", "0.25",
           "--h-torus", "0.25"]
    d1, d2 = tmp_path / "v1", tmp_path / "v2"
    assert main(val + ["--out", str(d1)]) == 0
    assert main(val + ["--out", str(d2)]) == 0
    same_validate = (d1 / "validate_report.json").read_bytes() == \
        (d2 / "validate_report.json").read_bytes()

    sweep = ["sweep", "--domain", "cylinder", "--h", "0.4,0.25",
             "--field", "X012", "--scheme", "fd"]
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert main(sweep + ["--out", str(s1)]) == 0
    assert main(sweep + ["--out", str(s2)]) == 0
    same_sweep = all(
        (s1 / rel).read_bytes() == (s2 / rel).read_bytes()
        for rel in ("summary.csv", "h_0.4/report.json", "h_0.25/report.json"))
    ok = same_validate and same_sweep
    _line("9", ok, f"validate bytes identical: {same_validate}; sweep bytes "
                   f"identical: {same_sweep}")
    assert same_validate
    assert same_sweep


def test_criterion_10_scale_smoke():
    t0 = time.monotonic()
    mesh = h.generate_voxel_domain("ball", 0.029)
    assert mesh.n_t >= 1_000_000
    engine = h.HodgeDecomposer(mesh)
    X = h.sample_analytic(mesh, "X0")
    r = engine.decompose(X, "FD")
    elapsed = time.monotonic() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e9
    pyth, worst = _pythagoras_and_orthogonality(r)
    ok = elapsed <= 600.0 and peak_gb < 16.0 and pyth <= 1e-8 \
        and worst <= 1e-8
    _line("10", ok, f"{mesh.n_t} tets, FD in {elapsed:.0f}s, peak "
                    f"{peak_gb:.2f} GB, Pythagoras {pyth:.2e}, "
                    f"orthogonality {worst:.2e}")
    assert elapsed <= 600.0
    assert peak_gb < 16.0
    assert pyth <= 1e-8
    assert worst <= 1e-8
    # X0's gradient rhs sits at the rounding floor, so its face solve stops
    # by atol. X012's is far above it: its unconstrained face solve must
    # reach tol on the same engine (without the kernel projection it
    # stalled and raised ConvergenceError).
    r = engine.decompose(h.sample_analytic(mesh, "X012"), "FD")
    pyth, worst = _pythagoras_and_orthogonality(r)
    its = {stage: rep.iterations for stage, rep in r.solver_reports}
    ok = pyth <= 1e-8 and worst <= 1e-8
    _line("10", ok, f"X012 FD on the same engine: iterations {its}, "
                    f"Pythagoras {pyth:.2e}, orthogonality {worst:.2e}")
    assert pyth <= 1e-8
    assert worst <= 1e-8
