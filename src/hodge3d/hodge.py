"""Orthogonal decompositions of piecewise constant fields.

Every scheme is an iterated residual pipeline: project, subtract, repeat.
The three-term schemes split a field against one curl space and one
gradient space; the four- and five-term schemes refine those parts by
further projections, and the remainders are the topology-carrying
harmonic components.

Component names follow the classical vocabulary: fluxless knots (curls of
boundary-normal potentials), grounded gradients (gradients vanishing on
the boundary), curly gradients (simultaneously a curl and a gradient),
and the Neumann/Dirichlet harmonic fields whose dimensions count cavities
and tunnels.
"""

from dataclasses import dataclass, field

import numpy as np

from .assembly import SparseSymMatrix, assemble_gram, assemble_rhs, reconstruct
from .errors import ConvergenceError, FieldError
from .fem import build_element_tables
from .fields import Pcvf, combine, l2_inner, random_field, sq_norm
from .mesh import TetMesh, betti_numbers
from .solver import solve_spsd

__all__ = [
    "ZERO_THRESHOLD",
    "SCHEMES",
    "SCHEME_COMPONENTS",
    "DecompositionResult",
    "CheckResult",
    "VerificationReport",
    "HodgeDecomposer",
    "estimate_harmonic_dimension",
]

# Squared-norm threshold below which a component is labeled zero. Used
# for classification only, never inside the arithmetic.
ZERO_THRESHOLD = 1e-10


# The steps of each scheme, in projection order. A step (source, space,
# constrained, projection, remainder) projects the field named `source`
# onto the curl or grad space, with or without the boundary constraint,
# and names the projection and the remainder. FN and FD are the two
# chains: the Neumann type projects onto the unconstrained curl space
# first, the Dirichlet type onto the constrained one. HMF_N refines FN's
# curl part, HMF_D refines FD's gradient part, and FULL further splits
# HMF_D's harmonic gradient.
_FN = (("input", "curl", False, "curl", "curl_free"),
       ("curl_free", "grad", True, "grounded_gradient", "harmonic_neumann"))
_FD = (("input", "curl", True, "fluxless_knot", "knot_free"),
       ("knot_free", "grad", False, "gradient", "harmonic_dirichlet"))
_HMF_D = _FD + (
    ("gradient", "grad", True, "grounded_gradient", "harmonic_gradient"),)
_STEPS = {
    "FN": _FN,
    "FD": _FD,
    "HMF_N": _FN + (("curl", "curl", True, "fluxless_knot", "harmonic_curl"),),
    "HMF_D": _HMF_D,
    "FULL": _HMF_D + (("harmonic_gradient", "curl", False, "curly_gradient",
                       "harmonic_neumann"),),
}

# Every component in report order, with the projections (space,
# constrained) under which it must vanish: the orthogonality relations
# that define it, whatever the scheme.
_RELATIONS = {
    "curl": (),
    "fluxless_knot": (),
    "gradient": (),
    "grounded_gradient": (),
    "curly_gradient": (("curl", True), ("grad", True)),
    "harmonic_curl": (("curl", True), ("grad", True)),
    "harmonic_gradient": (("curl", True), ("grad", True)),
    "harmonic_neumann": (("curl", False), ("grad", True)),
    "harmonic_dirichlet": (("curl", True), ("grad", False)),
}


def _components(steps) -> tuple:
    """The fields a pipeline ends with: named by a step, used by none."""
    named = {n for step in steps for n in step[3:]}
    used = {step[0] for step in steps}
    return tuple(n for n in _RELATIONS if n in named - used)


SCHEMES = tuple(_STEPS)
SCHEME_COMPONENTS = {scheme: _components(steps)
                     for scheme, steps in _STEPS.items()}


@dataclass
class DecompositionResult:
    """Named components of one decomposition plus norm diagnostics."""

    scheme: str
    input: Pcvf
    components: dict
    sq_norms: dict
    input_sq_norm: float
    zero_flags: dict
    solver_reports: list = field(default_factory=list)

    def fractions(self) -> dict:
        if self.input_sq_norm == 0.0:
            return {k: 0.0 for k in self.components}
        return {k: v / self.input_sq_norm for k, v in self.sq_norms.items()}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: float


@dataclass
class VerificationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]


def _stage(space: str, constrained: bool) -> str:
    return f"{space}_{'constrained' if constrained else 'unconstrained'}"


def _normalize_scheme(scheme: str) -> str:
    s = scheme.upper()
    if s not in SCHEMES:
        raise ValueError(f"unknown scheme '{scheme}' (choose from {SCHEMES})")
    return s


class HodgeDecomposer:
    """Decomposition engine for one mesh.

    Builds the element tables once and caches the four Gram matrices
    (curl/gradient basis, with and without boundary constraint) across
    projections, so repeated decompositions on the same mesh only pay for
    the solves.
    """

    def __init__(self, mesh: TetMesh, tol: float = 1e-12,
                 max_iter: int | None = None):
        self.mesh = mesh
        self.tol = tol
        self.max_iter = max_iter
        self.tables, self._dof_edge, self._dof_face = build_element_tables(mesh)
        self._grams = {}

    def _dofmap(self, space: str):
        return self._dof_edge if space == "curl" else self._dof_face

    def _gram(self, space: str, constrained: bool):
        key = (space, constrained)
        if key not in self._grams:
            dofmap = self._dofmap(space)
            gram = assemble_gram(self.mesh, self.tables, dofmap, constrained)
            if constrained:
                # the boundary block is an identity with a zero rhs, so the
                # solve runs on the interior dofs only
                free = dofmap.interior_mask
                gram = SparseSymMatrix(csr=gram.csr[free][:, free])
            diag = gram.diagonal()
            peak = float(diag.max()) if len(diag) else 0.0
            self._grams[key] = (gram, peak)
        return self._grams[key]

    def _project(self, X: Pcvf, space: str, constrained: bool):
        if X.mesh is not self.mesh:
            raise FieldError("field does not live on this decomposer's mesh")
        stage = _stage(space, constrained)
        dofmap = self._dofmap(space)
        b = assemble_rhs(X, self.tables, dofmap, constrained)
        gram, peak_diag = self._gram(space, constrained)
        # Cauchy-Schwarz bounds every |b_j| by |X| * sqrt(A_jj); an rhs below
        # rounding level of that scale means the projection is zero.
        atol = 1e-13 * np.sqrt(sq_norm(X) * peak_diag)
        free = dofmap.interior_mask if constrained else slice(None)
        coeff = np.zeros(dofmap.n_dofs)
        coeff[free], report = solve_spsd(gram, b[free], tol=self.tol,
                                         max_iter=self.max_iter, atol=atol)
        if not report.converged:
            raise ConvergenceError(stage, report)
        return reconstruct(self.mesh, self.tables, dofmap, coeff), report, stage

    def project_curl(self, X: Pcvf, constrained: bool = True) -> Pcvf:
        """L2-orthogonal projection onto the (constrained) curl space."""
        return self._project(X, "curl", constrained)[0]

    def project_grad(self, X: Pcvf, constrained: bool = True) -> Pcvf:
        """L2-orthogonal projection onto the (constrained) gradient space."""
        return self._project(X, "grad", constrained)[0]

    def decompose(self, X: Pcvf, scheme: str) -> DecompositionResult:
        """Run the residual pipeline of `scheme` on X.

        Each step projects a named field onto a curl or gradient space
        and subtracts; the projection and the remainder are kept under
        the step's names, and the fields no later step uses are the
        components.
        """
        scheme = _normalize_scheme(scheme)
        reports = []
        parts = {"input": X}
        for source, space, constrained, projection, remainder in _STEPS[scheme]:
            Y = parts[source]
            P, rep, stage = self._project(Y, space, constrained)
            reports.append((stage, rep))
            parts[projection] = P
            parts[remainder] = combine(Y, P, 1.0, -1.0)

        comps = {name: parts[name] for name in SCHEME_COMPONENTS[scheme]}
        norms = {name: sq_norm(f) for name, f in comps.items()}
        return DecompositionResult(
            scheme=scheme,
            input=X,
            components=comps,
            sq_norms=norms,
            input_sq_norm=sq_norm(X),
            zero_flags={name: v < ZERO_THRESHOLD for name, v in norms.items()},
            solver_reports=reports,
        )

    def verify(self, result: DecompositionResult) -> VerificationReport:
        """Check the structural guarantees of a decomposition result.

        Evaluates the telescoping reconstruction, the Pythagoras identity,
        pairwise orthogonality, and the membership residuals. A membership
        check's value is the squared norm of a harmonic component
        re-projected onto a space it must be orthogonal to. When the
        component's own squared norm is already within the bound, the
        value is that norm instead and no solve runs: by Bessel's
        inequality no projection of a field is longer than the field.
        Reporting only; nothing is raised.
        """
        checks = []
        comps = result.components
        X = result.input
        in_sq = result.input_sq_norm
        in_norm = np.sqrt(in_sq)

        def add(name, value, bound):
            checks.append(CheckResult(name, bool(value <= bound),
                                      float(value), float(bound)))

        total = X
        for f in comps.values():
            total = combine(total, f, 1.0, -1.0)
        rec = np.sqrt(sq_norm(total)) / (in_norm if in_norm > 0 else 1.0)
        add("reconstruction", rec, 1e-10)

        pyth_bound = 1e-8 * (in_sq if in_sq > 0 else 1.0)
        add("pythagoras", abs(in_sq - sum(result.sq_norms.values())), pyth_bound)

        # zero-classified components are noise-floor fields with no
        # meaningful direction; they count as zero in the pairwise check
        names = [n for n in comps if not result.zero_flags[n]]
        worst = 0.0
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                ni = np.sqrt(result.sq_norms[names[i]])
                nj = np.sqrt(result.sq_norms[names[j]])
                worst = max(worst, abs(l2_inner(comps[names[i]],
                                                comps[names[j]])) / (ni * nj))
        add("orthogonality", worst, 1e-8)

        mem_bound = ZERO_THRESHOLD * max(1.0, in_sq)
        for name, comp in comps.items():
            # from the field itself: a caller may have edited result.sq_norms
            comp_sq = sq_norm(comp)
            for space, constrained in _RELATIONS[name]:
                if comp_sq <= mem_bound:
                    value = comp_sq
                else:
                    value = sq_norm(self._project(comp, space, constrained)[0])
                add(f"{name}_vs_{_stage(space, constrained)}", value, mem_bound)
        return VerificationReport(checks=checks)


_DIMENSION_SOURCES = {
    "neumann": ("FN", "harmonic_neumann"),
    "dirichlet": ("FD", "harmonic_dirichlet"),
    "central": ("FULL", "curly_gradient"),
}


def _expected_dimension(mesh: TetMesh, which: str) -> int:
    """The dimension the topology of `mesh` predicts for a subspace."""
    b = betti_numbers(mesh)
    return {"neumann": b.h2, "dirichlet": b.h2_rel,
            "central": mesh.counts.n_bf - b.h2 - 1}[which]


def estimate_harmonic_dimension(mesh: TetMesh, which: str,
                                probes: int | None = None, seed: int = 2024,
                                tol: float = 1e-12,
                                max_iter: int | None = None) -> int:
    """Numerical dimension of a harmonic (or central) subspace.

    Decomposes `probes` seeded unit-norm random fields, collects the
    requested component of each, and returns the numerical rank of their
    Gram matrix at relative eigenvalue threshold 1e-8. Components that
    are zero-classified (squared norm below 1e-10) are discarded first.

    The number of probes must exceed the topologically expected dimension
    by at least 5 (the default).
    """
    try:
        scheme, component = _DIMENSION_SOURCES[which]
    except KeyError:
        raise ValueError(f"unknown subspace '{which}' "
                         f"(choose from {sorted(_DIMENSION_SOURCES)})") from None
    expected = _expected_dimension(mesh, which)
    min_probes = expected + 5
    if probes is None:
        probes = min_probes
    if probes < min_probes:
        raise ValueError(f"probe count {probes} below required minimum "
                         f"{min_probes} (expected dimension {expected} + 5)")

    engine = HodgeDecomposer(mesh, tol=tol, max_iter=max_iter)
    kept = []
    for i in range(probes):
        X = random_field(mesh, seed=[seed, i], normalize=True)
        comp = engine.decompose(X, scheme).components[component]
        if sq_norm(comp) >= ZERO_THRESHOLD:
            kept.append(comp)
    if not kept:
        return 0
    gram = np.empty((len(kept), len(kept)))
    for i in range(len(kept)):
        for j in range(i, len(kept)):
            gram[i, j] = gram[j, i] = l2_inner(kept[i], kept[j])
    w = np.linalg.eigvalsh(gram)
    return int((w > 1e-8 * w[-1]).sum())
