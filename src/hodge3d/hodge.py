"""Orthogonal decompositions of piecewise constant fields.

Every scheme is an iterated residual pipeline: project, subtract, repeat.
The three-term schemes split a field against one curl space and one
gradient space; the four- and five-term schemes refine those parts by
further projections, and the remainders are the topology-carrying
harmonic components. Only the gradient projections are solved: each
curl projection is the complement of a gradient projection and of a
projection onto a harmonic space whose dimension is a Betti number.

Component names follow the classical vocabulary: fluxless knots (curls of
boundary-normal potentials), grounded gradients (gradients vanishing on
the boundary), curly gradients (simultaneously a curl and a gradient),
and the Neumann/Dirichlet harmonic fields whose dimensions count cavities
and tunnels.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .assembly import (SparseSymMatrix, _table_for, assemble_gram,
                       assemble_rhs, reconstruct)
from .errors import ConvergenceError, FieldError
from .fem import _chunks, build_element_tables
from .fields import Pcvf, combine, l2_inner, random_field, sq_norm
from .mesh import _LOCAL_EDGES, TetMesh, _interior_face_tets, betti_numbers
from .solver import SolveReport, auxiliary_space_cycle, solve_spsd

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
# chains: the Neumann type splits off the constrained gradients first, the
# Dirichlet type the unconstrained ones, and the curl step then splits the
# rest into its curl and harmonic parts. HMF_N refines FN's curl part,
# HMF_D refines FD's gradient part, and FULL further splits HMF_D's
# harmonic gradient. Only grad steps solve; see `HodgeDecomposer.decompose`
# for how a curl step gets by with one solve or none.
_FN = (("input", "grad", True, "grounded_gradient", "gradient_free"),
       ("gradient_free", "curl", False, "curl", "harmonic_neumann"))
_FD = (("input", "grad", False, "gradient", "gradient_free"),
       ("gradient_free", "curl", True, "fluxless_knot", "harmonic_dirichlet"))
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

# Direct-path chains: each step (space, constrained, keep) solves the
# projection of the current field and keeps the projection or the
# remainder. The dimension oracle runs them on its probes, so it never
# relies on the harmonic bases whose dimensions it checks.
_DIMENSION_SOURCES = {
    "neumann": (("curl", False, "remainder"), ("grad", True, "remainder")),
    "dirichlet": (("curl", True, "remainder"), ("grad", False, "remainder")),
    "central": (("curl", True, "remainder"), ("grad", False, "projection"),
                ("grad", True, "remainder"), ("curl", False, "projection")),
}
# Probes the dimension oracle takes beyond the expected dimension, at least.
_SPARE_PROBES = 5

# Tet-local edges of the face opposite each local vertex.
_FACE_EDGES = np.array([[j for j, e in enumerate(_LOCAL_EDGES) if k not in e]
                        for k in range(4)])


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


def _smoothing_bound(tables) -> float:
    """An upper bound on lambda_max(D^-1 A) for the face Gram A and its
    interior block.

    A sums, over the tets, a multiple of the 4x4 Gram K_t of the tet's
    hat-function gradients, and its diagonal D sums theirs, so
    lambda_max(D^-1 A) <= max_t lambda_max(D_t^-1 K_t); the interior block
    is a principal block and has no larger one. That local value is the
    largest eigenvalue of S_t, the sum of u u^T over the tet's four unit
    gradient directions u. S_t is 3x3 with trace 4, so the Laguerre-
    Samuelson inequality bounds it by 4/3 + sqrt(2 (tr(S_t^2) / 3 - 16/9)).
    """
    sq = 0.0
    # in chunks of tets, so that the temporaries stay small
    for sl in _chunks(len(tables.cr_gradients)):
        g = tables.cr_gradients[sl]
        u = g / np.linalg.norm(g, axis=2, keepdims=True)
        S = np.einsum("tkd,tke->tde", u, u)
        sq = max(sq, float(np.einsum("tde,tde->t", S, S).max()))
    return 4.0 / 3.0 + np.sqrt(2.0 * max(sq / 3.0 - 16.0 / 9.0, 0.0))


def _normalize_scheme(scheme: str) -> str:
    s = scheme.upper()
    if s not in SCHEMES:
        raise ValueError(f"unknown scheme '{scheme}' (choose from {SCHEMES})")
    return s


class HodgeDecomposer:
    """Decomposition engine for one mesh.

    Builds the element tables once and caches across projections one Gram
    matrix per space (curl/gradient basis), its interior block as the
    boundary-constrained system, the multilevel cycle of each face system,
    and the two harmonic bases, so repeated decompositions on the same
    mesh only pay for the solves. A system's Gram is assembled on the
    first projection whose rhs is above the rounding floor; a projection
    at the floor is zero and takes only the Gram's peak diagonal, which
    comes from the element tables. So a `verify` whose curl checks are
    all orthogonal by discrete Stokes assembles no edge Gram.
    """

    def __init__(self, mesh: TetMesh, tol: float = 1e-12,
                 max_iter: int | None = None):
        self.mesh = mesh
        self.tol = tol
        self.max_iter = max_iter
        self.tables, self._dof_edge, self._dof_face = build_element_tables(mesh)
        self._grams = {}
        self._peaks = {}
        self._cycles = {}
        self._vertex_system = None
        self._bases = {}

    def _dofmap(self, space: str):
        return self._dof_edge if space == "curl" else self._dof_face

    def _gram(self, space: str, constrained: bool) -> SparseSymMatrix:
        key = (space, constrained)
        if key not in self._grams:
            if constrained:
                # Ned_0 and CR_0 are spanned by the interior dofs, so their
                # system is the interior block of the unconstrained Gram
                full = self._gram(space, False).csr
                free = self._dofmap(space).interior_mask
                self._grams[key] = SparseSymMatrix(csr=full[free][:, free])
            else:
                self._grams[key] = assemble_gram(self.mesh, self.tables,
                                                 self._dofmap(space))
        return self._grams[key]

    def _peak_diagonal(self, space: str, constrained: bool) -> float:
        """The largest diagonal entry of a system's Gram, from the element
        tables: A_jj = sum_t vol(t) |d_tj|^2, so no Gram is assembled."""
        key = (space, constrained)
        if key not in self._peaks:
            dofmap = self._dofmap(space)
            d = _table_for(self.tables, dofmap)
            diag = np.bincount(dofmap.tet_to_dof.ravel(), weights=(
                self.mesh.volumes[:, None] * np.einsum("tld,tld->tl", d, d)
            ).ravel(), minlength=dofmap.n_dofs)
            if constrained:
                diag = diag[dofmap.interior_mask]
            self._peaks[key] = float(diag.max(initial=0.0))
        return self._peaks[key]

    def _cycle(self, constrained: bool):
        """The auxiliary-space cycle that preconditions a face system.

        Its vertex operator is the P1 Laplacian L = P^T A P of the
        unconstrained face Gram A, with P the face-from-vertex averaging;
        since P1_0 is a subspace of CR_0, the constrained system's vertex
        operator is the interior-vertex block of that one L, and its P the
        interior-face, interior-vertex block of P. P, L and the smoothing
        bound are built once per engine.
        """
        if constrained not in self._cycles:
            mesh = self.mesh
            if self._vertex_system is None:
                n_f = mesh.n_f
                P = csr_matrix((np.full(3 * n_f, 1.0 / 3.0), mesh.faces.ravel(),
                                np.arange(0, 3 * n_f + 1, 3)),
                               shape=(n_f, mesh.n_v))
                A = self._gram("grad", False).csr
                self._vertex_system = (P, (P.T @ (A @ P)).tocsr(),
                                       _smoothing_bound(self.tables))
            P, L, bound = self._vertex_system
            A = self._gram("grad", constrained).csr
            if constrained:
                rows, cols = self._dof_face.interior_mask, ~mesh.boundary_vertex
                P, L = P[rows][:, cols], L[cols][:, cols]
            self._cycles[constrained] = auxiliary_space_cycle(A, P, L, bound)
        return self._cycles[constrained]

    def _project(self, X: Pcvf, space: str, constrained: bool,
                 reports: list | None = None, prefix: str = "") -> Pcvf:
        """L2-orthogonal projection; appends (stage, report) to `reports`."""
        if X.mesh is not self.mesh:
            raise FieldError("field does not live on this decomposer's mesh")
        stage = prefix + _stage(space, constrained)
        dofmap = self._dofmap(space)
        b = assemble_rhs(X, self.tables, dofmap)
        # Cauchy-Schwarz bounds every |b_j| by |X| * sqrt(A_jj); an rhs below
        # rounding level of that scale means the projection is zero, and
        # then the Gram is neither assembled nor solved with.
        peak = self._peak_diagonal(space, constrained)
        atol = 1e-13 * np.sqrt(sq_norm(X) * peak)
        free = dofmap.interior_mask if constrained else slice(None)
        coeff = np.zeros(dofmap.n_dofs)
        if np.linalg.norm(b[free]) <= atol:
            report = SolveReport(iterations=0, relative_residual=0.0,
                                 converged=True)
        else:
            M = self._cycle(constrained) if space == "grad" else None
            kernel = self._face_solid() if space == "grad" and not constrained \
                else None
            coeff[free], report = solve_spsd(
                self._gram(space, constrained), b[free], tol=self.tol,
                max_iter=self.max_iter, atol=atol, M=M, kernel=kernel)
            if not report.converged:
                raise ConvergenceError(stage, report)
        if reports is not None:
            reports.append((stage, report))
        return reconstruct(self.mesh, self.tables, dofmap, coeff)

    def _face_solid(self) -> np.ndarray:
        """The connected solid of every face; the constants on each solid's
        faces span the kernel of the unconstrained face Gram."""
        solid = self.mesh._tet_forest[1]
        face_solid = np.empty(self.mesh.n_f, dtype=solid.dtype)
        face_solid[self.mesh.tet_faces] = solid[:, None]
        return face_solid

    def _surface_lifts(self):
        """Gradients of the CR functions that are 1 on the faces of one
        boundary surface and 0 on every other face, for all surfaces but
        one per connected solid (lifting all of a solid's surfaces gives a
        constant, whose gradient vanishes)."""
        mesh = self.mesh
        bfaces, label, _, n_surf = mesh._boundary_surfaces
        face_solid = self._face_solid()
        surface_solid = np.empty(n_surf, dtype=face_solid.dtype)
        surface_solid[label] = face_solid[bfaces]
        unlifted = np.unique(surface_solid, return_index=True)[1]
        for s in np.setdiff1d(np.arange(n_surf), unlifted):
            coeff = np.zeros(mesh.n_f)
            coeff[bfaces[label == s]] = 1.0
            yield reconstruct(mesh, self.tables, self._dof_face, coeff)

    def _cut_fields(self):
        """Fields whose Dirichlet remainders span H_D, one per tunnel.

        Each interior face f gets a jump J_f, and the field is J_f times
        the gradient of f's CR basis function on the first of f's two
        tets: the broken gradient of a CR function that jumps by J_f across
        f. It is L2-orthogonal to curl Ned_0 exactly when, at every
        interior edge e, sum_f J_f * s_ef = 0 with s_ef = (field of f,
        curl N_e) = +-1 for the faces of e (discrete Stokes: the jump
        surface ends on the boundary). Jumps that are differences of
        per-tet constants give gradients of CR functions; fixing J = 0 on
        a spanning forest of the tet graph removes them and leaves a b1-
        dimensional solution space. The forest is the mesh's cached one
        (`TetMesh._tet_forest`): the minimum spanning forest when each
        interior face weighs its index, which Borůvka rounds find in
        numpy. The solutions are found by peeling, in rounds:
        every edge with one undetermined face determines that face, one
        edge per face; when no edge has one, the lowest undetermined face
        becomes a free parameter. The edges never used that way give
        equations on the parameters, whose null space picks the
        solutions. The jumps are O(1) on the faces of a surface that cuts
        the tunnels, so the field's H_D part is a flux through that
        surface and does not shrink with the tet count, as a random
        field's would.
        """
        mesh, tables = self.mesh, self.tables
        if betti_numbers(mesh).b1 == 0:
            return
        owner, slot, _ = _interior_face_tets(mesh)
        n_if = len(owner)
        undetermined = ~mesh._tet_forest[2]

        grads = tables.cr_gradients[owner, slot]
        local = _FACE_EDGES[slot]
        edge = mesh.tet_edges[owner[:, None], local]
        sign = np.rint(mesh.volumes[owner, None] * np.einsum(
            "fd,fld->fl", grads, tables.ned_curls[owner[:, None], local]))
        edge = np.where(mesh.boundary_edge[edge], -1, edge)
        inner = edge >= 0
        face_of = np.broadcast_to(np.arange(n_if)[:, None], edge.shape)[inner]
        inc = csr_matrix((sign[inner], (edge[inner], face_of)),
                         shape=(mesh.n_e, n_if))
        # open_count[e]: the undetermined faces of edge e; coeff: the jumps
        # of the faces in terms of the parameters (zero rows: undetermined)
        open_count = np.bincount(edge[inner][undetermined[face_of]],
                                 minlength=mesh.n_e)
        used = np.zeros(mesh.n_e, dtype=bool)
        coeff = np.zeros((n_if, 0))
        while undetermined.any():
            ready = np.flatnonzero(open_count == 1)
            if len(ready):
                rows = inc[ready]
                open_entry = undetermined[rows.indices]
                # one edge per face: the first of the edges that reach it
                target, first = np.unique(rows.indices[open_entry],
                                          return_index=True)
                used[ready[first]] = True
                coeff[target] = (-rows.data[open_entry][first, None]
                                 * (rows[first] @ coeff))
            else:
                target = np.flatnonzero(undetermined)[:1]
                coeff = np.hstack([coeff, np.zeros((n_if, 1))])
                coeff[target, -1] = 1.0
            undetermined[target] = False
            settled = edge[target]
            open_count -= np.bincount(settled[settled >= 0],
                                      minlength=mesh.n_e)
        n_param = coeff.shape[1]
        if n_param == 0:
            return

        unused = np.flatnonzero(~used & (np.diff(inc.indptr) > 0))
        equations = np.vstack([np.zeros(n_param), inc[unused] @ coeff])
        sv, vt = np.linalg.svd(np.linalg.qr(equations, mode="r"))[1:]
        null = vt[int((sv > 1e-9 * max(sv[0], 1.0)).sum()):].T
        for J in (coeff @ null).T:
            vectors = np.zeros((mesh.n_t, 3))
            np.add.at(vectors, owner, J[:, None] * grads)
            yield Pcvf(mesh, vectors)

    def _harmonic_basis(self, kind: str, reports: list) -> list:
        """L2-orthonormal basis of H_N ("neumann") or H_D ("dirichlet").

        Built on first use and cached; its solves are appended to
        `reports` under the stage `basis_<kind>/<stage>`. H_N is spanned
        by the gradients of the surface lifts minus their grad-constrained
        projections; by discrete Stokes on each closed surface such a
        gradient is already orthogonal to curl Ned. H_D is spanned by the
        cut fields minus their grad-unconstrained projections; the cut
        fields are orthogonal to curl Ned_0 by construction. Each seed is
        projected twice. A remainder keeps only a share of its seed's
        norm (a cut field's is 5-8% at h = 0.2-0.1), and the first solve
        stops at a residual relative to the seed; the second starts from
        the remainder, stops at a residual relative to it, and takes about
        a tenth of the first one's iterations. Remainders of the unit-norm
        seeds below ZERO_THRESHOLD are dropped before the
        orthonormalization.
        """
        if kind not in self._bases:
            if kind == "neumann":
                seeds, constrained = self._surface_lifts(), True
            else:
                seeds, constrained = self._cut_fields(), False
            kept = []
            for Y in seeds:
                Y = Pcvf(self.mesh, Y.vectors / np.sqrt(sq_norm(Y)))
                for _ in range(2):
                    P = self._project(Y, "grad", constrained, reports,
                                      f"basis_{kind}/")
                    Y = combine(Y, P, 1.0, -1.0)
                if sq_norm(Y) >= ZERO_THRESHOLD:
                    kept.append(Y.vectors)
            basis = []
            if kept:
                # QR of the volume-weighted vectors: orthonormal in L2
                w = np.sqrt(self.mesh.volumes)[:, None]
                q = np.linalg.qr(np.stack([(v * w).ravel() for v in kept],
                                          axis=1))[0]
                basis = [Pcvf(self.mesh, col.reshape(-1, 3) / w) for col in q.T]
            self._bases[kind] = basis
        return self._bases[kind]

    def project_curl(self, X: Pcvf, constrained: bool = True) -> Pcvf:
        """L2-orthogonal projection onto the (constrained) curl space."""
        return self._project(X, "curl", constrained)

    def project_grad(self, X: Pcvf, constrained: bool = True) -> Pcvf:
        """L2-orthogonal projection onto the (constrained) gradient space."""
        return self._project(X, "grad", constrained)

    def decompose(self, X: Pcvf, scheme: str) -> DecompositionResult:
        """Run the residual pipeline of `scheme` on X.

        Each step projects a named field onto a curl or gradient space
        and subtracts; the projection and the remainder are kept under
        the step's names, and the fields no later step uses are the
        components.

        Only the grad steps solve. A curl step takes its projection from
        the paper's two orthogonal splits, curl Ned_0 + grad CR + H_D and
        curl Ned + grad CR_0 + H_N: with the grad space G and the harmonic
        space H that complete the curl space, P_curl Y = R - P_H R for
        R = Y - P_G Y. P_G Y is zero, and not solved, when Y is itself the
        remainder of a projection onto G. P_H uses the cached harmonic
        basis, which is empty when the Betti number is 0. The solves that
        build a basis run in the first decompose that needs it and are
        listed in its `solver_reports`. Building a basis needs the
        boundary surfaces and Betti numbers, so a mesh that is not a solid
        in 3-space raises NonManifoldError.
        """
        scheme = _normalize_scheme(scheme)
        steps = _STEPS[scheme]
        made_by = {step[4]: step[1:3] for step in steps}
        reports = []
        parts = {"input": X}
        for source, space, constrained, projection, remainder in steps:
            Y = parts[source]
            if space == "grad":
                P = self._project(Y, "grad", constrained, reports)
            else:
                R = Y
                if made_by.get(source) != ("grad", not constrained):
                    R = combine(Y, self._project(Y, "grad", not constrained,
                                                 reports), 1.0, -1.0)
                basis = self._harmonic_basis(
                    "dirichlet" if constrained else "neumann", reports)
                P = R
                for e in basis:
                    P = combine(P, e, 1.0, -l2_inner(R, e))
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
        Every norm is taken from the fields, never from the stored
        `sq_norms`, zero flags or input norm, which a caller may edit.
        Reporting only; nothing is raised.
        """
        checks = []
        comps = result.components
        X = result.input
        sq = {name: sq_norm(f) for name, f in comps.items()}
        in_sq = sq_norm(X)
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
        add("pythagoras", abs(in_sq - sum(sq.values())), pyth_bound)

        # zero-classified components are noise-floor fields with no
        # meaningful direction; they count as zero in the pairwise check
        names = [n for n in comps if sq[n] >= ZERO_THRESHOLD]
        worst = 0.0
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                ni = np.sqrt(sq[names[i]])
                nj = np.sqrt(sq[names[j]])
                worst = max(worst, abs(l2_inner(comps[names[i]],
                                                comps[names[j]])) / (ni * nj))
        add("orthogonality", worst, 1e-8)

        mem_bound = ZERO_THRESHOLD * max(1.0, in_sq)
        for name, comp in comps.items():
            comp_sq = sq[name]
            for space, constrained in _RELATIONS[name]:
                if comp_sq <= mem_bound:
                    value = comp_sq
                else:
                    value = sq_norm(self._project(comp, space, constrained))
                add(f"{name}_vs_{_stage(space, constrained)}", value, mem_bound)
        return VerificationReport(checks=checks)


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

    Takes the requested component of `probes` seeded unit-norm random
    fields and returns the numerical rank of their Gram matrix at relative
    eigenvalue threshold 1e-8. Components that are zero-classified
    (squared norm below 1e-10) are discarded first. Every projection on
    the way to a component is solved directly, curl ones included; the
    harmonic bases that `decompose` uses are never built here, so the
    result is an independent check of their dimensions.

    The number of probes must exceed the topologically expected dimension
    by at least 5 (the default).
    """
    try:
        chain = _DIMENSION_SOURCES[which]
    except KeyError:
        raise ValueError(f"unknown subspace '{which}' "
                         f"(choose from {sorted(_DIMENSION_SOURCES)})") from None
    expected = _expected_dimension(mesh, which)
    min_probes = expected + _SPARE_PROBES
    if probes is None:
        probes = min_probes
    if probes < min_probes:
        raise ValueError(f"probe count {probes} below required minimum "
                         f"{min_probes} (expected dimension {expected} "
                         f"+ {_SPARE_PROBES})")

    engine = HodgeDecomposer(mesh, tol=tol, max_iter=max_iter)
    kept = []
    for i in range(probes):
        comp = random_field(mesh, seed=[seed, i], normalize=True)
        for space, constrained, keep in chain:
            P = engine._project(comp, space, constrained)
            comp = P if keep == "projection" else combine(comp, P, 1.0, -1.0)
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
