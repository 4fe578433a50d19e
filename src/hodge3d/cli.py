"""Command-line frontend.

Subcommands wire domains, fields, schemes, and outputs into reproducible
runs: `decompose` for a single field, `validate` for the built-in
analytic-field suite, `dims` for harmonic-space dimensions vs. topology,
and `sweep` for resolution or noise studies. Each handler runs on the
parsed arguments. `_check` applies every flag rule that needs no mesh
before a mesh is built; generate_voxel_domain checks --h and the domain
parameters, and `dims` checks --probes against the mesh's topology.
`_build_inputs` alone puts a decomposition's mesh and field together. Exit
codes: 0 success, 1 input error (a bad flag value included) or a failed
allocation, 2 solver non-convergence. All randomness flows through
explicit --seed flags; HODGE3D_THREADS caps sweep workers.
"""

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from ._version import __version__
from .errors import ConvergenceError, Hodge3dError
from .fields import ANALYTIC_FIELDS, Pcvf, add_noise, sample_analytic
from .hodge import (_DIMENSION_SOURCES, _SPARE_PROBES, SCHEME_COMPONENTS,
                    SCHEMES, HodgeDecomposer, _expected_dimension,
                    estimate_harmonic_dimension)
from .io import _read_mesh_and_field, make_report, read_mesh, write_outputs
from .mesh import DOMAIN_TOPOLOGY, betti_numbers, generate_voxel_domain

__all__ = ["main"]


class _UsageError(ValueError):
    pass


def _build_mesh(ns):
    if ns.mesh is not None:
        return read_mesh(ns.mesh)
    return generate_voxel_domain(ns.domain, ns.h, **_domain_params(ns))


def _transfer_field(src: Pcvf, dst_mesh) -> Pcvf:
    """Nearest-barycenter transfer of a per-tet field onto another mesh."""
    from scipy.spatial import cKDTree

    tree = cKDTree(src.mesh.barycenters())
    _, idx = tree.query(dst_mesh.barycenters())
    return Pcvf(dst_mesh, src.vectors[idx])


def _build_inputs(ns):
    """The mesh and the field of a decomposition. A file: field is parsed
    once. When it is --mesh, the run takes the file's own mesh and field;
    any other mesh takes the field by nearest-barycenter transfer, which
    is exact on an identical mesh."""
    src = ns.field
    path = src[5:] if src.startswith("file:") else None
    if path is not None and ns.mesh is not None and \
            os.path.abspath(path) == os.path.abspath(ns.mesh):
        mesh, X = _read_mesh_and_field(path, resample=ns.resample)
    else:
        mesh = _build_mesh(ns)
        if path is not None:
            _, X = _read_mesh_and_field(path, resample=ns.resample)
            X = _transfer_field(X, mesh)
        elif src in ANALYTIC_FIELDS:
            X = sample_analytic(mesh, src)
        else:
            raise _UsageError(f"unknown field '{src}' (analytic fields: "
                              f"{sorted(ANALYTIC_FIELDS)}, or file:<path>)")
    if ns.rho > 0:
        X = add_noise(X, ns.rho, ns.seed)
    return mesh, X


def _extra_report_entries(ns) -> dict:
    mesh_src = ns.mesh if ns.mesh is not None else \
        f"{ns.domain};h={ns.h};{sorted(_domain_params(ns).items())}"
    return {
        "inputs": {"mesh": mesh_src, "field": ns.field,
                   "rho": ns.rho, "seed": ns.seed},
        "tolerances": {"tol": ns.tol, "max_iter": ns.max_iter},
    }


def _decompose_core(ns):
    mesh, X = _build_inputs(ns)
    engine = HodgeDecomposer(mesh, tol=ns.tol, max_iter=ns.max_iter)
    result = engine.decompose(X, ns.scheme)
    paths = []
    if ns.out:
        paths = write_outputs(result, ns.out, ns.formats,
                              extra=_extra_report_entries(ns))
    return result, paths


def _print_result(result):
    print(f"scheme {result.scheme}: input squared norm "
          f"{result.input_sq_norm:.6g}")
    fractions = result.fractions()
    for name in result.components:
        flag = "  [zero]" if result.zero_flags[name] else ""
        print(f"  {name:<20} {result.sq_norms[name]:14.6e} "
              f"({100 * fractions[name]:6.2f}%){flag}")


def _cmd_decompose(ns) -> int:
    result, paths = _decompose_core(ns)
    _print_result(result)
    for p in paths:
        print(f"wrote {p}")
    return 0


_VALIDATE_CASES = (
    ("X0", "ball"), ("X1", "ball"), ("X2", "ball"), ("X012", "ball"),
    ("X3", "ball_with_cavity"), ("X4", "solid_torus"),
)


def _cmd_validate(ns) -> int:
    h_of = {"ball": ns.h_ball, "ball_with_cavity": ns.h_cavity,
            "solid_torus": ns.h_torus}
    engines = {}
    rows = []
    cases_out = []
    all_passed = True
    for fname, dom in _VALIDATE_CASES:
        if dom not in engines:
            mesh = generate_voxel_domain(dom, h_of[dom])
            engines[dom] = HodgeDecomposer(mesh, tol=ns.tol,
                                           max_iter=ns.max_iter)
        engine = engines[dom]
        X = sample_analytic(engine.mesh, fname)
        result = engine.decompose(X, "FULL")
        verification = engine.verify(result)
        all_passed &= verification.passed
        rows.append((fname, dom, result))
        cases_out.append({
            "field": fname, "domain": dom, "h": h_of[dom],
            "report": make_report(result),
            "checks": [{"name": c.name, "passed": c.passed, "value": c.value,
                        "bound": c.bound} for c in verification.checks],
            "passed": verification.passed,
        })

    comp_names = SCHEME_COMPONENTS["FULL"]
    header = f"{'field':<6} {'domain':<17} {'input':>10} " + \
        " ".join(f"{n[:12]:>12}" for n in comp_names)
    print(header)
    for fname, dom, result in rows:
        vals = " ".join(f"{result.sq_norms[n]:12.4g}" for n in comp_names)
        print(f"{fname:<6} {dom:<17} {result.input_sq_norm:10.4g} {vals}")
    for case in cases_out:
        if not case["passed"]:
            bad = [c["name"] for c in case["checks"] if not c["passed"]]
            print(f"FAILED {case['field']} on {case['domain']}: {bad}",
                  file=sys.stderr)

    if ns.out:
        os.makedirs(ns.out, exist_ok=True)
        path = os.path.join(ns.out, "validate_report.json")
        with open(path, "w", newline="\n") as f:
            json.dump({"tool": {"name": "hodge3d", "version": __version__},
                       "passed": all_passed, "cases": cases_out}, f, indent=2)
            f.write("\n")
        print(f"wrote {path}")
    print("validate: " + ("PASS" if all_passed else "FAIL"))
    return 0 if all_passed else 1


def _cmd_dims(ns) -> int:
    mesh = _build_mesh(ns)
    expected = {which: _expected_dimension(mesh, which) for which in ns.which}
    need = max(expected.values(), default=0) + _SPARE_PROBES
    if ns.probes is not None and ns.probes < need:
        raise _UsageError(f"--probes {ns.probes} is below the required "
                          f"minimum {need}")
    ok = True
    print(f"betti numbers: {tuple(betti_numbers(mesh))}")
    for which in ns.which:
        est = estimate_harmonic_dimension(mesh, which, probes=ns.probes,
                                          seed=ns.seed, tol=ns.tol,
                                          max_iter=ns.max_iter)
        print(f"{which}: {est} (expected {expected[which]})")
        ok &= est == expected[which]
    return 0 if ok else 1


def _sweep_levels(ns) -> list:
    """(kind, value, label) of every sweep level. kind names the swept
    flag, "h" or "rho"; --h doubles as the level list of a resolution
    sweep."""
    kind, values = ("rho", ns.rho_levels) if ns.rho_levels else ("h", ns.h)
    return [(kind, v, f"{kind}_{v:g}") for v in values]


def _sweep_level(args):
    ns, kind, value, label = args
    # a rho sweep runs at its single --h (None with --mesh)
    level = argparse.Namespace(**{
        **vars(ns), "h": ns.h[0] if ns.h else None, kind: float(value),
        "out": os.path.join(ns.out, label) if ns.out else None})
    result, _ = _decompose_core(level)
    row = {"kind": kind, "level": value,
           "n_t": result.input.mesh.n_t,
           "input_sq_norm": result.input_sq_norm}
    fractions = result.fractions()
    for name in result.components:
        row[f"{name}_sq_norm"] = result.sq_norms[name]
        row[f"{name}_fraction"] = fractions[name]
    return label, row


def _cmd_sweep(ns) -> int:
    levels = [(ns, *level) for level in _sweep_levels(ns)]

    threads = os.environ.get("HODGE3D_THREADS", "1") or "1"
    try:
        workers = int(threads)
    except ValueError:
        raise _UsageError("HODGE3D_THREADS must be an integer, "
                          f"got '{threads}'") from None
    workers = max(1, min(workers, len(levels)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_level, levels))
    else:
        outcomes = [_sweep_level(lv) for lv in levels]

    comp_names = SCHEME_COMPONENTS[ns.scheme.upper()]
    fieldnames = ["kind", "level", "n_t", "input_sq_norm"]
    for name in comp_names:
        fieldnames += [f"{name}_sq_norm", f"{name}_fraction"]
    for label, row in outcomes:
        print(f"{label}: " + " ".join(
            f"{name}={row[f'{name}_fraction']:.4f}" for name in comp_names))
    if ns.out:
        os.makedirs(ns.out, exist_ok=True)
        path = os.path.join(ns.out, "summary.csv")
        with open(path, "w", newline="\n") as f:
            writer = csv.DictWriter(f, fieldnames=fieldnames)
            writer.writeheader()
            for _, row in outcomes:
                writer.writerow({k: repr(v) if isinstance(v, float) else v
                                 for k, v in row.items()})
        print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _str_list(text: str) -> tuple:
    return tuple(v for v in text.split(",") if v)


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v)
    except ValueError:
        # argparse shows this message; it replaces a ValueError's with its own
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got '{text}'") from None


def _add_mesh_args(p, h_list=False):
    p.add_argument("--mesh", help="path to a .vtk or .msh tetrahedral mesh")
    p.add_argument("--domain", choices=sorted(DOMAIN_TOPOLOGY),
                   help="generate a built-in test domain (voxel lattice with its "
                        "boundary vertices fitted to the smooth surface) instead "
                        "of reading a file")
    if h_list:
        p.add_argument("--h", type=_float_list,
                       help="voxel size(s); a comma list sweeps resolution")
    else:
        p.add_argument("--h", type=float, help="voxel size for --domain")
    p.add_argument("--radius", type=float)
    p.add_argument("--cavity-radius", type=float)
    p.add_argument("--ring-radius", type=float)
    p.add_argument("--tube-radius", type=float)
    p.add_argument("--height", type=float)
    p.add_argument("--extents", type=_float_list)


def _domain_params(ns) -> dict:
    params = {}
    for key in ("radius", "cavity_radius", "ring_radius", "tube_radius",
                "height", "extents"):
        v = getattr(ns, key, None)
        if v is not None:
            params[key] = v
    return params


def _add_field_args(p):
    p.add_argument("--field", help="analytic field name (X0..X4, X012) "
                                   "or file:<path.vtk>")
    p.add_argument("--resample", choices=["barycentric"],
                   help="allow point-data fields by barycentric averaging")
    p.add_argument("--rho", type=float, default=0.0, help="noise factor")
    p.add_argument("--seed", type=int, default=0, help="noise/probe seed")


def _add_scheme_arg(p, default):
    p.add_argument("--scheme", default=default,
                   choices=[s.lower() for s in SCHEMES])


def _add_solver_args(p):
    p.add_argument("--tol", type=float, default=1e-12,
                   help="relative solver tolerance (default 1e-12)")
    p.add_argument("--max-iter", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hodge3d",
                     description="Orthogonal decompositions of piecewise "
                                 "constant vector fields on tetrahedral meshes.")
    parser.add_argument("--version", action="version",
                        version=f"hodge3d {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("decompose", help="decompose one field")
    _add_mesh_args(p)
    _add_field_args(p)
    _add_scheme_arg(p, default="full")
    p.add_argument("--out", help="output directory for VTK + report")
    p.add_argument("--formats", type=_str_list, default="vtk,json",
                   help="comma list from vtk,json (default both)")
    _add_solver_args(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("validate", help="run the built-in analytic-field suite")
    p.add_argument("--h-ball", type=float, default=0.1)
    p.add_argument("--h-cavity", type=float, default=0.15)
    p.add_argument("--h-torus", type=float, default=0.15)
    p.add_argument("--out", help="directory for validate_report.json")
    _add_solver_args(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("dims", help="estimate harmonic dimensions vs. topology")
    _add_mesh_args(p)
    p.add_argument("--which", type=_str_list, default="neumann,dirichlet",
                   help="comma list from neumann,dirichlet,central")
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--seed", type=int, default=2024)
    _add_solver_args(p)
    p.set_defaults(handler=_cmd_dims)

    p = sub.add_parser("sweep", help="repeat decompose over h or rho levels")
    _add_mesh_args(p, h_list=True)
    _add_field_args(p)
    _add_scheme_arg(p, default="fd")
    p.add_argument("--rho-levels", type=_float_list, default=None)
    p.add_argument("--out", help="output directory (per-level dirs + CSV)")
    _add_solver_args(p)
    p.set_defaults(handler=_cmd_sweep, formats=("vtk", "json"))

    return parser


def _require(flag, value, low, strict=False):
    """Reject a value below `low` (or equal to it, if strict), NaN and inf."""
    if not (value > low if strict else value >= low):
        raise _UsageError(f"{flag} must be {'>' if strict else '>='} {low}")
    if value == math.inf:
        raise _UsageError(f"{flag} must be finite")


def _check(ns):
    """Apply every flag rule that needs no mesh; raises _UsageError."""
    if ns.subcommand != "validate":
        if (ns.mesh is None) == (ns.domain is None):
            raise _UsageError("exactly one of --mesh and --domain is required")
        if ns.domain is not None and ns.h in (None, ()):
            raise _UsageError("--domain requires --h")
        _require("--seed", ns.seed, 0)
    if ns.subcommand in ("decompose", "sweep"):
        if ns.field is None:
            raise _UsageError("--field is required")
        _require("--rho", ns.rho, 0)
    _require("--tol", ns.tol, 0, strict=True)
    if ns.max_iter is not None:
        _require("--max-iter", ns.max_iter, 1)
    if getattr(ns, "formats", None) == ():
        raise _UsageError("--formats needs at least one format")
    unknown = sorted(set(getattr(ns, "formats", ())) - {"vtk", "json"})
    if unknown:
        raise _UsageError(f"unknown output format '{unknown[0]}' "
                          "(choose from vtk, json)")
    if getattr(ns, "which", None) == ():
        raise _UsageError("--which needs at least one subspace")
    for which in getattr(ns, "which", ()):
        if which not in _DIMENSION_SOURCES:
            raise _UsageError(f"unknown subspace '{which}' (choose from "
                              f"{', '.join(sorted(_DIMENSION_SOURCES))})")
    if ns.subcommand == "sweep":
        if ns.rho_levels == ():
            raise _UsageError("--rho-levels needs at least one level")
        for rho in ns.rho_levels or ():
            _require("--rho-levels", rho, 0)
        if ns.rho_levels:
            if ns.h and len(ns.h) > 1:
                raise _UsageError("a rho sweep needs a single --h")
        elif not ns.h:
            raise _UsageError("sweep needs --h or --rho with at least one level")
        elif ns.domain is None:
            raise _UsageError("a resolution sweep requires --domain")
        # every level, before the first one runs and writes its outputs
        if not all(h > 0 for h in ns.h or ()):
            raise _UsageError("voxel size h must be positive")
        # two levels with one label would write to one directory
        first = {}
        for _, value, label in _sweep_levels(ns):
            if label in first:
                raise _UsageError(f"sweep levels {first[label]!r} and "
                                  f"{value!r} share the label '{label}'")
            first[label] = value


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.subcommand is None:
            parser.print_help()
            return 1
        _check(ns)
        return ns.handler(ns)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, Hodge3dError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
