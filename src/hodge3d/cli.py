"""Command-line frontend.

Subcommands wire domains, fields, schemes, and outputs into reproducible
runs: `decompose` for a single field, `validate` for the built-in
analytic-field suite, `dims` for harmonic-space dimensions vs. topology,
and `sweep` for resolution or noise studies. Exit codes: 0 success,
1 input error, 2 solver non-convergence. All randomness flows through
explicit --seed flags; HODGE3D_THREADS caps sweep workers.
"""

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from ._version import __version__
from .errors import ConvergenceError, Hodge3dError
from .fields import ANALYTIC_FIELDS, Pcvf, add_noise, sample_analytic
from .hodge import (_DIMENSION_SOURCES, SCHEME_COMPONENTS, SCHEMES,
                    HodgeDecomposer, _expected_dimension,
                    estimate_harmonic_dimension)
from .io import make_report, read_field, read_mesh, write_outputs
from .mesh import DOMAIN_TOPOLOGY, betti_numbers, generate_voxel_domain

__all__ = ["RunConfig", "run", "main"]


class _UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything one reproducible run needs."""

    subcommand: str
    mesh_path: str | None = None
    domain: str | None = None
    h: float | None = None
    domain_params: dict = field(default_factory=dict)
    field_source: str | None = None      # analytic name or "file:<path>"
    resample: str | None = None
    scheme: str = "FULL"
    rho: float = 0.0
    seed: int = 0
    out_dir: str | None = None
    formats: tuple = ("vtk", "json")
    tol: float = 1e-12
    max_iter: int | None = None
    probes: int | None = None
    which: tuple = ("neumann", "dirichlet")
    h_levels: tuple = ()
    rho_levels: tuple = ()
    h_ball: float = 0.1
    h_cavity: float = 0.15
    h_torus: float = 0.15

    def check(self):
        if self.subcommand in ("decompose", "sweep", "dims"):
            if (self.mesh_path is None) == (self.domain is None):
                raise _UsageError("exactly one of --mesh and --domain is required")
            if self.domain is not None and self.h is None and not self.h_levels:
                raise _UsageError("--domain requires --h")
        if self.subcommand in ("decompose", "sweep"):
            if self.field_source is None:
                raise _UsageError("--field is required")
        if self.rho < 0:
            raise _UsageError("--rho must be >= 0")


def _build_mesh(cfg: RunConfig):
    if cfg.mesh_path is not None:
        return read_mesh(cfg.mesh_path)
    return generate_voxel_domain(cfg.domain, cfg.h, **cfg.domain_params)


def _transfer_field(src: Pcvf, dst_mesh) -> Pcvf:
    """Nearest-barycenter transfer of a per-tet field onto another mesh."""
    from scipy.spatial import cKDTree

    tree = cKDTree(src.mesh.barycenters())
    _, idx = tree.query(dst_mesh.barycenters())
    return Pcvf(dst_mesh, src.vectors[idx])


def _build_field(cfg: RunConfig, mesh) -> Pcvf:
    src = cfg.field_source
    if src.startswith("file:"):
        path = src[5:]
        if cfg.mesh_path is not None and os.path.abspath(path) == \
                os.path.abspath(cfg.mesh_path):
            X = read_field(path, mesh, resample=cfg.resample)
        else:
            src_mesh = read_mesh(path)
            X = read_field(path, src_mesh, resample=cfg.resample)
            if src_mesh.n_t == mesh.n_t and src_mesh.n_v == mesh.n_v:
                X = Pcvf(mesh, X.vectors)
            else:
                X = _transfer_field(X, mesh)
    elif src in ANALYTIC_FIELDS:
        X = sample_analytic(mesh, src)
    else:
        raise _UsageError(f"unknown field '{src}' (analytic fields: "
                          f"{sorted(ANALYTIC_FIELDS)}, or file:<path>)")
    if cfg.rho > 0:
        X = add_noise(X, cfg.rho, cfg.seed)
    return X


def _extra_report_entries(cfg: RunConfig) -> dict:
    mesh_src = cfg.mesh_path if cfg.mesh_path is not None else \
        f"{cfg.domain};h={cfg.h};{sorted(cfg.domain_params.items())}"
    return {
        "inputs": {"mesh": mesh_src, "field": cfg.field_source,
                   "rho": cfg.rho, "seed": cfg.seed},
        "tolerances": {"tol": cfg.tol, "max_iter": cfg.max_iter},
    }


def _decompose_core(cfg: RunConfig):
    mesh = _build_mesh(cfg)
    X = _build_field(cfg, mesh)
    engine = HodgeDecomposer(mesh, tol=cfg.tol, max_iter=cfg.max_iter)
    result = engine.decompose(X, cfg.scheme)
    paths = []
    if cfg.out_dir:
        paths = write_outputs(result, cfg.out_dir, cfg.formats,
                              extra=_extra_report_entries(cfg))
    return result, paths


def _print_result(result, file=None):
    file = file if file is not None else sys.stdout
    print(f"scheme {result.scheme}: input squared norm "
          f"{result.input_sq_norm:.6g}", file=file)
    fractions = result.fractions()
    for name in result.components:
        flag = "  [zero]" if result.zero_flags[name] else ""
        print(f"  {name:<20} {result.sq_norms[name]:14.6e} "
              f"({100 * fractions[name]:6.2f}%){flag}", file=file)


def _cmd_decompose(cfg: RunConfig) -> int:
    result, paths = _decompose_core(cfg)
    _print_result(result)
    for p in paths:
        print(f"wrote {p}")
    return 0


_VALIDATE_CASES = (
    ("X0", "ball"), ("X1", "ball"), ("X2", "ball"), ("X012", "ball"),
    ("X3", "ball_with_cavity"), ("X4", "solid_torus"),
)


def _cmd_validate(cfg: RunConfig) -> int:
    domains = {
        "ball": ("ball", cfg.h_ball, {}),
        "ball_with_cavity": ("ball_with_cavity", cfg.h_cavity, {}),
        "solid_torus": ("solid_torus", cfg.h_torus, {}),
    }
    engines = {}
    rows = []
    cases_out = []
    all_passed = True
    for fname, dom in _VALIDATE_CASES:
        name, h, params = domains[dom]
        if dom not in engines:
            mesh = generate_voxel_domain(name, h, **params)
            engines[dom] = HodgeDecomposer(mesh, tol=cfg.tol,
                                           max_iter=cfg.max_iter)
        engine = engines[dom]
        X = sample_analytic(engine.mesh, fname)
        result = engine.decompose(X, "FULL")
        verification = engine.verify(result)
        all_passed &= verification.passed
        rows.append((fname, dom, result))
        cases_out.append({
            "field": fname, "domain": name, "h": h,
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

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = os.path.join(cfg.out_dir, "validate_report.json")
        with open(path, "w", newline="\n") as f:
            json.dump({"tool": {"name": "hodge3d", "version": __version__},
                       "passed": all_passed, "cases": cases_out}, f, indent=2)
            f.write("\n")
        print(f"wrote {path}")
    print("validate: " + ("PASS" if all_passed else "FAIL"))
    return 0 if all_passed else 1


def _cmd_dims(cfg: RunConfig) -> int:
    mesh = _build_mesh(cfg)
    ok = True
    print(f"betti numbers: {tuple(betti_numbers(mesh))}")
    for which in cfg.which:
        est = estimate_harmonic_dimension(mesh, which, probes=cfg.probes,
                                          seed=cfg.seed, tol=cfg.tol,
                                          max_iter=cfg.max_iter)
        exp = _expected_dimension(mesh, which)
        print(f"{which}: {est} (expected {exp})")
        ok &= est == exp
    return 0 if ok else 1


def _sweep_level(args):
    cfg, kind, value = args
    label = f"{kind}_{value:g}"
    level_cfg = replace(cfg, subcommand="decompose",
                        out_dir=os.path.join(cfg.out_dir, label)
                        if cfg.out_dir else None)
    if kind == "h":
        level_cfg = replace(level_cfg, h=float(value))
    else:
        level_cfg = replace(level_cfg, rho=float(value))
    result, _ = _decompose_core(level_cfg)
    row = {"kind": kind, "level": value,
           "n_t": result.input.mesh.n_t,
           "input_sq_norm": result.input_sq_norm}
    fractions = result.fractions()
    for name in result.components:
        row[f"{name}_sq_norm"] = result.sq_norms[name]
        row[f"{name}_fraction"] = fractions[name]
    return label, row


def _cmd_sweep(cfg: RunConfig) -> int:
    if cfg.h_levels and cfg.rho_levels:
        raise _UsageError("sweep over either --h levels or --rho levels, not both")
    if cfg.h_levels:
        if cfg.domain is None:
            raise _UsageError("a resolution sweep requires --domain")
        levels = [(cfg, "h", v) for v in cfg.h_levels]
    elif cfg.rho_levels:
        levels = [(cfg, "rho", v) for v in cfg.rho_levels]
    else:
        raise _UsageError("sweep needs --h or --rho with at least one level")

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

    comp_names = SCHEME_COMPONENTS[cfg.scheme.upper()]
    fieldnames = ["kind", "level", "n_t", "input_sq_norm"]
    for name in comp_names:
        fieldnames += [f"{name}_sq_norm", f"{name}_fraction"]
    for label, row in outcomes:
        print(f"{label}: " + " ".join(
            f"{name}={row[f'{name}_fraction']:.4f}" for name in comp_names))
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = os.path.join(cfg.out_dir, "summary.csv")
        with open(path, "w", newline="\n") as f:
            writer = csv.DictWriter(f, fieldnames=fieldnames)
            writer.writeheader()
            for _, row in outcomes:
                writer.writerow({k: repr(v) if isinstance(v, float) else v
                                 for k, v in row.items()})
        print(f"wrote {path}")
    return 0


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit code."""
    config.check()
    handler = {"decompose": _cmd_decompose, "validate": _cmd_validate,
               "dims": _cmd_dims, "sweep": _cmd_sweep}.get(config.subcommand)
    if handler is None:
        raise _UsageError(f"unknown subcommand '{config.subcommand}'")
    return handler(config)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v)
    except ValueError:
        raise _UsageError(f"expected comma-separated numbers, got '{text}'") \
            from None


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
    p.add_argument("--formats", default="vtk,json",
                   help="comma list from vtk,json (default both)")
    _add_solver_args(p)

    p = sub.add_parser("validate", help="run the built-in analytic-field suite")
    p.add_argument("--h-ball", type=float, default=0.1)
    p.add_argument("--h-cavity", type=float, default=0.15)
    p.add_argument("--h-torus", type=float, default=0.15)
    p.add_argument("--out", help="directory for validate_report.json")
    _add_solver_args(p)

    p = sub.add_parser("dims", help="estimate harmonic dimensions vs. topology")
    _add_mesh_args(p)
    p.add_argument("--which", default="neumann,dirichlet",
                   help="comma list from neumann,dirichlet,central")
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--seed", type=int, default=2024)
    _add_solver_args(p)

    p = sub.add_parser("sweep", help="repeat decompose over h or rho levels")
    _add_mesh_args(p, h_list=True)
    _add_field_args(p)
    _add_scheme_arg(p, default="fd")
    p.add_argument("--rho-levels", type=_float_list, default=())
    p.add_argument("--out", help="output directory (per-level dirs + CSV)")
    _add_solver_args(p)

    return parser


def _config_from_args(ns) -> RunConfig:
    cfg = RunConfig(subcommand=ns.subcommand)
    if hasattr(ns, "mesh"):
        cfg.mesh_path = ns.mesh
        cfg.domain = ns.domain
        if not isinstance(getattr(ns, "h", None), tuple):
            cfg.h = ns.h
        cfg.domain_params = _domain_params(ns)
    if hasattr(ns, "field"):
        cfg.field_source = ns.field
        cfg.resample = ns.resample
        cfg.rho = ns.rho
        cfg.seed = ns.seed
    if hasattr(ns, "scheme"):
        cfg.scheme = ns.scheme.upper()
    if hasattr(ns, "out"):
        cfg.out_dir = ns.out
    if hasattr(ns, "formats"):
        cfg.formats = tuple(v for v in ns.formats.split(",") if v)
    if hasattr(ns, "tol"):
        cfg.tol = ns.tol
        cfg.max_iter = ns.max_iter
    if hasattr(ns, "probes"):
        cfg.probes = ns.probes
        cfg.seed = ns.seed
        cfg.which = tuple(v for v in ns.which.split(",") if v)
        for which in cfg.which:
            if which not in _DIMENSION_SOURCES:
                raise _UsageError(f"unknown subspace '{which}' (choose from "
                                  f"{', '.join(sorted(_DIMENSION_SOURCES))})")
    if ns.subcommand == "validate":
        cfg.h_ball = ns.h_ball
        cfg.h_cavity = ns.h_cavity
        cfg.h_torus = ns.h_torus
    if ns.subcommand == "sweep":
        # --h doubles as the level list for resolution sweeps
        cfg.rho_levels = ns.rho_levels
        if ns.h:
            if cfg.rho_levels:
                if len(ns.h) > 1:
                    raise _UsageError("a rho sweep needs a single --h")
                cfg.h = ns.h[0]
            else:
                cfg.h_levels = ns.h
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.subcommand is None:
            parser.print_help()
            return 1
        return run(_config_from_args(ns))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Hodge3dError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
