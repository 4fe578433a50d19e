"""Span tracing for the benchmark's traced run.

`Tracer.phase()` replaces hodge3d's public functions, where their callers
look them up, with wrappers that record one span per call: name, start,
end, parent span and op id. Spans stay in memory until the run ends, when
`layer_metrics()` turns them into per-layer numbers and `write()` saves
them. A span's self time is its duration minus the time its child spans
cover.

A wrapped symbol that no longer exists is recorded as missing, and a layer
whose symbols are all missing is reported absent; neither is an error.
"""

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("mesh", "fem", "assembly", "solver", "hodge", "fields", "io", "cli")

# (owner, attribute, span name). An owner "module:Class" is a class of that
# module. The span name's first component is its layer.
TARGETS = (
    ("hodge3d.hodge", "assemble_gram", "assembly.gram"),
    ("hodge3d.hodge", "assemble_rhs", "assembly.rhs"),
    ("hodge3d.hodge", "reconstruct", "assembly.reconstruct"),
    ("hodge3d.hodge", "solve_spsd", "solver.solve"),
    ("hodge3d.hodge", "build_element_tables", "fem.tables"),
    ("hodge3d.hodge", "combine", "fields.combine"),
    ("hodge3d.hodge", "sq_norm", "fields.sq_norm"),
    ("hodge3d.hodge", "l2_inner", "fields.l2_inner"),
    ("hodge3d.hodge", "random_field", "fields.random_field"),
    ("hodge3d.hodge", "betti_numbers", "mesh.betti_numbers"),
    ("hodge3d.hodge", "estimate_harmonic_dimension", "hodge.dims"),
    ("hodge3d.hodge:HodgeDecomposer", "decompose", "hodge.decompose"),
    ("hodge3d.hodge:HodgeDecomposer", "verify", "hodge.verify"),
    ("hodge3d.fields", "add_noise", "fields.add_noise"),
    ("hodge3d.fields", "sample_analytic", "fields.sample_analytic"),
    ("hodge3d.mesh", "generate_voxel_domain", "mesh.generate"),
    ("hodge3d.mesh", "build_complex", "mesh.build_complex"),
    ("hodge3d.mesh", "betti_numbers", "mesh.betti_numbers"),
    ("hodge3d.io", "read_mesh", "io.read_mesh"),
    ("hodge3d.io", "read_field", "io.read_field"),
    ("hodge3d.io", "write_outputs", "io.write_outputs"),
    ("hodge3d.io", "write_vtk", "io.write_vtk"),
    ("hodge3d.io", "make_report", "io.make_report"),
    ("hodge3d.io", "build_complex", "mesh.build_complex"),
    ("hodge3d.io", "betti_numbers", "mesh.betti_numbers"),
    ("hodge3d.cli", "main", "cli.main"),
    ("hodge3d.cli", "read_mesh", "io.read_mesh"),
    ("hodge3d.cli", "read_field", "io.read_field"),
    ("hodge3d.cli", "write_outputs", "io.write_outputs"),
    ("hodge3d.cli", "build_complex", "mesh.build_complex"),
    ("hodge3d.cli", "make_report", "io.make_report"),
    ("hodge3d.cli", "betti_numbers", "mesh.betti_numbers"),
)

# (name, unit, better). Per op means a mean over the traced ops; the
# `setup.` entries split one set-up (with its warm-up op) by layer.
PER_LAYER = (
    ("solver.solves", "count", "lower"),
    ("solver.cg_iterations", "count", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.ms_per_iter", "ms", "lower"),
    ("solver.nonconverged", "count", "lower"),
    ("solver.matvec_ms", "ms", "lower"),
    ("solver.matvec_bytes_computed", "B", "lower"),
    ("solver.iter_over_matvec", "ratio", "lower"),
    ("assembly.gram_s", "s", "lower"),
    ("assembly.gram_calls", "count", "lower"),
    ("assembly.gram_nnz", "count", "lower"),
    ("assembly.rhs_s", "s", "lower"),
    ("assembly.reconstruct_s", "s", "lower"),
    ("assembly.self_s", "s", "lower"),
    ("fields.s", "s", "lower"),
    ("hodge.self_s", "s", "lower"),
    ("hodge.decompose_s", "s", "lower"),
    ("hodge.verify_s", "s", "lower"),
    ("fem.tables_s", "s", "lower"),
    ("mesh.generate_s", "s", "lower"),
    ("mesh.build_complex_s", "s", "lower"),
    ("mesh.self_s", "s", "lower"),
    ("io.read_mesh_s", "s", "lower"),
    ("io.read_field_s", "s", "lower"),
    ("io.write_outputs_s", "s", "lower"),
    ("io.bytes_read", "B", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("io.read_MB_per_s", "MB/s", "higher"),
    ("io.write_MB_per_s", "MB/s", "higher"),
    ("io.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_over_wall", "ratio", "higher"),
    ("trace.absent_layers", "count", "lower"),
    ("trace.ops", "count", "higher"),
) + tuple((f"setup.{layer}.self_s", "s", "lower") for layer in LAYERS)


def _resolve(owner: str):
    """The module or class named by `owner`, or None if it is gone."""
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    return getattr(obj, cls, None) if cls else obj


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _gram_info(tracer, args, kwargs, gram):
    dofmap = _arg(args, kwargs, 2, "dofmap")
    constrained = _arg(args, kwargs, 3, "constrained", False)
    key = f"{getattr(dofmap, 'kind', 'unknown')}/" \
          f"{'constrained' if constrained else 'free'}"
    tracer.grams[key] = gram
    return {"nnz": gram.nnz}


def _solve_info(tracer, args, kwargs, out):
    A = _arg(args, kwargs, 0, "A")
    report = out[1]
    key = next((k for k, g in tracer.grams.items() if g is A), "unknown")
    return {"iterations": report.iterations,
            "nonconverged": int(not report.converged), "gram": key}


def _read_info(tracer, args, kwargs, out):
    return {"bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _write_info(tracer, args, kwargs, paths):
    return {"bytes_written": sum(os.path.getsize(p) for p in paths)}


# Counters recorded at the boundary where the work happens.
_INFO = {"assembly.gram": _gram_info, "solver.solve": _solve_info,
         "io.read_mesh": _read_info, "io.read_field": _read_info,
         "io.write_outputs": _write_info}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    SETUP = "setup"   # op id of the set-up phase; timed ops have int ids

    def __init__(self):
        # one span: [name, start, end, parent index, op id, counters]
        self.spans = []
        self._open = []
        self._op = None
        self.grams = {}    # "kind/constrained" -> latest Gram of that kind
        self.missing = sorted({f"{o}.{a}" for o, a, _ in TARGETS
                               if getattr(_resolve(o), a, None) is None})
        present = {n.split(".")[0] for o, a, n in TARGETS
                   if f"{o}.{a}" not in self.missing}
        self.absent_layers = [layer for layer in LAYERS if layer not in present]

    def _span(self, name):
        span = [name, time.perf_counter(), 0.0,
                self._open[-1] if self._open else None, self._op, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span):
        span[2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._span(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(span)
            if info is not None:
                span[5] = info(self, args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def phase(self, op):
        """Trace everything run inside, as op `op` under a root span."""
        saved = []
        for owner, attr, name in TARGETS:
            obj = _resolve(owner)
            fn = getattr(obj, attr, None)
            if fn is not None:
                saved.append((obj, attr, fn))
                setattr(obj, attr, self._wrap(fn, name))
        self._op = op
        root = self._span(f"bench.{'setup' if op == self.SETUP else 'op'}")
        try:
            yield
        finally:
            self._end(root)
            self._op = None
            for obj, attr, fn in reversed(saved):
                setattr(obj, attr, fn)

    def write(self, path):
        """Write every span as JSON, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump([{"name": name, "start": start - t0, "end": end - t0,
                        "parent": parent, "op": op, "counters": counters}
                       for name, start, end, parent, op, counters in self.spans], f)


def matvec_probe(grams, min_seconds=0.05):
    """Median time and computed bytes of one standalone `A @ x` per Gram.

    Bytes count the CSR arrays plus x and y once each; they are computed
    from array sizes, not measured traffic.
    """
    rng = np.random.default_rng(0)
    probe = {}
    for key, gram in grams.items():
        A = getattr(gram, "csr", gram)     # SparseSymMatrix wrapper or CSR
        x = rng.standard_normal(A.shape[1])
        times = []
        end = time.perf_counter() + min_seconds
        while len(times) < 20 or time.perf_counter() < end:
            t = time.perf_counter()
            A @ x
            times.append(time.perf_counter() - t)
        nbytes = sum(getattr(A, a).nbytes for a in ("data", "indices", "indptr")
                     if hasattr(A, a)) + 2 * A.shape[0] * x.itemsize
        probe[key] = {"ms": 1e3 * statistics.median(times), "bytes": nbytes,
                      "nnz": int(A.nnz), "n": int(A.shape[0])}
    return probe


def layer_metrics(tracer, traced_times, plain_times):
    """Every PER_LAYER metric from the spans of one traced run.

    `traced_times` and `plain_times` are the wall times of the traced and
    the untraced ops of the same run.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, op, _ in spans:
        if parent is not None:
            covered[parent] += t1 - t0
    ops = sorted({s[4] for s in spans if s[4] != Tracer.SETUP})
    n = max(len(ops), 1)
    per_op, setup = defaultdict(float), defaultdict(float)
    iters_by_gram, solve_s_by_gram = defaultdict(int), defaultdict(float)
    first_op_iters = 0
    for k, (name, t0, t1, parent, op, counters) in enumerate(spans):
        acc = setup if op == Tracer.SETUP else per_op
        acc[name] += t1 - t0
        acc[name + ".calls"] += 1
        acc[name.split(".")[0] + ".self"] += t1 - t0 - covered[k]
        for key, v in (counters or {}).items():
            if key != "gram":
                acc[key] += v
        if name == "solver.solve" and op != Tracer.SETUP and counters:
            iters_by_gram[counters["gram"]] += counters["iterations"]
            solve_s_by_gram[counters["gram"]] += t1 - t0
            if op == ops[0]:
                first_op_iters += counters["iterations"]

    probe = matvec_probe(tracer.grams)
    iters = sum(iters_by_gram.values())
    solve_s = sum(s for g, s in solve_s_by_gram.items() if iters_by_gram[g])
    known = sum(it for g, it in iters_by_gram.items() if g in probe)
    weighted = {g: it / known for g, it in iters_by_gram.items()
                if known and g in probe}
    matvec_ms = sum(w * probe[g]["ms"] for g, w in weighted.items())
    ms_per_iter = 1e3 * solve_s / iters if iters else 0.0
    read_s = per_op["io.read_mesh"] + per_op["io.read_field"]
    layer_self = sum(per_op[f"{layer}.self"] for layer in LAYERS)
    wall = per_op["bench.op"]

    values = {
        "solver.solves": per_op["solver.solve.calls"] / n,
        "solver.cg_iterations": first_op_iters,
        "solver.solve_s": per_op["solver.solve"] / n,
        "solver.ms_per_iter": ms_per_iter,
        "solver.nonconverged": per_op["nonconverged"],
        "solver.matvec_ms": matvec_ms,
        "solver.matvec_bytes_computed": sum(w * probe[g]["bytes"]
                                            for g, w in weighted.items()),
        "solver.iter_over_matvec": ms_per_iter / matvec_ms if matvec_ms else 0.0,
        "assembly.gram_s": per_op["assembly.gram"] / n,
        "assembly.gram_calls": per_op["assembly.gram.calls"] / n,
        "assembly.gram_nnz": sum(p["nnz"] for p in probe.values()),
        "assembly.rhs_s": per_op["assembly.rhs"] / n,
        "assembly.reconstruct_s": per_op["assembly.reconstruct"] / n,
        "assembly.self_s": per_op["assembly.self"] / n,
        "fields.s": per_op["fields.self"] / n,
        "hodge.self_s": per_op["hodge.self"] / n,
        "hodge.decompose_s": per_op["hodge.decompose"] / n,
        "hodge.verify_s": per_op["hodge.verify"] / n,
        "fem.tables_s": per_op["fem.tables"] / n,
        "mesh.generate_s": setup["mesh.generate"],
        "mesh.build_complex_s": per_op["mesh.build_complex"] / n,
        "mesh.self_s": per_op["mesh.self"] / n,
        "io.read_mesh_s": per_op["io.read_mesh"] / n,
        "io.read_field_s": per_op["io.read_field"] / n,
        "io.write_outputs_s": per_op["io.write_outputs"] / n,
        "io.bytes_read": per_op["bytes_read"] / n,
        "io.bytes_written": per_op["bytes_written"] / n,
        "io.read_MB_per_s": per_op["bytes_read"] / read_s / 1e6 if read_s else 0.0,
        "io.write_MB_per_s": (per_op["bytes_written"] / per_op["io.write_outputs"]
                              / 1e6 if per_op["io.write_outputs"] else 0.0),
        "io.self_s": per_op["io.self"] / n,
        "cli.self_s": per_op["cli.self"] / n,
        "trace.overhead_ratio": (statistics.median(traced_times)
                                 / statistics.median(plain_times)
                                 if traced_times and plain_times else 0.0),
        "trace.self_over_wall": layer_self / wall if wall else 0.0,
        "trace.absent_layers": len(tracer.absent_layers),
        "trace.ops": len(ops),
    }
    for layer in LAYERS:
        values[f"setup.{layer}.self_s"] = setup[f"{layer}.self"]
    detail = {"grams": probe, "missing_symbols": tracer.missing,
              "absent_layers": tracer.absent_layers,
              "iterations_by_gram": dict(iters_by_gram)}
    return values, detail
