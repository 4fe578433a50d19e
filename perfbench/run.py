"""hodge3d benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload ball_full_verify --seed 1 \\
        --seconds 30 --trace 0

Imports the program from the checkout's `src/`, sets the workload up
three times (the median is `setup_s`), then runs ops back to back for
`--seconds` and checks every op's outputs. With `--trace 0` the last line
of stdout is the end-to-end metrics; with `--trace 1` ops alternate
between traced and untraced, and the last line is the per-layer metrics
(see spans.py). The line before it holds the run's environment and
details. `--smoke` swaps in tiny meshes so every path runs in seconds.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")

# BLAS/OpenMP threads, pinned before numpy loads so both sides of a
# comparison run with the same value. Sparse matvecs are single threaded.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

SETUP_REPEATS = 3
# Ops beyond the reported tail percentile (see `tail`).
TAIL_OPS = 10

# (name, unit); the bounds and directions live in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("op_s_tail", "s"),
              ("decompositions_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("success_ratio", "ratio"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ball_full_verify", "torus_dims", "cli_file_fd"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny meshes (h=0.25): every path in seconds")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import hodge3d from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "hodge3d")):
        raise ImportError(f"no hodge3d package under {SRC}")
    sys.path.insert(0, SRC)
    import hodge3d
    if os.path.dirname(os.path.dirname(os.path.abspath(hodge3d.__file__))) != SRC:
        raise ImportError(f"hodge3d was imported from {hodge3d.__file__}")


def loadavg():
    """The 1-minute load average, or None where /proc/loadavg is missing."""
    line = read_first_line("/proc/loadavg")
    return float(line.split()[0]) if line else None


def tail(times):
    """The highest percentile with at least TAIL_OPS ops beyond it, as
    (value, percentile); the maximum when there are too few ops."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_OPS:
        return s[-1], 100.0
    return s[n - TAIL_OPS - 1], 100.0 * (n - TAIL_OPS) / n


def set_up(cls, h, seed, workdir, repeats, tracer=None):
    """Set the workload up `repeats` times; return the last one, ready, and
    every set-up's seconds. Raises if a warm-up op fails its check."""
    seconds = []
    for _ in range(repeats):
        wl = cls(h, seed, workdir)
        t = time.perf_counter()
        if tracer is None:
            warm = wl.setup()
        else:
            with tracer.phase(tracer.SETUP):
                warm = wl.setup()
        seconds.append(time.perf_counter() - t)
        error = wl.check(warm)
        if error is not None:
            raise RuntimeError(f"warm-up op failed its check: {error}")
    return wl, seconds


def run_ops(wl, seconds, tracer=None):
    """Ops back to back for `seconds`. With a tracer, even ops are traced.

    Returns (op seconds, traced flags, failure messages, wall seconds).
    """
    times, traced, failures = [], [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        on = tracer is not None and i % 2 == 0
        t = time.perf_counter()
        try:
            if on:
                with tracer.phase(i):
                    outcome = wl.op(i)
            else:
                outcome = wl.op(i)
            error = None
        except Exception as exc:   # an op that raises counts as failed
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t)
        traced.append(on)
        if error is None:
            error = wl.check(outcome)
        if error is not None:
            failures.append(f"op {i}: {error}")
        i += 1
    return times, traced, failures, time.perf_counter() - start


def read_first_line(path):
    try:
        with open(path) as f:
            return f.readline().strip()
    except OSError:
        return None


def gram_nnz(mesh):
    """nnz of the four Gram matrices; None if the assembly API has moved."""
    from hodge3d import assembly, fem
    try:
        tables, edge, face = fem.build_element_tables(mesh)
        return {f"{dofmap.kind}/{'constrained' if c else 'free'}":
                int(assembly.assemble_gram(mesh, tables, dofmap, c).nnz)
                for dofmap in (edge, face) for c in (False, True)}
    except (AttributeError, TypeError, ValueError):
        return None


def environment(wl, load_before, import_s):
    import numpy
    import scipy

    mesh = wl.mesh
    load_after = loadavg()
    loads = [v for v in (load_before, load_after) if v is not None]
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "threads": THREADS, "nproc": os.cpu_count(),
        "l3_cache": read_first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "loadavg_before": load_before, "loadavg_after": load_after,
        # the run itself adds up to THREADS to the 1-minute load average
        "loaded": bool(loads) and max(loads) > THREADS + 0.5,
        "import_s": import_s,
        "n_t": mesh.n_t, "n_e": mesh.n_e, "n_f": mesh.n_f,
        "gram_nnz": gram_nnz(mesh),
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 1
    import_s = time.perf_counter() - _START
    import spans
    import workloads

    cls, h, smoke_h = workloads.WORKLOADS[args.workload]
    h = smoke_h if args.smoke else h
    load_before = loadavg()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        tracer = spans.Tracer() if args.trace else None
        try:
            wl, setup_times = set_up(cls, h, args.seed, workdir,
                                     1 if tracer else SETUP_REPEATS, tracer)
        except Exception as exc:
            print(f"perfbench: set-up failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 1
        times, traced, failures, wall = run_ops(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n, failed = len(times), len(failures)
    detail = environment(wl, load_before, import_s)
    detail.update(workload=args.workload, seed=args.seed, h=h, smoke=args.smoke,
                  ops=n, setup_runs_s=setup_times, failures=failures[:5])
    if tracer is None:
        p_tail, pct = tail(times)
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "op_s_p50": statistics.median(times),
            "op_s_tail": p_tail,
            "decompositions_per_s": (n - failed) * wl.decompositions_per_op / wall,
            "peak_rss_mb": peak_rss_mb,
            "success_ratio": (n - failed) / n,
        }
        units = dict(END_TO_END)
        detail["op_s_tail_percentile"] = pct
    else:
        values, extra = spans.layer_metrics(
            tracer, [s for s, on in zip(times, traced) if on],
            [s for s, on in zip(times, traced) if not on])
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        detail.update(extra)
        path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        detail["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": n, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
