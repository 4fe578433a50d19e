"""Smoke test of the benchmark itself: every workload, untraced and traced,
on tiny meshes, plus the refusal to run without the program's sources.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.absent_layers"] == 0
        assert abs(metrics["trace.self_over_wall"] - 1.0) < 0.05


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_tracer_skips_missing_symbols_and_accepts_plain_csr(monkeypatch):
    monkeypatch.syspath_prepend(HERE)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import hodge3d as h
    import spans

    kept = tuple(t for t in spans.TARGETS if not t[2].startswith("cli."))
    monkeypatch.setattr(spans, "TARGETS", kept + (
        ("hodge3d.cli", "no_such_main", "cli.main"),
        ("hodge3d.no_such_module", "x", "io.read_mesh"),
        ("hodge3d.hodge:NoSuchClass", "decompose", "hodge.decompose")))
    tracer = spans.Tracer()
    assert tracer.absent_layers == ["cli"]
    assert {"hodge3d.cli.no_such_main", "hodge3d.no_such_module.x",
            "hodge3d.hodge:NoSuchClass.decompose"} <= set(tracer.missing)

    mesh = h.generate_voxel_domain("ball", 0.5)
    tables, edge, _ = h.build_element_tables(mesh)
    gram = h.assemble_gram(mesh, tables, edge)
    probe = spans.matvec_probe({"wrapper": gram, "csr": gram.csr})
    assert probe["wrapper"]["nnz"] == probe["csr"]["nnz"] == gram.nnz
    assert probe["wrapper"]["bytes"] == probe["csr"]["bytes"]
