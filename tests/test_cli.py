import json
import os

import pytest

import hodge3d as h
from hodge3d.cli import main

from oracles import write_gmsh41


def test_decompose_generated_domain(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["decompose", "--domain", "ball", "--h", "0.25",
                 "--field", "X2", "--scheme", "full", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    frac = {c["name"]: c["fraction"] for c in report["components"]}
    assert frac["curly_gradient"] >= 0.99
    assert (out / "curly_gradient.vtk").exists()
    assert "scheme FULL" in capsys.readouterr().out


def test_decompose_from_mesh_file(tmp_path, ball_tiny):
    vtk = tmp_path / "ball.vtk"
    X = h.sample_analytic(ball_tiny, "X1")
    h.write_vtk(vtk, ball_tiny, {"velocity": X.vectors})
    out = tmp_path / "out"
    code = main(["decompose", "--mesh", str(vtk), "--field", f"file:{vtk}",
                 "--scheme", "fd", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scheme"] == "FD"


def test_decompose_with_noise_deterministic(tmp_path):
    args = ["decompose", "--domain", "solid_torus", "--h", "0.25",
            "--field", "X4", "--scheme", "fd", "--rho", "0.5",
            "--seed", "9"]
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()


def test_exit_codes():
    assert main(["decompose", "--domain", "ball", "--h", "0.5"]) == 1
    assert main(["decompose", "--domain", "ball", "--h", "0.5",
                 "--field", "X9"]) == 1
    assert main(["decompose", "--mesh", "/no/such/file.vtk",
                 "--field", "X0"]) == 1
    assert main(["decompose", "--domain", "ball", "--h", "0.5",
                 "--field", "X0", "--mesh", "x.vtk"]) == 1
    # unresolved topology is an input error
    assert main(["decompose", "--domain", "ball_with_cavity", "--h", "0.4",
                 "--field", "X3"]) == 1
    # starved solver reports non-convergence
    assert main(["decompose", "--domain", "ball", "--h", "0.4",
                 "--field", "X0", "--scheme", "fd", "--max-iter", "1"]) == 2


def test_validate_coarse(tmp_path, capsys):
    out = tmp_path / "v"
    code = main(["validate", "--h-ball", "0.25", "--h-cavity", "0.2",
                 "--h-torus", "0.25", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    report = json.loads((out / "validate_report.json").read_text())
    assert report["passed"] is True
    assert len(report["cases"]) == 6
    for case in report["cases"]:
        assert all(c["passed"] for c in case["checks"])


def test_dims_torus(capsys):
    code = main(["dims", "--domain", "solid_torus", "--h", "0.25",
                 "--which", "neumann,dirichlet"])
    assert code == 0
    text = capsys.readouterr().out
    assert "dirichlet: 1 (expected 1)" in text
    assert "neumann: 0 (expected 0)" in text


def test_dims_central_tiny_ball(capsys):
    code = main(["dims", "--domain", "ball", "--h", "0.5",
                 "--which", "central"])
    assert code == 0
    out = capsys.readouterr().out
    assert "central: 143 (expected 143)" in out


def test_dims_unknown_subspace(capsys):
    assert main(["dims", "--domain", "ball", "--h", "0.4",
                 "--which", "neumann,foo"]) == 1
    captured = capsys.readouterr()
    # rejected before any mesh is built, so no Betti numbers are printed
    assert captured.out == ""
    assert captured.err == ("error: unknown subspace 'foo' "
                            "(choose from central, dirichlet, neumann)\n")


def test_sweep_resolution_levels(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--domain", "cylinder", "--h", "0.4,0.3",
                 "--field", "X012", "--scheme", "fd", "--out", str(out)])
    assert code == 0
    csv_text = (out / "summary.csv").read_text().splitlines()
    assert csv_text[0].startswith("kind,level,n_t,input_sq_norm")
    assert len(csv_text) == 3
    assert (out / "h_0.4" / "report.json").exists()
    assert (out / "h_0.3" / "report.json").exists()


def test_sweep_rho_levels(tmp_path):
    out = tmp_path / "rsweep"
    code = main(["sweep", "--domain", "solid_torus", "--h", "0.3",
                 "--field", "X4", "--scheme", "fd", "--seed", "3",
                 "--rho-levels", "0.2,0.5", "--out", str(out)])
    assert code == 0
    rows = (out / "summary.csv").read_text().splitlines()
    assert len(rows) == 3
    assert (out / "rho_0.2" / "report.json").exists()


def test_sweep_worker_count_invariance(tmp_path):
    base = ["sweep", "--domain", "cylinder", "--h", "0.4,0.3",
            "--field", "X012", "--scheme", "fd"]
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    old = os.environ.get("HODGE3D_THREADS")
    try:
        os.environ["HODGE3D_THREADS"] = "1"
        assert main(base + ["--out", str(out1)]) == 0
        os.environ["HODGE3D_THREADS"] = "2"
        assert main(base + ["--out", str(out2)]) == 0
    finally:
        if old is None:
            os.environ.pop("HODGE3D_THREADS", None)
        else:
            os.environ["HODGE3D_THREADS"] = old
    assert (out1 / "summary.csv").read_bytes() == \
        (out2 / "summary.csv").read_bytes()
    assert (out1 / "h_0.3" / "report.json").read_bytes() == \
        (out2 / "h_0.3" / "report.json").read_bytes()


def test_sweep_bad_thread_count(monkeypatch, capsys):
    monkeypatch.setenv("HODGE3D_THREADS", "abc")
    assert main(["sweep", "--domain", "ball", "--h", "0.5,0.4",
                 "--field", "X0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "HODGE3D_THREADS" in err


def test_sweep_file_field_transfer(tmp_path, ball_tiny):
    # a per-tet field written on one mesh drives a resolution sweep via
    # nearest-barycenter transfer
    src = tmp_path / "src.vtk"
    h.write_vtk(src, ball_tiny, {"v": h.sample_analytic(ball_tiny,
                                                        "X2").vectors})
    out = tmp_path / "fsweep"
    code = main(["sweep", "--domain", "ball", "--h", "0.5,0.4",
                 "--field", f"file:{src}", "--scheme", "fd",
                 "--out", str(out)])
    assert code == 0
    assert (out / "summary.csv").exists()


def test_point_data_requires_flag(tmp_path, ref_tet):
    vtk = tmp_path / "pd.vtk"
    h.write_vtk(vtk, ref_tet)
    text = vtk.read_text() + ("POINT_DATA 4\nVECTORS v double\n"
                              + "0.0 0.0 1.0\n" * 4)
    vtk.write_text(text)
    assert main(["decompose", "--mesh", str(vtk), "--field", f"file:{vtk}",
                 "--scheme", "fd"]) == 1
    assert main(["decompose", "--mesh", str(vtk), "--field", f"file:{vtk}",
                 "--scheme", "fd", "--resample", "barycentric"]) == 0


def test_gmsh_input(tmp_path, ball_tiny):
    msh = tmp_path / "ball.msh"
    write_gmsh41(msh, ball_tiny)
    code = main(["decompose", "--mesh", str(msh), "--field", "X2",
                 "--scheme", "full"])
    assert code == 0


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 1
    assert "decompose" in capsys.readouterr().out
