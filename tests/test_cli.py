import json
import os

import numpy as np
import pytest

import hodge3d as h
from hodge3d.cli import main

from oracles import renumbered, write_gmsh41


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


def test_exit_codes(capsys):
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
    # solver tolerance, noise factor and probe count are checked before
    # any solve
    for flag, value in (("--tol", "0"), ("--tol", "-1"), ("--rho", "nan")):
        assert main(["decompose", "--domain", "ball", "--h", "0.4",
                     "--field", "X0", flag, value]) == 1
    assert main(["dims", "--domain", "ball", "--h", "0.4",
                 "--probes", "2"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "--tol must be > 0" in err
    assert "--rho must be >= 0" in err
    assert "--probes 2 is below the required minimum 5" in err
    # every other out-of-range or non-finite flag value is an input error
    # too, caught before any solve
    ball = ["decompose", "--domain", "ball", "--h", "0.5", "--field", "X0"]
    for argv, message in (
            (ball + ["--max-iter", "0"], "--max-iter must be >= 1"),
            (ball + ["--max-iter", "-1"], "--max-iter must be >= 1"),
            (ball + ["--rho", "inf"], "--rho must be finite"),
            (ball + ["--tol", "inf"], "--tol must be finite"),
            (ball + ["--rho", "0.1", "--seed", "-1"], "--seed must be >= 0"),
            (["dims", "--domain", "ball", "--h", "0.5", "--seed", "-1"],
             "--seed must be >= 0"),
            (["sweep", "--domain", "ball", "--h", "0.5", "--field", "X0",
              "--rho-levels=-1,nan"], "--rho-levels must be >= 0"),
            (["decompose", "--domain", "ball", "--h", "nan", "--field", "X0"],
             "voxel size h must be positive"),
            (["validate", "--h-ball", "nan"], "voxel size h must be positive")):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", argv


def test_unknown_output_format(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["decompose", "--domain", "ball", "--h", "0.5",
                 "--field", "X0", "--formats", "xml", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unknown output format 'xml'" in err
    assert "vtk, json" in err
    assert not out.exists()


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


def test_sweep_level_that_is_not_a_number(capsys):
    assert main(["sweep", "--domain", "ball", "--h", "0.5,abc",
                 "--field", "X0"]) == 1
    assert capsys.readouterr().err == ("error: argument --h: expected "
                                       "comma-separated numbers, got "
                                       "'0.5,abc'\n")


def test_sweep_bad_voxel_size_stops_before_any_level(tmp_path, capsys):
    # the h=0.5 level would run and write d/h_0.5/ if the levels were
    # checked one at a time
    out = tmp_path / "d"
    assert main(["sweep", "--domain", "ball", "--h", "0.5,nan",
                 "--field", "X0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: voxel size h must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("levels, message", [
    (["--h", "0.5", "--rho-levels", "0.1,0.1000001"],
     "sweep levels 0.1 and 0.1000001 share the label 'rho_0.1'"),
    (["--h", "0.5,0.5"], "sweep levels 0.5 and 0.5 share the label 'h_0.5'")],
    ids=["rho", "h"])
def test_sweep_levels_sharing_a_label_stop_before_any_level(
        tmp_path, capsys, levels, message):
    # both levels would write to one directory, and under HODGE3D_THREADS
    # > 1 at the same time
    out = tmp_path / "s"
    assert main(["sweep", "--domain", "ball", *levels, "--field", "X0",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["dims", "--which", ""], "--which needs at least one subspace"),
    (["dims", "--which", ",,"], "--which needs at least one subspace"),
    (["sweep", "--field", "X0", "--rho-levels", ","],
     "--rho-levels needs at least one level"),
    (["decompose", "--field", "X0", "--formats", ""],
     "--formats needs at least one format")],
    ids=["which_empty", "which_commas", "rho_levels_comma", "formats_empty"])
def test_list_flag_that_parses_to_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "s"
    extra = ["--out", str(out)] if argv[0] != "dims" else []
    assert main([*argv, "--domain", "ball", "--h", "0.5", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--h", "1e-7"], "error: h=1e-07 is too small for domain 'ball': its "
                      "lattice would have 2**63 corners or more\n"),
    (["--h", "1e-300"], "error: h=1e-300 is too small for domain 'ball'"),
    (["--h", "5e-324"], "error: h=5e-324 is too small for domain 'ball'"),
    (["--h", "0.5", "--radius", "1e9"],
     "error: h=0.5 is too small for domain 'ball'"),
    # within the int64 keys, but the lattice asks for 455 PiB at once
    (["--h", "0.5", "--radius", "1e5"], "error: out of memory: "),
], ids=["h_1e-7", "h_1e-300", "h_denormal", "radius_1e9", "radius_1e5"])
def test_huge_lattice_is_an_input_error(capsys, args, message):
    assert main(["decompose", "--domain", "ball", *args, "--field", "X0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err


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


@pytest.mark.parametrize("mesh_args", ["domain", "mesh"])
def test_file_field_on_renumbered_mesh(tmp_path, ball_coarse, ball_engine,
                                       mesh_args):
    # a field file on a renumbered copy of the run's mesh moves to the
    # run's tets by position, not by index
    other = renumbered(ball_coarse)
    src = tmp_path / "renumbered.vtk"
    h.write_vtk(src, other, {"v": h.sample_analytic(other, "X1").vectors})
    if mesh_args == "domain":
        args = ["--domain", "ball", "--h", "0.25"]
    else:
        h.write_vtk(tmp_path / "ball.vtk", ball_coarse)
        args = ["--mesh", str(tmp_path / "ball.vtk")]
    out = tmp_path / "out"
    assert main(["decompose", *args, "--field", f"file:{src}", "--scheme",
                 "fd", "--out", str(out), "--formats", "json"]) == 0
    report = json.loads((out / "report.json").read_text())
    got = {c["name"]: c["fraction"] for c in report["components"]}
    want = ball_engine.decompose(h.sample_analytic(ball_coarse, "X1"),
                                 "FD").fractions()
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_bad_field_file_is_named_beside_a_good_mesh_file(tmp_path, capsys,
                                                        ball_tiny):
    mesh_file, field_file = tmp_path / "a.vtk", tmp_path / "b.vtk"
    h.write_vtk(mesh_file, ball_tiny)
    vectors = h.sample_analytic(ball_tiny, "X1").vectors.copy()
    vectors[3, 1] = np.nan
    h.write_vtk(field_file, ball_tiny, {"v": vectors})
    assert main(["decompose", "--mesh", str(mesh_file), "--field",
                 f"file:{field_file}", "--scheme", "fd"]) == 1
    assert capsys.readouterr().err == (
        f"error: {field_file}: vector field 'v' contains NaN or Inf entries\n")


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
