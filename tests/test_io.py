import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import hodge3d as h
from hodge3d import io as h_io
from hodge3d.cli import main
from hodge3d.errors import FieldError, Hodge3dError, MeshError, ParseError

from conftest import REF_VERTS
from oracles import write_gmsh41

GOLDEN_TET = """\
# vtk DataFile Version 3.0
single tet
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 4 double
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
0.0 0.0 1.0
CELLS 1 5
4 0 1 2 3
CELL_TYPES 1
10
"""


def test_read_golden_single_tet(tmp_path):
    p = tmp_path / "tet.vtk"
    p.write_text(GOLDEN_TET)
    mesh = h.read_mesh(p)
    assert (mesh.n_v, mesh.n_e, mesh.n_f, mesh.n_t) == (4, 6, 4, 1)


def test_read_rejects_hexahedra(tmp_path):
    text = GOLDEN_TET.replace("CELLS 1 5\n4 0 1 2 3",
                              "CELLS 1 9\n8 0 1 2 3 0 1 2 3")
    text = text.replace("CELL_TYPES 1\n10", "CELL_TYPES 1\n12")
    p = tmp_path / "hex.vtk"
    p.write_text(text)
    with pytest.raises(ParseError, match="cell type"):
        h.read_mesh(p)


FIFTH_POINT = "0.0 0.0 1.0\n1.0 1.0 1.0\n"


@pytest.mark.parametrize("replacements, line, message", [
    # a ragged row next to a tet row, both typed as tets
    ((("CELLS 1 5\n4 0 1 2 3", "CELLS 2 9\n4 0 1 2 3\n3 1 2 3"),
      ("CELL_TYPES 1\n10", "CELL_TYPES 2\n10\n10")),
     12, "tetrahedral cell with 3 vertices"),
    ((("POINTS 4", "POINTS 5"), ("0.0 0.0 1.0\n", FIFTH_POINT),
      ("4 0 1 2 3", "4 0 1 2 7")), 12, "vertex index 7 out of range"),
    ((("4 0 1 2 3", "4 0 1 2 -1"),), 11, "vertex index -1 out of range"),
    ((("POINTS 4", "POINTS 5"), ("0.0 0.0 1.0\n", FIFTH_POINT),
      ("CELLS 1 5\n4 0 1 2 3", "CELLS 2 10\n4 0 1 2 3\n4 1 2 3 7"),
      ("CELL_TYPES 1\n10", "CELL_TYPES 2\n10\n10")),
     13, "vertex index 7 out of range"),
    ((("POINTS 4", "POINTS 5"), ("0.0 0.0 1.0\n", FIFTH_POINT),
      ("CELLS 1 5\n4 0 1 2 3", "CELLS 2 10\n4 0 1 2 3\n4 1 2 3 4"),
      ("CELL_TYPES 1\n10", "CELL_TYPES 2\n10\n12")),
     16, "unsupported cell type 12"),
    # two cells, one declared type
    ((("POINTS 4", "POINTS 5"), ("0.0 0.0 1.0\n", FIFTH_POINT),
      ("CELLS 1 5\n4 0 1 2 3", "CELLS 2 10\n4 0 1 2 3\n4 1 2 3 4")),
     14, "CELL_TYPES declares 1 cells, CELLS 2"),
], ids=["ragged_row", "index_past_points", "negative_index",
        "index_in_second_row", "second_cell_type", "cell_types_count"])
def test_read_rejects_malformed_cells(tmp_path, replacements, line, message):
    text = GOLDEN_TET
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    p = tmp_path / "bad.vtk"
    p.write_text(text)
    with pytest.raises(ParseError, match=message) as exc:
        h.read_mesh(p)
    assert exc.value.path == str(p)
    assert exc.value.line == line


MSH_TET = """\
$MeshFormat
4.1 0 8
$EndMeshFormat
$Nodes
1 4 1 4
3 1 0 4
1
2
3
4
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
0.0 0.0 1.0
$EndNodes
$Elements
1 1 1 1
3 1 4 1
1 1 2 3 4
$EndElements
"""

CELL_DATA = GOLDEN_TET + "CELL_DATA 1\n"

# (file text, extension, line of the negative count)
NEGATIVE_COUNTS = [
    (GOLDEN_TET.replace("POINTS 4", "POINTS -4"), ".vtk", 5),
    (GOLDEN_TET.replace("CELLS 1 5", "CELLS -1 5"), ".vtk", 10),
    (GOLDEN_TET.replace("CELLS 1 5", "CELLS 1 -5"), ".vtk", 10),
    (GOLDEN_TET + "CELL_DATA -1\nVECTORS v double\n0.0 0.0 0.0\n", ".vtk", 14),
    (GOLDEN_TET + "POINT_DATA -1\nVECTORS v double\n0.0 0.0 0.0\n", ".vtk", 14),
    (CELL_DATA + "SCALARS s double -1\nLOOKUP_TABLE default\n0.0\n", ".vtk", 15),
    (CELL_DATA + "FIELD f -1\n", ".vtk", 15),
    (CELL_DATA + "FIELD f 1\na -3 1 double\n0.0\n", ".vtk", 16),
    (CELL_DATA + "FIELD f 1\na 1 -3 double\n0.0\n", ".vtk", 16),
    (MSH_TET.replace("$Nodes\n1 4", "$Nodes\n-1 4"), ".msh", 5),
    (MSH_TET.replace("3 1 0 4", "3 1 0 -4"), ".msh", 6),
    (MSH_TET.replace("$Elements\n1 1", "$Elements\n-1 1"), ".msh", 17),
    (MSH_TET.replace("3 1 4 1", "3 1 4 -1"), ".msh", 18),
]


def test_read_rejects_negative_counts(tmp_path):
    # A negative count used to move the token cursor backwards, and some
    # files made the reader loop forever: read them in a child process
    # under a timeout.
    paths = []
    for i, (text, ext, _) in enumerate(NEGATIVE_COUNTS):
        p = tmp_path / f"case{i}{ext}"
        p.write_text(text)
        paths.append(str(p))
    code = ("import sys\nimport hodge3d as h\n"
            "for p in sys.argv[1:]:\n"
            "    try:\n        h.read_mesh(p)\n"
            "    except h.ParseError as exc:\n        print(exc.line, exc)\n"
            "    else:\n        print('accepted')\n")
    src = os.path.dirname(os.path.dirname(h.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, *paths], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    assert len(got) == len(paths)
    for out, p, (_, _, line) in zip(got, paths, NEGATIVE_COUNTS):
        assert out.startswith(f"{line} {p}:{line}: negative count -"), out


@pytest.mark.parametrize("ext, text, old, new", [
    (".vtk", GOLDEN_TET, "\n4 0 1 2 3", "\n{} 0 1 2 3"),
    (".msh", MSH_TET, "0 4\n1\n", "0 4\n{}\n"),
], ids=["vtk_cell_size", "msh_node_tag"])
def test_integer_overflow_is_a_malformed_value(tmp_path, ext, text, old, new):
    # reported like any other malformed token in the same place
    errors = []
    for token in ("99999999999999999999", "x"):
        p = tmp_path / f"{token}{ext}"
        p.write_text(text.replace(old, new.format(token)))
        with pytest.raises(ParseError, match="malformed numeric value") as exc:
            h.read_mesh(p)
        errors.append((str(exc.value).replace(str(p), "<path>"), exc.value.line))
    assert errors[0] == errors[1]
    assert errors[0][1] > 0


@pytest.mark.parametrize("ext, text, line, message", [
    (".vtk", GOLDEN_TET.replace("\n4 0 1 2 3",
                                "\n99999999999999999999 0 1 2 3"),
     11, "malformed numeric value"),
    (".vtk", GOLDEN_TET.replace("0.0 1.0 0.0\n", "0.0 1.x 0.0\n"),
     8, "malformed numeric value"),
    (".vtk", GOLDEN_TET.replace("CELLS 1 5", "CELLS x 5"),
     10, "expected integer, got 'x'"),
    (".vtk", GOLDEN_TET.replace("CELLS 1 5", "CELLS 1 x"),
     10, "expected integer, got 'x'"),
    (".vtk", GOLDEN_TET.removesuffix("10\n"),
     12, "expected 1 more values, file ended"),
    (".msh", MSH_TET.replace("0.0 1.0 0.0\n", "0.0 1.x 0.0\n"),
     13, "malformed numeric value"),
], ids=["vtk_cell_size_overflow", "vtk_point_coordinate", "vtk_cells_count",
        "vtk_cells_size", "vtk_cut_after_cell_types", "msh_node_coordinate"])
def test_token_errors_name_the_line_of_the_bad_token(tmp_path, ext, text,
                                                     line, message):
    p = tmp_path / f"bad{ext}"
    p.write_text(text)
    with pytest.raises(ParseError, match=message) as exc:
        h.read_mesh(p)
    assert exc.value.line == line


def test_field_file_with_several_arrays_gives_its_first(tmp_path, ball_tiny):
    # read_field takes the first cell vector array and ignores the others
    a = h.sample_analytic(ball_tiny, "X1").vectors
    b = h.sample_analytic(ball_tiny, "X2").vectors
    both, only_a = tmp_path / "ab.vtk", tmp_path / "a.vtk"
    h.write_vtk(both, ball_tiny, {"a": a, "b": b})
    h.write_vtk(only_a, ball_tiny, {"a": a})
    mesh = h.read_mesh(both)
    np.testing.assert_array_equal(h.read_field(both, mesh).vectors, a)
    hashes = []
    for path in (both, only_a):
        out = tmp_path / path.stem
        assert main(["decompose", "--mesh", str(path), "--field",
                     f"file:{path}", "--scheme", "fd", "--out", str(out),
                     "--formats", "json"]) == 0
        report = json.loads((out / "report.json").read_text())
        hashes.append(report["input_hashes"]["field"])
    assert hashes[0] == hashes[1]


def test_shared_mesh_and_field_file_is_parsed_once(tmp_path, monkeypatch,
                                                   ball_tiny):
    vtk = tmp_path / "ball.vtk"
    h.write_vtk(vtk, ball_tiny, {"v": h.sample_analytic(ball_tiny, "X1").vectors})
    paths = []
    parse = h_io._parse_vtk

    def counted(path):
        paths.append(path)
        return parse(path)

    monkeypatch.setattr(h_io, "_parse_vtk", counted)
    assert main(["decompose", "--mesh", str(vtk), "--field", f"file:{vtk}",
                 "--scheme", "fd"]) == 0
    assert paths == [str(vtk)]
    # a field moved to another mesh is parsed once too
    del paths[:]
    assert main(["decompose", "--domain", "ball", "--h", "0.5",
                 "--field", f"file:{vtk}", "--scheme", "fd"]) == 0
    assert paths == [str(vtk)]
    other = tmp_path / "other.vtk"
    h.write_vtk(other, ball_tiny)
    del paths[:]
    assert main(["decompose", "--mesh", str(other), "--field", f"file:{vtk}",
                 "--scheme", "fd"]) == 0
    assert paths == [str(other), str(vtk)]


def test_bad_vector_in_shared_file_names_its_line(tmp_path, capsys):
    p = tmp_path / "bad.vtk"
    p.write_text(GOLDEN_TET + "CELL_DATA 1\nVECTORS v double\n1.0 2.x 3.0\n")
    assert main(["decompose", "--mesh", str(p), "--field", f"file:{p}",
                 "--scheme", "fd"]) == 1
    assert capsys.readouterr().err == f"error: {p}:16: malformed numeric value\n"


@pytest.mark.parametrize("name, text", [
    ("nan.vtk", GOLDEN_TET.replace("1.0 0.0 0.0", "1.0 nan 0.0")),
    ("inf.msh", MSH_TET.replace("1.0 0.0 0.0", "inf 0.0 0.0")),
], ids=["vtk_nan", "msh_inf"])
def test_non_finite_vertices_are_rejected(tmp_path, capsys, name, text):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(MeshError, match="vertex 1 has a non-finite coordinate") \
            as exc:
        h.read_mesh(p)
    assert str(exc.value).startswith(f"{p}: ")
    assert main(["decompose", "--mesh", str(p), "--field", "X0",
                 "--scheme", "fd"]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_parse_error_without_line_names_only_the_path(tmp_path):
    p = tmp_path / "nocells.vtk"
    p.write_text(GOLDEN_TET[:GOLDEN_TET.index("CELLS")])
    with pytest.raises(ParseError) as exc:
        h.read_mesh(p)
    assert str(exc.value) == f"{p}: file lacks POINTS, CELLS or CELL_TYPES"
    assert exc.value.line == 0


def test_read_rejects_binary_and_garbage(tmp_path):
    p = tmp_path / "b.vtk"
    p.write_text(GOLDEN_TET.replace("ASCII", "BINARY"))
    with pytest.raises(ParseError, match="ASCII"):
        h.read_mesh(p)
    p2 = tmp_path / "g.vtk"
    p2.write_text("not a vtk file\n")
    with pytest.raises(ParseError):
        h.read_mesh(p2)


# a binary legacy VTK file: an ASCII header, then big-endian values
BINARY_VTK = (b"# vtk DataFile Version 3.0\nsingle tet\nBINARY\n"
              b"DATASET UNSTRUCTURED_GRID\nPOINTS 4 double\n"
              + np.array(REF_VERTS, dtype=">f8").tobytes()
              + b"\nCELLS 1 5\n" + np.array([4, 0, 1, 2, 3], dtype=">i4").tobytes()
              + b"\nCELL_TYPES 1\n" + np.array([10], dtype=">i4").tobytes() + b"\n")
# a binary Gmsh file: its node coordinates are raw doubles
BINARY_MSH = (b"$MeshFormat\n4.1 1 8\n\x01\x00\x00\x00\n$EndMeshFormat\n"
              b"$Nodes\n" + np.array(REF_VERTS, dtype="<f8").tobytes()
              + b"\n$EndNodes\n")


@pytest.mark.parametrize("name, data, line, message", [
    ("bin.vtk", BINARY_VTK, 3,
     "unsupported VTK format 'BINARY' (only ASCII legacy files)"),
    ("byte.vtk", GOLDEN_TET.encode().replace(b"1.0 0.0 0.0", b"1.0 0.\xff 0.0"),
     7, "malformed numeric value"),
    ("byte_cell.vtk", GOLDEN_TET.encode().replace(b"4 0 1 2 3", b"4 0 1 \xe9 3"),
     11, "malformed numeric value"),
    ("bin.msh", BINARY_MSH, 3, "binary MSH files are not supported"),
    ("byte.msh", MSH_TET.encode().replace(b"$Nodes\n1 4", b"$Nodes\n\xff1 4"),
     5, "expected integer, got '\\xff1'"),
], ids=["binary_vtk", "vtk_point", "vtk_cell", "binary_msh", "msh_count"])
def test_non_utf8_files_are_parse_errors(tmp_path, capsys, name, data, line,
                                         message):
    p = tmp_path / name
    p.write_bytes(data)
    with pytest.raises(UnicodeDecodeError):
        data.decode()
    with pytest.raises(ParseError) as exc:
        h.read_mesh(p)
    assert str(exc.value) == f"{p}:{line}: {message}"
    assert main(["decompose", "--mesh", str(p), "--field", "X0",
                 "--scheme", "fd"]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_read_empty_mesh(tmp_path):
    text = GOLDEN_TET.replace("CELLS 1 5\n4 0 1 2 3", "CELLS 0 0")
    text = text.replace("CELL_TYPES 1\n10", "CELL_TYPES 0")
    p = tmp_path / "empty.vtk"
    p.write_text(text)
    with pytest.raises(ParseError, match="empty|cells"):
        h.read_mesh(p)


def test_unused_points_are_compacted(tmp_path):
    text = GOLDEN_TET.replace("POINTS 4 double", "POINTS 5 double")
    text = text.replace("0.0 0.0 1.0\n", "0.0 0.0 1.0\n9.0 9.0 9.0\n")
    p = tmp_path / "extra.vtk"
    p.write_text(text)
    mesh = h.read_mesh(p)
    assert mesh.n_v == 4


def test_point_data_skips_unused_points(tmp_path):
    # the unused point comes first, so every used point's index shifts
    text = GOLDEN_TET.replace("POINTS 4 double\n",
                              "POINTS 5 double\n9.0 9.0 9.0\n")
    text = text.replace("4 0 1 2 3", "4 1 2 3 4")
    vectors = np.arange(15.0).reshape(5, 3)
    text += "POINT_DATA 5\nVECTORS v double\n" + "".join(
        f"{x} {y} {z}\n" for x, y, z in vectors)
    p = tmp_path / "unused.vtk"
    p.write_text(text)
    mesh = h.read_mesh(p)
    X = h.read_field(p, mesh, resample="barycentric")
    assert (X.vectors == vectors[mesh.tets + 1].mean(axis=1)).all()
    assert main(["decompose", "--mesh", str(p), "--field", f"file:{p}",
                 "--scheme", "fd", "--resample", "barycentric"]) == 0


def test_vtk_roundtrip_bit_exact(ball_coarse, tmp_path):
    X = h.sample_analytic(ball_coarse, "X0")
    p = tmp_path / "ball.vtk"
    h.write_vtk(p, ball_coarse, {"velocity": X.vectors})
    mesh2 = h.read_mesh(p)
    assert (mesh2.vertices == ball_coarse.vertices).all()
    assert (mesh2.tets == ball_coarse.tets).all()
    Y = h.read_field(p, mesh2)
    assert (Y.vectors == X.vectors).all()


# every float is written as its shortest round-trip repr
GOLDEN_WRITE = """\
# vtk DataFile Version 3.0
golden
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 5 double
-0.0 0.0 0.0
1.0 1e-05 0.0
0.0 1.0 0.30000000000000004
0.0 0.0 1.0
1.0 1.0 1.0
CELLS 2 10
4 0 1 2 3
4 1 2 3 4
CELL_TYPES 2
10
10
CELL_DATA 2
VECTORS v double
1e+16 5e-324 -0.0
123456789.0 -0.30000000000000004 1e-05
"""


def test_write_golden_bytes(tmp_path):
    verts = [(-0.0, 0.0, 0.0), (1.0, 1e-05, 0.0),
             (0.0, 1.0, 0.30000000000000004), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)]
    mesh = h.build_complex(verts, [(0, 1, 2, 3), (1, 2, 3, 4)])
    vecs = [(1e+16, 5e-324, -0.0), (123456789.0, -0.30000000000000004, 1e-05)]
    p = tmp_path / "golden.vtk"
    h.write_vtk(p, mesh, {"v": vecs}, title="golden")
    assert p.read_bytes() == GOLDEN_WRITE.encode()


@pytest.mark.parametrize("title", ["a\rb", "a\r\nb", "a\vb", "a\x85b",
                                   "a\u2028b"], ids=["cr", "crlf", "vt", "nel", "ls"])
def test_write_vtk_keeps_the_title_on_one_line(tmp_path, ref_tet, title):
    p = tmp_path / "t.vtk"
    h.write_vtk(p, ref_tet, {"v": [[0.25, -0.5, 1.0]]}, title=title)
    assert p.read_bytes().split(b"\n")[1] == b"a b"
    mesh = h.read_mesh(p)
    assert (h.read_field(p, mesh).vectors == [[0.25, -0.5, 1.0]]).all()


@pytest.mark.parametrize("name", ["my field", "", "a\tb", "v\n"],
                         ids=["space", "empty", "tab", "newline"])
def test_write_vtk_rejects_a_name_the_reader_would_split(tmp_path, ref_tet, name):
    p = tmp_path / "n.vtk"
    with pytest.raises(FieldError) as exc:
        h.write_vtk(p, ref_tet, {name: [[0.0, 0.0, 1.0]]})
    assert str(exc.value) == \
        f"cell vector array name '{name}' is empty or holds whitespace"
    assert not p.exists()
    h.write_vtk(p, ref_tet, {"my_field": [[0.0, 0.0, 1.0]]})
    assert list(h_io._parse(str(p))[2]) == ["my_field"]


def test_write_deterministic(ball_tiny, tmp_path):
    X = h.sample_analytic(ball_tiny, "X1")
    p1 = tmp_path / "a.vtk"
    p2 = tmp_path / "b.vtk"
    h.write_vtk(p1, ball_tiny, {"v": X.vectors})
    h.write_vtk(p2, ball_tiny, {"v": X.vectors})
    assert p1.read_bytes() == p2.read_bytes()


def test_gmsh_roundtrip(ball_tiny, tmp_path):
    msh = tmp_path / "ball.msh"
    write_gmsh41(msh, ball_tiny)
    mesh = h.read_mesh(msh)
    assert mesh.counts == ball_tiny.counts
    assert (mesh.vertices == ball_tiny.vertices).all()
    assert (mesh.tets == ball_tiny.tets).all()
    # write the re-read mesh as VTK and read it back: identical again
    vtk = tmp_path / "ball.vtk"
    h.write_vtk(vtk, mesh)
    mesh2 = h.read_mesh(vtk)
    assert (mesh2.tets == ball_tiny.tets).all()


def test_gmsh_rejects_bad_version_and_hex(tmp_path):
    p = tmp_path / "old.msh"
    p.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
    with pytest.raises(ParseError, match="version"):
        h.read_mesh(p)
    p2 = tmp_path / "hex.msh"
    p2.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n"
                  "$Nodes\n1 1 1 1\n3 1 0 1\n1\n0.0 0.0 0.0\n$EndNodes\n"
                  "$Elements\n1 1 1 1\n3 1 5 1\n1 1 1 1 1 1 1 1 1\n"
                  "$EndElements\n")
    with pytest.raises(ParseError, match="element type"):
        h.read_mesh(p2)


def test_gmsh_skips_boundary_blocks(ball_tiny, tmp_path):
    # prepend a surface block of triangles; only the tets must load
    msh = tmp_path / "mixed.msh"
    write_gmsh41(msh, ball_tiny)
    text = msh.read_text().splitlines()
    i = text.index("$Elements")
    n_t = ball_tiny.n_t
    f = ball_tiny.faces[np.flatnonzero(ball_tiny.boundary_face)[0]]
    tri = f"{n_t + 1} " + " ".join(str(int(x) + 1) for x in f)
    text[i + 1] = f"2 {n_t + 1} 1 {n_t + 1}"
    text.insert(i + 2, f"2 1 2 1\n{tri}")
    msh.write_text("\n".join(text) + "\n")
    mesh = h.read_mesh(msh)
    assert mesh.n_t == ball_tiny.n_t


def test_read_field_cell_data_direct(tmp_path, ref_tet):
    p = tmp_path / "f.vtk"
    p.write_text(GOLDEN_TET + "CELL_DATA 1\nVECTORS velocity double\n"
                              "0.25 -0.5 1.0\n")
    X = h.read_field(p, ref_tet)
    np.testing.assert_array_equal(X.vectors, [[0.25, -0.5, 1.0]])


def test_read_field_point_data_needs_explicit_resample(tmp_path, ref_tet):
    p = tmp_path / "pf.vtk"
    p.write_text(GOLDEN_TET + "POINT_DATA 4\nVECTORS v double\n"
                 + "1.0 2.0 3.0\n" * 4)
    with pytest.raises(FieldError, match="resample"):
        h.read_field(p, ref_tet)
    X = h.read_field(p, ref_tet, resample="barycentric")
    # averaging preserves constants
    np.testing.assert_array_equal(X.vectors, [[1.0, 2.0, 3.0]])


def test_read_field_rejects_nan_and_length_mismatch(tmp_path, ref_tet, two_tet):
    p = tmp_path / "nan.vtk"
    p.write_text(GOLDEN_TET + "CELL_DATA 1\nVECTORS v double\n0.0 nan 0.0\n")
    with pytest.raises(FieldError, match="NaN|Inf"):
        h.read_field(p, ref_tet)
    p2 = tmp_path / "short.vtk"
    p2.write_text(GOLDEN_TET + "CELL_DATA 1\nVECTORS v double\n1.0 0.0 0.0\n")
    with pytest.raises(FieldError, match="entries"):
        h.read_field(p2, two_tet)


def test_read_field_requires_vectors(tmp_path, ref_tet):
    p = tmp_path / "nov.vtk"
    p.write_text(GOLDEN_TET)
    with pytest.raises(FieldError, match="VECTORS"):
        h.read_field(p, ref_tet)


def test_gmsh_file_as_field_has_no_vectors(tmp_path, ref_tet, capsys):
    p = tmp_path / "m.msh"
    p.write_text(MSH_TET)
    message = f"no VECTORS array found in '{p}'"
    with pytest.raises(FieldError) as exc:
        h.read_field(p, ref_tet)
    assert str(exc.value) == message
    assert main(["decompose", "--mesh", str(p), "--field", f"file:{p}",
                 "--scheme", "fd"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_read_field_takes_the_extensions_read_mesh_takes(tmp_path, ref_tet):
    p = tmp_path / "f.dat"
    p.write_text(GOLDEN_TET + "CELL_DATA 1\nVECTORS v double\n0.0 0.0 1.0\n")
    for read in (h.read_mesh, lambda path: h.read_field(path, ref_tet)):
        with pytest.raises(ParseError) as exc:
            read(p)
        assert str(exc.value) == f"{p}: cannot infer format from extension '.dat'"


def _mutants(text):
    """`text` with one token dropped, doubled, cut to its first half or
    replaced by a non-number, a NaN or -1, for every token and every
    change."""
    for m in re.finditer(r"\S+", text):
        a, b, tok = m.start(), m.end(), m.group()
        for new in ("", f"{tok} {tok}", tok[:len(tok) // 2], "x", "nan", "-1"):
            yield text[:a] + new + text[b:]


@pytest.mark.parametrize("ext, text", [
    (".vtk", GOLDEN_TET + "CELL_DATA 1\nVECTORS v double\n0.25 -0.5 1.0\n"),
    (".msh", MSH_TET),
], ids=["vtk", "msh"])
def test_mutated_files_load_or_raise_an_error_naming_them(tmp_path, ext, text):
    # 100 seeded mutants per format; each reader either loads the file or
    # raises a Hodge3dError that names it, never another exception
    mutants = random.Random(17).sample(list(_mutants(text)), 100)
    base = tmp_path / f"base{ext}"
    base.write_text(text)
    mesh = h.read_mesh(base)
    readers = (h.read_mesh, lambda p: h.read_field(p, mesh),
               h_io._read_mesh_and_field)
    for i, mutant in enumerate(mutants):
        p = tmp_path / f"m{i}{ext}"
        p.write_text(mutant)
        for read in readers:
            try:
                read(p)
            except Hodge3dError as exc:
                assert str(p) in str(exc), (mutant, exc)


def _parse_outcome(path):
    """`_parse`'s arrays of `path` as bytes, or its error's type and text."""
    try:
        points, tets, cell_vectors, point_vectors = h_io._parse(path)
    except Hodge3dError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [(a.dtype, a.shape, a.tobytes()) for a in (
        points, tets if tets is not None else np.empty(0),
        *cell_vectors.values(), *point_vectors.values())], \
        list(cell_vectors), list(point_vectors)


def _exact(monkeypatch):
    """Make every section be read token by token, not by `np.fromstring`."""
    monkeypatch.setattr(h_io, "_fast_values", lambda section, n, dtype: None)


RICH_VTK = (GOLDEN_TET + "CELL_DATA 1\nSCALARS s double 1\nLOOKUP_TABLE default\n"
            "0.5\nVECTORS v double\n0.25 -0.5 1e-05\nFIELD f 2\na 2 1 double\n"
            "7.0 8.0\nb 1 1 double\n9.0\n")

FAST_PARSE_CASES = {
    "saturating_cells": RICH_VTK.replace("4 0 1 2 3", "4 0 1 2 99999999999999999999"),
    "saturating_cell_types": RICH_VTK.replace("1\n10\n", "1\n99999999999999999999\n"),
    "underscore": RICH_VTK.replace("1.0 0.0 0.0", "1_000 0.0 0.0"),
    "nan_points": RICH_VTK.replace("1.0 0.0 0.0", "1.0 nan 0.0"),
    "inf_points": RICH_VTK.replace("1.0 0.0 0.0", "1.0 0.0 -inf"),
    "overflow_points": RICH_VTK.replace("1.0 0.0 0.0", "1.0 0.0 1e999"),
    "nan_vectors": RICH_VTK.replace("0.25 -0.5", "nan -0.5"),
    "inf_vectors": RICH_VTK.replace("0.25 -0.5", "0.25 inf"),
    "crlf": RICH_VTK.replace("\n", "\r\n"),
    "vertical_tab": RICH_VTK.replace("0.0\n0.0", "0.0\v0.0"),
    "lone_sign": RICH_VTK.replace("4 0 1 2 3", "4 0 1 2 +"),
    "section_short": RICH_VTK.replace("0.0 1.0 0.0\n", "0.0 1.0\n"),
    "section_long": RICH_VTK.replace("0.0 1.0 0.0\n", "0.0 1.0 0.0 0.5\n"),
    "trailing_tokens": RICH_VTK + "7.0 8.0\n",
    "trailing_word": RICH_VTK + "end\n",
    # the token "8.0b" is malformed, though "b" could name the next array
    "glued_name": RICH_VTK.replace("8.0\nb", "8.0b"),
}


@pytest.mark.parametrize("name", FAST_PARSE_CASES)
def test_fast_parse_agrees_with_the_token_grammar(tmp_path, monkeypatch, name):
    p = tmp_path / "case.vtk"
    p.write_bytes(FAST_PARSE_CASES[name].encode())
    fast = _parse_outcome(str(p))
    _exact(monkeypatch)
    assert fast == _parse_outcome(str(p))


@pytest.mark.parametrize("dtype, section", [
    (np.int64, " 99999999999999999999\n"), (np.int64, " 9223372036854775807"),
    (np.int64, " 1 -"), (np.int64, "\n\n"), (np.float64, " 1e999 -1e-999\n"),
    (np.float64, " 1.5 2.5x"), (np.float64, " 1.5 .2e3"), (np.float64, " 1 -nan"),
    (np.float64, " nan(1) 2"), (np.float64, " 1_000 2"), (np.int64, " 010 7"),
], ids=["saturating", "int64_max", "lone_sign", "blank", "overflow",
        "glued_letter", "no_leading_digit", "signed_nan", "nan_payload",
        "underscore", "leading_zero"])
def test_cursor_reads_a_section_as_the_tokens_do(dtype, section):
    # one fromstring call reads what np.array of the tokens reads, or
    # leaves the section to them
    toks = section.split()
    fast = h_io._fast_values(section, len(toks), dtype)
    if fast is not None:
        assert fast.tobytes() == np.array(toks, dtype=dtype).tobytes()


def test_fast_values_are_not_trusted_when_short(monkeypatch):
    # a fromstring that stops early without a warning
    monkeypatch.setattr(np, "fromstring",
                        lambda string, dtype=float, sep="": np.zeros(1, dtype))
    assert h_io._fast_values(" 1 2", 2, np.float64) is None


def test_fast_parse_agrees_on_every_mutant(tmp_path, monkeypatch):
    paths = []
    for ext, text in ((".vtk", RICH_VTK), (".msh", MSH_TET)):
        paths.append(tmp_path / f"base{ext}")
        paths[-1].write_text(text)
        for i, mutant in enumerate(_mutants(text)):
            paths.append(tmp_path / f"m{i}{ext}")
            paths[-1].write_text(mutant)
    fast = [_parse_outcome(str(p)) for p in paths]
    _exact(monkeypatch)
    assert fast == [_parse_outcome(str(p)) for p in paths]


def test_fast_parse_falls_back_when_numpy_warns(tmp_path, monkeypatch):
    # numpy 1.x warns on a malformed token and returns the values before
    # it; here those are as many as the section declares
    p = tmp_path / "bad.vtk"
    p.write_text(RICH_VTK.replace("1e-05", "1e-05-2"))
    fromstring = np.fromstring

    def numpy1_fromstring(string, dtype=float, sep=""):
        if "1e-05-2" not in string:
            return fromstring(string, dtype=dtype, sep=sep)
        warnings.warn("string or file could not be read to its end due to "
                      "unmatched data", DeprecationWarning)
        return fromstring(string.replace("1e-05-2", "1e-05"), dtype=dtype,
                          sep=sep)

    monkeypatch.setattr(np, "fromstring", numpy1_fromstring)
    fast = _parse_outcome(str(p))
    assert fast[0] is ParseError and fast[1].endswith(":19: malformed numeric value")
    _exact(monkeypatch)
    assert fast == _parse_outcome(str(p))


def _ball_files(tmp_path, mesh):
    """`mesh` written as VTK with a cell field and as Gmsh."""
    vtk, msh = tmp_path / "ball.vtk", tmp_path / "ball.msh"
    h.write_vtk(vtk, mesh, {"v": h.sample_analytic(mesh, "X1").vectors})
    write_gmsh41(msh, mesh)
    return vtk, msh


def test_regular_file_is_parsed_without_token_strings(tmp_path, monkeypatch,
                                                      ball_coarse):
    fast_values = h_io._fast_values

    def fast_only(section, n, dtype):
        out = fast_values(section, n, dtype)
        assert out is not None
        return out

    monkeypatch.setattr(h_io, "_fast_values", fast_only)
    vtk, msh = _ball_files(tmp_path, ball_coarse)
    mesh, X = h_io._read_mesh_and_field(vtk)
    assert (mesh.tets == ball_coarse.tets).all()
    assert (X.vectors == h.sample_analytic(ball_coarse, "X1").vectors).all()
    assert (h.read_mesh(msh).tets == ball_coarse.tets).all()


def test_parse_peak_memory_is_a_few_file_sizes(tmp_path, ball_medium):
    for p, bound in zip(_ball_files(tmp_path, ball_medium), (4, 10)):
        tracemalloc.start()
        try:
            h_io._parse(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * p.stat().st_size, p


def test_report_schema_and_fractions(torus_engine):
    X = h.sample_analytic(torus_engine.mesh, "X4")
    r = torus_engine.decompose(X, "FD")
    rep = h.make_report(r)
    assert rep["schema_version"] == 1
    assert rep["scheme"] == "FD"
    assert {c["name"] for c in rep["components"]} == set(h.SCHEME_COMPONENTS["FD"])
    assert rep["mesh"]["betti"] == [1, 1, 0]
    assert rep["mesh"]["n_t"] == torus_engine.mesh.n_t
    assert len(rep["solver"]) == len(r.solver_reports)
    assert all(s["converged"] for s in rep["solver"])
    total = sum(c["fraction"] for c in rep["components"])
    assert abs(total - 1.0) <= 1e-8
    recon = sum(c["sq_norm"] for c in rep["components"])
    assert abs(recon - sum(r.sq_norms.values())) <= 1e-12
    # the mesh hash reads the tets as int64, whatever width they are stored in
    mesh = torus_engine.mesh
    assert rep["input_hashes"]["mesh"] == hashlib.sha256(
        mesh.vertices.tobytes() + mesh.tets.astype(np.int64).tobytes()).hexdigest()
    assert len(rep["input_hashes"]["field"]) == 64


def test_write_outputs_deterministic(ball_tiny, tmp_path):
    eng = h.HodgeDecomposer(ball_tiny)
    X = h.sample_analytic(ball_tiny, "X2")
    r = eng.decompose(X, "FD")
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    files1 = h.write_outputs(r, d1)
    files2 = h.write_outputs(r, d2)
    assert [f.split("/")[-1] for f in files1] == \
        [f.split("/")[-1] for f in files2]
    names = {f.split("/")[-1] for f in files1}
    assert names == {"fluxless_knot.vtk", "gradient.vtk",
                     "harmonic_dirichlet.vtk", "report.json"}
    for f1, f2 in zip(files1, files2):
        assert open(f1, "rb").read() == open(f2, "rb").read()
    rep = json.loads((d1 / "report.json").read_text())
    assert rep["scheme"] == "FD"
    # each component file is what write_vtk writes for it alone
    for name, comp in r.components.items():
        alone = tmp_path / f"{name}.vtk"
        h.write_vtk(alone, ball_tiny, {name: comp.vectors},
                    title=f"FD component {name}")
        assert (d1 / f"{name}.vtk").read_bytes() == alone.read_bytes()


def test_write_outputs_refuses_unknown_format(ball_tiny, tmp_path):
    r = h.HodgeDecomposer(ball_tiny).decompose(
        h.sample_analytic(ball_tiny, "X2"), "FD")
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="'xml'.*vtk, json"):
        h.write_outputs(r, out, formats=("json", "xml"))
    assert not out.exists()
