"""Mesh/field file formats and machine-readable reports.

Reads VTK legacy ASCII unstructured grids and Gmsh MSH 4.1 files, writes
VTK legacy ASCII (the canonical output, one file per component) and a
versioned JSON report. Output bytes are deterministic for fixed inputs:
floats are written with shortest round-trip repr.
"""

import hashlib
import json
import os
import re
import warnings

import numpy as np

from ._version import __version__
from .errors import FieldError, MeshError, ParseError
from .fields import Pcvf
from .hodge import DecompositionResult
from .mesh import TetMesh, betti_numbers, build_complex

__all__ = ["read_mesh", "read_field", "write_vtk", "write_outputs",
           "make_report", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_VTK_TET = 10


class _Tokens:
    """Whitespace token stream over `text`, which follows `skipped` header
    lines of the file. It walks the text by character offset and makes no
    string per value of a section that `_fast_values` reads. Line numbers
    (counted as str.splitlines counts lines) are worked out only when an
    error is raised."""

    def __init__(self, text: str, path: str, skipped: int = 0):
        self.text, self.path, self.skipped = text, path, skipped
        self.pos = 0  # character offset just past the last token read
        self.last = 0  # offset of the last token that next() read

    def done(self) -> bool:
        return _TOKEN.search(self.text, self.pos) is None

    def at(self, start: int, k: int) -> int:
        """Offset of the k-th token after offset `start` (0: the first)."""
        skipped = _counted(k).match(self.text, start).end()
        return _TOKEN.search(self.text, skipped).start()

    def line(self, at: int | None = None) -> int:
        """Line within `text` of the token at offset `at` (default: the
        next one, or the last one at the end); 0 if there are no tokens."""
        if at is None:
            m = _TOKEN.search(self.text, self.pos)
            if m is None and not self.pos:
                return 0  # the text holds no token
            # at the end, the end of the last token read, on its line
            at = self.pos if m is None else m.start()
        # the "x" stands for the token, so a token that starts a line counts it
        return len((self.text[:at] + "x").splitlines())

    def error(self, msg: str, at: int | None = None) -> ParseError:
        """A ParseError at the file line of the token at `at` (default as
        in line())."""
        return ParseError(msg, self.path, self.line(at) + self.skipped)

    def next(self) -> str:
        m = _TOKEN.search(self.text, self.pos)
        if m is None:
            raise self.error("unexpected end of file")
        self.last, self.pos = m.span()
        return m.group()

    def peek(self) -> str | None:
        m = _TOKEN.search(self.text, self.pos)
        return None if m is None else m.group()

    def next_int(self) -> int:
        tok = self.next()
        try:
            return int(tok)
        except ValueError:
            raise self.error(f"expected integer, got '{tok}'", self.last) from None

    def next_count(self) -> int:
        """The next integer, which must not be negative: a negative count
        would move the cursor backwards."""
        n = self.next_int()
        if n < 0:
            raise self.error(f"negative count {n}", self.last)
        return n

    def take(self, n: int, dtype) -> np.ndarray:
        """The next n tokens as an array of `dtype`."""
        text, start = self.text, self.pos
        # n tokens need n characters; a larger count compiles no pattern
        m = _counted(n).match(text, start) if n <= len(text) - start else None
        if m is None:
            raise self.error(f"expected {n} more values, file ended")
        section = text[start:m.end()]
        out = _fast_values(section, n, dtype)
        if out is None:
            toks = section.split()
            try:
                out = np.array(toks, dtype=dtype)
            except (ValueError, OverflowError):
                # find the bad token only now, so a good section stays one call
                bad = next((k for k, tok in enumerate(toks)
                            if not _converts(tok, dtype)), 0)
                raise self.error("malformed numeric value",
                                 self.at(start, bad)) from None
        self.pos = m.end()
        return out


def _counted(n: int) -> re.Pattern:
    """The pattern of the next n tokens; possessive, so that a match keeps
    no state per token."""
    return re.compile(rf"(?:\s*+\S++){{{n}}}+")


def _fast_values(section: str, n: int, dtype) -> np.ndarray | None:
    """The values of `section`, which holds n tokens, from one
    `np.fromstring` call; None where that call may read them otherwise
    than `np.array` of the tokens does."""
    if not n:
        return np.empty(0, dtype=dtype)  # fromstring would make a value
    if dtype is np.int64 and ("-" in section or "+" in section):
        return None  # fromstring reads a lone sign as 0
    if dtype is np.float64 and ("n" in section or "N" in section):
        return None  # fromstring takes "nan(1)" and drops the sign of "-nan"
    # numpy 1.x warns and returns what it read up to a bad token
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = np.fromstring(section, dtype=dtype, sep=" ")
        except (ValueError, Warning):
            return None
    if len(out) != n:
        return None
    if dtype is np.int64 and out.max() == np.iinfo(np.int64).max:
        return None  # fromstring saturates where int() overflows
    return out


def _converts(tok: str, dtype) -> bool:
    try:
        np.array(tok, dtype=dtype)
    except (ValueError, OverflowError):
        return False
    return True


# the line breaks of str.splitlines, and a token of str.split
_LINE_END = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_TOKEN = re.compile(r"\S+")


def _parse_vtk(path: str):
    """Parse a VTK legacy ASCII unstructured grid of tetrahedra.

    Returns (points, tets (n, 4) or None when the file has no grid,
    cell_vectors{name: array}, point_vectors{name: array}).
    """
    # a byte that is not UTF-8 reads as its escape, such as \xff: not a
    # number or a keyword, and printable in any message
    with open(path, "r", errors="backslashreplace") as f:
        head = _LINE_END.split(f.read(), 3)  # 3 header lines and the body
    if len(head) == 4:
        body = head.pop()
    else:
        body = ""
        if not head[-1]:
            head.pop()  # a final line break starts no line
    if not head or not head[0].lstrip().startswith("# vtk DataFile"):
        raise ParseError("missing '# vtk DataFile' header", path, 1)
    if not body:
        raise ParseError("truncated VTK header", path, len(head))
    fmt = head[2].strip().upper()
    if fmt != "ASCII":
        raise ParseError(f"unsupported VTK format '{head[2].strip()}' "
                         "(only ASCII legacy files)", path, 3)

    ts = _Tokens(body, path, skipped=3)
    points = np.zeros((0, 3))
    cells = None
    cell_types = None
    cell_vectors = {}
    point_vectors = {}
    association = None  # "cell" | "point"
    assoc_n = 0

    while not ts.done():
        kw = ts.next().upper()
        if kw == "DATASET":
            kind = ts.next().upper()
            if kind != "UNSTRUCTURED_GRID":
                raise ts.error(f"unsupported dataset type '{kind}'")
        elif kw == "POINTS":
            n = ts.next_count()
            ts.next()  # dtype
            points = ts.take(3 * n, np.float64).reshape(n, 3)
        elif kw == "CELLS":
            n = ts.next_count()
            m = ts.next_count()
            first = ts.pos
            raw = ts.take(m, np.int64)
            if m == 5 * n and (raw[::5] == 4).all():
                starts = np.arange(0, m, 5)
            else:
                # not all tets: walk the cells to find the bad one
                starts, pos = [], 0
                for _ in range(n):
                    if pos >= m:
                        raise ts.error("CELLS section shorter than declared")
                    starts.append(pos)
                    pos += 1 + int(raw[pos])
                if pos != m:
                    raise ts.error("CELLS section longer than declared")
            is_index = np.ones(m, dtype=bool)
            is_index[starts] = False
            bad = np.flatnonzero(is_index & ((raw < 0) | (raw >= len(points))))
            if len(bad):
                raise ts.error(f"vertex index {raw[bad[0]]} out of range "
                               f"(file has {len(points)} points)",
                               ts.at(first, bad[0]))
            cells, cell_sizes = raw[is_index], raw[starts]
            cell_types = None  # a grid's CELL_TYPES follows its CELLS
        elif kw == "CELL_TYPES":
            if cells is None:
                raise ts.error("CELL_TYPES before CELLS")
            n = ts.next_int()
            if n != len(cell_sizes):
                raise ts.error(f"CELL_TYPES declares {n} cells, CELLS "
                               f"{len(cell_sizes)}", ts.last)
            first_type = ts.pos
            cell_types = ts.take(n, np.int64)
            bad = np.flatnonzero(cell_types != _VTK_TET)
            if len(bad):
                raise ts.error(f"unsupported cell type {cell_types[bad[0]]} (only "
                               f"tetrahedra, type {_VTK_TET})",
                               ts.at(first_type, bad[0]))
            bad = np.flatnonzero(cell_sizes != 4)
            if len(bad):
                raise ts.error(f"tetrahedral cell with {cell_sizes[bad[0]]} vertices",
                               ts.at(first, starts[bad[0]]))
        elif kw == "CELL_DATA":
            association = "cell"
            assoc_n = ts.next_count()
        elif kw == "POINT_DATA":
            association = "point"
            assoc_n = ts.next_count()
        elif kw == "VECTORS":
            name = ts.next()
            ts.next()  # dtype
            if association is None:
                raise ts.error("VECTORS before CELL_DATA/POINT_DATA")
            arr = ts.take(3 * assoc_n, np.float64).reshape(assoc_n, 3)
            (cell_vectors if association == "cell" else point_vectors)[name] = arr
        elif kw == "SCALARS":
            ts.next()  # name
            ts.next()  # dtype
            ncomp = 1
            tok = ts.peek()
            if tok is not None and tok.removeprefix("-").isdigit():
                ncomp = ts.next_count()
            if ts.next().upper() != "LOOKUP_TABLE":
                raise ts.error("SCALARS without LOOKUP_TABLE")
            ts.next()  # table name
            ts.take(ncomp * assoc_n, np.float64)
        elif kw == "FIELD":
            ts.next()  # field name
            n_arrays = ts.next_count()
            for _ in range(n_arrays):
                ts.next()  # array name
                nc = ts.next_count()
                nt = ts.next_count()
                ts.next()  # dtype
                ts.take(nc * nt, np.float64)
        else:
            raise ts.error(f"unexpected token '{kw}'")

    tets = None if cell_types is None else cells.reshape(-1, 4)
    return points, tets, cell_vectors, point_vectors


def _parse_msh(path: str):
    """Parse nodes and tetrahedra from a Gmsh MSH 4.1 ASCII file, in the
    shape `_parse_vtk` returns; the file holds no vectors.

    Entity blocks of dimension below 3 (boundary points/curves/surfaces)
    are skipped; volume blocks must contain 4-node tets.
    """
    with open(path, "r", errors="backslashreplace") as f:  # as in _parse_vtk
        ts = _Tokens(f.read(), path)

    node_tags = []
    node_xyz = []
    tets = []
    saw_format = False

    while not ts.done():
        section = ts.next()
        if not section.startswith("$"):
            raise ts.error(f"expected section marker, got '{section}'")
        name = section[1:]
        if name == "MeshFormat":
            version = ts.next()
            file_type = ts.next_int()
            ts.next_int()  # data size
            if not version.startswith("4.1"):
                raise ts.error(f"unsupported MSH version '{version}' (need 4.1)")
            if file_type != 0:
                raise ts.error("binary MSH files are not supported")
            saw_format = True
            if ts.next() != "$EndMeshFormat":
                raise ts.error("missing $EndMeshFormat")
        elif name == "Nodes":
            n_blocks = ts.next_count()
            ts.next_int()  # numNodes
            ts.next_int()  # minTag
            ts.next_int()  # maxTag
            for _ in range(n_blocks):
                ts.next_int()  # entityDim
                ts.next_int()  # entityTag
                parametric = ts.next_int()
                if parametric != 0:
                    raise ts.error("parametric nodes are not supported")
                n_in_block = ts.next_count()
                tags = ts.take(n_in_block, np.int64)
                xyz = ts.take(3 * n_in_block, np.float64).reshape(n_in_block, 3)
                node_tags.append(tags)
                node_xyz.append(xyz)
            if ts.next() != "$EndNodes":
                raise ts.error("missing $EndNodes")
        elif name == "Elements":
            n_blocks = ts.next_count()
            ts.next_int()
            ts.next_int()
            ts.next_int()
            for _ in range(n_blocks):
                dim = ts.next_int()
                ts.next_int()  # entityTag
                etype = ts.next_int()
                n_in_block = ts.next_count()
                if dim < 3:
                    # lower-dimensional boundary entities: tag + node tags
                    n_nodes = _MSH_NODES_PER_TYPE.get(etype)
                    if n_nodes is None:
                        raise ts.error(f"unsupported element type {etype}")
                    ts.take((1 + n_nodes) * n_in_block, np.int64)
                    continue
                if etype != 4:
                    raise ts.error(f"unsupported volume element type {etype} "
                                   "(only 4-node tetrahedra)")
                rows = ts.take(5 * n_in_block, np.int64).reshape(n_in_block, 5)
                tets.append(rows[:, 1:])
            if ts.next() != "$EndElements":
                raise ts.error("missing $EndElements")
        else:
            # skip unknown sections ($PhysicalNames, $Entities, ...)
            end = f"$End{name}"
            while True:
                tok = ts.next()
                if tok == end:
                    break

    if not saw_format:
        raise ParseError("missing $MeshFormat section", path, 1)
    if not node_tags or not tets:
        raise ParseError("file contains no nodes or no tetrahedra", path, 1)

    tags = np.concatenate(node_tags)
    xyz = np.concatenate(node_xyz)
    tet_tags = np.concatenate(tets)
    order = np.argsort(tags)
    tags_sorted = tags[order]
    idx = np.searchsorted(tags_sorted, tet_tags)
    if (idx >= len(tags_sorted)).any() or \
            (tags_sorted[np.minimum(idx, len(tags_sorted) - 1)] != tet_tags).any():
        raise ParseError("element references unknown node tag", path, 1)
    return xyz[order], idx, {}, {}


# node counts of the Gmsh element types we may need to skip
_MSH_NODES_PER_TYPE = {1: 2, 2: 3, 3: 4, 15: 1, 8: 3, 9: 6, 16: 8}


def _compact(points: np.ndarray, tets: np.ndarray):
    """Drop vertices not referenced by any tet, remapping indices."""
    used = np.unique(tets)
    remap = np.full(len(points), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return points[used], remap[tets]


def _parse(path: str):
    """`_parse_vtk` or `_parse_msh` of `path`, as its extension picks:
    .vtk (or none) for VTK, .msh for Gmsh."""
    ext = os.path.splitext(path)[1].lower()
    parse = {"": _parse_vtk, ".vtk": _parse_vtk, ".msh": _parse_msh}.get(ext)
    if parse is None:
        raise ParseError(f"cannot infer format from extension '{ext}'", path)
    return parse(path)


def _mesh_of(path: str, points, tets) -> TetMesh:
    """The mesh of a parsed file (`_parse`)."""
    if tets is None:
        raise ParseError("file lacks POINTS, CELLS or CELL_TYPES", path)
    if len(tets) == 0:
        raise ParseError("empty mesh (no cells)", path)
    try:
        return build_complex(*_compact(points, tets))
    except MeshError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _field_of(path: str, mesh: TetMesh, parsed: tuple,
              resample: str | None) -> Pcvf:
    """The field for `mesh` of a parsed file (`_parse`)."""
    points, tets, cell_vectors, point_vectors = parsed
    if cell_vectors:
        name = next(iter(cell_vectors))
        arr = cell_vectors[name]
        if len(arr) != mesh.n_t:
            raise FieldError(f"{path}: cell vector field '{name}' has {len(arr)} "
                             f"entries, mesh has {mesh.n_t} tets")
    elif point_vectors:
        name = next(iter(point_vectors))
        arr = point_vectors[name]
        if resample != "barycentric":
            raise FieldError(f"{path}: file contains point data; pass "
                             "resample='barycentric' to average it onto tets")
        if tets is not None and len(arr) == len(points) != mesh.n_v:
            arr = arr[np.unique(tets)]  # the points that _compact keeps
        if len(arr) != mesh.n_v:
            raise FieldError(f"{path}: point vector field '{name}' has {len(arr)} "
                             f"entries, mesh has {mesh.n_v} vertices")
        arr = arr[mesh.tets].mean(axis=1)
    else:
        raise FieldError(f"no VECTORS array found in '{path}'")
    if not np.isfinite(arr).all():
        raise FieldError(f"{path}: vector field '{name}' contains NaN or Inf "
                         "entries")
    return Pcvf(mesh, arr)


def read_mesh(path) -> TetMesh:
    """Read a tetrahedral mesh from a VTK legacy or Gmsh 4.1 file.

    The extension picks the format: .vtk (or none) for VTK, .msh for
    Gmsh. Non-tetrahedral volume cells are rejected; unreferenced points
    are dropped.
    """
    path = os.fspath(path)
    return _mesh_of(path, *_parse(path)[:2])


def read_field(path, mesh: TetMesh, resample: str | None = None) -> Pcvf:
    """Read a vector field for `mesh` from a file that read_mesh reads; of
    the two formats only VTK legacy holds vectors.

    Cell data (one vector per tet) loads directly. Point data is only
    accepted with resample="barycentric", which averages the four vertex
    vectors of every tet, of the points read_mesh keeps; the conversion
    is never applied silently.
    """
    path = os.fspath(path)
    return _field_of(path, mesh, _parse(path), resample)


def _read_mesh_and_field(path, resample: str | None = None):
    """`mesh = read_mesh(path)` and `read_field(path, mesh, resample)`, with
    one parse of the file. Errors come in the same order, with the same
    messages and lines, as from the two calls."""
    path = os.fspath(path)
    parsed = _parse(path)
    mesh = _mesh_of(path, *parsed[:2])
    return mesh, _field_of(path, mesh, parsed, resample)


def _rows(fmt: str, arr: np.ndarray) -> str:
    """One `fmt` line per row of a 2-D array; `fmt` has a field per column.
    `%r` of a Python float is its shortest round-trip repr."""
    return (fmt * len(arr)) % tuple(arr.ravel().tolist())


def _grid_text(mesh: TetMesh) -> str:
    """The POINTS, CELLS and CELL_TYPES sections of `mesh`."""
    n_t = mesh.n_t
    return (f"POINTS {mesh.n_v} double\n" + _rows("%r %r %r\n", mesh.vertices)
            + f"CELLS {n_t} {5 * n_t}\n" + _rows("4 %d %d %d %d\n", mesh.tets)
            + f"CELL_TYPES {n_t}\n" + f"{_VTK_TET}\n" * n_t)


def _write_grid(path, mesh: TetMesh, grid: str, cell_vectors: dict | None,
                title: str):
    """Write a VTK file of `mesh`, whose sections `grid` holds already
    formatted (`_grid_text`), and of its per-tet vector arrays."""
    data = []
    if cell_vectors:
        data.append(f"CELL_DATA {mesh.n_t}\n")
        for name, arr in cell_vectors.items():
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != (mesh.n_t, 3):
                raise FieldError(f"cell vector array '{name}' must have shape "
                                 f"({mesh.n_t}, 3)")
            if not _TOKEN.fullmatch(str(name)):  # the reader takes one token
                raise FieldError(f"cell vector array name '{name}' is empty "
                                 "or holds whitespace")
            data.append(f"VECTORS {name} double\n")
            data.append(_rows("%r %r %r\n", arr))
    title = _LINE_END.sub(" ", title)[:255]
    with open(path, "w", newline="\n") as f:
        f.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
                "DATASET UNSTRUCTURED_GRID\n")
        f.write(grid)
        f.writelines(data)


def write_vtk(path, mesh: TetMesh, cell_vectors: dict | None = None,
              title: str = "hodge3d"):
    """Write a VTK legacy ASCII unstructured grid with optional per-tet
    vector arrays; byte output is deterministic for fixed inputs. Every
    line break in `title` is written as a space, and an array name must
    be one word without whitespace, so read_mesh and read_field read the
    file back."""
    _write_grid(path, mesh, _grid_text(mesh), cell_vectors, title)


def _sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def make_report(result: DecompositionResult, extra: dict | None = None) -> dict:
    """Build the JSON-ready report document for a decomposition."""
    mesh = result.input.mesh
    counts = mesh.counts
    betti = betti_numbers(mesh)
    fractions = result.fractions()
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "hodge3d", "version": __version__},
        "scheme": result.scheme,
        "input_sq_norm": result.input_sq_norm,
        "components": [
            {"name": name,
             "sq_norm": result.sq_norms[name],
             "fraction": fractions[name],
             "zero": bool(result.zero_flags[name])}
            for name in result.components
        ],
        "mesh": {"n_v": counts.n_v, "n_e": counts.n_e, "n_f": counts.n_f,
                 "n_t": counts.n_t, "betti": list(betti)},
        "solver": [
            {"stage": stage,
             "iterations": rep.iterations,
             "relative_residual": rep.relative_residual,
             "converged": rep.converged}
            for stage, rep in result.solver_reports
        ],
        "input_hashes": {
            "mesh": _sha256_arrays(mesh.vertices, mesh.tets),
            "field": _sha256_arrays(result.input.vectors),
        },
    }
    if extra:
        report.update(extra)
    return report


def write_outputs(result: DecompositionResult, out_dir,
                  formats=("vtk", "json"), extra: dict | None = None) -> list:
    """Write one VTK file per component plus the JSON report.

    Returns the list of written paths. Re-running with identical inputs
    produces byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if "vtk" in formats:
        mesh = result.input.mesh
        grid = _grid_text(mesh)
        for name, comp in result.components.items():
            p = os.path.join(out_dir, f"{name}.vtk")
            _write_grid(p, mesh, grid, {name: comp.vectors},
                        title=f"{result.scheme} component {name}")
            written.append(p)
    if "json" in formats:
        p = os.path.join(out_dir, "report.json")
        with open(p, "w", newline="\n") as f:
            json.dump(make_report(result, extra), f, indent=2)
            f.write("\n")
        written.append(p)
    return written
