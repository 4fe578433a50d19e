"""Independent oracles used by the tests.

Everything here recomputes quantities from first principles, without going
through the production code paths it is used to check: Betti numbers via
GF(2) boundary-matrix ranks, hat-function gradients via the inward-normal
formula (no matrix inverse), and dense Gram matrices assembled entry by
entry.
"""

import numpy as np


def gf2_rank(columns) -> int:
    """Rank over GF(2) of a matrix given as an iterable of column bitmasks."""
    pivots = {}
    rank = 0
    for col in columns:
        cur = int(col)
        while cur:
            msb = cur.bit_length() - 1
            if msb in pivots:
                cur ^= pivots[msb]
            else:
                pivots[msb] = cur
                rank += 1
                break
    return rank


def betti_gf2(mesh):
    """(b0, b1, b2) from GF(2) ranks of the three boundary operators."""
    n_v, n_e, n_f = mesh.n_v, mesh.n_e, mesh.n_f
    edges = mesh.edges
    ekeys = edges[:, 0] * n_v + edges[:, 1]          # sorted by construction

    d1 = [(1 << int(i)) | (1 << int(j)) for i, j in edges]

    def edge_id(a, b):
        lo, hi = (a, b) if a < b else (b, a)
        return int(np.searchsorted(ekeys, lo * n_v + hi))

    d2 = []
    for a, b, c in mesh.faces:
        d2.append((1 << edge_id(a, b)) | (1 << edge_id(a, c))
                  | (1 << edge_id(b, c)))

    d3 = []
    for row in mesh.tet_faces:
        bits = 0
        for f in row:
            bits |= 1 << int(f)
        d3.append(bits)

    r1 = gf2_rank(d1)
    r2 = gf2_rank(d2)
    r3 = gf2_rank(d3)
    b0 = n_v - r1
    b1 = (n_e - r1) - r2
    b2 = (n_f - r2) - r3
    return b0, b1, b2


def hat_gradients_direct(v: np.ndarray) -> np.ndarray:
    """(4, 3) hat-function gradients from the opposite-face normal formula."""
    grads = np.empty((4, 3))
    for k in range(4):
        o = [j for j in range(4) if j != k]
        n = np.cross(v[o[1]] - v[o[0]], v[o[2]] - v[o[0]])
        grads[k] = n / np.dot(n, v[k] - v[o[0]])
    return grads


def tet_volume_direct(v: np.ndarray) -> float:
    return abs(float(np.dot(np.cross(v[1] - v[0], v[2] - v[0]),
                            v[3] - v[0]))) / 6.0


_LOCAL_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def gram_direct(mesh, which: str) -> np.ndarray:
    """Dense Gram matrix from per-entry integration, fully independent of
    the production assembly (different gradient formula, plain loops)."""
    n = mesh.n_e if which == "curl" else mesh.n_f
    A = np.zeros((n, n))
    for t in range(mesh.n_t):
        v = mesh.vertices[mesh.tets[t]]
        vol = tet_volume_direct(v)
        g = hat_gradients_direct(v)
        if which == "curl":
            dofs = mesh.tet_edges[t]
            ders = []
            for le, (a, b) in enumerate(_LOCAL_EDGES):
                sign = 1.0 if mesh.tets[t][a] < mesh.tets[t][b] else -1.0
                ders.append(sign * 2.0 * np.cross(g[a], g[b]))
        else:
            dofs = mesh.tet_faces[t]
            ders = [-3.0 * g[k] for k in range(4)]
        for i, di in zip(dofs, ders):
            for j, dj in zip(dofs, ders):
                A[i, j] += vol * np.dot(di, dj)
    return A


def linear_field_circulations(mesh, amat: np.ndarray, bvec: np.ndarray) -> np.ndarray:
    """Edge circulations of the linear field x -> A x + b (trapezoid rule,
    exact for linear integrands), per global low-to-high edge."""
    vi = mesh.vertices[mesh.edges[:, 0]]
    vj = mesh.vertices[mesh.edges[:, 1]]
    xm = (vi @ amat.T + vj @ amat.T) / 2.0 + bvec
    return np.einsum("ed,ed->e", xm, vj - vi)


def write_gmsh41(path, mesh):
    """Emit a minimal Gmsh MSH 4.1 ASCII file for a tet mesh."""
    n_v, n_t = mesh.n_v, mesh.n_t
    lines = ["$MeshFormat", "4.1 0 8", "$EndMeshFormat",
             "$Nodes", f"1 {n_v} 1 {n_v}", f"3 1 0 {n_v}"]
    lines += [str(i + 1) for i in range(n_v)]
    lines += [f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}"
              for p in mesh.vertices]
    lines += ["$EndNodes", "$Elements", f"1 {n_t} 1 {n_t}", f"3 1 4 {n_t}"]
    lines += [f"{i + 1} " + " ".join(str(int(x) + 1) for x in tet)
              for i, tet in enumerate(mesh.tets)]
    lines += ["$EndElements"]
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines))
        f.write("\n")


def disjoint_union(*meshes):
    """The disjoint union of meshes, each shifted 4 units further along x."""
    from hodge3d import build_complex

    verts, tets, offset = [], [], 0
    for i, m in enumerate(meshes):
        verts.append(m.vertices + [4.0 * i, 0.0, 0.0])
        tets.append(m.tets + offset)
        offset += m.n_v
    return build_complex(np.vstack(verts), np.vstack(tets))


def renumbered(mesh, seed=0):
    """`mesh` with its vertices and its tets in a random order."""
    from hodge3d import build_complex

    rng = np.random.default_rng(seed)
    pv = rng.permutation(mesh.n_v)
    perm = rng.permutation(mesh.n_t)
    return build_complex(mesh.vertices[pv], np.argsort(pv)[mesh.tets[perm]])
