"""Piecewise constant vector fields and their L2 geometry.

A field assigns one constant 3-vector to every tet. All decompositions
operate on this space; the weighted Euclidean product below is the inner
product everything is orthogonal with respect to.
"""

import numpy as np

from .errors import FieldError
from .mesh import TetMesh

__all__ = [
    "Pcvf",
    "l2_inner",
    "sq_norm",
    "sample_analytic",
    "add_noise",
    "combine",
    "random_field",
    "ANALYTIC_FIELDS",
]


class Pcvf:
    """One constant 3-vector per tet, bound to a specific mesh.

    Treated as an immutable value: the vector array is marked read-only
    and all operations return new instances. Arithmetic between fields
    requires identical mesh identity (the same object, not an equal one).
    """

    __slots__ = ("mesh", "vectors")

    def __init__(self, mesh: TetMesh, vectors):
        vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
        if vectors.shape != (mesh.n_t, 3):
            raise FieldError(f"vectors must have shape ({mesh.n_t}, 3), "
                             f"got {vectors.shape}")
        vectors.setflags(write=False)
        self.mesh = mesh
        self.vectors = vectors

    def __repr__(self):
        return f"Pcvf(n_t={self.mesh.n_t}, sq_norm={sq_norm(self):.6g})"


def _check_same_mesh(X: Pcvf, Y: Pcvf):
    if X.mesh is not Y.mesh:
        raise FieldError("fields live on different meshes (identity mismatch)")


def l2_inner(X: Pcvf, Y: Pcvf) -> float:
    """Volume-weighted inner product sum_t <X_t, Y_t> vol(t)."""
    _check_same_mesh(X, Y)
    return float(np.einsum("td,td,t->", X.vectors, Y.vectors, X.mesh.volumes))


def sq_norm(X: Pcvf) -> float:
    """Squared L2 norm of a field."""
    return l2_inner(X, X)


def combine(X: Pcvf, Y: Pcvf, a: float = 1.0, b: float = 1.0) -> Pcvf:
    """Per-tet linear combination a*X + b*Y."""
    _check_same_mesh(X, Y)
    return Pcvf(X.mesh, a * X.vectors + b * Y.vectors)


def _rotation(p):
    return np.stack([p[:, 1], -p[:, 0], np.zeros(len(p))], axis=1)


def _radial(p):
    return p.copy()


def _constant(p):
    return np.full((len(p), 3), -0.5)


def _source(p):
    r2 = np.einsum("td,td->t", p, p)
    return p / r2[:, None] ** 1.5


def _vortex_line(p):
    rho2 = p[:, 0] ** 2 + p[:, 1] ** 2
    return _rotation(p) / rho2[:, None]


def _superposition(p):
    return _rotation(p) + _radial(p) + _constant(p)


# Closed-form test fields. X0 is a rotation about the z-axis (a curl field
# tangential to spheres), X1 the radial gradient field, X2 a constant,
# X3 the inverse-square source centered at the origin (singular at 0),
# X4 the unit-circulation vortex around the z-axis (singular on the axis).
ANALYTIC_FIELDS = {
    "X0": _rotation,
    "X1": _radial,
    "X2": _constant,
    "X3": _source,
    "X4": _vortex_line,
    "X012": _superposition,
}

# Singular sets: distance of a sample point to the set, or None if smooth.
_SINGULAR_DISTANCE = {
    "X3": lambda p: np.linalg.norm(p, axis=1),
    "X4": lambda p: np.hypot(p[:, 0], p[:, 1]),
}


def sample_analytic(mesh: TetMesh, field: str) -> Pcvf:
    """Sample one of the closed-form fields at every tet barycenter.

    Raises
    ------
    FieldError
        Unknown field name, or a barycenter within 1e-9 of the field's
        singular set.
    """
    try:
        fn = ANALYTIC_FIELDS[field]
    except KeyError:
        raise FieldError(f"unknown analytic field '{field}' "
                         f"(choose from {sorted(ANALYTIC_FIELDS)})") from None
    p = mesh.barycenters()
    dist = _SINGULAR_DISTANCE.get(field)
    if dist is not None:
        d = dist(p)
        if (d < 1e-9).any():
            raise FieldError(f"field '{field}' is singular within 1e-9 of a "
                             f"tet barycenter (min distance {d.min():.3e})")
    return Pcvf(mesh, fn(p))


def add_noise(X: Pcvf, rho: float, seed: int) -> Pcvf:
    """Add per-tet Gaussian noise rho * |v| * sigma to each vector v.

    sigma is an independent standard-normal 3-vector per tet, drawn once
    in a fixed order from a generator seeded with `seed`, so the result is
    a deterministic function of (seed, tet index). rho = 0 returns the
    input bit-exactly.
    """
    if rho < 0:
        raise FieldError("noise factor rho must be >= 0")
    if rho == 0:
        return Pcvf(X.mesh, X.vectors.copy())
    rng = np.random.default_rng(seed)
    sigma = rng.standard_normal((X.mesh.n_t, 3))
    mag = np.linalg.norm(X.vectors, axis=1)
    return Pcvf(X.mesh, X.vectors + rho * mag[:, None] * sigma)


def random_field(mesh: TetMesh, seed, normalize: bool = False) -> Pcvf:
    """Standard-normal random field, optionally normalized to unit L2 norm.

    `seed` is anything numpy's default generator accepts, e.g. an int or
    a list of ints for derived streams.
    """
    rng = np.random.default_rng(seed)
    X = Pcvf(mesh, rng.standard_normal((mesh.n_t, 3)))
    if normalize:
        n = np.sqrt(sq_norm(X))
        if n == 0.0:
            raise FieldError("cannot normalize a zero field")
        X = Pcvf(mesh, X.vectors / n)
    return X
