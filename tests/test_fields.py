import numpy as np
import pytest

import hodge3d as h
from hodge3d.errors import FieldError

from conftest import REF_VERTS


def shifted_ref_tet(shift):
    verts = np.asarray(REF_VERTS) + np.asarray(shift)
    return h.build_complex(verts, [(0, 1, 2, 3)])


def test_l2_inner_unit_z(ref_tet):
    Z = h.Pcvf(ref_tet, np.tile([0.0, 0.0, 1.0], (1, 1)))
    assert h.l2_inner(Z, Z) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_l2_inner_pointwise_orthogonal(ref_tet):
    X = h.Pcvf(ref_tet, [[1.0, 0.0, 0.0]])
    Y = h.Pcvf(ref_tet, [[0.0, 1.0, 0.0]])
    assert h.l2_inner(X, Y) == 0.0


def test_l2_inner_mesh_identity_required(ref_tet):
    other = h.build_complex(REF_VERTS, [(0, 1, 2, 3)])
    X = h.Pcvf(ref_tet, [[1.0, 0.0, 0.0]])
    Y = h.Pcvf(other, [[1.0, 0.0, 0.0]])
    with pytest.raises(FieldError):
        h.l2_inner(X, Y)


def test_x2_energy_is_three_quarters_volume(ball_coarse):
    X2 = h.sample_analytic(ball_coarse, "X2")
    assert h.sq_norm(X2) == pytest.approx(0.75 * ball_coarse.total_volume(),
                                          rel=1e-12)


def test_sample_x1_at_barycenter(ref_tet):
    X1 = h.sample_analytic(ref_tet, "X1")
    np.testing.assert_allclose(X1.vectors[0], [0.25, 0.25, 0.25], rtol=1e-15)


def test_sample_x2_constant(torus_coarse):
    X2 = h.sample_analytic(torus_coarse, "X2")
    assert (X2.vectors == -0.5).all()


def test_sample_x4_value():
    # tet barycenter placed exactly at (1, 0, 0)
    mesh = shifted_ref_tet((0.75, -0.25, -0.25))
    np.testing.assert_allclose(mesh.barycenters()[0], [1.0, 0.0, 0.0],
                               atol=0.0)
    X4 = h.sample_analytic(mesh, "X4")
    np.testing.assert_allclose(X4.vectors[0], [0.0, -1.0, 0.0], atol=1e-15)


def test_sample_x0_value():
    mesh = shifted_ref_tet((0.75, 0.75, -0.25))  # barycenter (1, 1, 0)
    X0 = h.sample_analytic(mesh, "X0")
    np.testing.assert_allclose(X0.vectors[0], [1.0, -1.0, 0.0], atol=1e-15)


def test_sample_x3_singularity_guard():
    mesh = shifted_ref_tet((-0.25, -0.25, -0.25))  # barycenter at origin
    with pytest.raises(FieldError):
        h.sample_analytic(mesh, "X3")
    with pytest.raises(FieldError):
        h.sample_analytic(mesh, "X4")  # origin lies on the z-axis too


def test_sample_unknown_field(ref_tet):
    with pytest.raises(FieldError):
        h.sample_analytic(ref_tet, "X9")


def test_superposition_is_exact_sum(ball_coarse):
    parts = [h.sample_analytic(ball_coarse, n) for n in ("X0", "X1", "X2")]
    X012 = h.sample_analytic(ball_coarse, "X012")
    total = parts[0].vectors + parts[1].vectors + parts[2].vectors
    assert (X012.vectors == total).all()


def test_combine_identities(ball_coarse):
    X = h.sample_analytic(ball_coarse, "X0")
    Y = h.sample_analytic(ball_coarse, "X1")
    zero = h.combine(X, X, 1.0, -1.0)
    assert (zero.vectors == 0.0).all()
    doubled = h.combine(X, h.Pcvf(ball_coarse, np.zeros((ball_coarse.n_t, 3))),
                        2.0, 0.0)
    assert (doubled.vectors == 2.0 * X.vectors).all()
    s = h.combine(h.combine(X, Y), h.sample_analytic(ball_coarse, "X2"))
    assert np.allclose(s.vectors, h.sample_analytic(ball_coarse, "X012").vectors,
                       rtol=0.0, atol=0.0)


def test_noise_rho_zero_bit_exact(torus_coarse):
    X = h.sample_analytic(torus_coarse, "X4")
    Y = h.add_noise(X, 0.0, seed=5)
    assert (Y.vectors == X.vectors).all()


def test_noise_deterministic(torus_coarse):
    X = h.sample_analytic(torus_coarse, "X4")
    Y1 = h.add_noise(X, 0.5, seed=11)
    Y2 = h.add_noise(X, 0.5, seed=11)
    assert (Y1.vectors == Y2.vectors).all()
    Y3 = h.add_noise(X, 0.5, seed=12)
    assert not (Y1.vectors == Y3.vectors).all()


def test_noise_negative_rho(torus_coarse):
    X = h.sample_analytic(torus_coarse, "X4")
    with pytest.raises(FieldError):
        h.add_noise(X, -0.1, seed=0)


def test_noise_monte_carlo_energy_ratio():
    # E |noise|^2 = 3 rho^2 |X|^2 for an isotropic unit-variance 3-vector
    mesh = h.generate_voxel_domain("ball", 0.13)   # ~11k tets
    assert mesh.n_t >= 10000
    X = h.sample_analytic(mesh, "X2")
    noisy = h.add_noise(X, 0.5, seed=7)
    diff = h.combine(noisy, X, 1.0, -1.0)
    ratio = h.sq_norm(diff) / h.sq_norm(X)
    assert abs(ratio - 0.75) <= 0.075


def test_cauchy_schwarz_and_bilinearity(ball_coarse):
    rng = np.random.default_rng(19)
    for _ in range(10):
        X = h.Pcvf(ball_coarse, rng.standard_normal((ball_coarse.n_t, 3)))
        Y = h.Pcvf(ball_coarse, rng.standard_normal((ball_coarse.n_t, 3)))
        ip = h.l2_inner(X, Y)
        assert ip**2 <= h.sq_norm(X) * h.sq_norm(Y) * (1.0 + 1e-12)
        a, b = rng.standard_normal(2)
        lhs = h.l2_inner(h.combine(X, Y, a, b), Y)
        rhs = a * ip + b * h.sq_norm(Y)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_pcvf_shape_validation(ref_tet):
    with pytest.raises(FieldError):
        h.Pcvf(ref_tet, np.zeros((3, 3)))


def test_pcvf_immutable(ref_tet):
    X = h.Pcvf(ref_tet, [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        X.vectors[0, 0] = 9.0
