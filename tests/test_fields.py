import math

import numpy as np
import pytest

from solshoot.errors import DegenerateXi, DegenerateZ, UndefinedGauge
from solshoot.fields import (
    CurvatureEigenvalues,
    ScaledState,
    SolitonState,
    bryant_xy_rhs,
    curvature_eigs,
    curvature_eigs_grid,
    family_rhs,
    family_tangent,
    from_scaled,
    gauge_quantities,
    scalar_curvature,
    scaled_rhs,
    soliton_rhs,
    to_scaled,
)

ROUND_MEET = SolitonState(0.0, -math.sqrt(2 / 3), 1 / math.sqrt(6), 1 / math.sqrt(2))


def test_soliton_rhs_values():
    assert np.allclose(soliton_rhs((0, 0, 0, 1)), [-1, -1, 0, 0])
    assert np.allclose(
        soliton_rhs(ROUND_MEET), [-2, -1, -0.5, -1 / (2 * math.sqrt(3))]
    )
    assert np.allclose(soliton_rhs((1, 1, 1, 1)), [-4, -2, -1, -1])


def test_family_rhs_interpolates_constant_terms():
    s = (0.3, -0.2, 0.7, 1.1)
    lam = 0.25
    base = family_rhs(s, 0.0)
    assert np.allclose(family_rhs(s, lam), base - lam * np.array([1, 1, 1, 0]))
    assert np.allclose(family_rhs(s, 1.0), soliton_rhs(s))


def test_curvature_eigs_round_sphere():
    k = curvature_eigs(ROUND_MEET)
    assert np.allclose(tuple(k), [1 / 3] * 4, atol=1e-15)
    assert abs(scalar_curvature(ROUND_MEET) - 4.0) < 1e-14


def test_curvature_eigs_gaussian_product_state():
    k = curvature_eigs((0.0, -1.0, 0.0, 1.0))
    assert tuple(k) == (0.0, 1.0, 0.0, 0.0)


def test_curvature_eigs_grid_matches_scalar():
    rng = np.random.default_rng(7)
    states = rng.normal(size=(40, 4))
    grid = curvature_eigs_grid(states)
    for row, s in zip(grid, states):
        assert np.allclose(row, tuple(curvature_eigs(s)))


def test_bryant_xy_rhs_fixed_points_and_sample():
    assert np.allclose(bryant_xy_rhs((1.0, 0.5)), [0.0, 0.0], atol=1e-16)
    assert np.allclose(bryant_xy_rhs((0.0, 0.0)), [0.0, 0.0])
    assert np.allclose(bryant_xy_rhs((0.5, 0.5)), [1 / 8, -1 / 16])


def test_bryant_xy_is_scaled_field_at_w_z_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.uniform(0.05, 1.5, size=2)
        full = scaled_rhs((0.0, x, y, 0.0))
        assert np.allclose(bryant_xy_rhs((x, y)), full[[1, 2]])
        assert full[0] == 0.0 and full[3] == 0.0


def test_scaled_rhs_critical_points_exactly_zero():
    assert np.all(scaled_rhs((0.0, 1.0, 0.5, 0.0)) == 0.0)
    for z in (0.0, 0.3, 1.0, 7.5):
        assert np.all(scaled_rhs((0.0, 0.0, 0.0, z)) == 0.0)


def test_scaled_rhs_sample_value():
    assert np.allclose(scaled_rhs((-1.0, 1.0, 1.0, 1.0)), [0.0, 0.0, 3.0, 1.0])


def test_scaled_jacobian_has_two_unstable_eigenvalues():
    # central differences around the distinguished critical point
    p = np.array([0.0, 1.0, 0.5, 0.0])
    h = 1e-6
    J = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        J[:, j] = (scaled_rhs(p + e) - scaled_rhs(p - e)) / (2 * h)
    eigs = np.linalg.eigvals(J)
    assert np.sum(eigs.real > 0) == 2
    assert np.allclose(sorted(eigs.real), [-1.0, -0.5, 0.5, 1.0], atol=1e-5)
    assert np.allclose(eigs.imag, 0.0, atol=1e-8)


def test_to_scaled_values():
    assert to_scaled((2.0, 0.0, 1.0, 1.0)) == ScaledState(0.0, 1.0, 0.5, 1.0)
    s = to_scaled((1.5, -0.5, 0.0, 1.0))
    assert np.allclose(tuple(s), (-0.5, 0.0, 2 / 3, 1.0))


def test_to_scaled_guards():
    with pytest.raises(DegenerateXi):
        to_scaled(ROUND_MEET)
    with pytest.raises(DegenerateZ):
        to_scaled((1.0, 0.0, 0.0, -1.0))
    with pytest.raises(DegenerateZ):
        to_scaled((1.0, 0.0, 0.0, 0.0))


def test_from_scaled_guards():
    with pytest.raises(DegenerateZ):
        from_scaled((0.0, 0.0, 1.0, -0.2))
    with pytest.raises(DegenerateXi):
        from_scaled((0.0, 0.0, 0.0, 1.0))


def test_scaled_roundtrip_identity():
    rng = np.random.default_rng(23)
    for _ in range(50):
        xi = rng.uniform(-3, 3)
        if abs(xi) < 1e-3:
            xi = 1.0
        v = SolitonState(xi, rng.normal(), rng.normal(), rng.uniform(0.05, 4.0))
        back = from_scaled(to_scaled(v))
        assert np.allclose(tuple(back), tuple(v), rtol=1e-14, atol=0.0)
        sv = ScaledState(rng.normal(), rng.normal(), xi, rng.uniform(0.05, 4.0))
        fwd = to_scaled(from_scaled(sv))
        assert np.allclose(tuple(fwd), tuple(sv), rtol=1e-14, atol=1e-15)


def test_gauge_quantities_values():
    g = gauge_quantities((0.0, 1.0, 0.5, 0.0))
    assert np.allclose(tuple(g), (2.0, 0.0, 0.0))
    g = gauge_quantities((-0.5, 0.0, 2 / 3, 1.0))
    assert math.isnan(g.c_gauge)
    assert np.allclose((g.d_gauge, g.e_gauge), (-1.0, 0.0))
    with pytest.raises(UndefinedGauge):
        gauge_quantities((0.0, 1.0, 0.0, 0.5))


def test_scaled_array_calls_match_per_row_calls():
    rng = np.random.default_rng(11)
    states = np.column_stack(
        [rng.uniform(0.2, 4, 40), rng.normal(size=40), rng.normal(size=40), rng.uniform(0.1, 3, 40)]
    )
    states[5, 3] = 1.0  # z = 1: C is nan there, D and E stay finite
    scaled = to_scaled(states.T)
    gauges = gauge_quantities(scaled)
    for i, row in enumerate(states):
        one = to_scaled(row)
        assert np.array([v[i] for v in scaled]).tobytes() == np.array(one).tobytes()
        assert np.array([v[i] for v in gauges]).tobytes() == np.array(gauge_quantities(one)).tobytes()
    assert math.isnan(gauges.c_gauge[5]) and np.isfinite(gauges.e_gauge[5])
    # one degenerate row anywhere fails the whole call
    for col, exc in ((0, DegenerateXi), (3, DegenerateZ)):
        bad = states.copy()
        bad[17, col] = 0.0
        with pytest.raises(exc):
            to_scaled(bad.T)
    bad = np.array(scaled)
    bad[2, 23] = 0.0
    with pytest.raises(UndefinedGauge):
        gauge_quantities(bad)


def test_scaled_scalar_calls_return_floats():
    s = to_scaled((2.0, 0.5, 1.0, 4.0))
    g = gauge_quantities(s)
    assert all(isinstance(v, float) for v in (*s, *g))
    assert math.isnan(gauge_quantities((0.5, 0.0, 2.0, 1.0)).c_gauge)


def test_e_gauge_recovers_kt2():
    # E * R^2 equals the k_t2 eigenvalue wherever the scaled chart exists
    rng = np.random.default_rng(5)
    for _ in range(30):
        v = SolitonState(rng.uniform(0.2, 4), rng.normal(), rng.normal(), rng.uniform(0.1, 3))
        g = gauge_quantities(to_scaled(v))
        k = curvature_eigs(v)
        assert abs(g.e_gauge * v.r**2 - k.k_t2) < 1e-12 * max(1.0, abs(k.k_t2))


def test_scaled_field_is_pushforward_of_soliton_field():
    # chain rule: d/dt to_scaled(v(t)) must equal scaled_rhs / (y z),
    # since the scaled system runs in the xi-stretched time ds = xi dt
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(25):
        v = np.array(
            [rng.uniform(0.5, 3), rng.normal(), rng.normal(), rng.uniform(0.3, 2)]
        )
        f = soliton_rhs(v)
        lhs = (np.array(to_scaled(v + h * f)) - np.array(to_scaled(v - h * f))) / (2 * h)
        s = to_scaled(v)
        rhs = scaled_rhs(s) / (s.y * s.z)
        assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-7)


def test_eig_multiplicities_sum_to_six():
    assert len(CurvatureEigenvalues._fields) == 4


def test_family_tangent_is_the_jacobian_of_family_rhs():
    rng = np.random.default_rng(5)
    for _ in range(5):
        s, lam = rng.normal(size=4), rng.uniform(0.0, 2.0)
        h = 1e-6
        jac = np.column_stack(
            [(family_rhs(s + h * e, lam) - family_rhs(s - h * e, lam)) / (2 * h) for e in np.eye(4)]
        )
        v = rng.normal(size=(4, 3))
        np.testing.assert_allclose(family_tangent(s, v), jac @ v, rtol=1e-8, atol=1e-8)
        for j in range(3):
            assert family_tangent(s, v[:, j]).tolist() == family_tangent(s, v)[:, j].tolist()
