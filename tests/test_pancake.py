"""Tests for the pancake profile builder and its curvature control.

The profile is checked against its closed-form regions (exact eigenvalue
constants on the spherical cap and the neck), the blend eigenvalues
against sympy's derivatives of the same formulas, the blend is checked for
feasibility and C^2 smoothness, and the reported extrema are checked for
grid independence and L-uniformity.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from solshoot import pancake
from solshoot.errors import BlendInfeasible, GridTooCoarse

LENGTHS = (10.0, 20.0, 40.0)


@pytest.fixture(scope="module")
def family():
    out = {}
    for length in LENGTHS:
        prof = pancake.build_profile(length, grid_n=10_000)
        out[length] = (prof, pancake.profile_curvature(prof))
    return out


def _idealized_volume(length):
    """Unblended idealization: f2 caps at 1 past pi/2, f1 is the plateau
    min(L, L+1-r) with the corner at r = 1."""

    def integrand(r):
        f2 = math.sin(min(r, math.pi / 2.0))
        return min(length, length + 1.0 - r) * f2 * f2

    val, _ = quad(
        integrand, 0.0, length + 1.0, points=(1.0, math.pi / 2.0), limit=200
    )
    return 8.0 * math.pi**2 * val


def test_endpoint_values():
    prof = pancake.build_profile(10.0)
    assert prof.f1[0] == 10.0
    assert prof.f2[0] == 0.0
    assert prof.f2[-1] == 1.0
    assert prof.f1[-1] == 0.0
    # positivity away from the collapsing orbits
    assert np.all(prof.f1[:-1] > 0.0)
    assert np.all(prof.f2[1:] > 0.0)


def test_neck_is_exactly_linear():
    prof = pancake.build_profile(10.0)
    mask = prof.r >= 1.5
    assert np.array_equal(prof.f1[mask], 11.0 - prof.r[mask])
    assert np.all(prof.f2[mask] == 1.0)


def test_blend_coefficients_frozen():
    # quartic slope profile on the default window, solved from the five
    # C^2 + area constraints
    prof = pancake.build_profile(10.0)
    expected = [0.87758256, -0.47942554, 1.97816265, -6.02837893, 3.65205926]
    assert prof.f2_blend_coefs == pytest.approx(expected, abs=1e-8)
    # the area constraint means f2 lands exactly at 1 at the window end
    anti = np.polynomial.polynomial.polyint(prof.f2_blend_coefs)
    landed = math.sin(0.5) + 1.0 * np.polyval(anti[::-1], 1.0)
    assert landed == pytest.approx(1.0, abs=1e-14)


def test_build_is_deterministic():
    one = pancake.build_profile(10.0)
    two = pancake.build_profile(10.0)
    assert np.array_equal(one.f1, two.f1)
    assert np.array_equal(one.f2, two.f2)
    assert np.array_equal(one.r, two.r)


def test_cap_region_eigenvalues():
    prof = pancake.build_profile(10.0)
    curv = pancake.profile_curvature(prof)
    cap = prof.r <= 0.5
    assert np.all(curv.k_t1[cap] == 0.0)
    assert np.all(curv.k_t2[cap] == 1.0)
    assert np.all(curv.k_s[cap] == 1.0)
    assert np.all(curv.k_m[cap] == 0.0)
    assert np.all(curv.scalar[cap] == 6.0)


def test_neck_region_eigenvalues():
    prof = pancake.build_profile(10.0)
    curv = pancake.profile_curvature(prof)
    neck = prof.r >= 1.5
    assert np.all(curv.k_t1[neck] == 0.0)
    assert np.all(curv.k_t2[neck] == 0.0)
    assert np.all(curv.k_s[neck] == 1.0)
    assert np.all(curv.k_m[neck] == 0.0)
    assert np.all(curv.scalar[neck] == 2.0)


def test_neck_eigenvalues_carry_no_negative_zero():
    prof = pancake.build_profile(10.0)
    curv = pancake.profile_curvature(prof)
    neck = prof.r >= 1.5
    for k in (curv.k_t1, curv.k_t2, curv.k_s, curv.k_m, curv.scalar):
        assert not np.any(np.signbit(k[neck]))


def _sympy_eigenvalues(prof, points):
    """k_t1, k_t2, k_s, k_m at each point from sympy's derivatives of the
    profile formulas, with the float inputs taken as exact rationals."""
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    exact = sp.Rational
    length = exact(prof.length)
    a, b = map(exact, prof.f2_window)
    c, d = map(exact, prof.f1_window)
    v, w = d - c, b - a
    s, sig = (x - c) / v, (x - a) / w
    f1_blend = length - v * (s**3 - s**4 / 2)
    f2_blend = sp.sin(a) + w * sum(
        exact(float(k)) * sig ** (i + 1) / (i + 1)
        for i, k in enumerate(prof.f2_blend_coefs)
    )
    out = []
    for r in points:
        f1 = length if r <= c else (f1_blend if r < d else length + 1 - x)
        f2 = sp.sin(x) if r <= a else (f2_blend if r < b else sp.Integer(1))
        at = {x: exact(r)}
        f1_0, f1_1, f1_2 = (sp.diff(f1, x, k).subs(at).evalf(30) for k in range(3))
        f2_0, f2_1, f2_2 = (sp.diff(f2, x, k).subs(at).evalf(30) for k in range(3))
        out.append(
            [
                float(-f1_2 / f1_0),
                float(-f2_2 / f2_0),
                float((1 - f2_1**2) / f2_0**2),
                float(-f1_1 * f2_1 / (f1_0 * f2_0)),
            ]
        )
    return np.array(out)


@settings(max_examples=25, deadline=None)
@given(
    length=st.floats(10.0, 60.0),
    a=st.floats(0.1, 0.9),
    b=st.floats(1.6, 1.85),
    half=st.floats(0.01, 0.9),
    u=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_property_curvature_matches_sympy_derivatives(length, a, b, half, u):
    blend = pancake.BlendParams(f2_window=(a, b), f1_window=(1.0 - half, 1.0 + half))
    try:
        prof = pancake.build_profile(length, blend=blend, grid_n=1000)
    except BlendInfeasible:
        assume(False)
    c, d = prof.f1_window
    u = np.array(u)
    r = np.concatenate([a + u * (b - a), c + u * (d - c)])
    got = np.array(pancake._curvature_arrays(r, prof)[:4]).T
    assert np.max(np.abs(got - _sympy_eigenvalues(prof, r))) <= 1e-12


@pytest.mark.parametrize("length", LENGTHS)
def test_eigenvalues_nonnegative_on_fine_grid(family, length):
    _, curv = family[length]
    for k in (curv.k_t1, curv.k_t2, curv.k_s, curv.k_m):
        assert float(k.min()) >= -1e-9
    assert curv.min_eig >= -1e-9


def test_scalar_range_uniform_across_lengths(family):
    # one L-independent interval [1/C, C] holds every scalar range
    c_bound = 10.0
    for length in LENGTHS:
        _, curv = family[length]
        assert 1.0 / c_bound <= curv.s_min <= curv.s_max <= c_bound
        assert curv.c_bound < c_bound
    # the range shrinks slowly toward the cap value as L grows
    maxima = [family[length][1].s_max for length in LENGTHS]
    assert maxima == pytest.approx([8.8138283, 8.6199596, 8.5250767], abs=1e-5)
    assert all(family[length][1].s_min == 2.0 for length in LENGTHS)


def test_reported_extrema_stable_under_grid_doubling():
    coarse = pancake.profile_curvature(pancake.build_profile(10.0, grid_n=2048))
    fine = pancake.profile_curvature(pancake.build_profile(10.0, grid_n=4096))
    assert abs(coarse.min_eig - fine.min_eig) < 1e-6
    assert abs(coarse.s_min - fine.s_min) < 1e-6
    assert abs(coarse.s_max - fine.s_max) < 1e-6


@pytest.mark.parametrize("length", LENGTHS)
def test_volume_close_to_idealized(family, length):
    prof, _ = family[length]
    report = pancake.profile_report(prof)
    ideal = _idealized_volume(length)
    assert abs(report.volume / ideal - 1.0) < 0.05


def test_neck_volume_contribution_matches_closed_form():
    # grid chosen so r = 1.5 lands on a node; the integrand is linear on
    # the neck, so the trapezoid rule is exact there
    prof = pancake.build_profile(10.0, grid_n=1100)
    mask = prof.r >= 1.5
    neck = 8.0 * math.pi**2 * float(
        np.trapezoid((prof.f1 * prof.f2**2)[mask], prof.r[mask])
    )
    assert neck == pytest.approx(361.0 * math.pi**2, rel=1e-12)
    assert 361.0 * math.pi**2 == pytest.approx(
        8.0 * math.pi**2 * 9.5**2 / 2.0, rel=1e-15
    )


def test_volume_grows_like_length_squared(family):
    vols = {
        length: pancake.profile_report(family[length][0]).volume
        for length in LENGTHS
    }
    assert vols[10.0] < vols[20.0] < vols[40.0]
    # the neck integral int (L+1-r) dr dominates, so doubling L roughly
    # quadruples the volume
    assert 3.5 < vols[20.0] / vols[10.0] < 4.5
    assert 3.5 < vols[40.0] / vols[20.0] < 4.5


def test_diameter_interval():
    report = pancake.profile_report(pancake.build_profile(10.0))
    assert report.diameter_low == 11.0
    assert report.diameter_high == pytest.approx(11.0 + 11.0 * math.pi, abs=1e-12)


@pytest.mark.parametrize("length", LENGTHS)
def test_orbit_smoothness_residuals(family, length):
    prof, _ = family[length]
    res = pancake.smoothness_residuals(prof)
    for value in res:
        assert value < 1e-8


def test_wide_window_rejected_as_nonmonotone():
    blend = pancake.BlendParams(f2_window=(0.5, 3.0))
    with pytest.raises(BlendInfeasible, match="monotone"):
        pancake.build_profile(10.0, blend=blend)


def test_narrow_window_rejected_as_nonconcave():
    blend = pancake.BlendParams(f2_window=(0.9, 1.1))
    with pytest.raises(BlendInfeasible, match="concave"):
        pancake.build_profile(10.0, blend=blend)


def test_uncentered_f1_window_rejected():
    blend = pancake.BlendParams(f1_window=(0.6, 1.5))
    with pytest.raises(BlendInfeasible, match="centered"):
        pancake.build_profile(10.0, blend=blend)


def test_out_of_order_window_rejected():
    blend = pancake.BlendParams(f2_window=(1.5, 0.5))
    with pytest.raises(BlendInfeasible, match="out of order"):
        pancake.build_profile(10.0, blend=blend)


def test_coarse_grid_rejected():
    with pytest.raises(GridTooCoarse):
        pancake.build_profile(10.0, grid_n=500)


@pytest.mark.parametrize(
    "length, grid_n, f2_window",
    [(1000.0, 2048, (0.5, 1.5)), (1e300, 1000, (0.5, 1.5)), (10.0, 1000, (0.5, 10.99))],
    ids=["sphere-orbit", "huge-length", "circle-orbit"],
)
def test_smoothness_residuals_refuse_a_grid_too_coarse_for_the_stencils(length, grid_n, f2_window):
    # build_profile refuses an f2 blend as wide as (0.5, 10.99), so the
    # circle-orbit case sets that window on a built profile
    prof = pancake.build_profile(length, grid_n=grid_n)._replace(f2_window=f2_window)
    with pytest.raises(GridTooCoarse):
        pancake.smoothness_residuals(prof)


def test_short_length_rejected():
    with pytest.raises(ValueError):
        pancake.build_profile(9.0)


def test_narrow_f1_window_curvature_is_closed_form():
    # centered and feasible, with only a few grid nodes inside; at r = 1
    # (node 100) s = 1/2, so f1'' = -1.5/v and f1 = L - 3v/32
    blend = pancake.BlendParams(f1_window=(0.98, 1.02))
    prof = pancake.build_profile(10.0, blend=blend, grid_n=1100)
    curv = pancake.profile_curvature(prof)
    assert prof.r[100] == 1.0
    v = 0.04
    assert curv.k_t1[100] == pytest.approx(1.5 / (v * (10.0 - 3.0 * v / 32.0)), rel=1e-12)


def test_nondefault_feasible_window():
    blend = pancake.BlendParams(f2_window=(0.2, 1.8))
    prof = pancake.build_profile(10.0, blend=blend)
    curv = pancake.profile_curvature(prof)
    assert curv.min_eig >= -1e-9
    assert 0.1 <= curv.s_min <= curv.s_max <= 10.0
