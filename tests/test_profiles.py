"""Tests for metric profile reconstruction and the second-order residual."""

import math

import numpy as np
import pytest

from solshoot import fields, ode
from solshoot.errors import GridTooCoarse, NonPrincipal, ProfileGaugeError
from solshoot.profiles import reconstruct_profile, second_order_residual
from solshoot.shooting import (
    ROUND_DELTAS,
    ShootConfig,
    shoot_curve_point,
    shoot_surface_point,
)

SQ3 = math.sqrt(3.0)
T_ROUND = SQ3 * math.pi / 2.0


@pytest.fixture(scope="module")
def round_s1_traj():
    _, traj = shoot_curve_point(ROUND_DELTAS[0], until="collapse")
    return traj


@pytest.fixture(scope="module")
def gaussian_s2_traj():
    _, traj = shoot_surface_point(-1.0, 1.0, until=("time", 2.0))
    return traj


def test_round_profile_matches_closed_form(round_s1_traj):
    prof = reconstruct_profile(round_s1_traj, "s1", grid_n=1000)
    g = prof.grid
    assert np.max(np.abs(prof.f1 - SQ3 * np.cos(g / SQ3))) < 1e-6
    assert np.max(np.abs(prof.f2 - SQ3 * np.sin(g / SQ3))) < 1e-6
    # Einstein metric: the potential is constant, and the gauge pins it to 0
    assert prof.u_gauge == "xi-zero"
    assert np.max(np.abs(prof.u)) < 1e-6


def test_round_profile_derivatives(round_s1_traj):
    prof = reconstruct_profile(round_s1_traj, "s1", grid_n=500)
    g = prof.grid
    # the collapse endpoint itself carries amplified transverse integration
    # error (deviations grow like 1/f1 into the orbit), so compare where
    # the warping functions are resolved
    mask = prof.f1 > 0.02 * np.max(prof.f1)
    assert np.max(np.abs((prof.df1 + np.sin(g / SQ3))[mask])) < 1e-6
    assert np.max(np.abs((prof.df2 - np.cos(g / SQ3))[mask])) < 1e-6
    assert np.max(np.abs(prof.du[mask])) < 1e-6


def test_round_profile_spans_the_full_interval(round_s1_traj):
    prof = reconstruct_profile(round_s1_traj, "s1")
    assert prof.grid[-1] == pytest.approx(T_ROUND, abs=1e-4)


def test_f2_r_product_is_one(round_s1_traj):
    prof = reconstruct_profile(round_s1_traj, "s1")
    r = np.asarray(round_s1_traj.y)[:, 3]
    assert np.max(np.abs(prof.f2 * r - 1.0)) < 1e-15


def test_round_second_order_residual(round_s1_traj):
    prof = reconstruct_profile(round_s1_traj, "s1", grid_n=1000)
    assert second_order_residual(prof) < 1e-5


def test_round_s2_side_profile(round_s1_traj):
    """Same soliton shot from the other orbit; the grid runs against
    physical time.  The shot stops at xi = 100 rather than at the far
    collapse: integrating into the circle orbit amplifies transverse
    integration error like 1/t^2, so the last whisker of the interval is
    not numerically the round metric at default tolerances."""
    cfg = ShootConfig(rtol=1e-12, atol=1e-14)
    _, traj = shoot_surface_point(
        ROUND_DELTAS[1], ROUND_DELTAS[2], cfg, until=("xi", 100.0)
    )
    prof = reconstruct_profile(traj, "s2", grid_n=800)
    s = prof.grid
    assert np.max(np.abs(prof.f1 - SQ3 * np.cos((T_ROUND - s) / SQ3))) < 1e-5
    assert np.max(np.abs(prof.f2 - SQ3 * np.sin((T_ROUND - s) / SQ3))) < 1e-5
    assert second_order_residual(prof) < 1e-5


def test_gaussian_profile_and_potential(gaussian_s2_traj):
    prof = reconstruct_profile(gaussian_s2_traj, "s2", grid_n=1000)
    s = prof.grid
    assert np.max(np.abs(prof.f1 - s)) < 1e-6
    assert np.max(np.abs(prof.f2 - 1.0)) < 1e-12
    # u' = s exactly, anchored where xi crosses zero (s = 1)
    assert prof.u_gauge == "xi-zero"
    assert np.max(np.abs(prof.u - (s**2 / 2.0 - 0.5))) < 1e-6


def test_gaussian_second_order_residual(gaussian_s2_traj):
    prof = reconstruct_profile(gaussian_s2_traj, "s2", grid_n=1000)
    assert second_order_residual(prof) < 1e-5


def test_u_gauge_falls_back_without_xi_crossing():
    _, traj = shoot_surface_point(-1.0, 1.0, until=("time", 0.5))
    prof = reconstruct_profile(traj, "s2")
    assert prof.u_gauge == "left-endpoint"
    assert prof.u[0] == 0.0


def test_on_shell_curvature_identity(round_s1_traj):
    """k_t1 from the first-order state equals -f1''/f1 with f1'' taken by
    plain second differences of the reconstructed values."""
    from solshoot.fields import curvature_eigs_grid

    prof = reconstruct_profile(round_s1_traj, "s1", grid_n=1000)
    g, f1 = prof.grid, prof.f1
    h = g[1] - g[0]
    d2 = (f1[2:] - 2.0 * f1[1:-1] + f1[:-2]) / h**2
    states = np.array([round_s1_traj.eval(x) for x in g])
    k_t1 = curvature_eigs_grid(states)[1:-1, 0]
    assert np.max(np.abs(-d2 / f1[1:-1] - k_t1)) < 1e-4


def test_grid_too_coarse_guard(round_s1_traj):
    prof = reconstruct_profile(round_s1_traj, "s1", grid_n=3)
    with pytest.raises(GridTooCoarse):
        second_order_residual(prof)
    with pytest.raises(GridTooCoarse):
        reconstruct_profile(round_s1_traj, "s1", grid_n=1)


def test_gauge_error_without_collapse(round_s1_traj):
    # a meet-terminated shot stops far from the collapsing orbit
    _, traj = shoot_curve_point(ROUND_DELTAS[0])
    with pytest.raises(ProfileGaugeError):
        reconstruct_profile(traj, "s1")


def test_side_validation(round_s1_traj):
    with pytest.raises(ValueError):
        reconstruct_profile(round_s1_traj, "both")


def test_non_principal_rejected():
    # synthetic trajectory whose R component dives through zero
    cfg = ode.IntegratorConfig(rtol=1e-8, atol=1e-10)
    traj = ode.integrate(
        lambda t, y: np.array([0.0, 0.0, 0.0, -1.0]),
        0.0,
        np.array([0.0, -20.0, 1.0, 0.5]),
        2.0,
        cfg,
    )
    with pytest.raises(NonPrincipal):
        reconstruct_profile(traj, "s1")


def test_sphere_side_f1_is_anchored_on_the_launch_series():
    # the shot starts on its launch series at s0 = 1e-1, where the local
    # formula -(1 - k_t1/(2 L1^2))/L1 is 4.2e-6 off on the round soliton;
    # the series gives f1 = sqrt(3) sin(s0/sqrt(3)) there to rounding
    _, traj = shoot_surface_point(ROUND_DELTAS[1], ROUND_DELTAS[2])
    prof = reconstruct_profile(traj, "s2")
    s0 = traj.t0
    assert s0 == 0.1
    assert prof.f1[0] == pytest.approx(SQ3 * math.sin(s0 / SQ3), rel=1e-15)


def test_sphere_side_profile_off_the_launch_series_is_refused():
    # a state a little off the series, integrated like a shot, has no f1 anchor
    _, shot = shoot_surface_point(-0.5, 0.9, until=("time", 1.0))
    y0 = shot.y[0] * np.array([1.0, 1.0 + 1e-6, 1.0, 1.0])
    traj = ode.integrate(lambda s, y: -fields.family_rhs(y, 1.0), shot.t0, y0, 1.0)
    with pytest.raises(ProfileGaugeError, match="launch series"):
        reconstruct_profile(traj, "s2")
