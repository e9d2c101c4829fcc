"""Tests for the steady-soliton reference curves and bound checks."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from solshoot import bryant, fields, ode, shooting
from solshoot.errors import LaunchTooFar
from solshoot.shooting import ShootConfig


@pytest.fixture(scope="module")
def curve():
    return bryant.bryant_unstable_curve()


@pytest.fixture(scope="module")
def smalltime():
    return bryant.bryant_smalltime()


def test_curve_spans_cutoff_with_unit_tail_ratio(curve):
    assert curve.x[0] == pytest.approx(1.0 - 1e-4)
    assert curve.x[-1] == pytest.approx(1e-6)
    assert np.all(np.diff(curve.x) < 0.0)
    # near the origin the curve hugs y = x - 2x^3
    assert curve.interp(1e-4) / 1e-4 == pytest.approx(1.0, abs=1e-2)
    assert curve.interp(1e-4) / 1e-4 == pytest.approx(1.0 - 2e-8, abs=1e-12)
    assert curve.y[-1] / curve.x[-1] == pytest.approx(1.0, abs=1e-8)


def test_gap_converges_with_tolerance(curve):
    # the gap y - x, of size 2x^3 on the tail, is traced to a relative
    # accuracy that holds down to x = 1e-4, not to an absolute one
    tight = bryant.bryant_unstable_curve(rtol=1e-12)
    tail = curve.x >= 1e-4
    gap, gap_tight = (curve.y - curve.x)[tail], (tight.y - tight.x)[tail]
    assert np.max(np.abs(gap / gap_tight - 1.0)) < 1e-9


def test_import_does_not_load_scipy_integrate():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bryant.__file__)))
    code = "import sys, solshoot; sys.exit(any(m.split('.')[0] in ('scipy', 'mpmath') for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_halving_agreement(curve):
    half = bryant.bryant_unstable_curve(5e-5)
    probe = np.geomspace(1.0 - 2e-4, 1e-5, 400)
    gap = np.max(np.abs(curve.interp(probe) - half.interp(probe)))
    assert gap < 1e-7


@pytest.mark.parametrize("h", [0.0, -1e-4, 2e-3, 1e-2])
def test_launch_offset_out_of_range_rejected(h):
    with pytest.raises(LaunchTooFar):
        bryant.bryant_unstable_curve(h)


def test_value_and_slope_at_right_endpoint(curve):
    # extrapolating the launch value back along slope 1/2 recovers f(1) = 1/2
    assert curve.y[0] + curve.h / 2.0 == pytest.approx(0.5, abs=1e-7)
    fd = (curve.interp(1.0 - 1e-3) - curve.interp(1.0 - 3e-3)) / 2e-3
    assert fd == pytest.approx(0.5, abs=5e-3)


def test_manifold_residual_small(curve):
    # the locus must satisfy (-x + f + f x^2) f' = -x f^2 + 2 x^2 f^3
    xg = np.linspace(0.1, 0.99, 300)
    fh = 1e-3
    fp = (curve.interp(xg + fh) - curve.interp(xg - fh)) / (2.0 * fh)
    f = curve.interp(xg)
    res = np.abs((-xg + f + f * xg * xg) * fp - (-xg * f * f + 2.0 * xg * xg * f**3))
    assert res.max() < 1e-6


def test_envelope_bounds_hold(curve):
    rep = bryant.verify_f_bounds(curve)
    assert rep.margin_ge_half_x >= -1e-6
    assert rep.margin_le_half_x_plus_sq >= -1e-6
    assert rep.margin_ge_x_minus_x2 >= -1e-6
    assert rep.margin_le_x >= -1e-6
    # f >= x/2 is tight at the right endpoint (slack (2/5) h^2 at launch)
    assert rep.margin_ge_half_x == pytest.approx(4e-9, rel=0.5)
    # f <= x is tight at the origin end
    assert 0.0 <= rep.margin_le_x < 1e-9
    assert rep.y_at_x03 > 0.21


def test_locus_invariant_under_time_parameterization(curve):
    # the same locus must come out of an explicit integration of the
    # time-parameterized flow (stopped before its stiff tail)
    h = curve.h
    y0 = np.array([1.0 - h, 0.5 - h / 2.0 + 0.4 * h * h])
    stop = ode.Event(fn=lambda t, y: y[0] - 0.05, direction=-1.0)
    traj = ode.integrate(
        fields.as_field(fields.bryant_xy_rhs),
        0.0,
        y0,
        1e4,
        ode.IntegratorConfig(rtol=1e-11, atol=1e-13),
        stop,
    )
    assert traj.termination == "event"
    nodes = np.asarray(traj.y)
    mask = nodes[:, 0] < 0.999
    dev = np.abs(nodes[mask, 1] - curve.interp(nodes[mask, 0]))
    assert dev.max() < 1e-7


def test_steady_shot_keeps_flat_direction():
    traj = bryant.steady_reference()
    assert traj.t_end == pytest.approx(1.0 / 9.0)
    l1 = np.asarray(traj.y)[:, 1]
    assert np.abs(l1).max() < 1e-14


def test_smalltime_checks_launch_at_most_1e_4_from_the_orbit():
    # the shots' default handoff is _MAX_EPS; the small-time envelopes are
    # read from 1e-4 on, or from a deeper t_eps
    assert ShootConfig().t_eps == shooting._MAX_EPS
    assert bryant.steady_reference().t0 == 1e-4
    assert bryant.steady_reference(ShootConfig(t_eps=5e-5)).t0 == 5e-5
    assert bryant.smalltime_config(ShootConfig(rtol=1e-9)) == ShootConfig(t_eps=1e-4, rtol=1e-9)


def test_smalltime_margins_nonnegative(smalltime):
    assert smalltime.z_lower_margin >= -1e-9
    assert smalltime.z_upper_margin >= -1e-9
    assert smalltime.x_lower_margin >= -1e-9
    assert smalltime.x_upper_margin >= -1e-9


def test_smalltime_bounds_tangent_at_origin(smalltime):
    # all four envelopes touch the shot at t = 0, so the margins at the
    # left end of the grid are set by the launch point t_eps = 1e-4:
    # t - z there equals t_eps^3 to leading order, the x-margins are O(t^4)
    assert smalltime.z_upper_margin == pytest.approx(1e-12, rel=0.1)
    assert abs(smalltime.x_lower_margin) < 1e-12
    assert abs(smalltime.x_upper_margin) < 1e-12


def test_smalltime_endpoints_inside_closed_form_windows(smalltime):
    z_lo = math.sin(math.sqrt(6.0) / 9.0) / math.sqrt(6.0)
    assert z_lo < smalltime.z_end < 1.0 / 9.0
    x_lo = 1.0 - 2.0 * math.tan(math.sqrt(1.5) / 9.0) ** 2
    x_hi = 1.0 - 3.0 * (1.0 / 81.0) * math.exp(-1.0 / 9.0)
    assert x_lo < smalltime.x_end < x_hi


def test_smalltime_with_loose_config(monkeypatch):
    monkeypatch.setattr(bryant, "_SMALLTIME_SAMPLES", 200)
    rep = bryant.bryant_smalltime(cfg=ShootConfig(rtol=1e-8, atol=1e-10))
    assert rep.z_lower_margin >= -1e-7
    assert rep.x_upper_margin >= -1e-7
    assert rep.z_end == pytest.approx(0.10976818, abs=1e-6)


def test_radau_keeps_h_right_after_a_rejected_try(monkeypatch):
    # RADAU5's REJECT rule: the try accepted right after one rejected by its
    # error or by a Newton failure does not grow h.  On this trace Newton's
    # convergence, not the error, limits h; growing by the cap of 10 right
    # after a rejection made 404 rejections in 1,076 tries (215 in 886 now)
    tries = []
    step = ode._Radau.step

    def logged(self, *args):
        out = step(self, *args)
        tries.append((out[0] is not None, out[1]))
        return out

    monkeypatch.setattr(ode._Radau, "step", logged)
    bryant.bryant_unstable_curve()
    after = [factor for (ok, factor), (was_ok, _) in zip(tries[1:], tries) if ok and not was_ok]
    assert after and max(after) <= 1.0
    assert sum(not ok for ok, _ in tries) <= 250
