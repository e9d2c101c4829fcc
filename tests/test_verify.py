"""Tests for the estimate monitors."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from solshoot import fields, ode, shooting, verify
from solshoot.errors import (
    EventNotReached,
    ExtrapolationUnstable,
    InadmissibleParameters,
)
from solshoot.shooting import ROUND_DELTAS, shoot_curve_point, shoot_surface_point

D1, D2, D3 = ROUND_DELTAS


@pytest.fixture(scope="module")
def round_s1():
    return shoot_curve_point(D1)[1]


@pytest.fixture(scope="module")
def round_s2():
    return shoot_surface_point(D2, D3)[1]


@pytest.fixture(scope="module")
def gauss_s2():
    return shoot_surface_point(-1.0, 1.0, until=("time", 2.0))[1]


@pytest.fixture(scope="module")
def gauss_exact():
    # the sphere-side forward-in-s integration of the Gaussian is violently
    # unstable past s = 1 (perturbations grow like exp(s^2/2)), so the far
    # branch is built in the stable physical-time direction from the
    # closed-form state at s = 20: (s - 1/s, -1/s, 0, 1)
    s0 = 20.0
    y0 = np.array([s0 - 1.0 / s0, -1.0 / s0, 0.0, 1.0])
    return ode.integrate(
        fields.as_field(fields.soliton_rhs),
        0.0,
        y0,
        15.0,
        ode.IntegratorConfig(rtol=1e-12, atol=1e-14),
    )


@pytest.fixture(scope="module")
def big_shot():
    return shoot_curve_point(1e4, until=("xi", 10.0))[1]


@pytest.fixture(scope="module")
def traces():
    return {d: verify.large_delta1_trace(d) for d in (1e2, 1e3, 1e4)}


def test_shots_sweeps_and_monitors_load_no_scipy():
    # no subcommand imports scipy (test_cli's
    # test_every_subcommand_runs_without_scipy runs them all); here the
    # import, the benchmark's setup probe, a Newton root, a scan, the
    # monitors on a round shot and a pancake trace run on numpy alone
    code = """
import sys
import solshoot
from solshoot import shooting, verify
solshoot.shoot_curve_point(1.0 / 18.0)
shooting.find_root((0.05, -0.8, 0.6))
shooting.scan_domain(resolution=4)
traj = shooting.shoot_curve_point(shooting.ROUND_DELTAS[0])[1]
verify.sign_profile(traj)
verify.max_principle_report(traj)
verify.large_delta1_trace(300.0)
sys.exit(sorted(m for m in sys.modules if m.split(".")[0] == "scipy") or None)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(verify.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_round_max_principle(round_s1):
    rep = verify.max_principle_report(round_s1)
    assert rep.min_k_t1 == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert rep.min_k_s == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert round_s1.t0 <= rep.t_at_min_k_t1 <= round_s1.t_end
    assert round_s1.t0 <= rep.t_at_min_k_s <= round_s1.t_end


def test_gaussian_max_principle(gauss_s2):
    rep = verify.max_principle_report(gauss_s2)
    assert rep.min_k_t1 == pytest.approx(0.0, abs=1e-8)
    assert rep.min_k_s == pytest.approx(1.0, abs=1e-8)


def test_nonsoliton_shot_monitored_without_assert():
    traj = shoot_curve_point(5.0)[1]
    rep = verify.max_principle_report(traj)
    assert math.isfinite(rep.min_k_t1) and math.isfinite(rep.min_k_s)


def test_round_sign_profile(round_s1):
    rep = verify.sign_profile(round_s1)
    for v in rep.min_values:
        assert v == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert all(c == () for c in rep.sign_changes)
    assert not any(rep.identically_zero)


def test_gaussian_sign_profile(gauss_s2):
    rep = verify.sign_profile(gauss_s2)
    names = dict(zip(verify.EIG_NAMES, rep.identically_zero))
    assert names["k_m"] is True
    assert names["k_t2"] is True
    assert all(c == () for c in rep.sign_changes)


def _sign_profile_reference(traj):
    """``sign_profile`` by a walk over the sorted samples, one at a time."""
    ts = np.sort(traj.sample()[0])
    states = traj.eval(ts)
    eigs = fields.curvature_eigs_grid(states)
    mins, tmins, changes = [], [], []
    for j in range(4):
        v = eigs[:, j]
        mins.append(float(np.min(v)))
        tmins.append(float(ts[np.argmin(v)]))

        def eig_j(t):
            return float(fields.curvature_eigs(traj.eval(t))[j])

        found, last_sign, last_t = [], 0, ts[0]
        for tv, vv, y in zip(ts, v, states):
            band = max(1e-9, 8 * np.finfo(float).eps * max(y * y))
            s = 0 if abs(vv) < band else (1 if vv > 0 else -1)
            if s != 0:
                if last_sign != 0 and s != last_sign:
                    found.append(float(brentq(eig_j, last_t, tv, xtol=1e-13)))
                last_sign, last_t = s, tv
        changes.append(tuple(found))
    return tuple(mins), tuple(tmins), tuple(changes)


def test_sign_profile_repeats_the_per_sample_walk():
    # k_m = -l1 l2 = -l2 on a linear interpolant of these nodes: it crosses
    # zero once, through a stretch of samples inside the +-1e-9 zero band
    l2 = np.array([1.0, 0.5, 1e-12, -1e-12, 1e-12, -0.5, -1.0])
    t = np.arange(l2.size, dtype=float)
    y = np.column_stack((0.0 * t, 1.0 + 0.0 * t, l2, 1.0 + 0.0 * t))
    q = np.zeros((t.size - 1, 4, 4))
    q[:, :, 0] = np.diff(y, axis=0)  # unit steps: y[i] + (t - t[i]) (y[i+1] - y[i])
    banded = ode.Trajectory(t, y, q, np.ones(t.size - 1), "reached_end")
    shots = [shoot_curve_point(0.3)[1], shoot_surface_point(-0.5, 0.7, until=("xi", 10.0))[1], banded]
    n_changes = 0
    for traj in shots:
        rep = verify.sign_profile(traj)
        want = _sign_profile_reference(traj)
        assert repr((rep.min_values, rep.min_times, rep.sign_changes)) == repr(want)
        mp = verify.max_principle_report(traj)
        assert (mp.min_k_t1, mp.t_at_min_k_t1) == (want[0][0], want[1][0])
        assert (mp.min_k_s, mp.t_at_min_k_s) == (want[0][1], want[1][1])
        n_changes += sum(len(c) for c in rep.sign_changes)
    assert n_changes == 5


def test_large_d1_second_sphere_eig_positive_to_event(big_shot):
    rep = verify.sign_profile(big_shot)
    i = verify.EIG_NAMES.index("k_t2")
    assert rep.min_values[i] > 0.0
    assert rep.sign_changes[i] == ()


def test_gaussian_closeness_exact(gauss_exact):
    rep = verify.gaussian_closeness_at_xi10(gauss_exact)
    assert rep.dl1 < 1e-8
    assert rep.dr < 1e-8
    assert rep.dl2 < 1e-8
    assert rep.t_event == pytest.approx(20.0 - (5.0 + math.sqrt(26.0)), abs=1e-10)


def test_gaussian_closeness_round_recorded(round_s1):
    rep = verify.gaussian_closeness_at_xi10(round_s1)
    # deviations are genuinely nonzero for the round soliton ...
    assert rep.dl1 > 1e-2
    assert rep.dr > 1.0
    # ... and the state at the event matches the round closed form for L1
    l1 = round_s1.eval(rep.t_event)[1]
    assert l1 == pytest.approx(-math.tan(rep.t_event / math.sqrt(3)) / math.sqrt(3), abs=1e-9)


def test_closeness_requires_event(round_s2):
    with pytest.raises(EventNotReached):
        verify.gaussian_closeness_at_xi10(round_s2)


def test_k_monitor_gaussian_trivial(gauss_s2):
    rep = verify.k_monitor(gauss_s2)
    assert np.max(rep.k) < 1e-12
    assert rep.max_violation == 0.0


def test_k_monitor_round_no_violation(round_s2):
    rep = verify.k_monitor(round_s2)
    assert rep.max_violation == 0.0
    assert np.all(rep.k >= 0.0)


def test_k_monitor_fd_consistency(monkeypatch):
    traj = shoot_surface_point(-0.9, 0.8)[1]
    for n in (2001, 4001):
        monkeypatch.setattr(verify, "_K_SAMPLES", n)
        rep = verify.k_monitor(traj)
        h = rep.times[1] - rep.times[0]
        assert rep.max_violation <= 10.0 * h * h


def test_k_monitor_side_validation(round_s2):
    with pytest.raises(ValueError):
        verify.k_monitor(round_s2, side="s3")


def test_delta3_integral():
    rep = verify.delta3_integral_check()
    assert abs(rep.closed_form - rep.quadrature) < 1e-10
    assert rep.closed_form > 1.0
    assert rep.first_term >= 1.89
    expected = (
        math.log(10.5)
        - 19.0 / 42.0
        - (0.125 - 1.0 / 3200.0)
        - math.log(20.0) / 4.0
    )
    assert rep.closed_form == pytest.approx(expected, abs=1e-14)


def test_delta3_oracle_lands_on_adaptive_quadrature():
    # the Gauss-Legendre oracle returns the double that scipy's adaptive
    # quad gives at 1e-13, within 1e-13 of the closed form
    a = 1.0 / 40.0
    ref, _ = quad(lambda s: s / (a + s) ** 2 - s - 1.0 / (4.0 * s), a, 0.5, epsabs=1e-13, epsrel=1e-13)
    rep = verify.delta3_integral_check()
    assert rep.quadrature == ref
    assert abs(rep.closed_form - rep.quadrature) < 1e-13


def test_delta2_round(round_s2):
    rep = verify.delta2_monitors(round_s2)
    assert rep.y_at_orbit == pytest.approx((3.0 / 2.0) * (D2 + 1.0), abs=1e-5)
    # for the round soliton this equals the constant curvature 1/3
    assert rep.y_at_orbit == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_delta2_gaussian(gauss_s2):
    rep = verify.delta2_monitors(gauss_s2)
    assert rep.y_at_orbit == pytest.approx(0.0, abs=1e-5)


def test_delta2_generic_shot():
    traj = shoot_surface_point(-0.5, 1.0, until=("time", 0.5))[1]
    rep = verify.delta2_monitors(traj)
    assert rep.y_at_orbit == pytest.approx(0.75, abs=1e-5)
    assert len(rep.x_samples) == 3


def test_delta2_samples_below_the_handoff_come_from_the_launch_series(round_s2):
    # the shot starts at s = 0.1, so its s = 0.05 sample is the series state
    # there, while the two above are read off the shot
    assert round_s2.t0 == 0.1
    rep = verify.delta2_monitors(round_s2)
    xi, l1 = shooting._s2_series(D2, D3, 0.05)[:2]
    assert rep.y_samples[2] == pytest.approx(xi * l1 + 1.0 - l1 * l1, rel=1e-14)
    xi, l1 = round_s2.eval(0.2)[:2]
    assert rep.y_samples[0] == xi * l1 + 1.0 - l1 * l1
    # a trajectory that does not start on the series has no such samples
    y0 = round_s2.y[0] * np.array([1.0, 1.0 + 1e-6, 1.0, 1.0])
    traj = ode.integrate(lambda s, y: -fields.family_rhs(y, 1.0), 0.1, y0, 1.0)
    with pytest.raises(ExtrapolationUnstable):
        verify.delta2_monitors(traj)


def test_delta2_unspanned_trajectory_rejected():
    traj = shoot_surface_point(-0.5, 1.0, until=("time", 0.15))[1]
    with pytest.raises(ExtrapolationUnstable):
        verify.delta2_monitors(traj)


def test_trace_minima_nonnegative(traces):
    rep = traces[1e2]
    assert rep.x_min >= -1e-8
    assert rep.e_min >= -1e-6


def test_trace_gauge_trend(traces):
    d_vals = [abs(traces[d].d_plus_1) for d in (1e2, 1e3, 1e4)]
    assert d_vals[0] > d_vals[1] > d_vals[2]
    dist = [traces[d].dist_critical_line for d in (1e2, 1e3, 1e4)]
    assert dist[0] > dist[1] > dist[2]


def test_trace_approaches_flat_cap(traces):
    rep = traces[1e4]
    assert abs(rep.z - 1.0) < 0.1
    # at the event the shot is already Bryant-like: w = L1 = -1/(5+sqrt(26))
    assert rep.w == pytest.approx(-1.0 / (5.0 + math.sqrt(26.0)), abs=1e-4)


def test_trace_invalid_parameter():
    with pytest.raises(InadmissibleParameters):
        verify.large_delta1_trace(-1.0)


def test_compare_constant_small_and_stable():
    a = verify.rescaled_bryant_compare(1e4)
    b = verify.rescaled_bryant_compare(1e6)
    assert a.c_obs < 1e6
    assert b.c_obs < 1e6
    assert 0.5 < a.c_obs / b.c_obs < 2.0


def test_compare_reference_against_itself():
    rep = verify.rescaled_bryant_compare(math.inf)
    assert rep.sup_dev == 0.0
    assert rep.c_obs == 0.0


def test_compare_requires_large_parameter():
    with pytest.raises(InadmissibleParameters):
        verify.rescaled_bryant_compare(50.0)


def test_trace_trend_continues_to_delta1_1e6(traces):
    # criterion 9's monotone trend and floors, past its three decades: the
    # Radau step makes these shots cost about the same at every delta1
    reps = [traces[d1] for d1 in (1e2, 1e3, 1e4)]
    reps += [verify.large_delta1_trace(d1) for d1 in (1e5, 1e6)]
    devs = [abs(1.0 / r.z - 1.0) + abs(r.x) / r.z for r in reps]
    gaps = [abs(r.d_plus_1) for r in reps]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert min(r.x_min for r in reps) >= -1e-8
    assert min(r.e_min for r in reps) >= -1e-6
