"""Tests for the two-sided shooting map, its root finder, and parameter sweeps."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solshoot import cli, fields, ode, shooting
from solshoot.errors import (
    EpsilonTooLarge,
    EventNotReached,
    InadmissibleParameters,
    LargeNewtonStep,
    MaxIterations,
    NonConvergence,
    ShootFailure,
    SingularJacobian,
)
from solshoot.shooting import (
    DEFAULT_SCAN_BOX,
    ROUND_DELTAS,
    MeetPoint,
    MismatchVector,
    ScanMinimum,
    ShootConfig,
    check_admissible,
    find_root,
    mismatch,
    s1_series_state,
    s2_series_state,
    sample_curve,
    sample_surface,
    scan_domain,
    shoot_curve_point,
    shoot_surface_point,
)
from solshoot.shooting import _grid_minima, _shoot_lanes

ROUND_MEET = (-math.sqrt(2.0 / 3.0), 1.0 / math.sqrt(6.0), 1.0 / math.sqrt(2.0))


def meet_array(m):
    return np.array([m.l1, m.l2, m.r])


# ---------------------------------------------------------------------------
# series launch states


def test_s1_series_zero_delta1_values():
    st = s1_series_state(0.0, 1e-4)
    assert st.xi == pytest.approx(2e4 - 1e-4, abs=1e-12)
    assert st.l1 == pytest.approx(-1e-4 / 3.0, abs=1e-18)
    assert st.l2 == pytest.approx(1e4, abs=1e-9)
    assert st.r == pytest.approx(1e4, abs=1e-9)


def test_s1_series_epsilon_guard():
    with pytest.raises(EpsilonTooLarge):
        s1_series_state(1.0, 2 * shooting._MAX_EPS)
    with pytest.raises(EpsilonTooLarge):
        s1_series_state(1.0, 0.0)


def test_s2_series_round_values():
    d2, d3 = -7.0 / 9.0, 1.0 / math.sqrt(3.0)
    s = 1e-4
    st = s2_series_state(d2, d3, s)
    mu = (d2 + 1.0) / 2.0
    nu = (1.0 - d3 * d3) / 2.0
    assert -st.xi == pytest.approx(1.0 / s + d2 * s, rel=1e-12)
    assert -st.l1 == pytest.approx(1.0 / s - mu * s, rel=1e-12)
    assert st.l2 == pytest.approx(nu * s, rel=1e-10)
    assert st.r == pytest.approx(d3, rel=1e-8)


def test_s2_series_gaussian_is_exact():
    # the product state has nu = 0, so l2 vanishes and r stays at 1
    st = s2_series_state(-1.0, 1.0, 5e-4)
    assert st.l2 == 0.0
    assert st.r == 1.0
    assert -st.xi == pytest.approx(1.0 / 5e-4 - 5e-4, rel=1e-14)


@pytest.mark.parametrize("t_eps", [2 * shooting._MAX_EPS, math.inf, math.nan, 0.0, -1e-3])
def test_config_rejects_a_handoff_outside_the_series_range(t_eps):
    assert ShootConfig(t_eps=shooting._MAX_EPS).t_eps == shooting._MAX_EPS == 1e-1
    with pytest.raises(EpsilonTooLarge):
        ShootConfig(t_eps=t_eps)


def test_s2_series_epsilon_guard():
    with pytest.raises(EpsilonTooLarge):
        s2_series_state(-0.5, 1.0, 2 * shooting._MAX_EPS)


def test_s1_series_coefficients_against_integration():
    """Richardson-extrapolated slopes from a deep launch recover the
    linear series coefficients of xi and l1.

    The trajectory is started well inside the validity window (t = 1e-5)
    and sampled at t = 0.01 and 0.02; (xi - 2/t)/t and l1/t are even in
    their correction, so a two-point Richardson step in t^2 isolates the
    linear coefficient.
    """
    d1, lam = 0.5, 1.0
    y0 = np.array(s1_series_state(d1, 1e-5))
    cfg = ode.IntegratorConfig(rtol=1e-12, atol=1e-14)
    tr = ode.integrate(
        fields.as_field(lambda s: fields.family_rhs(s, lam)), 1e-5, y0, 0.02, cfg
    )

    def g_xi(t):
        return (tr.eval(t)[0] - 2.0 / t) / t

    def g_l1(t):
        return tr.eval(t)[1] / t

    xi_coef = (4.0 * g_xi(0.01) - g_xi(0.02)) / 3.0
    l1_coef = (4.0 * g_l1(0.01) - g_l1(0.02)) / 3.0
    assert xi_coef == pytest.approx(8.0 * d1 - lam, abs=1e-4)
    assert l1_coef == pytest.approx(-lam / 3.0, abs=1e-6)


def test_s2_series_coefficients_against_integration():
    # same game on the other side: mu and nu from the reversed-field shot
    d2, d3 = -0.5, 0.9
    y0 = np.array(s2_series_state(d2, d3, 1e-5))
    cfg = ode.IntegratorConfig(rtol=1e-12, atol=1e-14)

    def rev(t, y):
        return -np.asarray(fields.soliton_rhs(fields.SolitonState(*y)))

    tr = ode.integrate(rev, 1e-5, y0, 0.02, cfg)

    def mu_est(s):
        return (-tr.eval(s)[1] - 1.0 / s) / s

    def nu_est(s):
        return tr.eval(s)[2] / s

    mu = (4.0 * mu_est(0.01) - mu_est(0.02)) / 3.0
    nu = (4.0 * nu_est(0.01) - nu_est(0.02)) / 3.0
    assert mu == pytest.approx(-(d2 + 1.0) / 2.0, abs=1e-5)
    assert nu == pytest.approx((1.0 - d3 * d3) / 2.0, abs=1e-8)


# ---------------------------------------------------------------------------
# admissibility


def test_check_admissible_rejects_out_of_range():
    with pytest.raises(InadmissibleParameters):
        check_admissible(delta1=-0.1)
    with pytest.raises(InadmissibleParameters):
        check_admissible(delta2=-1.1)
    with pytest.raises(InadmissibleParameters):
        check_admissible(delta3=-0.1)


def test_check_admissible_boundary_and_exploratory():
    check_admissible(delta1=0.0, delta2=-1.0, delta3=0.0)
    check_admissible(delta1=-5.0, delta2=-3.0, delta3=-1.0, exploratory=True)


def test_exploratory_shot_runs_outside_admissible_set():
    with pytest.raises(InadmissibleParameters):
        shoot_curve_point(-0.05)
    m, _ = shoot_curve_point(-0.05, ShootConfig(exploratory=True))
    assert np.all(np.isfinite(meet_array(m)))


# ---------------------------------------------------------------------------
# single shots


def test_round_curve_meet_matches_closed_form():
    m, _ = shoot_curve_point(ROUND_DELTAS[0])
    assert np.max(np.abs(meet_array(m) - np.array(ROUND_MEET))) < 1e-7


def test_round_surface_meet_matches_closed_form():
    m, _ = shoot_surface_point(ROUND_DELTAS[1], ROUND_DELTAS[2])
    assert np.max(np.abs(meet_array(m) - np.array(ROUND_MEET))) < 1e-7


def test_gaussian_surface_meet():
    m, _ = shoot_surface_point(-1.0, 1.0)
    assert np.max(np.abs(meet_array(m) - np.array([-1.0, 0.0, 1.0]))) < 1e-7


def test_near_gaussian_surface_meet_stays_close():
    m, _ = shoot_surface_point(-1.0 + 1e-3, 1.0)
    assert np.max(np.abs(meet_array(m) - np.array([-1.0, 0.0, 1.0]))) < 1e-2


def test_gaussian_state_at_fixed_time():
    # closed form: xi = s - 1/s, l1 = -1/s, so at s = 2 the state is known
    _, traj = shoot_surface_point(-1.0, 1.0, until=("time", 2.0))
    assert np.allclose(traj.y[-1], [1.5, -0.5, 0.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("side, level", [("s1", 1e9), ("s2", -1e9)])
def test_unreachable_xi_level_fails_fast_by_blowup(side, level):
    # xi runs away from a level behind its launch: no time cap ends the
    # shot, the blow-up guard does
    start = time.perf_counter()
    with pytest.raises(EventNotReached, match="stopped by blowup"):
        if side == "s1":
            shoot_curve_point(ROUND_DELTAS[0], until=("xi", level))
        else:
            shoot_surface_point(*ROUND_DELTAS[1:], until=("xi", level))
    assert time.perf_counter() - start < 1.0


def test_collapse_shot_is_not_a_string_of_rejections():
    # past the meet the needed step shrinks from node to node down to the
    # collapse: the memoryless factor took 114 rejected tries and 3845 rhs
    # calls here, the predictive one 3 and 2528
    _, traj = shoot_curve_point(1 / 18, until="collapse")
    assert traj.termination == "event"
    assert traj.n_rejected <= 10 and traj.n_rhs_evals <= 2700


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("until", ["meet", "collapse", ("xi", 3.0)])
def test_event_rule_at_nonpositive_lam_raises_at_once(until, lam):
    # at lam <= 0 the bound of ``_stop_rule`` fails and nothing ends the
    # shot but the step budget, so it is refused before it starts
    start = time.perf_counter()
    with pytest.raises(ValueError, match="lam > 0"):
        shoot_curve_point(1.0, until=until, lam=lam)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=30, deadline=None)
@given(
    rule=st.sampled_from(sorted(shooting._STOP_TABLE)),
    log_delta1=st.floats(-3.0, 4.0),
    delta2=st.floats(-1.0, 2.0),
    delta3=st.floats(0.0, 40.0),
)
def test_property_every_event_shot_ends_by_its_event_or_blowup(rule, log_delta1, delta2, delta3):
    until, side = rule
    try:
        if side == "s1":
            _, traj = shoot_curve_point(10.0**log_delta1, until=until)
        else:
            _, traj = shoot_surface_point(delta2, delta3, until=until)
    except EventNotReached as exc:
        assert "stopped by blowup" in str(exc)
    else:
        assert traj.termination == "event"


@pytest.mark.parametrize("rule, side", sorted(shooting._STOP_TABLE))
def test_round_shot_ends_on_every_stop_rule(rule, side):
    # the last node is the refined crossing: y[k] sits on the level to within
    # the slope times the refinement's time accuracy
    k, level, _, _ = shooting._STOP_TABLE[rule, side]
    if side == "s1":
        _, traj = shoot_curve_point(ROUND_DELTAS[0], until=rule)
    else:
        _, traj = shoot_surface_point(*ROUND_DELTAS[1:], until=rule)
    assert traj.termination == "event"
    t, y = traj.t[-1], traj.y[-1]
    slope = shooting._field(side, 1.0)(t, y)[k]
    assert abs(y[k] - level) <= abs(slope) * (ode._XTOL + ode._RTOL * abs(t))


@pytest.mark.parametrize("until", ["bogus", ("xi",)])
def test_unknown_stop_rule_raises(until):
    with pytest.raises(ValueError, match="unknown stop rule"):
        shoot_curve_point(0.1, until=until)


def test_large_delta1_meets_drift_toward_product_point():
    limit = np.array([-1.0, 0.0, 1.0])
    d100 = np.max(np.abs(meet_array(shoot_curve_point(1e2)[0]) - limit))
    d1000 = np.max(np.abs(meet_array(shoot_curve_point(1e3)[0]) - limit))
    assert d100 < 1e-2
    assert d1000 < d100


def test_meet_insensitive_to_series_handoff_depth():
    """Halving the series handoff scale moves the meet by less than
    10 * t_eps^3 at tight integrator tolerances, on both sides."""
    bound = 10.0 * 1e-3**3
    for d1 in (0.0, ROUND_DELTAS[0], 1.0):
        a, _ = shoot_curve_point(d1, ShootConfig(t_eps=1e-3, rtol=1e-12, atol=1e-14))
        b, _ = shoot_curve_point(d1, ShootConfig(t_eps=5e-4, rtol=1e-12, atol=1e-14))
        assert np.max(np.abs(meet_array(a) - meet_array(b))) < bound
    for d2, d3 in ((ROUND_DELTAS[1], ROUND_DELTAS[2]), (-0.5, 0.9)):
        a, _ = shoot_surface_point(d2, d3, ShootConfig(t_eps=1e-3, rtol=1e-12, atol=1e-14))
        b, _ = shoot_surface_point(d2, d3, ShootConfig(t_eps=5e-4, rtol=1e-12, atol=1e-14))
        assert np.max(np.abs(meet_array(a) - meet_array(b))) < bound


# These deep handoffs (1e-3 and 5e-4) measure the launch's rounding more
# than the series truncation: components of size 2/t0 round by 2u/t0, seen
# as 2u/t0^2 = 9e-10 at t0 = 5e-4.  When the series stopped at t^3, the
# worst of 80 random points was 3.2e-9; the bound is 1e-8, the 10 t_eps^3
# of the fixed points above.  The order-1 series, which omits t^3, moved
# the meet by up to 3.4e-8 (circle) and 1.1e-6 (sphere).
_HALVING_BOUND = 1e-8


@settings(max_examples=5, deadline=None)
@given(d1=st.floats(0.0, 10.0), d2=st.floats(-1.0, 0.0), d3=st.floats(0.0, 2.0))
def test_property_meet_converges_as_the_series_handoff_halves(d1, d2, d3):
    def meets(shoot, *params):
        return [
            meet_array(shoot(*params, ShootConfig(t_eps=eps, rtol=1e-12))[0])
            for eps in (1e-3, 5e-4)
        ]

    for a, b in (meets(shoot_curve_point, d1), meets(shoot_surface_point, d2, d3)):
        assert np.max(np.abs(a - b)) < _HALVING_BOUND


def test_launch_series_leave_residuals_of_the_next_order():
    # each launch series of L levels solves its field up to O(t^(2L)); R on
    # the sphere side, even in s, up to O(s^(2L+1)).  The series run on
    # sympy's rational functions, whose arithmetic is exact (every float in
    # the recurrence is a binary fraction), so no residual term is rounding
    sp = pytest.importorskip("sympy")
    top = 2 * shooting._SERIES_LEVELS
    _, t, d1, lam = sp.field("t d1 lam", sp.QQ)
    state = shooting._s1_series(d1, t, lam)
    field = fields.family_rhs(list(state), lam)
    assert [_lowest_order(y.diff(t) - f, t) for y, f in zip(state, field)] == [top] * 4
    _, s, d2, d3 = sp.field("s d2 d3", sp.QQ)
    state = shooting._s2_series(d2, d3, s)
    field = fields.family_rhs(list(state), 1)
    assert [_lowest_order(y.diff(s) + f, s) for y, f in zip(state, field)] == [top] * 3 + [top + 1]


def _lowest_order(residual, t):
    """Lowest power of t in a nonzero Laurent polynomial in t (the first
    generator of its field) over a denominator free of t."""
    r = residual * t**3
    assert r.numer != 0 and r.denom.degree() == 0
    return min(m[0] for m in r.numer.monoms()) - 3


def _order5_s1(delta1, t, lam):
    """The circle-side series as it was written out by hand to t^5: the
    oracle of the recurrence's levels 1-3."""
    base = (
        2.0 / t + (8.0 * delta1 - lam) * t,
        -(lam / 3.0) * t,
        1.0 / t - 2.0 * delta1 * t,
        1.0 / t + delta1 * t,
    )
    u, v = delta1 * t * t, lam * t * t
    c3 = (124 / 25) * u * u - (12 / 25) * u * v + (2 / 225) * v * v
    d3 = 0.5 * u * u - 0.25 * c3
    a3 = -v * v / 27 - (8 / 3) * u * u - (4 / 3) * c3
    b3 = v * (8 * u - v) / 15
    a5 = (2 / 11025) * (((90864 * u - 11880 * v) * u + 972 * v * v) * u - 61 * v**3)
    b5 = (-8 / 4725) * v * ((621 * u - 108 * v) * u + 7 * v * v)
    c5 = (-2 / 3675) * (((19632 * u - 3186 * v) * u + 209 * v * v) * u - 5 * v**3)
    d5 = (1 / 22050) * (((15597 * u - 3726 * v) * u + 369 * v * v) * u - 10 * v**3)
    return tuple(b + (p3 + p5) / t for b, p3, p5 in zip(base, (a3, b3, c3, d3), (a5, b5, c5, d5)))


def _order5_s2(delta2, delta3, s):
    """The sphere-side series as it was written out by hand to s^5 (R to
    s^6): the oracle of the recurrence's levels 1-3."""
    q = s * s
    n = 0.5 * (q - (delta3 * s) * (delta3 * s))
    m = 0.5 * (delta2 + 1.0) * q
    xi = (4 * m * m - m * q + 4 * n * n) / 5 - (
        ((64 * m - 33 * q) * m + 84 * n * n + 3 * q * q) * m - (60 * n + 2 * q) * n * n
    ) / 140
    l1 = -(7 * m * m - 3 * m * q + 2 * n * n) / 10 + (
        ((124 * m - 81 * q) * m + 84 * n * n + 15 * q * q) * m - (20 * n + 10 * q) * n * n
    ) / 280
    l2 = n * (n - m) / 2 + n * ((36 * m - 30 * n - 9 * q) * m + (46 * n - 5 * q) * n) / 120
    r = n * (2 * n - m) / 8 + n * ((36 * m - 75 * n - 9 * q) * m + (106 * n - 5 * q) * n) / 720
    return (
        -(1.0 / s + delta2 * s) + xi / s,
        -(1.0 / s - 0.5 * (delta2 + 1.0) * s) + l1 / s,
        n / s + l2 / s,
        delta3 * (1.0 + 0.5 * n) + delta3 * r,
    )


_HUGE = st.one_of(st.floats(0.0, 30.0), st.floats(0.0, 1e300))


@settings(max_examples=300, deadline=None)
@given(
    d1=_HUGE,
    lam=st.sampled_from([0.0, 1e-4, 1.0, 2.5]),
    d2=st.one_of(st.floats(-1.0, 2.0), st.floats(-1.0, 1e300)),
    d3=_HUGE,
    t_eps=st.floats(1e-6, 1e-1),
)
def test_property_recurrence_reproduces_the_order5_terms(d1, lam, d2, d3, t_eps):
    # levels 1-3 are the old series' t^1, t^3 and t^5 terms, up to a few
    # ulps of the terms summed, at any handoff and however large the
    # parameters (or small: an ulp of a subnormal R is absolute)
    t = shooting._effective_eps("s1", t_eps, (d1,))
    levels = shooting._s1_levels(d1, t, lam, 3)
    size = [sum(abs(y[c]) for y in levels) / t for c in range(4)]
    series, old = shooting._s1_series(d1, t, lam, 3), _order5_s1(d1, t, lam)
    assert all(abs(a - b) <= 8 * math.ulp(z) for a, b, z in zip(series, old, size))
    s = shooting._effective_eps("s2", t_eps, (d2, d3))
    levels = shooting._s2_levels(d2, d3, s, 3)
    size = [sum(abs(y[c]) for y in levels) / s for c in range(3)]
    size.append(abs(d3) * sum(abs(y[3]) for y in levels))
    series, old = shooting._s2_series(d2, d3, s, 3), _order5_s2(d2, d3, s)
    assert all(abs(a - b) <= 8 * math.ulp(z) for a, b, z in zip(series, old, size))


@settings(max_examples=300, deadline=None)
@given(d1=_HUGE, d2=st.one_of(st.floats(-1.0, 2.0), st.floats(-1.0, 1e300)), d3=_HUGE)
@example(d1=1.0, d2=1.0, d3=1.0)
@example(d1=0.0, d2=-1.0, d3=0.0)
def test_property_the_last_series_level_is_below_1e_17_of_the_leading_one(d1, d2, d3):
    # the level count is the smallest whose last level stays that small at
    # the default handoff over the admissible box, where the products are at
    # most 1e-2 (circle side: 0.97e-17 at d1 t^2 = 1e-2; one level fewer
    # leaves 4.9e-16)
    cfg = ShootConfig()
    t = shooting._effective_eps("s1", cfg.t_eps, (d1,))
    levels = shooting._s1_levels(d1, t, 1.0)
    assert max(map(abs, levels[-1])) < 1e-17 * max(map(abs, levels[0]))
    s = shooting._effective_eps("s2", cfg.t_eps, (d2, d3))
    levels = shooting._s2_levels(d2, d3, s)
    assert max(map(abs, levels[-1])) < 1e-17 * max(map(abs, levels[0]))


@settings(max_examples=200, deadline=None)
@given(d2=st.one_of(st.floats(-1.0, 2.0), st.floats(-1.0, 1e100)), d3=st.one_of(st.floats(0.0, 30.0), st.floats(0.0, 1e100)))
@example(d2=-1.0, d3=1.0)
@example(d2=0.0, d3=0.0)
def test_property_a_launch_state_gives_its_series_back(d2, d3):
    # profiles and delta2_monitors read the series back from a sphere-side
    # shot's first state; where the state does not pin delta2 (delta3 s
    # near 1 leaves s^2 delta2 below its rounding), the series it gives is
    # the same to rounding
    s = shooting._effective_eps("s2", shooting._MAX_EPS, (d2, d3))
    state = shooting._s2_series(d2, d3, s)
    params = shooting._s2_launch_params(s, state)
    assert params is not None
    assert shooting._s2_series_f1(*params, s) == pytest.approx(shooting._s2_series_f1(d2, d3, s), rel=1e-14)
    off = (state[0], state[1] * (1.0 + 1e-6), state[2], state[3])
    assert shooting._s2_launch_params(s, off) is None


# Halving the launch's own handoff moves the meet by the series truncation
# plus the launch's rounding, carried to the meet.  Over this box the worst
# of a grid was 3.5e-10 at d3 = 20, where the meet is of size 16 and deeper
# handoffs move it as much: rounding, not truncation.  So the bound is
# relative to the meet's size.
_DEFAULT_HALVING_BOUND = 1e-10


@settings(max_examples=5, deadline=None)
@given(d1=st.floats(0.0, 10.0), d2=st.floats(-1.0, 0.0), d3=st.floats(0.0, 40.0))
def test_property_halving_the_default_handoff_leaves_the_meet(d1, d2, d3):
    for shoot, side, params in (
        (shoot_curve_point, "s1", (d1,)),
        (shoot_surface_point, "s2", (d2, d3)),
    ):
        eps = shooting._effective_eps(side, ShootConfig().t_eps, params)
        a, b = (
            meet_array(shoot(*params, ShootConfig(t_eps=t_eps, rtol=1e-12))[0])
            for t_eps in (eps, eps / 2)
        )
        size = max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(a - b)) < _DEFAULT_HALVING_BOUND * size


def test_sphere_meet_settles_as_rtol_tightens():
    # launched from states of size 1/s0 = 1e4 (s0 = 1e-4), this meet spread
    # 2.5e-8 over these tolerances; from 1e-2 it settles to 4e-12
    l1 = [
        shoot_surface_point(0.0, 0.1, ShootConfig(rtol=rtol, atol=1e-15))[0].l1
        for rtol in (1e-10, 1e-12, 1e-13)
    ]
    assert max(l1) - min(l1) < 1e-10


@pytest.mark.parametrize("delta3", [2e3, 2e4])
def test_sphere_handoff_scales_with_delta3(delta3):
    # the sphere series runs in delta3 s, so the handoff shrinks like 1/delta3;
    # under 1/sqrt(delta3), delta3 = 2e4 launched at delta3 s = 1.4 and met
    # 6% off.  A 10x deeper handoff agrees to truncation and transport noise
    cfg = ShootConfig(rtol=1e-12)
    assert shooting._launch("s2", (-0.5, delta3), cfg)[0] == shooting._MAX_EPS / delta3
    a, _ = shoot_surface_point(-0.5, delta3, cfg)
    b, _ = shoot_surface_point(-0.5, delta3, ShootConfig(t_eps=1e-3 / delta3, rtol=1e-12))
    assert np.max(np.abs(meet_array(a) - meet_array(b)) / np.abs(meet_array(b))) < 1e-7


@pytest.mark.parametrize("side", ["s1", "s2"])
def test_round_meets_from_the_default_handoff(side):
    # the series to t^19 makes a 1e-1 handoff safe: 29 and 24 steps, against
    # 53 and 47 from the order-5 series at 1e-2 and 99 and 92 from 1e-4, and
    # the meet within 5e-12 of the closed form (4.7e-12 and 4.4e-12)
    cfg = ShootConfig()
    params = ROUND_DELTAS[:1] if side == "s1" else ROUND_DELTAS[1:]
    for tangent in (False, True):
        t0, y0 = shooting._launch(side, params, cfg, tangent=tangent)
        traj = shooting._shoot(y0, t0, side, "meet", cfg, 1.0, len(params) if tangent else 0)
        assert t0 == shooting._MAX_EPS
        assert len(traj.t) - 1 <= 32
        assert np.max(np.abs(traj.y[-1, 1:4] - np.array(ROUND_MEET))) < 1e-11


def test_root_from_a_nearby_guess_lands_on_the_round_deltas():
    res = find_root((0.05, -0.8, 0.6))
    assert res.iterations == 3
    assert np.max(np.abs(np.subtract(res.root, ROUND_DELTAS))) < 1e-10
    assert mismatch(*ROUND_DELTAS).inf_norm < 1e-10


@pytest.mark.parametrize(
    "side, params",
    [("s1", (1e200,)), ("s1", (-1e300,)), ("s2", (1e200, 0.5)), ("s2", (-1.0, 1e300))],
)
def test_launch_of_huge_parameters_is_finite_and_type_blind(side, params):
    # past order 1 every series term is a small product over the distance,
    # so no term overflows; numpy scalars launch like Python floats, without
    # a RuntimeWarning
    cfg = ShootConfig(exploratory=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0, y0 = shooting._launch(side, params, cfg, tangent=True)
        t1, y1 = shooting._launch(side, tuple(map(np.float64, params)), cfg, tangent=True)
    assert t0 == t1 and y0.tobytes() == y1.tobytes()
    assert np.all(np.isfinite(y0))


def test_launch_that_overflows_is_infinite_and_stops_by_blowup():
    # 1/s overflows at delta3 = 1e308 (s = 1e-309); both input types give the
    # all-inf state, which the blow-up guard stops before the first step
    cfg = ShootConfig()
    for d3 in (1e308, np.float64(1e308)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t0, y0 = shooting._launch("s2", (0.0, d3), cfg, tangent=True)
        assert np.all(y0 == math.inf) and y0.size == 12
    with pytest.raises(EventNotReached, match="stopped by blowup"):
        shoot_surface_point(0.0, 1e308)


def test_meet_autonomy_invariance():
    # shifting the launch time leaves the meet state untouched
    y0 = np.array(s1_series_state(ROUND_DELTAS[0], 1e-4))
    cfg = ode.IntegratorConfig(rtol=1e-10, atol=1e-12)
    ev = ode.Event(lambda t, y: y[0], direction=-1.0, name="meet")
    f = fields.as_field(fields.soliton_rhs)
    tr1 = ode.integrate(f, 1e-4, y0, 1e6, cfg, ev)
    tr2 = ode.integrate(f, 5.0 + 1e-4, y0, 1e6, cfg, ev)
    assert tr1.termination == tr2.termination == "event"
    assert np.max(np.abs(tr1.y[-1] - tr2.y[-1])) < 1e-12
    assert tr2.t[-1] - tr1.t[-1] == pytest.approx(5.0, abs=1e-10)


def test_meet_parameter_derivatives_are_stable():
    """Central differences of the meet map settle under step halving,
    which is the smoothness check the root finder relies on."""

    def curve_meet(d1):
        return meet_array(shoot_curve_point(d1)[0])

    def surf_meet(d2, d3):
        return meet_array(shoot_surface_point(d2, d3)[0])

    d1, d2, d3 = ROUND_DELTAS
    for h in (1e-3,):
        dc_h = (curve_meet(d1 + h) - curve_meet(d1 - h)) / (2 * h)
        dc_h2 = (curve_meet(d1 + h / 2) - curve_meet(d1 - h / 2)) / h
        rel = np.max(np.abs(dc_h - dc_h2)) / np.max(np.abs(dc_h2))
        assert rel < 1e-4

        ds2_h = (surf_meet(d2 + h, d3) - surf_meet(d2 - h, d3)) / (2 * h)
        ds2_h2 = (surf_meet(d2 + h / 2, d3) - surf_meet(d2 - h / 2, d3)) / h
        assert np.max(np.abs(ds2_h - ds2_h2)) / np.max(np.abs(ds2_h2)) < 1e-4

        ds3_h = (surf_meet(d2, d3 + h) - surf_meet(d2, d3 - h)) / (2 * h)
        ds3_h2 = (surf_meet(d2, d3 + h / 2) - surf_meet(d2, d3 - h / 2)) / h
        assert np.max(np.abs(ds3_h - ds3_h2)) / np.max(np.abs(ds3_h2)) < 1e-4


# ---------------------------------------------------------------------------
# mismatch and root finding


def test_mismatch_vanishes_at_round_parameters():
    f = mismatch(*ROUND_DELTAS)
    assert f.inf_norm < 1e-7


def test_mismatch_detects_perturbation():
    f = mismatch(ROUND_DELTAS[0], ROUND_DELTAS[1], 0.6)
    assert f.inf_norm > 1e-3


def test_mismatch_is_deterministic():
    a = mismatch(*ROUND_DELTAS)
    b = mismatch(*ROUND_DELTAS)
    assert (a.dl1, a.dl2, a.dr) == (b.dl1, b.dl2, b.dr)


def test_find_root_from_nearby_guess():
    res = find_root((0.05, -0.8, 0.6))
    assert all(type(x) is float for x in res.root)  # plain floats, as ShootFailure.params
    err = np.abs(np.array(res.root) - np.array(ROUND_DELTAS))
    assert np.max(err) < 1e-6
    assert res.residual < 1e-7
    assert 0 < res.iterations <= 10


def test_find_root_accepts_exact_root_immediately():
    res = find_root(ROUND_DELTAS)
    assert res.iterations == 0
    assert res.residual < 1e-7


def test_find_root_rejects_inadmissible_guess():
    with pytest.raises(InadmissibleParameters):
        find_root((0.05, -1.5, 0.6))


def test_find_root_extreme_guess_records_outcome(monkeypatch):
    """A guess far out along the curve either converges or raises
    MaxIterations carrying the best iterate; it must never fail silently."""
    cfg = ShootConfig(rtol=1e-8, atol=1e-10)
    monkeypatch.setattr(shooting, "_MAX_ITER", 2)
    try:
        res = find_root((500.0, -0.999, 0.999), cfg)
    except NonConvergence as exc:
        assert isinstance(exc, MaxIterations)
        assert exc.result is not None
        assert np.isfinite(exc.result.residual)
    else:
        assert res.residual < 1e-7


# ---------------------------------------------------------------------------
# sweeps and scans


def test_sample_curve_record_count_and_spacing():
    samples = sample_curve((0.01, 10.0), 12)
    assert len(samples) == 12
    assert all(s.status == "ok" for s in samples)
    d1s = [s.delta1 for s in samples]
    assert d1s == sorted(d1s)
    ratios = np.diff(np.log(d1s))
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12


def test_sample_curve_passes_near_round_meet():
    samples = sample_curve((0.01, 10.0), 12)
    best = min(
        np.max(np.abs(meet_array(s.meet) - np.array(ROUND_MEET))) for s in samples
    )
    assert best < 0.1


def test_sample_curve_minimal_n():
    samples = sample_curve((0.5, 2.0), 2)
    assert [s.delta1 for s in samples] == [0.5, 2.0]


def test_curve_sample_eig_min_at_round_parameter():
    # on the round trajectory every curvature eigenvalue sits at 1/3
    samples = sample_curve((ROUND_DELTAS[0], 2 * ROUND_DELTAS[0]), 2)
    assert np.allclose(samples[0].eig_min, 1.0 / 3.0, atol=1e-6)


def test_sample_surface_grid_and_known_nodes():
    d2r, d3r = ROUND_DELTAS[1], ROUND_DELTAS[2]
    samples = sample_surface((d2r - 0.1, d2r + 0.1), (d3r - 0.1, d3r + 0.1), 3, 3)
    assert len(samples) == 9
    center = [s for s in samples if s.delta2 == pytest.approx(d2r, abs=1e-12)
              and s.delta3 == pytest.approx(d3r, abs=1e-12)]
    assert len(center) == 1
    assert np.max(np.abs(meet_array(center[0].meet) - np.array(ROUND_MEET))) < 1e-7


def test_sample_surface_contains_gaussian_node():
    samples = sample_surface((-1.0, 0.0), (1.0, 2.0), 2, 2)
    assert len(samples) == 4
    g = samples[0]
    assert (g.delta2, g.delta3) == (-1.0, 1.0)
    assert np.max(np.abs(meet_array(g.meet) - np.array([-1.0, 0.0, 1.0]))) < 1e-6


def test_scan_minimal_resolution_shape():
    res = scan_domain(resolution=2)
    assert res.values.shape == (2, 2, 2)
    assert res.n_failed == 0
    assert len(res.axes[0]) == 2


def test_scan_coarse_default_box_contains_root():
    res = scan_domain(resolution=5)
    assert res.n_failed == 0
    g = res.minima[0]
    assert g.value == min(m.value for m in res.minima)
    assert res.region_contains(g, *ROUND_DELTAS)
    assert g.value < res.grid_bound


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("reverse", [True, False], ids=["reversed", "empty"])
def test_scan_rejects_a_box_axis_without_lo_below_hi(axis, reverse):
    # on the reversed box ((10, 0), (0, -1), (40, 0)) at resolution 8 the
    # reported minimum's region missed ROUND_DELTAS, although the forward
    # box's holds it; the box is now refused before any shot
    box = [list(lo_hi) for lo_hi in DEFAULT_SCAN_BOX]
    box[axis] = box[axis][::-1] if reverse else [box[axis][0]] * 2
    start = time.perf_counter()
    with pytest.raises(ValueError, match="lo < hi"):
        scan_domain(box, 3)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("resolution", [2.9, 3.5, math.nan])
def test_scan_rejects_a_non_integral_resolution(resolution):
    # 2.9 used to scan at 2: int() truncated it
    start = time.perf_counter()
    with pytest.raises(ValueError, match="integer"):
        scan_domain(resolution=resolution)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: sample_curve((0.5, 2.0), 2.5),
        lambda: sample_curve((0.5, 2.0), 1),
        lambda: sample_surface((-1.0, 0.0), (1.0, 2.0), 2.5, 2),
        lambda: sample_surface((-1.0, 0.0), (1.0, 2.0), 2, math.nan),
        lambda: sample_surface((-1.0, 0.0), (1.0, 2.0), 2, math.inf),
    ],
    ids=["curve-2.5", "curve-1", "surface-n2-2.5", "surface-n3-nan", "surface-n3-inf"],
)
def test_every_sweep_refuses_a_bad_node_count_by_one_rule(sweep):
    # n = 2.5 used to reach numpy as a TypeError, and n3 = NaN passed the
    # "< 2" check first; the curve and surface sweeps now read their counts
    # by scan's rule (test_scan_rejects_a_non_integral_resolution)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="must be an integer >= 2"):
        sweep()
    assert time.perf_counter() - start < 0.5


def test_scan_accepts_a_numpy_integer_resolution():
    assert scan_domain(resolution=np.int64(2)).values.tobytes() == scan_domain(resolution=2).values.tobytes()


def test_scan_does_not_depend_on_worker_count():
    one, two = (scan_domain(DEFAULT_SCAN_BOX, 4, workers=w) for w in (1, 2))
    assert [a.tobytes() for a in one.axes] == [a.tobytes() for a in two.axes]
    assert one.values.tobytes() == two.values.tobytes()
    assert one.minima and one.minima == two.minima
    assert (one.grid_bound, one.n_failed, one.failures) == (two.grid_bound, two.n_failed, two.failures)


def test_scan_box_without_root_reports_no_minima():
    res = scan_domain(box=((1.0, 10.0), (-1.0, 0.0), (5.0, 40.0)), resolution=4)
    # every sampled descent direction drains out through a face of this
    # box, so the ghost layer leaves nothing to report, and the sampled
    # landscape itself stays far from zero
    assert res.minima == []
    assert float(np.min(res.values)) > 0.5


def _ghosted(values, ghost=math.inf):
    """A ghost-extended grid for ``_grid_minima``: one layer of ``ghost``
    around the box values."""
    return np.pad(np.asarray(values, dtype=float), 1, constant_values=ghost)


def _index_axes(values_ext):
    return tuple(np.arange(n - 2, dtype=float) for n in values_ext.shape)


def test_grid_minima_merges_a_plateau_of_ties():
    i, j, k = np.indices((4, 4, 4))
    # a bowl around the line j = 1, k = 2 that is flat for i <= 2
    ext = _ghosted(1.0 + (j - 1) ** 2 + (k - 2) ** 2 + np.maximum(i - 2, 0))
    minima, _ = _grid_minima(ext, _index_axes(ext))
    assert len(minima) == 1
    m = minima[0]
    assert m.indices == (0, 1, 2)
    assert (m.delta1, m.delta2, m.delta3) == (0.0, 1.0, 2.0)
    assert m.value == 1.0
    assert m.n_nodes == 3
    assert m.index_span == ((0, 2), (1, 1), (2, 2))


def test_grid_minima_ghost_layer_decides_face_minima():
    i, j, k = np.indices((3, 3, 3))
    # descending toward the i = 0 face, lowest at its center node
    ext = _ghosted(1.0 + i + (j - 1) ** 2 + (k - 1) ** 2)
    minima, _ = _grid_minima(ext, _index_axes(ext))
    assert [(m.indices, m.value, m.n_nodes) for m in minima] == [((0, 1, 1), 1.0, 1)]
    # a computable ghost beyond that face that continues the descent vetoes it
    ext[0] = 0.5
    minima, _ = _grid_minima(ext, _index_axes(ext))
    assert minima == []


def test_grid_minima_skips_failed_nodes():
    values = np.full((3, 2, 2), math.inf)
    values[0, 0, 0] = 1.0
    values[0, 0, 1] = 3.0
    ext = _ghosted(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minima, bound = _grid_minima(ext, _index_axes(ext))
    assert [m.indices for m in minima] == [(0, 0, 0)]
    # only the one finite pair of neighbors enters the bound
    assert bound == 2.0


def test_grid_minima_ties_keep_index_order():
    ext = _ghosted(np.array([1.0, 5.0, 0.5, 5.0, 1.0, 5.0, 1.0]).reshape(7, 1, 1))
    minima, _ = _grid_minima(ext, _index_axes(ext))
    assert [(m.indices, m.value) for m in minima] == [
        ((2, 0, 0), 0.5),
        ((0, 0, 0), 1.0),
        ((4, 0, 0), 1.0),
        ((6, 0, 0), 1.0),
    ]


def _grid_minima_ndimage(values_ext, axes):
    """``_grid_minima`` as scipy.ndimage computes it: its minimum filter and
    its 26-connected labelling.  The oracle for the numpy version."""
    from scipy import ndimage

    values = values_ext[1:-1, 1:-1, 1:-1]
    lowest = ndimage.minimum_filter(values_ext, size=3)[1:-1, 1:-1, 1:-1]
    is_min = np.isfinite(values) & (values <= lowest)
    labels, _ = ndimage.label(is_min, structure=np.ones((3, 3, 3)))
    flat = labels.ravel()
    in_min = np.flatnonzero(flat)
    _, first = np.unique(flat[in_min], return_index=True)
    reps = np.column_stack(np.unravel_index(in_min[first], values.shape)).tolist()
    minima = [
        ScanMinimum(
            indices=tuple(rep),
            delta1=float(axes[0][rep[0]]),
            delta2=float(axes[1][rep[1]]),
            delta3=float(axes[2][rep[2]]),
            value=float(values[tuple(rep)]),
            n_nodes=int(count),
            index_span=tuple((sl.start, sl.stop - 1) for sl in span),
        )
        for rep, count, span in zip(reps, np.bincount(flat)[1:], ndimage.find_objects(labels))
    ]
    minima.sort(key=lambda m: (m.value, m.indices))
    finite = np.where(np.isfinite(values), values, np.nan)
    grid_bound = 0.0
    for axis in range(3):
        step = np.abs(np.diff(finite, axis=axis))
        if np.any(np.isfinite(step)):
            grid_bound = max(grid_bound, float(np.nanmax(step)))
    return minima, grid_bound


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(*[st.integers(3, 10)] * 3),
    kind=st.sampled_from(["random", "plateaus", "walls"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_grid_minima_equals_the_ndimage_version(shape, kind, seed):
    # random values; integer levels, whose ties make plateaus and merge
    # minima; integer levels behind +inf walls of failed shots
    rng = np.random.default_rng(seed)
    ext_shape = tuple(n + 2 for n in shape)
    if kind == "random":
        ext = rng.random(ext_shape)
    else:
        ext = rng.integers(0, 4, ext_shape).astype(float)
        if kind == "walls":
            ext[rng.random(ext_shape) < 0.3] = math.inf
    axes = tuple(np.linspace(-1.0, 1.0, n) for n in shape)
    got, want = _grid_minima(ext, axes), _grid_minima_ndimage(ext, axes)
    assert repr(got) == repr(want)
    assert got == want


def test_meet_point_and_mismatch_tuple_behavior():
    m = MeetPoint(-1.0, 0.0, 1.0)
    assert tuple(m) == (-1.0, 0.0, 1.0)
    v = MismatchVector(0.25, -0.5, 0.125)
    assert v.inf_norm == 0.5


# ---------------------------------------------------------------------------
# batched sweep lanes


def _single_s1(d1, cfg):
    try:
        meet, traj = shoot_curve_point(d1, cfg)
        return meet, traj, "ok"
    except (EventNotReached, InadmissibleParameters) as exc:
        return None, None, f"failed: {exc}"


def _single_s2(d2, d3, cfg):
    try:
        return shoot_surface_point(d2, d3, cfg)[0], "ok"
    except (EventNotReached, InadmissibleParameters) as exc:
        return None, f"failed: {exc}"


def _lane_status(reason):
    return "ok" if reason is None else f"failed: {reason}"


def _traj_bytes(traj):
    arrays = [(a.dtype.str, a.shape, a.tobytes()) for a in (traj.t, traj.y, traj.dense_q, traj.dense_h)]
    return arrays, traj.termination, traj.n_rhs_evals, traj.n_rejected


def _orders(n, rotate, n_alone):
    """The lane orders the batches run in: as given, rotated, reversed, and
    each of the first ``n_alone`` lanes alone."""
    ids = list(range(n))
    k = rotate % n
    return [ids, ids[k:] + ids[:k], ids[::-1]] + [[i] for i in ids[:n_alone]]


@settings(max_examples=4, deadline=None)
@given(
    d1s=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=2),
    rotate=st.integers(0, 3),
)
def test_property_curve_lanes_repeat_single_shots(d1s, rotate):
    cfg = ShootConfig()
    n_drawn = len(d1s)
    d1s = d1s + [-0.5, 1e160]  # an inadmissible lane and a launch blow-up
    want = [_single_s1(d1, cfg) for d1 in d1s]
    assert want[-2][2].startswith("failed: delta1 = -0.5 < 0")
    assert want[-1][2].startswith("failed: s1 shot never reached xi=0: stopped by blowup")
    for order in _orders(len(d1s), rotate, n_drawn):
        lanes = _shoot_lanes("s1", [(d1s[i],) for i in order], cfg, history=True)
        for i, (meet, traj, reason) in zip(order, lanes):
            w_meet, w_traj, w_status = want[i]
            assert (meet, _lane_status(reason)) == (w_meet, w_status)
            if w_traj is not None:
                assert _traj_bytes(traj) == _traj_bytes(w_traj)


@settings(max_examples=5, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.floats(-1.0, 0.5), st.floats(0.0, 45.0)), min_size=1, max_size=4
    ),
    rotate=st.integers(0, 7),
)
def test_property_surface_lanes_repeat_single_shots(points, rotate):
    cfg = ShootConfig()
    # a shrunk handoff (eps = _MAX_EPS / d3 < t_eps), an inadmissible
    # lane and a lane that blows up at launch
    n_drawn = len(points)
    points = points + [(-0.5, 2e4), (-1.5, 0.5), (0.0, 1e13)]
    want = [_single_s2(d2, d3, cfg) for d2, d3 in points]
    assert want[-3][1] == "ok"
    assert want[-2][1].startswith("failed: delta2 = -1.5 < -1")
    assert want[-1][1].startswith(
        "failed: s2 shot never reached xi=0: stopped by blowup at t=1e-14"
    )
    for order in _orders(len(points), rotate, n_drawn):
        lanes = _shoot_lanes("s2", [points[i] for i in order], cfg)
        for i, (meet, traj, reason) in zip(order, lanes):
            assert traj is None
            assert (meet, _lane_status(reason)) == want[i]


def test_crude_tolerance_shots_end_as_blowups_in_lanes_too():
    # at rtol = atol = 0.5 a dense stage overflows, so the interpolant's
    # coefficients are not finite; at rtol = 0.5 alone the shot from
    # d1 = 0.1 stores a node past the blow-up guard (8.8e25).  Either ends
    # the shot as a blow-up, without a RuntimeWarning, and a lane repeats
    # the single shot
    event, t_end = shooting._stop_rule("meet", "s1")
    field = shooting._field("s1", 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for d1, cfg, past_guard in [(0.5, ShootConfig(rtol=0.5, atol=0.5), False), (0.1, ShootConfig(rtol=0.5), True)]:
            with pytest.raises(EventNotReached, match="stopped by blowup"):
                shoot_curve_point(d1, cfg)
            t0, y0 = shooting._launch("s1", (d1,), cfg)
            single = ode.integrate(field, t0, y0, t_end, cfg.integrator(), event)
            assert single.termination == "blowup"
            assert np.isfinite(single.dense_q).all()
            assert (np.abs(single.y[-1]).max() >= 1e12) == past_guard
            # twin lanes end together, so the batch itself ends them
            for order in ([d1, d1, 2.0], [2.0, d1, d1]):
                lanes = _shoot_lanes("s1", [(x,) for x in order], cfg, history=True)
                for meet, traj, reason in (lanes[i] for i, x in enumerate(order) if x == d1):
                    assert meet is None and "stopped by blowup" in reason
                    assert _traj_bytes(traj) == _traj_bytes(single)


def test_sweep_samples_carry_the_single_shot_status():
    cfg = ShootConfig()
    samples = sample_surface((-1.5, 0.0), (0.0, 1e13), 2, 2, cfg)
    assert [(s.meet, s.status) for s in samples] == [
        _single_s2(s.delta2, s.delta3, cfg) for s in samples
    ]
    assert [s.status == "ok" for s in samples] == [False, False, True, False]


def test_scan_failure_inventory_lists_every_failed_shot_in_the_box():
    res = scan_domain(((0.0, 1.0), (-1.0, 0.0), (0.0, 1e13)), 2)
    assert res.n_failed == len(res.failures) == 2
    # the inadmissible ghost nodes below the box are not listed
    assert [(side, p) for side, p, _ in res.failures] == [
        ("s2", (-1.0, 1e13)),
        ("s2", (0.0, 1e13)),
    ]
    for _, (d2, d3), reason in res.failures:
        assert f"failed: {reason}" == _single_s2(d2, d3, ShootConfig())[1]
    assert scan_domain(resolution=2).failures == []


# ---------------------------------------------------------------------------
# the exact Newton Jacobian: tangent shots, start derivatives, history


def test_start_tangents_match_symbolic_derivatives_of_the_series():
    # the launch tangents are the series' complex-step derivatives; here they
    # meet the series' exact ones, differentiated and evaluated in sympy's
    # rational functions, from the launch's own handoff distance
    sp = pytest.importorskip("sympy")
    _, t, d1, lam = sp.field("t d1 lam", sp.QQ)
    _, s, d2, d3 = sp.field("s d2 d3", sp.QQ)
    s1 = [e.diff(d1) for e in shooting._s1_series(d1, t, lam)]
    s2 = [e.diff(v) for v in (d2, d3) for e in shooting._s2_series(d2, d3, s)]

    def at(e, *values):
        values = [sp.QQ(float(v)) for v in values]
        return float(e.numer(*values) / e.denom(*values))

    rng = np.random.default_rng(3)
    for i in range(60):
        # Python floats as the CLI passes them, numpy scalars as find_root does
        num = float if i % 2 else np.float64
        a = num(rng.choice([0.0, rng.uniform(0.0, 30.0), 10.0 ** rng.uniform(-3.0, 150.0)]))
        b = num(rng.choice([-1.0, rng.uniform(-1.0, 2.0)]))
        c = num(rng.choice([0.0, 1.0, rng.uniform(0.0, 30.0)]))
        cfg = ShootConfig(t_eps=10.0 ** rng.uniform(-5, -1))
        lv = rng.choice([0.0, 1e-4, 1.0, 2.5])
        t1, y1 = shooting._launch("s1", (a,), cfg, lv, tangent=True)
        t2, y2 = shooting._launch("s2", (b, c), cfg, tangent=True)
        assert y1[:4].tolist() == list(shooting._s1_series(a, t1, lv))
        assert y2[:4].tolist() == list(shooting._s2_series(b, c, t2))
        want1 = [at(e, t1, a, lv) for e in s1]
        want2 = [at(e, t2, b, c) for e in s2]
        np.testing.assert_allclose(y1[4:], want1, rtol=1e-12, atol=1e-14 * t1)
        np.testing.assert_allclose(y2[4:], want2, rtol=1e-12, atol=1e-14 * t2)


def _central_jacobian(p, h):
    cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        cols.append((np.array(mismatch(*(p + e))) - np.array(mismatch(*(p - e)))) / (2 * h))
    return np.column_stack(cols)


@settings(max_examples=5, deadline=None)
@given(u=st.tuples(*[st.floats(-0.2, 0.2)] * 3))
def test_property_exact_jacobian_matches_central_differences(u):
    p = np.array(ROUND_DELTAS) * (1.0 + np.array(u))
    F, J = shooting._mismatch_with_jacobian(p, ShootConfig())
    want = _central_jacobian(p, 1e-3)
    for j in range(3):
        assert np.max(np.abs(J[:, j] - want[:, j])) <= 1e-4 * np.max(np.abs(want[:, j]))


@pytest.mark.parametrize("guess", [ROUND_DELTAS, (0.05, -0.8, 0.6)])
def test_newton_residual_is_bitwise_the_mismatch_at_every_iterate(monkeypatch, guess):
    seen = []
    inner = shooting._mismatch_with_jacobian

    def spy(p, cfg):
        F, J = inner(p, cfg)
        seen.append((p.copy(), F))
        return F, J

    monkeypatch.setattr(shooting, "_mismatch_with_jacobian", spy)
    res = find_root(guess)
    assert len(seen) == 1 + sum(h.integrations for h in res.history) // 2
    for p, F in seen:
        assert F.tobytes() == np.array(mismatch(*p)).tobytes()
    assert res.residual == mismatch(*res.root).inf_norm


def test_newton_needs_few_integrations_from_the_criterion_guess(monkeypatch):
    calls = []
    inner = shooting.integrate
    monkeypatch.setattr(shooting, "integrate", lambda *a, **k: calls.append(1) or inner(*a, **k))
    res = find_root((0.05, -0.8, 0.6))
    assert res.iterations <= 4
    assert len(calls) == 2 + sum(h.integrations for h in res.history) <= 12


def test_root_history_has_one_step_per_iteration():
    res = find_root((0.05, -0.8, 0.6))
    assert len(res.history) == res.iterations
    assert res.history[-1].residual == res.residual
    residuals = [h.residual for h in res.history]
    assert residuals == sorted(residuals, reverse=True)
    for h in res.history:
        assert 0.0 < h.damping <= 1.0 and 1.0 <= h.cond < math.inf
        assert h.integrations >= 2 and h.integrations % 2 == 0
    assert find_root(ROUND_DELTAS).history == ()


def test_non_convergence_carries_the_history(monkeypatch):
    calls = []
    inner = shooting.integrate
    monkeypatch.setattr(shooting, "integrate", lambda *a, **k: calls.append(1) or inner(*a, **k))
    monkeypatch.setattr(shooting, "_MAX_ITER", 2)
    # far out along the curve the first step is damped
    with pytest.raises(MaxIterations) as info:
        find_root((500.0, -0.999, 0.999), ShootConfig(rtol=1e-8, atol=1e-10))
    partial = info.value.result
    assert len(partial.history) == partial.iterations == 2
    assert partial.history[-1].residual == partial.residual
    assert partial.history[0].damping < 1.0
    assert len(calls) == 2 + sum(h.integrations for h in partial.history)


def _scripted_newton(monkeypatch, script):
    """Replace Newton's map by a script of (|F| in every component, J) pairs
    in call order, its last pair repeated."""
    calls = []

    def scripted(p, cfg):
        calls.append(tuple(p))
        residual, J = script[min(len(calls), len(script)) - 1]
        return np.full(3, residual), J

    monkeypatch.setattr(shooting, "_mismatch_with_jacobian", scripted)
    return calls


def _failing_shots(monkeypatch):
    """Let the shots of the guess run, then fail every later one."""
    calls = []
    inner = shooting._meet_with_slope

    def flaky(side, params, cfg):
        calls.append((side, params))
        if len(calls) > 2:
            raise EventNotReached("s1 shot never reached xi=0: stopped by blowup")
        return inner(side, params, cfg)

    monkeypatch.setattr(shooting, "_meet_with_slope", flaky)
    return calls


def _root_cli_fails_with(capsys, name):
    code = cli.main(["root", "--guess", "0.05,-0.8,0.6"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.splitlines()[-2:-1] == ["# columns: error,message"]
    assert out.splitlines()[-1].startswith(f"{name},")


def test_newton_shot_failure_carries_the_trial_point(monkeypatch, capsys):
    calls = _failing_shots(monkeypatch)
    with pytest.raises(ShootFailure) as info:
        find_root((0.05, -0.8, 0.6))
    # the failed shot is the first trial's, after the guess's two
    assert len(calls) == 3 and calls[2][0] == "s1"
    trial = info.value.params
    assert len(trial) == 3 and trial[0] == calls[2][1][0] and trial != (0.05, -0.8, 0.6)
    _root_cli_fails_with(capsys, "ShootFailure")


def test_singular_jacobian_stops_newton_with_its_history(monkeypatch, capsys):
    # one full step, then a singular J at the new iterate
    calls = _scripted_newton(monkeypatch, [(1.0, np.eye(3)), (0.5, np.zeros((3, 3)))])
    with pytest.raises(SingularJacobian) as info:
        find_root((0.05, -0.8, 0.6))
    partial = info.value.result
    assert partial.iterations == len(partial.history) == 1
    assert partial.history[0].damping == 1.0 and partial.residual == 0.5
    assert partial.root == calls[-1]
    _root_cli_fails_with(capsys, "SingularJacobian")


def test_twenty_halvings_without_decrease_stop_newton(monkeypatch, capsys):
    # one full step, then no trial decreases the residual
    calls = _scripted_newton(monkeypatch, [(1.0, np.eye(3)), (0.5, np.eye(3))])
    with pytest.raises(MaxIterations) as info:
        find_root((0.05, -0.8, 0.6))
    partial = info.value.result
    assert partial.iterations == len(partial.history) == 2
    assert partial.history[0].damping == 1.0
    last = partial.history[-1]
    assert (last.residual, last.damping, last.integrations) == (0.5, 0.0, 42)
    # the guess, the full step and 21 trials, 2 integrations each
    assert 2 * len(calls) == 2 + sum(h.integrations for h in partial.history) == 46
    # no step was taken: the result is the last accepted iterate
    assert partial.root == calls[1] and partial.residual == 0.5
    _root_cli_fails_with(capsys, "MaxIterations")


def test_small_residual_with_a_large_newton_step_is_no_root(monkeypatch, capsys):
    # |F| = 5e-8 passes the residual test, but J = 1e-6 I makes the step
    # 0.05 in every parameter, far above _NEWTON_XTOL (1 + |p|)
    calls = _scripted_newton(monkeypatch, [(5e-8, 1e-6 * np.eye(3))])
    with pytest.raises(LargeNewtonStep) as info:
        find_root((0.05, -0.8, 0.6))
    partial = info.value.result
    assert partial.iterations == len(partial.history) == 0
    assert partial.root == calls[0] and partial.residual == 5e-8
    assert "cond(J) = 1" in str(info.value) and "pancake" not in str(info.value)
    _root_cli_fails_with(capsys, "LargeNewtonStep")


@pytest.mark.parametrize("guess", ["10,-1,1", "10,-0.99,1.01"])
def test_root_on_the_pancake_branch_exits_2_with_a_large_newton_step(capsys, guess):
    # Newton walks out along the asymptotic (pancake) branch, where F goes as
    # (0, c, -c/2), c = 1/(36 delta1), and falls under 1e-7 near delta1 = 7e4
    # while the Newton step stays of the order of delta1: exit 0 at
    # "converged = true" there before the two-part stop
    start = time.perf_counter()
    code = cli.main(["root", "--guess", guess])
    elapsed = time.perf_counter() - start
    last = capsys.readouterr().out.splitlines()[-1]
    assert code == 2
    assert elapsed < 5.0
    assert last.startswith("LargeNewtonStep,")
    assert "cond(J) = " in last and "asymptotic (pancake) branch" in last


@settings(max_examples=6, deadline=None)
@given(u=st.tuples(*[st.floats(-0.3, 0.3)] * 3))
def test_property_every_converged_root_has_a_small_newton_step(u):
    # from guesses near ROUND_DELTAS, as the root benchmark draws them
    guess = tuple(max(d * (1.0 + e), 0.0 if d > 0 else -1.0) for d, e in zip(ROUND_DELTAS, u))
    try:
        res = find_root(guess)
    except NonConvergence:
        return
    p = np.array(res.root)
    F, J = shooting._mismatch_with_jacobian(p, ShootConfig())
    step = np.linalg.solve(J, -F)
    assert np.all(np.abs(step) <= shooting._NEWTON_XTOL * (1.0 + np.abs(p)))


@settings(max_examples=6, deadline=None)
@given(
    side=st.sampled_from(["s1", "s2"]),
    u=st.tuples(st.floats(0.0, 5.0), st.floats(-1.0, 0.0), st.floats(0.0, 3.0)),
    tangent=st.booleans(),
)
def test_property_identical_inputs_give_identical_trajectories(side, u, tangent):
    params = (u[0],) if side == "s1" else u[1:]
    k = len(params) if tangent else 0
    cfg = ShootConfig()

    def shot():
        t0, y0 = shooting._launch(side, params, cfg, tangent=tangent)
        return shooting._shoot(y0, t0, side, "meet", cfg, 1.0, k)

    first, second = shot(), shot()
    assert first.y.shape[1] == 4 * (1 + k)
    assert _traj_bytes(first) == _traj_bytes(second)


@pytest.mark.parametrize("side, params", [("s1", (0.3,)), ("s1", (120.0,)), ("s2", (-0.5, 0.7))])
def test_tangent_columns_leave_the_shot_bitwise_unchanged(side, params):
    cfg = ShootConfig()
    t0, y0 = shooting._launch(side, params, cfg)
    plain = shooting._shoot(y0, t0, side, "meet", cfg, 1.0)
    t0, y0 = shooting._launch(side, params, cfg, tangent=True)
    aug = shooting._shoot(y0, t0, side, "meet", cfg, 1.0, len(params))
    assert aug.t.tobytes() == plain.t.tobytes()
    assert aug.y[:, :4].tobytes() == plain.y.tobytes()
    assert aug.dense_q[:, :4].tobytes() == plain.dense_q.tobytes()
    assert (aug.n_rhs_evals, aug.n_rejected) == (plain.n_rhs_evals, plain.n_rejected)


@pytest.mark.parametrize("side, params", [("s1", ROUND_DELTAS[:1]), ("s2", ROUND_DELTAS[1:])])
@pytest.mark.parametrize("tangent", [False, True])
def test_round_meet_shots_take_at_most_120_steps(side, params, tangent):
    # the eighth-order step meets in 99 (s1) and 92 (s2) accepted steps, with
    # or without the tangent columns; DP5 took 456 and 398
    cfg = ShootConfig()
    t0, y0 = shooting._launch(side, params, cfg, tangent=tangent)
    traj = shooting._shoot(y0, t0, side, "meet", cfg, 1.0, len(params) if tangent else 0)
    assert traj.termination == "event"
    assert len(traj.t) - 1 <= 120


def test_every_field_evaluation_is_one_family_rhs_call(monkeypatch):
    # the benchmark tracer counts field evaluations as calls of
    # shooting.family_rhs: a shot's count equals its trajectory's rhs calls,
    # for the DP5 and Radau steps and with tangent columns, on both sides
    calls = []
    monkeypatch.setattr(shooting, "family_rhs", lambda *a: calls.append(1) or fields.family_rhs(*a))

    def counted(run):
        calls.clear()
        out = run()
        return len(calls), out

    cfg = ShootConfig()
    for delta1 in (0.3, 300.0):
        n, (_, traj) = counted(lambda: shoot_curve_point(delta1, cfg))
        assert n == traj.n_rhs_evals
    assert traj.dense_q.shape[2] == 5  # delta1 = 300 took Radau's step
    n, (_, traj) = counted(lambda: shoot_surface_point(-0.5, 0.7, cfg))
    assert n == traj.n_rhs_evals
    for side, params in (("s1", (0.3,)), ("s2", (-0.5, 0.7))):
        t0, y0 = shooting._launch(side, params, cfg, tangent=True)
        n, traj = counted(lambda: shooting._shoot(y0, t0, side, "meet", cfg, 1.0, len(params), dense=False))
        assert n == traj.n_rhs_evals
        # Newton's shot is that nodes-only shot, and one more call, for the meet's slope
        n, _ = counted(lambda: shooting._meet_with_slope(side, params, cfg))
        assert n == traj.n_rhs_evals + 1


def test_every_field_evaluation_is_one_family_rhs_call_on_a_radau_tangent_shot(monkeypatch):
    # a Radau shot's riders call the field on their own iterations; the
    # trajectory counts those calls too
    calls = []
    monkeypatch.setattr(shooting, "family_rhs", lambda *a: calls.append(1) or fields.family_rhs(*a))
    cfg = ShootConfig()
    t0, y0 = shooting._launch("s1", (300.0,), cfg, tangent=True)
    traj = shooting._shoot(y0, t0, "s1", "meet", cfg, 1.0, 1, stiff=True)
    assert traj.dense_q.shape[2] == 5  # Radau's quintic
    assert len(calls) == traj.n_rhs_evals
    calls.clear()
    shooting._meet_with_slope("s1", (300.0,), cfg)
    assert len(calls) == traj.n_rhs_evals + 1


def _nodes_only_s1(d1, cfg):
    # the bytes of a nodes-only single shot's meet, or its failure
    try:
        return np.array(shoot_curve_point(d1, cfg, dense=False)[0]).tobytes(), "ok"
    except EventNotReached as exc:
        return None, f"failed: {exc}"


def test_crude_meet_is_no_dip_of_the_interpolant_and_lanes_repeat_it_bitwise():
    # at rtol 1e-3, atol 0.1 the degree-7 interpolant of a step short of
    # the meet dips through xi = 0 at this delta1.  The meet rule reads only
    # the step whose ends cross, as xi is monotone, where every step used to
    # be probed and the shot stopped at the dip, L1 = +1.997 against -0.99983
    # at default tolerances
    d1 = 1.6350847457627118
    crude = ShootConfig(rtol=1e-3, atol=0.1)
    meet, _ = shoot_curve_point(d1, crude)
    assert np.max(np.abs(np.subtract(meet, shoot_curve_point(d1)[0]))) <= 0.05
    # lanes repeat the nodes-only single shots there and at rtol 0.5, where
    # the shots from 0.1, 0.5 and 1 blow up
    d1s = [d1, 0.1, 0.5, 1.0, 2.0]
    for cfg in (crude, ShootConfig(rtol=0.5)):
        want = [_nodes_only_s1(x, cfg) for x in d1s]
        assert any(w[0] is None for w in want) == (cfg is not crude)
        for order in _orders(len(d1s), 2, 0):
            lanes = _shoot_lanes("s1", [(d1s[i],) for i in order], cfg)
            for i, (lane_meet, _, reason) in zip(order, lanes):
                got = None if lane_meet is None else np.array(lane_meet).tobytes()
                assert (got, _lane_status(reason)) == want[i]


def _assert_nodes_only_meet_shot_is_the_dense_one(side, params, k, stiff=False):
    # both shots from one launch, with k tangent columns
    cfg = ShootConfig()
    t0, y0 = shooting._launch(side, params, cfg, tangent=k > 0)
    dense = shooting._shoot(y0, t0, side, "meet", cfg, 1.0, k, stiff)
    nodes = shooting._shoot(y0, t0, side, "meet", cfg, 1.0, k, stiff, dense=False)
    assert (nodes.termination, nodes.n_rejected) == (dense.termination, dense.n_rejected)
    assert nodes.termination == "event"
    assert len(nodes.t) == len(dense.t) > 2
    assert nodes.t.tobytes() == dense.t.tobytes() and nodes.y.tobytes() == dense.y.tobytes()
    assert nodes.dense_q.shape[0] == nodes.dense_h.size == 0
    assert nodes.eval(nodes.t).tobytes() == dense.y.tobytes()
    assert nodes.eval(nodes.t[1]).tobytes() == dense.y[1].tobytes()
    with pytest.raises(ValueError, match="nodes only"):
        nodes.eval(0.5 * (nodes.t[0] + nodes.t[1]))
    # 3 rhs calls less for each accepted DOP853 step whose ends do not
    # cross, every step but the meet's; Radau's dense output comes free
    assert nodes.n_rhs_evals == dense.n_rhs_evals - (0 if stiff else 3 * (len(dense.t) - 2))


@settings(max_examples=6, deadline=None)
@example(side="s1", log_delta1=math.log10(ROUND_DELTAS[0]), delta2=0.0, delta3=0.0, tangent=True)
@example(side="s2", log_delta1=0.0, delta2=ROUND_DELTAS[1], delta3=ROUND_DELTAS[2], tangent=True)
@given(
    side=st.sampled_from(["s1", "s2"]),
    log_delta1=st.floats(-3.0, math.log10(shooting._STIFF_DELTA1) - 0.01),
    delta2=st.floats(-1.0, 0.5),
    delta3=st.floats(0.0, 45.0),
    tangent=st.booleans(),
)
def test_property_nodes_only_meet_shot_is_the_dense_shot_bitwise(side, log_delta1, delta2, delta3, tangent):
    params = (10.0**log_delta1,) if side == "s1" else (delta2, delta3)
    _assert_nodes_only_meet_shot_is_the_dense_one(side, params, len(params) if tangent else 0)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("delta1", [200.0, 1e3, 1e4])
def test_nodes_only_radau_meet_shot_is_the_dense_shot_bitwise(delta1, k):
    _assert_nodes_only_meet_shot_is_the_dense_one("s1", (delta1,), k, stiff=True)


_STIFF_POINTS = (200.0, 300.0, 1e3, 1e4)


@settings(max_examples=2, deadline=None)
@example(delta1=_STIFF_POINTS[0])
@example(delta1=_STIFF_POINTS[1])
@example(delta1=_STIFF_POINTS[2])
@example(delta1=_STIFF_POINTS[3])
@given(delta1=st.floats(_STIFF_POINTS[0], _STIFF_POINTS[-1]))
def test_property_radau_tangent_shot_is_the_plain_radau_shot_bitwise(delta1):
    cfg = ShootConfig()
    t0, y0 = shooting._launch("s1", (delta1,), cfg)
    plain = shooting._shoot(y0, t0, "s1", "meet", cfg, 1.0, stiff=True)
    t0, y0 = shooting._launch("s1", (delta1,), cfg, tangent=True)
    aug = shooting._shoot(y0, t0, "s1", "meet", cfg, 1.0, 1, stiff=True)
    assert aug.y.shape[1] == 8
    assert aug.dense_q.shape[2] == 5  # Radau's quintic, the riders' rows too
    assert aug.t.tobytes() == plain.t.tobytes()
    assert aug.y[:, :4].tobytes() == plain.y.tobytes()
    assert aug.dense_q[:, :4].tobytes() == plain.dense_q.tobytes()
    assert aug.dense_h.tobytes() == plain.dense_h.tobytes()
    assert (aug.termination, aug.n_rejected) == (plain.termination, plain.n_rejected)


@pytest.mark.parametrize("delta1", _STIFF_POINTS)
def test_newton_residual_is_bitwise_the_mismatch_on_the_radau_route(delta1):
    p = np.array([delta1, -0.8, 0.6])
    F, _ = shooting._mismatch_with_jacobian(p, ShootConfig())
    assert F.tobytes() == np.array(mismatch(*p)).tobytes()


@pytest.mark.parametrize("delta1", [20.0, 100.0, 300.0, 1e3])
def test_radau_tangent_jacobian_matches_central_differences(delta1):
    p = np.array([delta1, -0.8, 0.6])
    cfg = ShootConfig()
    _, J = shooting._mismatch_with_jacobian(p, cfg)
    assert np.max(np.abs(J - _central_jacobian(p, 1e-3))) <= 1e-4
    # the delta1 column is of order 1/delta1^2, below that step's noise:
    # against a step of 3e-3 delta1 it agrees to 1e-4 of its size
    h = 3e-3 * delta1
    up, down = (np.array(shoot_curve_point(delta1 + s, cfg)[0]) for s in (h, -h))
    want = (up - down) / (2 * h)
    assert np.max(np.abs(J[:, 0] - want)) <= 1e-4 * np.max(np.abs(want))


@pytest.mark.parametrize("delta1", [20.0, 300.0, 1e4])
def test_radau_tangent_shot_costs_five_rhs_calls_an_accepted_step_more(delta1):
    # the riders' stages come from one direct solve a step, whose stage
    # Jacobians are read from the riders' field in one rhs call a stage
    cfg = ShootConfig()
    t0, y0 = shooting._launch("s1", (delta1,), cfg)
    plain = shooting._shoot(y0, t0, "s1", "meet", cfg, 1.0, stiff=True, dense=False)
    t0, y0 = shooting._launch("s1", (delta1,), cfg, tangent=True)
    aug = shooting._shoot(y0, t0, "s1", "meet", cfg, 1.0, 1, stiff=True, dense=False)
    assert aug.n_rhs_evals == plain.n_rhs_evals + 5 * (len(plain.t) - 1)


def test_root_from_a_stiff_guess_at_a_crude_tolerance_converges():
    # Newton's first circle-side shot takes Radau with its tangent column;
    # it reaches the meet as mismatch's plain shot does
    res = find_root((20.0, -0.8, 0.6), ShootConfig(rtol=1e-7, atol=1e-9))
    assert res.residual < 1e-7
    assert np.max(np.abs(np.subtract(res.root, ROUND_DELTAS))) < 1e-6


@pytest.mark.parametrize("rtol", [1e-3, 1e-7])
def test_radau_tangent_shot_meets_wherever_the_plain_shot_does(rtol):
    cfg = ShootConfig(rtol=rtol, atol=1e-2 * rtol)
    met = 0
    for delta1 in np.geomspace(20.0, 1e5, 12).tolist():
        try:
            shoot_curve_point(delta1, cfg, dense=False)
        except EventNotReached:
            continue
        met += 1
        shooting._meet_with_slope("s1", (delta1,), cfg)  # raises EventNotReached if it misses
    assert met > 0


def test_curve_nodes_straddling_the_stiff_threshold_are_their_single_shots(monkeypatch):
    # node 10 lies below _STIFF_DELTA1, and its lane repeats its single
    # DOP853 shot bitwise; node _STIFF_DELTA1 leaves the batch for its single
    # Radau shot, so it is bitwise shoot_curve_point's too, its trajectory
    # included.  The sweep's own shots are recorded to compare them
    lanes = []
    record = lambda *args, **kwargs: lanes.extend(_shoot_lanes(*args, **kwargs)) or lanes
    monkeypatch.setattr(shooting, "_shoot_lanes", record)
    cfg = ShootConfig()
    samples = sample_curve((10.0, shooting._STIFF_DELTA1), 2, cfg)
    assert samples[0].delta1 < shooting._STIFF_DELTA1 == samples[1].delta1
    for sample, (meet, traj, reason) in zip(samples, lanes, strict=True):
        w_meet, w_traj, w_status = _single_s1(sample.delta1, cfg)
        assert sample.status == w_status == _lane_status(reason) == "ok"
        assert sample.meet == meet == w_meet
        assert _traj_bytes(traj) == _traj_bytes(w_traj)
    # DOP853's degree-7 interpolant below the threshold, Radau's quintic at it
    assert [traj.dense_q.shape[2] for _, traj, _ in lanes] == [7, 5]


def test_newton_residual_matches_the_radau_mismatch_in_the_stiff_regime():
    # from _STIFF_DELTA1 on, mismatch's circle side and Newton's
    # tangent-carrying shot both take Radau: F is bitwise mismatch's (see
    # test_newton_residual_is_bitwise_the_mismatch_on_the_radau_route)
    p = np.array([shooting._STIFF_DELTA1, -0.8, 0.6])
    F, _ = shooting._mismatch_with_jacobian(p, ShootConfig())
    assert np.max(np.abs(F - np.array(mismatch(*p)))) <= 1e-9
