"""Tests for the two-sided shooting map, its root finder, and parameter sweeps."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solshoot import fields, ode, shooting
from solshoot.errors import (
    EpsilonTooLarge,
    EventNotReached,
    InadmissibleParameters,
    MaxIterations,
    NonConvergence,
)
from solshoot.shooting import (
    DEFAULT_SCAN_BOX,
    ROUND_DELTAS,
    MeetPoint,
    MismatchVector,
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
        s1_series_state(1.0, 2e-3)
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


def test_s2_series_epsilon_guard():
    with pytest.raises(EpsilonTooLarge):
        s2_series_state(-0.5, 1.0, 2e-3)


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


# The series carry their t^3 terms and omit t^5 (all four functions are odd
# in t; on the sphere side R is even and omits s^6).  A launch error of
# order c t0^5 lies along a parameter direction that vanishes like t (the
# start tangents), so it moves the parameter, and the meet, by about c t0^4:
# 1e-12 c at t0 = 1e-3, at most 1e-9 over this box, where the coefficients
# grow like delta1^3 <= 1e3.  The launch's rounding adds a floor the same
# way: components of size 2/t0 round by 2u/t0, seen as 2u/t0^2 = 9e-10 at
# t0 = 5e-4.  The worst of 80 random points was 3.2e-9; the bound is 1e-8,
# the 10 t_eps^3 of the fixed points above.  The order-1 series, which
# omits t^3, moved the meet by up to 3.4e-8 (circle) and 1.1e-6 (sphere).
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


def test_scan_accepts_a_numpy_integer_resolution():
    assert scan_domain(resolution=np.int64(2)).values.tobytes() == scan_domain(resolution=2).values.tobytes()


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
    # a shrunk handoff (eps = 1e-2 / sqrt(d3) < t_eps), an inadmissible
    # lane and a lane that blows up at launch
    n_drawn = len(points)
    points = points + [(-0.5, 2e4), (-1.5, 0.5), (0.0, 1e13)]
    want = [_single_s2(d2, d3, cfg) for d2, d3 in points]
    assert want[-3][1] == "ok"
    assert want[-2][1].startswith("failed: delta2 = -1.5 < -1")
    assert want[-1][1].startswith(
        "failed: s2 shot never reached xi=0: stopped by blowup at t=3.16228e-09"
    )
    for order in _orders(len(points), rotate, n_drawn):
        lanes = _shoot_lanes("s2", [points[i] for i in order], cfg)
        for i, (meet, traj, reason) in zip(order, lanes):
            assert traj is None
            assert (meet, _lane_status(reason)) == want[i]


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
    # meet the series' symbolic ones, from the launch's own handoff distance
    sp = pytest.importorskip("sympy")
    d1, d2, d3, t, lam = sp.symbols("d1 d2 d3 t lam")
    s1 = [sp.diff(e, d1) for e in shooting._s1_series(d1, t, lam)]
    s2 = [[sp.diff(e, v) for e in shooting._s2_series(d2, d3, t)] for v in (d2, d3)]
    rng = np.random.default_rng(3)
    for i in range(60):
        # Python floats as the CLI passes them, numpy scalars as find_root does
        num = float if i % 2 else np.float64
        a = num(rng.choice([0.0, rng.uniform(0.0, 30.0), 10.0 ** rng.uniform(-3.0, 150.0)]))
        b = num(rng.choice([-1.0, rng.uniform(-1.0, 2.0)]))
        c = num(rng.choice([0.0, 1.0, rng.uniform(0.0, 30.0)]))
        cfg = ShootConfig(t_eps=10.0 ** rng.uniform(-5, -3))
        lv = rng.choice([0.0, 1e-4, 1.0, 2.5])
        t1, y1 = shooting._launch("s1", (a,), cfg, lv, tangent=True)
        t2, y2 = shooting._launch("s2", (b, c), cfg, tangent=True)
        assert y1[:4].tolist() == list(shooting._s1_series(a, t1, lv))
        assert y2[:4].tolist() == list(shooting._s2_series(b, c, t2))
        want1 = [float(e.subs({d1: a, t: t1, lam: lv})) for e in s1]
        want2 = [float(e.subs({d2: b, d3: c, t: t2})) for row in s2 for e in row]
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
    assert np.all(traj.dense_q[..., 3] == 0.0)  # delta1 = 300 took Radau's step
    n, (_, traj) = counted(lambda: shoot_surface_point(-0.5, 0.7, cfg))
    assert n == traj.n_rhs_evals
    for side, params in (("s1", (0.3,)), ("s2", (-0.5, 0.7))):
        t0, y0 = shooting._launch(side, params, cfg, tangent=True)
        n, traj = counted(lambda: shooting._shoot(y0, t0, side, "meet", cfg, 1.0, len(params)))
        assert n == traj.n_rhs_evals
        # and one more call, for the meet's slope
        n, _ = counted(lambda: shooting._meet_with_slope(side, params, cfg))
        assert n == traj.n_rhs_evals + 1


def test_curve_lanes_straddling_the_stiff_threshold_are_dp5_shots(monkeypatch):
    # node 20 lies below _STIFF_DELTA1 and repeats its single shot bitwise;
    # node 200's single shot takes Radau, its lane the batch's DP5, so the
    # lane repeats the scalar DP5 shot bitwise and the single shot's meet to
    # the integration tolerance.  The sweep's own lanes are recorded to
    # compare their trajectories too
    lanes = []
    record = lambda *args, **kwargs: lanes.extend(_shoot_lanes(*args, **kwargs)) or lanes
    monkeypatch.setattr(shooting, "_shoot_lanes", record)
    cfg = ShootConfig()
    samples = sample_curve((20.0, shooting._STIFF_DELTA1), 2, cfg)
    assert samples[0].delta1 < shooting._STIFF_DELTA1 == samples[1].delta1
    for sample, (meet, traj, reason) in zip(samples, lanes, strict=True):
        w_meet, w_traj, w_status = _single_s1(sample.delta1, cfg)
        assert sample.status == w_status == _lane_status(reason) == "ok"
        assert sample.meet == meet
        assert not np.all(traj.dense_q[..., 3] == 0.0)  # DP5's quartic
        if sample.delta1 < shooting._STIFF_DELTA1:
            assert meet == w_meet
            assert _traj_bytes(traj) == _traj_bytes(w_traj)
        else:
            assert np.all(w_traj.dense_q[..., 3] == 0.0)  # Radau's cubic
            t0, y0 = shooting._launch("s1", (sample.delta1,), cfg)
            dp5 = shooting._shoot(y0, t0, "s1", "meet", cfg, 1.0)
            assert _traj_bytes(traj) == _traj_bytes(dp5)
            assert np.max(np.abs(np.subtract(meet, w_meet))) <= 1e-9


def test_newton_residual_matches_the_radau_mismatch_in_the_stiff_regime():
    # from _STIFF_DELTA1 on, mismatch's circle side takes Radau and Newton's
    # tangent-carrying shot DP5: F agrees with it to the integration
    # tolerance, not bitwise (7.5e-12 apart here)
    p = np.array([shooting._STIFF_DELTA1, -0.8, 0.6])
    F, _ = shooting._mismatch_with_jacobian(p, ShootConfig())
    assert np.max(np.abs(F - np.array(mismatch(*p)))) <= 1e-9
