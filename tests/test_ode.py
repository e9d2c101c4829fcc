import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from solshoot import ode
from solshoot.ode import Event, IntegratorConfig, Trajectory, integrate, locate_event


def test_exponential_decay_accuracy():
    traj = integrate(lambda t, y: -y, 0.0, [1.0], 5.0)
    assert traj.termination == "reached_end"
    assert traj.t_end == 5.0
    assert abs(traj.y[-1, 0] - math.exp(-5.0)) < 1e-9


def test_dense_output_is_node_exact_and_accurate_between():
    traj = integrate(lambda t, y: -y, 0.0, [1.0], 3.0)
    # stored nodes come back bitwise
    for i in (0, len(traj.t) // 2, len(traj.t) - 1):
        assert traj.eval(traj.t[i])[0] == traj.y[i, 0]
    # off-node points track the true solution at tolerance scale
    for t in np.linspace(0.05, 2.95, 37):
        assert abs(traj.eval(t)[0] - math.exp(-t)) < 1e-9


def test_eval_rejects_out_of_domain():
    traj = integrate(lambda t, y: -y, 0.0, [1.0], 1.0)
    with pytest.raises(ValueError):
        traj.eval(1.5)
    with pytest.raises(ValueError):
        traj.eval(-0.1)


def test_fixed_step_convergence_order_is_five():
    # global error of the DP5 step at fixed h on y' = -y over [0, 2]
    # should scale like h^5
    errs = []
    steps = [0.2, 0.1, 0.05]
    for h in steps:
        t, y, f = 0.0, np.array([1.0]), np.array([-1.0])
        for _ in range(round(2.0 / h)):
            y, _, _, f = ode._dp5(lambda t, y: -y, t, y, f, h, h)
            t += h
        errs.append(abs(y[0] - math.exp(-2.0)))
    rate = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert abs(rate - 5.0) < 0.5


def test_blowup_guard_stops_riccati():
    # y' = y^2 from y(0)=1 blows up at t=1; the guard must stop us cleanly
    traj = integrate(lambda t, y: y**2, 0.0, [1.0], 2.0)
    assert traj.termination == "blowup"
    assert traj.t_end < 1.0
    assert np.max(np.abs(traj.y[-1])) >= 1e12


def test_terminal_event_harmonic_oscillator():
    # y = cos t crosses zero (falling) at pi/2
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    ev = Event(fn=lambda t, y: y[0], direction=-1, name="cos_zero")
    traj = integrate(rhs, 0.0, [1.0, 0.0], 10.0, event=ev)
    assert traj.termination == "event"
    assert abs(traj.t[-1] - math.pi / 2) < 1e-10
    # the trajectory ends at the hit and dense eval still works inside
    tm = 0.5 * (traj.t[-2] + traj.t[-1])
    assert abs(traj.eval(tm)[0] - math.cos(tm)) < 1e-9


def test_event_direction_filter():
    # sin t rises through zero at 0 mod 2pi and falls at pi; ask for falling
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    ev = Event(fn=lambda t, y: y[0], direction=-1)
    traj = integrate(rhs, 0.0, [0.0, 1.0], 10.0, event=ev)
    assert traj.termination == "event"
    assert abs(traj.t[-1] - math.pi) < 1e-10


def test_locate_event_first_and_last():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    traj = integrate(rhs, 0.0, [1.0, 0.0], 10.0)
    first = locate_event(traj, lambda t, y: y[0])
    rising = locate_event(traj, lambda t, y: y[0], +1)
    assert first is not None and rising is not None
    assert abs(first - math.pi / 2) < 1e-9
    assert abs(rising - 3 * math.pi / 2) < 1e-9
    none = locate_event(traj, lambda t, y: y[0] - 5.0)
    assert none is None


def test_locate_event_finds_the_crossing_that_stopped_the_trajectory():
    # the stored end of an event-stopped trajectory is the refined root, where
    # g can still sit a rounding error before zero; the crossing must be found
    for omega in np.linspace(0.5, 3.0, 60):

        def rhs(t, y, omega=omega):
            return np.array([y[1], -omega * omega * y[0]])

        def g(t, y):
            return y[0] - 0.3

        traj = integrate(rhs, 0.0, [1.0, 0.0], 20.0, event=Event(g, direction=-1))
        assert traj.termination == "event"
        hit = locate_event(traj, g, -1)
        assert hit is not None, omega
        assert hit == traj.t[-1]
        assert traj.eval(hit).tobytes() == traj.y[-1].tobytes()
        # a rising crossing does not end this trajectory
        assert locate_event(traj, g, +1) is None


def test_antiderivative_exact_on_polynomial():
    # y' = 1 gives y = t; integrate g = y^3 exactly (GL3 handles quartics,
    # and the dense interpolant reproduces linear solutions exactly)
    traj = integrate(lambda t, y: np.array([1.0]), 0.0, [0.0], 2.0)
    node_vals, F = traj.antiderivative(lambda t, y: y[0] ** 3)
    assert abs(node_vals[-1] - 2.0**4 / 4) < 1e-12
    assert abs(F(1.3) - 1.3**4 / 4) < 1e-12


def test_antiderivative_on_transcendental_field():
    traj = integrate(lambda t, y: -y, 0.0, [1.0], 2.0)
    node_vals, F = traj.antiderivative(lambda t, y: y[0])
    # integral of e^-t from 0 to T is 1 - e^-T
    assert abs(node_vals[-1] - (1 - math.exp(-2.0))) < 1e-10
    assert abs(F(0.7) - (1 - math.exp(-0.7))) < 1e-10


def test_forward_only_contract():
    with pytest.raises(ValueError):
        integrate(lambda t, y: -y, 1.0, [1.0], 0.0)


def test_max_steps_guard(monkeypatch):
    # an oscillator over many periods needs far more than 10 steps
    monkeypatch.setattr(ode, "_MAX_STEPS", 10)
    traj = integrate(lambda t, y: np.array([y[1], -y[0]]), 0.0, [1.0, 0.0], 100.0)
    assert traj.termination == "max_steps"
    assert len(traj.t) == 11


def test_stiffish_rescaling_insensitivity():
    # integrating a fast linear decay still meets tolerance
    traj = integrate(lambda t, y: -50.0 * y, 0.0, [1.0], 1.0)
    assert abs(traj.y[-1, 0] - math.exp(-50.0)) < 1e-10


# y = (cos t, -sin t), stopped by a terminal event so that the last segment
# is shorter than the step its interpolant was built over
_OSC = integrate(
    lambda t, y: np.array([y[1], -y[0]]),
    0.0,
    [1.0, 0.0],
    10.0,
    event=Event(fn=lambda t, y: y[0] - 0.3, direction=+1),
)


@st.composite
def _domain_times(draw):
    """Sorted times inside _OSC's domain: both endpoints, some nodes, some
    arbitrary points."""
    nodes = draw(st.lists(st.sampled_from(_OSC.t.tolist()), max_size=10))
    inner = draw(st.lists(st.floats(_OSC.t0, _OSC.t_end), max_size=10))
    return np.sort(np.array([_OSC.t0, _OSC.t_end, *nodes, *inner]))


def _eval_reference(traj, t):
    """Dense output at one time by the per-point Horner loop."""
    i = min(max(int(np.searchsorted(traj.t, t, side="right")) - 1, 0), len(traj.t) - 2)
    if t == traj.t[i]:
        return traj.y[i]
    if t == traj.t[i + 1]:
        return traj.y[i + 1]
    theta = (t - traj.t[i]) / traj.dense_h[i]
    q = traj.dense_q[i]
    acc = q[:, 3]
    for j in (2, 1, 0):
        acc = acc * theta + q[:, j]
    return traj.y[i] + traj.dense_h[i] * theta * acc


def test_property_trajectory_ends_on_event():
    assert _OSC.termination == "event"
    assert _OSC.t[-1] - _OSC.t[-2] < _OSC.dense_h[-1]


@settings(max_examples=60, deadline=None)
@given(ts=_domain_times())
def test_property_array_eval_is_node_exact_and_matches_reference(ts):
    ys = _OSC.eval(ts)
    assert ys.shape == (len(ts), 2)
    at_node = np.isin(ts, _OSC.t)
    nodes = np.searchsorted(_OSC.t, ts[at_node])
    assert ys[at_node].tobytes() == _OSC.y[nodes].tobytes()
    for t, y in zip(ts, ys):
        assert _OSC.eval(t).tobytes() == y.tobytes()
        assert _eval_reference(_OSC, float(t)).tobytes() == y.tobytes()
    assert np.max(np.abs(ys[:, 0] - np.cos(ts))) < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    ts=_domain_times(),
    outside=st.one_of(
        st.floats(max_value=_OSC.t0, exclude_max=True),
        st.floats(min_value=_OSC.t_end, exclude_min=True),
    ),
    where=st.integers(0, 30),
)
def test_property_array_eval_rejects_one_time_outside(ts, outside, where):
    batch = np.insert(ts, where % (len(ts) + 1), outside)
    with pytest.raises(ValueError):
        _OSC.eval(batch)


@settings(max_examples=30, deadline=None)
@given(ts=_domain_times())
def test_property_antiderivative_is_node_exact(ts):
    node_vals, F = _OSC.antiderivative(lambda t, y: y[0])
    assert F(_OSC.t).tobytes() == node_vals.tobytes()
    vals = F(ts)
    assert vals.shape == ts.shape
    assert np.max(np.abs(vals - np.sin(ts))) < 1e-8


@settings(max_examples=30, deadline=None)
@given(
    omega=st.floats(0.3, 8.0),
    level=st.floats(-0.95, 0.95),
    direction=st.sampled_from([-1, 0, 1]),
)
def test_property_event_time_does_not_depend_on_probe_subdivision(omega, level, direction):
    # y = cos(omega t) falls through `level` at t1 and rises through it at t2
    def rhs(t, y):
        return np.array([y[1], -omega * omega * y[0]])

    t_end = 4 * math.pi / omega
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    ev = Event(fn=lambda t, y: y[0] - level, direction=direction)
    stopped = integrate(rhs, 0.0, [1.0, 0.0], t_end, cfg, event=ev)
    assert stopped.termination == "event"
    # events do not steer the step size, so the stored event-free trajectory
    # has the same segments; locate_event probes each at 8 points, not 4
    stored = integrate(rhs, 0.0, [1.0, 0.0], t_end, cfg)
    located = locate_event(stored, ev.fn, direction)
    t1 = math.acos(level) / omega
    t2 = (2 * math.pi - math.acos(level)) / omega
    assert abs(stopped.t[-1] - located) < 1e-12
    assert abs(stopped.t[-1] - (t2 if direction > 0 else t1)) < 1e-9


# ------------------------------------------------------------ batched lanes


def _osc(t, y):
    # y = (x, v, omega, 0): a harmonic oscillator that carries its own
    # frequency, so lanes differ by their initial states only; the constant
    # last component makes the width 4, which integrate_batch needs
    return np.array([y[1], -y[2] * y[2] * y[0], 0.0 * y[2], 0.0 * y[3]])


def _osc_rows(t, y):
    return _osc(t, y.T).T


def _trajectory_bytes(traj):
    arrays = [(a.dtype.str, a.shape, a.tobytes()) for a in (traj.t, traj.y, traj.dense_q, traj.dense_h)]
    return arrays, traj.termination, traj.n_rhs_evals, traj.n_rejected


@settings(max_examples=15, deadline=None)
@given(
    lanes=st.lists(
        st.tuples(st.floats(0.3, 6.0), st.floats(0.0, 0.5), st.floats(0.5, 2.0)),
        min_size=1,
        max_size=6,
    ),
    level=st.floats(-1.5, 0.9),
    direction=st.sampled_from([-1, 0, 1]),
    t_end=st.floats(0.6, 6.0),
    max_steps=st.sampled_from([3, 40, 500_000]),
)
def test_property_integrate_batch_repeats_integrate_per_lane(
    lanes, level, direction, t_end, max_steps
):
    # a level below -amplitude is never crossed: those lanes reach t_end
    event = Event(lambda t, y: y[0] - level, direction, name="level")
    t0 = [start for _, start, _ in lanes]
    y0 = [[amp, 0.0, omega, 0.0] for omega, _, amp in lanes]
    # a lane that starts non-finite stops at once, as in ``integrate``
    t0.append(0.1)
    y0.append([math.inf, 0.0, 1.0, 0.0])
    order = list(range(len(t0)))[::-1]
    # hypothesis rejects function-scoped fixtures such as monkeypatch
    with patch.object(ode, "_MAX_STEPS", max_steps):
        singles = [integrate(_osc, a, b, t_end, event=event) for a, b in zip(t0, y0)]
        batch = ode.integrate_batch(_osc_rows, t0, y0, t_end, event, history=True)
        reverse = ode.integrate_batch(
            _osc_rows, [t0[i] for i in order], [y0[i] for i in order], t_end, event, history=True
        )
        ends = ode.integrate_batch(_osc_rows, t0, y0, t_end, event)
    for i, single in enumerate(singles):
        want = _trajectory_bytes(single)
        assert _trajectory_bytes(batch[i]) == want
        assert _trajectory_bytes(reverse[order.index(i)]) == want
        assert ends[i].t == single.t_end
        assert ends[i].y.tobytes() == single.y[-1].tobytes()
        assert ends[i].termination == single.termination
    assert singles[-1].termination == "blowup"


def test_integrate_batch_rejects_inputs_it_cannot_repeat():
    start = [1.0, 0.0, 1.0, 0.0]
    event = Event(lambda t, y: y[0])
    with pytest.raises(ValueError):
        ode.integrate_batch(_osc_rows, [0.0], start, 1.0, event)
    with pytest.raises(ValueError):  # t_end must exceed every t0
        ode.integrate_batch(_osc_rows, [0.0, 2.0], [start] * 2, 1.0, event)
    with pytest.raises(ValueError):  # a state width that is not a multiple of 4
        ode.integrate_batch(lambda t, y: -y, [0.0], [[1.0, 0.0, 1.0]], 1.0, event)


def test_field_turning_nan_mid_run_ends_in_step_underflow():
    # from t = 1 on the field is NaN: every step that reaches past it is
    # rejected and shrunk, so each run stops just short of t = 1 after a
    # bounded number of rejections instead of spinning through max_steps
    def nan_from_one(t, y):
        return np.where(np.asarray(t) < 1.0, _osc(t, y), math.nan)

    t0 = [0.0, 0.3, 0.9]
    y0 = [[1.0, 0.0, 1.0, 0.0], [0.5, 0.0, 2.0, 0.0], [1.0, 0.0, 3.0, 0.0]]
    event = Event(lambda t, y: y[0] - 2.0)
    singles = [integrate(nan_from_one, a, b, 5.0, event=event) for a, b in zip(t0, y0)]
    lanes = ode.integrate_batch(lambda t, y: nan_from_one(t, y.T).T, t0, y0, 5.0, event, history=True)
    for single, lane in zip(singles, lanes):
        assert single.termination == "step_underflow"
        assert 0.0 < 1.0 - single.t[-1] < 1e-13
        assert single.n_rejected <= 100
        assert _trajectory_bytes(lane) == _trajectory_bytes(single)


def test_field_nan_from_the_start_ends_in_step_underflow():
    # a field that is NaN at the start gives the initial-step heuristic a
    # NaN step: the underflow guard stops the run there, before any try,
    # instead of rejecting NaN tries through the whole step budget
    dp5 = integrate(lambda t, y: np.array([math.nan]), 0.0, [1.0], 10.0)
    radau = integrate(
        lambda t, y: np.array([math.nan]), 0.0, [1.0], 10.0, jac=lambda t, y: np.array([[math.nan]])
    )
    for traj in (dp5, radau):
        assert traj.termination == "step_underflow"
        assert traj.t.size == 1 and traj.dense_h.size == 0
        assert traj.n_rejected == 0

    # the lane with omega = 3 is NaN from its start and leaves the batch
    # before its first step; the other two step on together
    def nan_above_two(t, y):
        return np.where(y[2] > 2.0, math.nan, _osc(t, y))

    t0 = [0.0, 0.0, 0.2]
    y0 = [[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 3.0, 0.0], [0.5, 0.0, 1.5, 0.0]]
    event = Event(lambda t, y: y[0] - 2.0)
    singles = [integrate(nan_above_two, a, b, 5.0, event=event) for a, b in zip(t0, y0)]
    lanes = ode.integrate_batch(lambda t, y: nan_above_two(t, y.T).T, t0, y0, 5.0, event, history=True)
    assert [s.termination for s in singles] == ["reached_end", "step_underflow", "reached_end"]
    assert singles[1].t.size == 1
    for single, lane in zip(singles, lanes):
        assert _trajectory_bytes(lane) == _trajectory_bytes(single)


# ------------------------------------------------------------ crossing rule


def test_tiny_event_function_crosses_in_every_search():
    # |g| ~ 1e-171 near the root: the product of two such values underflows
    # to 0, so only a test of their signs tells a crossing from none
    def g(t, y):
        return 1e-170 * (y[0] - 0.3)

    want = math.acos(0.3)
    ev = Event(g, -1)
    traj = integrate(_osc, 0.0, [1.0, 0.0, 1.0, 0.0], 10.0, event=ev)
    assert traj.termination == "event"
    assert abs(traj.t_end - want) < 1e-9
    (lane,) = ode.integrate_batch(_osc_rows, [0.0], [[1.0, 0.0, 1.0, 0.0]], 10.0, ev)
    assert lane.termination == "event"
    assert abs(lane.t - want) < 1e-9
    stored = integrate(_osc, 0.0, [1.0, 0.0, 1.0, 0.0], 10.0)
    assert abs(locate_event(stored, g, -1) - want) < 1e-9


def test_nan_event_function_never_crosses():
    for direction in (-1, 0, 1):
        for ga, gb in ((math.nan, 1.0), (-1.0, math.nan), (1.0, math.nan), (math.nan, math.nan)):
            assert not ode._crossing(ga, gb, direction)
        assert not ode._crossing(np.array([math.nan, -1.0]), np.array([1.0, math.nan]), direction).any()
    traj = integrate(_osc, 0.0, [1.0, 0.0, 1.0, 0.0], 5.0, event=Event(lambda t, y: y[0] * math.nan))
    assert traj.termination == "reached_end"
    assert locate_event(traj, lambda t, y: y[0] * math.nan) is None


def _locate_reference(traj, fn, direction):
    """``locate_event`` as a walk over the segments one at a time, calling
    fn at one point at a time: the reference for the array search."""

    def crosses(ga, gb):
        rising, falling = ga < 0.0 <= gb, ga > 0.0 >= gb
        return rising if direction > 0 else falling if direction < 0 else rising or falling

    def dense(i, t):
        theta = (t - float(traj.t[i])) / traj.dense_h[i]
        q = traj.dense_q[i]
        acc = q[:, 3]
        for j in (2, 1, 0):
            acc = acc * theta + q[:, j]
        return traj.y[i] + traj.dense_h[i] * theta * acc

    def first_crossing(i, ta, ga, probes, t_right, y_right):
        for tb in probes.tolist():
            gb = fn(tb, y_right if tb == t_right else dense(i, tb))
            if crosses(ga, gb):
                if gb == 0.0:
                    return tb
                return float(
                    brentq(lambda t: fn(t, dense(i, t)), ta, tb, xtol=1e-15, rtol=8.9e-16, maxiter=200)
                )
            ta, ga = tb, gb
        return None

    fracs = np.linspace(0.0, 1.0, 9)[1:]
    n_seg = len(traj.t) - 1
    for i in range(n_seg):
        t_left, t_right = float(traj.t[i]), float(traj.t[i + 1])
        probes = np.minimum(t_left + fracs * (t_right - t_left), t_right)
        t_star = first_crossing(i, t_left, fn(t_left, traj.y[i]), probes, t_right, traj.y[i + 1])
        if t_star is None and i == n_seg - 1 and traj.termination == "event":
            t_step = t_left + traj.dense_h[i]
            probes = np.minimum(t_right + fracs * (t_step - t_right), t_step)
            t_past = first_crossing(i, t_right, fn(t_right, traj.y[-1]), probes, None, None)
            if t_past is not None and t_past - t_right <= 1e-15 + 8.9e-16 * abs(t_right):
                t_star = t_right
        if t_star is not None:
            return t_star
    return None


@settings(max_examples=150, deadline=None)
@example(omega=1.0, level=0.2, direction=0, end="t_end", periods=3.0)
@example(omega=2.0, level=0.3, direction=-1, end="located_event", periods=2.0)
@given(
    omega=st.floats(0.3, 6.0),
    level=st.one_of(st.floats(-0.95, 0.95), st.just(1.5)),
    direction=st.sampled_from([-1, 0, 1]),
    end=st.sampled_from(["t_end", "located_event", "other_event", "blowup"]),
    periods=st.floats(0.1, 3.0),
)
def test_property_locate_event_repeats_the_per_segment_walk(omega, level, direction, end, periods):
    # y = cos(omega t) crosses each level in (-1, 1) twice a period, never 1.5
    def g(t, y):
        return y[0] - level

    stops = {
        "located_event": Event(g, direction),
        # v = -omega sin(omega t) rises through omega / 2 at omega t = 7 pi / 6
        "other_event": Event(lambda t, y: y[1] - 0.5 * omega, +1),
    }
    start = [math.inf if end == "blowup" else 1.0, 0.0, omega, 0.0]
    traj = integrate(_osc, 0.0, start, periods * 2 * math.pi / omega, event=stops.get(end))
    assert (len(traj.t) == 1) == (end == "blowup")
    want = _locate_reference(traj, g, direction)
    got = locate_event(traj, g, direction)
    if want is None:
        assert got is None
    else:
        assert type(got) is float and got.hex() == want.hex()
        assert traj.eval(got).tobytes() == traj.eval(want).tobytes()


def _osc_with_riders(t, y):
    # the oscillator and, behind it, components that grow like exp(40 t):
    # in the step control they would shrink the steps and trip the guard
    return np.concatenate((_osc(t, y[:4]), 40.0 * y[4:]))


@settings(max_examples=10, deadline=None)
@given(
    omega=st.floats(0.5, 4.0),
    amp=st.floats(0.5, 2.0),
    riders=st.sampled_from([4, 8]),
    level=st.floats(-1.5, 0.9),
    t_end=st.floats(0.5, 4.0),
)
def test_property_riders_outside_the_step_control_leave_the_state_bitwise(
    omega, amp, riders, level, t_end
):
    event = Event(lambda t, y: y[0] - level, name="level")
    plain = integrate(_osc, 0.0, [amp, 0.0, omega, 0.0], t_end, event=event)
    y0 = [amp, 0.0, omega, 0.0] + [1e3] * riders
    aug = integrate(_osc_with_riders, 0.0, y0, t_end, event=event, n_state=4)
    assert aug.y.shape[1] == 4 + riders
    assert aug.t.tobytes() == plain.t.tobytes()
    assert aug.y[:, :4].tobytes() == plain.y.tobytes()
    assert aug.dense_q[:, :4].tobytes() == plain.dense_q.tobytes()
    assert aug.dense_h.tobytes() == plain.dense_h.tobytes()
    assert (aug.termination, aug.n_rhs_evals, aug.n_rejected) == (
        plain.termination, plain.n_rhs_evals, plain.n_rejected
    )
    assert aug.t[-1] == plain.t[-1]


@pytest.mark.parametrize("n_state", [0, 9])
def test_n_state_outside_the_state_width_is_rejected(n_state):
    with pytest.raises(ValueError):
        integrate(_osc_with_riders, 0.0, [1.0, 0.0, 1.0, 0.0] + [0.0] * 4, 1.0, n_state=n_state)


# ------------------------------------------------------- the Radau IIA step


def _prothero_robinson(lam, omega=1.0):
    """y' = -lam (y - cos(omega t)) - omega sin(omega t), whose solution from
    y(0) = 1 is cos(omega t) for every lam; its Jacobian is the constant -lam."""
    rhs = lambda t, y: -lam * (y - np.cos(omega * t)) - omega * np.sin(omega * t)
    return rhs, lambda t, y: np.array([[-lam]])


@pytest.mark.parametrize("cfg", [IntegratorConfig(), IntegratorConfig(rtol=1e-6, atol=1e-8)])
def test_radau_prothero_robinson_matches_closed_form_at_every_stiffness(cfg):
    steps = {}
    for lam in (1e2, 1e3, 1e4, 1e5, 1e6):
        rhs, jac = _prothero_robinson(lam)
        traj = integrate(rhs, 0.0, [1.0], 10.0, cfg, jac=jac)
        assert traj.termination == "reached_end"
        steps[lam] = len(traj.t) - 1
        # the controller holds the error estimate below atol + rtol |y|.
        # Radau filters that estimate through (I - h J / MU_REAL)^-1, which
        # divides the stiff mode by 1 + h lam / MU_REAL, so the error itself
        # may be that much larger; the problem is contractive, so it does not
        # accumulate from step to step
        t, y = traj.t[1:], traj.y[1:, 0]
        scale = cfg.atol + cfg.rtol * np.abs(np.cos(t))
        bound = (1.0 + np.diff(traj.t) * lam / ode._MU_REAL) * scale
        assert np.all(np.abs(y - np.cos(t)) <= bound)
    # the step count does not grow with the stiffness, as DP5's does
    assert max(steps.values()) <= 2 * steps[1e2]


def test_radau_dense_output_is_cubic_and_node_exact():
    rhs, jac = _prothero_robinson(1e4, omega=3.0)
    traj = integrate(rhs, 0.0, [1.0], 5.0, jac=jac)
    assert traj.dense_q.shape == (len(traj.t) - 1, 1, 4)
    assert np.all(traj.dense_q[..., 3] == 0.0)
    assert traj.eval(traj.t).tobytes() == traj.y.tobytes()
    mid = 0.5 * (traj.t[:-1] + traj.t[1:])
    assert np.max(np.abs(traj.eval(mid)[:, 0] - np.cos(3.0 * mid))) < 1e-6


@pytest.mark.parametrize("direction", [-1, 0])
def test_radau_event_ends_on_the_level_and_locate_event_finds_it(direction):
    rhs, jac = _prothero_robinson(1e5, omega=2.0)
    fn = lambda t, y: y[0] - 0.3
    traj = integrate(rhs, 0.0, [1.0], 10.0, event=Event(fn, direction), jac=jac)
    assert traj.termination == "event"
    t, y = traj.t[-1], traj.y[-1]
    slope = rhs(t, y)[0]
    assert abs(y[0] - 0.3) <= abs(slope) * (ode._XTOL + ode._RTOL * abs(t))
    assert abs(t - math.acos(0.3) / 2.0) < 1e-8
    found = locate_event(traj, fn, direction)
    assert abs(found - t) <= ode._XTOL + ode._RTOL * abs(t)


def test_radau_takes_neither_riders_nor_fixed_steps():
    rhs, jac = _prothero_robinson(10.0)
    with pytest.raises(ValueError, match="Radau"):
        integrate(rhs, 0.0, [1.0], 1.0, n_state=1, jac=jac)


@settings(max_examples=10, deadline=None)
@given(
    lam=st.floats(1.0, 1e6),
    omega=st.floats(0.5, 4.0),
    level=st.floats(-1.5, 0.9),
    t_end=st.floats(0.5, 4.0),
)
def test_property_radau_reruns_are_bitwise_identical(lam, omega, level, t_end):
    rhs, jac = _prothero_robinson(lam, omega)
    event = Event(lambda t, y: y[0] - level, direction=-1)
    first = integrate(rhs, 0.0, [1.0], t_end, event=event, jac=jac)
    second = integrate(rhs, 0.0, [1.0], t_end, event=event, jac=jac)
    assert _trajectory_bytes(first) == _trajectory_bytes(second)
