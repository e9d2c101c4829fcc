import math
import tracemalloc
import warnings
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from solshoot import ode, shooting
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


def test_fixed_step_convergence_order_is_eight():
    # global error of the DOP853 step at fixed h on y' = -y over [0, 2]
    # should scale like h^8; at these h it runs from 2e-8 to 3e-13, well
    # above rounding
    errs = []
    steps = [1.0, 0.5, 0.25]
    for h in steps:
        t, y, f = 0.0, np.array([1.0]), np.array([-1.0])
        for _ in range(round(2.0 / h)):
            y, _, _, K = ode._dop853(lambda t, y: -y, t, y, f, h, h)
            t, f = t + h, K[12]
        errs.append(abs(y[0] - math.exp(-2.0)))
    rate = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert abs(rate - 8.0) < 0.5


def test_dop853_constants_are_scipys():
    # the tableau is written out in ode (importing solshoot must not load
    # scipy.integrate); it must equal scipy's, and the power-basis dense
    # output must be scipy's interpolant
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert ode._C.tobytes() == ref.C.tobytes()
    assert ode._A[:12, :12].tobytes() == ref.A[:12, :12].tobytes()
    assert ode._A[13:].tobytes() == ref.A[13:].tobytes()
    assert ode._B.tobytes() == ref.B.tobytes()
    assert ode._E5.tobytes() == ref.E5[:12].tobytes() and ref.E5[12] == 0.0
    assert ode._E3.tobytes() == ref.E3[:12].tobytes() and ref.E3[12] == 0.0
    assert ode._D.tobytes() == ref.D.tobytes()
    rng = np.random.default_rng(3)
    m, y, h = rng.normal(size=(5, 5)), rng.normal(size=5), 0.3
    rhs = lambda t, y: m @ y + np.sin(t)
    y_new, _, _, K = ode._dop853(rhs, 0.0, y, rhs(0.0, y), h, h)
    q = ode._dense(rhs, 0.0, y, y_new, h, h, K)
    F = [y_new - y, h * K[0] - (y_new - y), 2 * (y_new - y) - h * (K[0] + K[12]), *(h * ref.D @ K)]
    for th in np.linspace(0.0, 1.0, 11):
        want = np.zeros(5)
        for i, Fi in enumerate(reversed(F)):  # scipy's Dop853DenseOutput
            want = (want + Fi) * (th if i % 2 == 0 else 1 - th)
        assert np.max(np.abs(ode._interp(y, q, h, th * h) - (y + want))) < 1e-14


# the functions ode.brentq must solve as scipy's brentq does: a root at c,
# slope sign s; tanh(50 x) saturates, so that two values equal to the last
# bit zero the secant's denominator; 1e-170 makes products of two values
# underflow and 1e170 overflow; numpy scalars too, whose overflow warns
_BRENT_FAMILIES = {
    "linear": lambda c, s: lambda x: s * (x - c),
    "cubic": lambda c, s: lambda x: s * ((x - c) ** 3 + 0.01 * (x - c)),
    "exp": lambda c, s: lambda x: math.exp(s * x) - math.exp(s * c),
    "tanh": lambda c, s: lambda x: math.tanh(50.0 * s * (x - c)),
    "tiny": lambda c, s: lambda x: 1e-170 * s * (x - c) ** 3,
    "numpy-huge": lambda c, s: lambda x: np.float64(1e170) * np.tanh(np.float64(s * (x - c))),
}
# (xtol, rtol, maxiter) of ode's event refinement and of verify.sign_profile
_BRENT_TOLERANCES = [(1e-15, 8.9e-16, 200), (1e-13, 4 * np.finfo(float).eps, 100)]


def _outcome(solver, f, a, b, tol):
    """The root as its hex form, or the name of the error raised."""
    xtol, rtol, maxiter = tol
    try:
        return float.hex(solver(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter))
    except (ValueError, RuntimeError) as err:
        return type(err).__name__


@settings(max_examples=400, deadline=None)
@example(family="tanh", c=0.25, s=1.0, da=2.0, db=3.0, flip=False, tol=_BRENT_TOLERANCES[0])
@example(family="tiny", c=0.0, s=-1.0, da=1.0, db=0.5, flip=True, tol=_BRENT_TOLERANCES[1])
@given(
    family=st.sampled_from(sorted(_BRENT_FAMILIES)),
    c=st.floats(-2.0, 2.0),
    s=st.sampled_from([-1.0, 1.0]) | st.floats(-20.0, 20.0).filter(lambda s: abs(s) > 1e-3),
    da=st.floats(1e-9, 4.0),
    db=st.floats(1e-9, 4.0),
    flip=st.booleans(),
    tol=st.sampled_from(_BRENT_TOLERANCES),
)
def test_property_brentq_is_scipys_bitwise(family, c, s, da, db, flip, tol):
    f = _BRENT_FAMILIES[family](c, s)
    a, b = (c + db, c - da) if flip else (c - da, c + db)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _outcome(ode.brentq, f, a, b, tol) == _outcome(brentq, f, a, b, tol)


@pytest.mark.parametrize(
    "f, a, b, maxiter, error",
    [
        (lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, 100, ValueError),
        (lambda x: x - 3.0, 0.0, 1.0, 100, ValueError),
        (lambda x: math.exp(x) - 2.0, 0.0, 1.0, 2, RuntimeError),
    ],
    ids=["nan-value", "same-sign-ends", "maxiter"],
)
def test_brentq_raises_what_scipy_raises(f, a, b, maxiter, error):
    for solver in (ode.brentq, brentq):
        with pytest.raises(error):
            solver(f, a, b, xtol=1e-15, rtol=8.9e-16, maxiter=maxiter)


def test_blowup_guard_stops_riccati():
    # y' = y^2 from y(0)=1 blows up at t=1; the guard must stop us cleanly.
    # It trips at y = 1e12, 1e-12 before t = 1, so that t_end < 1 needs a
    # blow-up time accurate to better than 1e-12: at the default rtol the
    # numerical one lags by 8e-12, as scipy's DOP853 does, within tolerance
    for cfg in (IntegratorConfig(), IntegratorConfig(rtol=1e-12, atol=1e-14)):
        traj = integrate(lambda t, y: y**2, 0.0, [1.0], 2.0, cfg)
        assert traj.termination == "blowup"
        assert np.max(np.abs(traj.y[-1])) >= 1e12
        assert abs(traj.t_end - 1.0) < cfg.rtol
    assert traj.t_end < 1.0


def test_step_controller_shrinks_ahead_of_a_blowup():
    # a solution whose step must shrink at every node: a memoryless factor
    # accepts and rejects in turn (234 rejected tries of 236 steps), the
    # predictive one shrinks the step before it is tried
    traj = integrate(lambda t, y: y**2, 0.0, [1.0], 2.0)
    assert traj.termination == "blowup"
    assert traj.n_rejected <= 10


def test_step_factor_is_gustafssons_predictive_rule():
    # no memory (NaN): the elementary factor 0.9 err^(-1/order), clamped
    assert ode._step_factor(1.0, 0.5, math.nan, math.nan, 8) == 0.9 * 0.5 ** (-1 / 8)
    assert ode._step_factor(1.0, 1e-30, math.nan, math.nan, 8) == 10.0
    for bad in (2.0**40, math.inf, math.nan):
        assert ode._step_factor(1.0, bad, math.nan, math.nan, 8) == 0.2
    # with memory: the factor times the predicted h / h_old (err_old / err)^(1/order)
    # when that is below 1, i.e. a step that shrank, or a norm that grew
    shrank = ode._step_factor(1.0, 0.5, 2.0, 0.5, 4, safety=0.8)
    assert shrank == 0.8 * (0.5 * 0.5 ** (-1 / 4))
    grew = ode._step_factor(1.0, 0.5, 1.0, 0.25, 4)
    assert grew == 0.9 * ((0.25 / 0.5) ** (1 / 4) * 0.5 ** (-1 / 4))
    # and never enlarges it
    assert ode._step_factor(1.0, 0.5, 0.5, 0.9, 4) == 0.9 * 0.5 ** (-1 / 4)


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
    # y' = 1 gives y = t; integrate g = y^3 exactly (GL4 handles degree 7,
    # and the dense interpolant reproduces linear solutions exactly)
    traj = integrate(lambda t, y: np.array([1.0]), 0.0, [0.0], 2.0)
    node_vals, F = traj.antiderivative(lambda t, y: y[0] ** 3)
    assert abs(node_vals[-1] - 2.0**4 / 4) < 1e-12
    assert abs(F(1.3) - 1.3**4 / 4) < 1e-12


def test_antiderivative_exact_on_the_degree_seven_interpolant():
    # y' = 7 t^6 gives y = t^7, which the step and its dense output
    # reproduce; the integral of y, t^8 / 8, needs a rule exact for degree 7
    traj = integrate(lambda t, y: np.array([7.0 * t**6]), 0.0, [0.0], 1.5)
    assert len(traj.t) > 2
    node_vals, F = traj.antiderivative(lambda t, y: y[0])
    assert abs(node_vals[-1] - 1.5**8 / 8) < 1e-12
    assert abs(F(1.3) - 1.3**8 / 8) < 1e-12


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
    acc = q[:, -1]
    for j in range(q.shape[1] - 2, -1, -1):
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
@given(ts=_domain_times())
def test_property_antiderivative_of_a_block_is_each_integrands_bitwise(ts):
    # a g returning a (k, m) block shares one dense pass among its k
    # integrands, each of which integrates bitwise as it does alone
    scalars = [lambda t, y: y[0], lambda t, y: y[0] * y[1] - 2.0 * t, lambda t, y: np.exp(y[1])]
    node_vals, F = _OSC.antiderivative(lambda t, y: np.stack([g(t, y) for g in scalars]))
    assert node_vals.shape == (len(_OSC.t), len(scalars))
    for k, g in enumerate(scalars):
        want_nodes, want = _OSC.antiderivative(g)
        assert node_vals[:, k].tobytes() == want_nodes.tobytes()
        assert F(ts)[:, k].tobytes() == want(ts).tobytes()
        assert F(ts[0])[k].tobytes() == want(ts[0]).tobytes()


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


def test_lane_ends_without_history_carry_the_single_shots_counters():
    # without history each lane ends as a one-node Trajectory with its
    # single shot's last node, termination and counters.  At this crude
    # tolerance four lanes reject a try inside the batch, whose count of
    # rhs calls (2 to start, 12 a try and 3 an accepted step) shows in them
    cfg = IntegratorConfig(rtol=0.1, atol=1e-3)
    event = Event(lambda t, y: y[0] - 0.5, -1, name="level")
    t0 = [0.0, 0.2, 0.1, 0.0, 0.3]
    y0 = [[0.4, 0.0, 3.0, 0.0], [1.0, 0.0, 3.0, 0.0], [math.inf, 0.0, 1.0, 0.0],
          [0.0, 5.0, 2.0, 0.0], [0.2, 0.0, 10.0, 0.0]]
    singles = [integrate(_osc, a, b, 6.0, cfg, event=event) for a, b in zip(t0, y0)]
    ends = ode.integrate_batch(_osc_rows, t0, y0, 6.0, event, cfg)
    assert [s.termination for s in singles] == ["reached_end", "event", "blowup", "event", "reached_end"]
    assert [s.n_rejected for s in singles] == [1, 1, 0, 1, 1]
    for single, end in zip(singles, ends, strict=True):
        assert type(end) is Trajectory
        assert end.t.shape == (1,) and end.dense_q.shape[0] == end.dense_h.size == 0
        assert end.t_end == single.t_end
        assert end.y[-1].tobytes() == single.y[-1].tobytes()
        assert end.termination == single.termination
        assert (end.n_rhs_evals, end.n_rejected) == (single.n_rhs_evals, single.n_rejected)


def _climb(t, y):
    # y = (x, u, v, omega): an oscillator (u, v) of amplitude below 1 that
    # drives x' = 1.5 + u > 0, so an event on x is monotone; rows of states
    # in a batch
    return np.array([1.5 + y[1], y[2], -y[3] * y[3] * y[1], 0.0 * y[3]])


def test_monotone_event_lanes_repeat_nodes_only_shots_bitwise():
    # with a monotone event a lane without history forms its dense output
    # on the step that crosses only, as its nodes-only single shot does, and
    # ends with that shot's last node and counters; with history it is the
    # dense shot.  At this crude tolerance lanes reject tries in the batch
    cfg = IntegratorConfig(rtol=0.1, atol=1e-3)
    event = Event(lambda t, y: y[0] - 4.0, +1, name="x=4", monotone=True)
    t0 = [0.0, 0.2, 0.1, 0.0, 0.3]
    y0 = [[0.0, 0.4, 0.0, 3.0], [1.0, 0.9, 0.0, 7.0], [math.inf, 0.0, 0.0, 1.0],
          [-6.0, 0.0, 0.5, 2.0], [0.0, 0.2, 0.0, 10.0]]
    dense = [integrate(_climb, a, b, 6.0, cfg, event=event) for a, b in zip(t0, y0)]
    nodes = [integrate(_climb, a, b, 6.0, cfg, event=event, dense=False) for a, b in zip(t0, y0)]
    ends = ode.integrate_batch(lambda t, y: _climb(t, y.T).T, t0, y0, 6.0, event, cfg)
    whole = ode.integrate_batch(lambda t, y: _climb(t, y.T).T, t0, y0, 6.0, event, cfg, history=True)
    assert [s.termination for s in dense] == ["event", "event", "blowup", "reached_end", "event"]
    assert sum(s.n_rejected for s in dense) > 0
    for d, n, end, lane in zip(dense, nodes, ends, whole, strict=True):
        assert _trajectory_bytes(lane) == _trajectory_bytes(d)
        assert n.t.tobytes() == d.t.tobytes() and n.y.tobytes() == d.y.tobytes()
        assert n.dense_q.shape[0] == n.dense_h.size == 0
        # 3 rhs calls less for each accepted step that does not cross
        crossing = d.termination == "event"
        assert n.n_rhs_evals == d.n_rhs_evals - 3 * (len(d.t) - 1 - crossing)
        assert end.t_end == n.t_end and end.y[-1].tobytes() == n.y[-1].tobytes()
        assert (end.termination, end.n_rhs_evals, end.n_rejected) == (n.termination, n.n_rhs_evals, n.n_rejected)


@settings(max_examples=30, deadline=None)
@given(
    lanes=st.lists(
        st.tuples(st.floats(0.0, 0.5), st.floats(-2.0, 2.0), st.floats(0.0, 0.9), st.floats(0.5, 8.0)),
        min_size=1,
        max_size=6,
    ),
    level=st.floats(-3.0, 8.0),
    direction=st.sampled_from([-1, 0, 1]),
    t_end=st.floats(0.6, 6.0),
    max_steps=st.sampled_from([3, 40, 500_000]),
)
def test_property_integrate_batch_lockstep_lanes_repeat_their_single_shots(
    lanes, level, direction, t_end, max_steps
):
    # x' > 0.5 on _climb, so an event on x is monotone and the lanes step
    # in lockstep; a level below a lane's start is never crossed
    event = Event(lambda t, y: y[0] - level, direction, name="level", monotone=True)
    t0 = [start for start, _, _, _ in lanes]
    y0 = [[x, amp, 0.0, omega] for _, x, amp, omega in lanes]
    # a lane that starts non-finite stops at once, as in ``integrate``
    t0.append(0.1)
    y0.append([math.inf, 0.0, 0.0, 1.0])
    rows = lambda t, y: _climb(t, y.T).T
    with patch.object(ode, "_MAX_STEPS", max_steps):
        dense = [integrate(_climb, a, b, t_end, event=event) for a, b in zip(t0, y0)]
        nodes = [integrate(_climb, a, b, t_end, event=event, dense=False) for a, b in zip(t0, y0)]
        for order in (list(range(len(t0))), list(range(len(t0)))[::-1]):
            lane_t0, lane_y0 = [t0[i] for i in order], [y0[i] for i in order]
            whole = ode.integrate_batch(rows, lane_t0, lane_y0, t_end, event, history=True)
            ends = ode.integrate_batch(rows, lane_t0, lane_y0, t_end, event)
            for i, lane, end in zip(order, whole, ends, strict=True):
                assert _trajectory_bytes(lane) == _trajectory_bytes(dense[i])
                n = nodes[i]
                assert end.t_end == n.t_end and end.y[-1].tobytes() == n.y[-1].tobytes()
                assert (end.termination, end.n_rhs_evals, end.n_rejected) == (n.termination, n.n_rhs_evals, n.n_rejected)
    assert dense[-1].termination == "blowup"


def test_nodes_only_trajectory_reads_at_its_nodes_alone():
    event = Event(lambda t, y: y[0] - 4.0, +1, monotone=True)
    traj = integrate(_climb, 0.0, [0.0, 0.4, 0.0, 3.0], 6.0, event=event, dense=False)
    assert len(traj.t) > 2
    assert traj.eval(traj.t).tobytes() == traj.y.tobytes()
    assert traj.eval(traj.t[1]).tobytes() == traj.y[1].tobytes()
    for read in (lambda: traj.eval(0.5 * (traj.t[0] + traj.t[1])), traj.sample,
                 lambda: traj.antiderivative(lambda t, y: y[0]), lambda: locate_event(traj, event.fn)):
        with pytest.raises(ValueError, match="nodes only"):
            read()


def _inf_at_one_dense_stage(t, y):
    # y' = 0, but inf on 0.9e-7 < t < 1.1e-7.  On a zero field the starting
    # heuristic gives h = 1e-6, so of the first step only the dense output's
    # stage at t + 0.1 h lands there: the step is accepted with a finite new
    # state and coefficients that are not finite.  Rows of states in a batch
    hit = (0.9e-7 < np.asarray(t)) & (np.asarray(t) < 1.1e-7)
    return np.where(np.expand_dims(hit, -1) if np.ndim(t) else hit, np.inf, np.zeros_like(y))


def test_overflowing_dense_stage_ends_a_shot_and_its_lanes_as_blowup():
    event = Event(lambda t, y: y[0] - 5.0)  # never crossed
    start = [1.0, 0.0, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        single = integrate(_inf_at_one_dense_stage, 0.0, start, 1.0, event=event)
        lanes = ode.integrate_batch(_inf_at_one_dense_stage, [0.0] * 2, [start] * 2, 1.0, event, history=True)
    # no segment without a dense output is stored: the shot ends at its start
    assert single.termination == "blowup"
    assert single.t.tolist() == [0.0] and single.n_rhs_evals == 2 + 15
    for lane in lanes:
        assert _trajectory_bytes(lane) == _trajectory_bytes(single)


def test_lockstep_lanes_end_on_an_overflowing_dense_stage_as_their_single_shots():
    # under a monotone event the lanes step in lockstep: with history a
    # lane ends on the step whose dense stage overflows, as its dense shot
    # does; without it that stage is never formed, as in a nodes-only shot
    event = Event(lambda t, y: y[0] - 5.0, monotone=True)  # y' = 0: never crossed
    start = [1.0, 0.0, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dense = integrate(_inf_at_one_dense_stage, 0.0, start, 1.0, event=event)
        nodes = integrate(_inf_at_one_dense_stage, 0.0, start, 1.0, event=event, dense=False)
        whole = ode.integrate_batch(_inf_at_one_dense_stage, [0.0] * 2, [start] * 2, 1.0, event, history=True)
        ends = ode.integrate_batch(_inf_at_one_dense_stage, [0.0] * 2, [start] * 2, 1.0, event)
    assert (dense.termination, dense.t.tolist()) == ("blowup", [0.0])
    assert nodes.termination == "reached_end"
    for lane, end in zip(whole, ends, strict=True):
        assert _trajectory_bytes(lane) == _trajectory_bytes(dense)
        assert end.t_end == nodes.t_end and end.y[-1].tobytes() == nodes.y[-1].tobytes()
        assert (end.termination, end.n_rhs_evals, end.n_rejected) == (nodes.termination, nodes.n_rhs_evals, nodes.n_rejected)


def test_lockstep_lanes_on_a_field_turning_nan_end_in_step_underflow():
    # from t = 1 on the field is NaN: lanes in lockstep reject and shrink
    # their tries until each leaves the batch on a step underflow just
    # short of t = 1, as its single shot stops
    def nan_from_one(t, y):
        return np.where(np.asarray(t) < 1.0, _climb(t, y), math.nan)

    event = Event(lambda t, y: y[0] - 100.0, +1, monotone=True)  # not reached by t = 1
    t0 = [0.0, 0.3, 0.9]
    y0 = [[0.0, 0.4, 0.0, 3.0], [1.0, 0.9, 0.0, 7.0], [0.0, 0.2, 0.0, 10.0]]
    rows = lambda t, y: nan_from_one(t, y.T).T
    dense = [integrate(nan_from_one, a, b, 5.0, event=event) for a, b in zip(t0, y0)]
    nodes = [integrate(nan_from_one, a, b, 5.0, event=event, dense=False) for a, b in zip(t0, y0)]
    whole = ode.integrate_batch(rows, t0, y0, 5.0, event, history=True)
    ends = ode.integrate_batch(rows, t0, y0, 5.0, event)
    for d, n, lane, end in zip(dense, nodes, whole, ends, strict=True):
        assert d.termination == "step_underflow"
        assert 0.0 < 1.0 - d.t[-1] < 1e-13
        assert _trajectory_bytes(lane) == _trajectory_bytes(d)
        assert end.t_end == n.t_end and end.y[-1].tobytes() == n.y[-1].tobytes()
        assert (end.termination, end.n_rhs_evals, end.n_rejected) == (n.termination, n.n_rhs_evals, n.n_rejected)


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
        acc = q[:, -1]
        for j in range(q.shape[1] - 2, -1, -1):
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


@settings(max_examples=60, deadline=None)
@example(step="dop853", omega=1.0, level=0.3, end="event")
@example(step="radau", omega=2.0, level=0.3, end="event")
@example(step="dop853", omega=1.0, level=0.3, end="blowup")
@given(
    step=st.sampled_from(["dop853", "radau"]),
    omega=st.floats(0.5, 4.0),
    level=st.floats(-0.9, 0.9),
    end=st.sampled_from(["t_end", "event", "blowup"]),
)
def test_property_sample_is_eval_at_its_times(step, omega, level, end):
    event = Event(lambda t, y: y[0] - level, -1) if end == "event" else None
    x0 = math.inf if end == "blowup" else 1.0
    if step == "radau":
        rhs, jac = _prothero_robinson(1e4, omega)
        traj = integrate(rhs, 0.0, [x0], 8.0, event=event, jac=jac)
    else:
        traj = integrate(_osc, 0.0, [x0, 0.0, omega, 0.0], 8.0, event=event)
    assert traj.termination == {"event": "event", "blowup": "blowup"}.get(end, "reached_end")
    times, states = traj.sample()
    assert times.shape == (ode._SAMPLES_PER_STEP * (len(traj.t) - 1) + 1,)
    assert np.all(np.diff(times) >= 0.0) and np.all(np.isin(traj.t, times))
    assert states.tobytes() == traj.eval(times).tobytes()


def test_sample_peaks_below_six_times_its_states():
    # a dense_q block per sample, (d, 7) against the sample's (d,), took 12x
    traj = integrate(_osc, 0.0, [1.0, 0.0, 1.0, 0.0], 300.0)
    assert 800 < len(traj.t) < 1000
    tracemalloc.start()
    try:
        _, states = traj.sample()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * states.nbytes


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


def test_event_sees_the_state_alone():
    # with n_state the event function gets the state's rows only: at the
    # start, at every step's probes and while the crossing is refined
    seen = []

    def fn(t, y):
        seen.append((np.ndim(t), y.shape))
        return y[0] - 0.3

    y0 = [1.0, 0.0, 1.0, 0.0] + [1e3] * 8
    traj = integrate(_osc_with_riders, 0.0, y0, 4.0, event=Event(fn, direction=-1), n_state=4)
    assert traj.termination == "event" and traj.y.shape[1] == 12
    start, calls = seen[0], seen[1:]
    probes = [shape for ndim, shape in calls if ndim == 1]
    refined = [shape for ndim, shape in calls if ndim == 0]
    assert start == (0, (4,))
    assert len(probes) == len(traj.t) - 1 and set(probes) == {(4, 4)}
    assert refined and set(refined) == {(4,)}


@pytest.mark.parametrize("n_state", [0, 9])
def test_n_state_outside_the_state_width_is_rejected(n_state):
    with pytest.raises(ValueError):
        integrate(_osc_with_riders, 0.0, [1.0, 0.0, 1.0, 0.0] + [0.0] * 4, 1.0, n_state=n_state)


# ------------------------------------------------------- the Radau IIA step


def _radau_iia(s):
    """Radau IIA with s stages from its collocation conditions, at 50
    digits, in the form ode keeps it: the nodes c, the zeros of
    d^(s-1)/dx^(s-1) [x^(s-1) (x - 1)^s]; a_ij, the integral of the Lagrange
    polynomial l_j from 0 to c_i; T, the real eigenvector of A^-1 and the
    real and imaginary parts of each complex one with positive imaginary
    part, every one scaled to end in 1; Lambda = T^-1 A^-1 T and its real
    eigenvalue mu; the error weights mu (b^ - b) A^-1, where b^ has order s
    on the nodes (0, c) with b^0 = 1/mu; and P, whose column j gives the
    coefficient of theta^(j+1) in the polynomial through (0, 0) and the
    stages (c_i, z_i)."""
    with mpmath.workdps(50):
        # x^(s-1) (x - 1)^s differentiated s - 1 times, highest power first
        coefs = [
            mpmath.binomial(s, k) * (-1) ** (s - k) * mpmath.factorial(k + s - 1) / mpmath.factorial(k)
            for k in range(s, -1, -1)
        ]
        c = sorted(mpmath.re(x) for x in mpmath.polyroots(coefs, maxsteps=200, extraprec=200))
        c[-1] = mpmath.mpf(1)
        V = mpmath.matrix([[x**k for k in range(s)] for x in c])
        W = mpmath.matrix([[x ** (k + 1) / (k + 1) for k in range(s)] for x in c])
        A = W * mpmath.inverse(V)
        A_inv = mpmath.inverse(A)
        eigs, vecs = mpmath.eig(A_inv)
        tiny = mpmath.mpf(10) ** -40
        (real,) = [i for i in range(s) if abs(mpmath.im(eigs[i])) < tiny]
        pairs = sorted((i for i in range(s) if mpmath.im(eigs[i]) > tiny), key=lambda i: mpmath.re(eigs[i]))
        columns = []
        for i in [real, *pairs]:
            v = [vecs[r, i] / vecs[s - 1, i] for r in range(s)]
            columns += [[mpmath.re(x) for x in v]] + ([[mpmath.im(x) for x in v]] if i != real else [])
        T = mpmath.matrix(columns).T
        T_inv = mpmath.inverse(T)
        mu = mpmath.re(eigs[real])
        lam = T_inv * A_inv * T
        conditions = mpmath.matrix([[x**k for x in c] for k in range(s)])
        moments = [mpmath.mpf(1) / (k + 1) - (1 / mu if k == 0 else 0) for k in range(s)]
        bhat = mpmath.lu_solve(conditions, mpmath.matrix(moments))
        E = mu * (bhat.T - A[s - 1, :]) * A_inv
        P = mpmath.inverse(mpmath.matrix([[x ** (k + 1) for k in range(s)] for x in c])).T
        as_float = lambda m: np.array(m.tolist(), dtype=float)
        return {"c": np.array(c, dtype=float), "A": as_float(A), "E": as_float(E)[0], "T": as_float(T),
                "TI": as_float(T_inv), "Lambda": as_float(lam), "mu": float(mu), "P": as_float(P)}


def _assert_close(got, want):
    # 1e-14 relative, entry by entry; an entry the derivation leaves at
    # rounding level (below 1e-40) must be 0
    assert got.shape == want.shape and np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + 1e-40)


def test_radau_derivation_gives_scipys_radau5_at_three_stages():
    # _radau_iia, checked on the 3-stage RADAU5 constants that scipy's
    # radau.py writes: its T as well, so the scaling of T is Hairer &
    # Wanner's
    from scipy.integrate._ivp import radau as ref

    got = _radau_iia(3)
    for name, want in (("c", ref.C), ("E", ref.E), ("P", ref.P), ("T", ref.T), ("TI", ref.TI)):
        _assert_close(got[name], want)
    _assert_close(np.array([got["mu"]]), np.array([ref.MU_REAL]))
    lam = got["Lambda"]
    block = np.array([[ref.MU_COMPLEX.real, -ref.MU_COMPLEX.imag], [ref.MU_COMPLEX.imag, ref.MU_COMPLEX.real]])
    _assert_close(lam, np.block([[np.array([[ref.MU_REAL]]), np.zeros((1, 2))], [np.zeros((2, 1)), block]]))


def test_radau_constants_are_the_five_stage_collocation_method():
    want = _radau_iia(5)
    for name, got in (("c", ode._RC), ("A", ode._RA), ("E", ode._RE), ("T", ode._RT), ("TI", ode._RTI),
                      ("Lambda", ode._LAMBDA), ("P", ode._RP)):
        _assert_close(got, want[name])
    _assert_close(np.array([ode._MU_REAL]), np.array([want["mu"]]))


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


def test_radau_dense_output_is_quintic_and_node_exact():
    rhs, jac = _prothero_robinson(1e4, omega=3.0)
    traj = integrate(rhs, 0.0, [1.0], 5.0, jac=jac)
    assert traj.dense_q.shape == (len(traj.t) - 1, 1, 5)
    assert traj.eval(traj.t).tobytes() == traj.y.tobytes()
    mid = 0.5 * (traj.t[:-1] + traj.t[1:])
    assert np.max(np.abs(traj.eval(mid)[:, 0] - np.cos(3.0 * mid))) < 1e-6


def test_blown_start_stores_its_step_dense_width():
    # a start the blow-up guard stops keeps no segment, in rows as wide as
    # its step's: 5 for Radau, like the empty trajectory of a NaN field
    rhs, jac = _prothero_robinson(1e4)
    nan_field = integrate(
        lambda t, y: np.array([math.nan]), 0.0, [1.0], 1.0, jac=lambda t, y: np.array([[math.nan]])
    )
    assert nan_field.dense_q.shape == (0, 1, 5)
    for start in (math.inf, math.nan):
        radau = integrate(rhs, 0.0, [start], 1.0, jac=jac)
        assert radau.termination == "blowup"
        assert radau.dense_q.shape == (0, 1, 5)
        assert integrate(rhs, 0.0, [start], 1.0).dense_q.shape == (0, 1, 7)


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


def _prothero_robinson_with_riders(lam, omega=1.0):
    """Prothero-Robinson with its tangent columns behind the state: each
    rider v has v' = -lam v, the state's Jacobian times v."""
    rhs, jac = _prothero_robinson(lam, omega)
    return lambda t, y: np.concatenate((rhs(t, y[:1]), -lam * y[1:])), jac


def test_radau_takes_riders_in_whole_columns():
    # riders on the Radau step, columns of n_state entries each, follow
    # their variational equation; a width that is not whole columns is refused
    rhs, jac = _prothero_robinson_with_riders(10.0)
    traj = integrate(rhs, 0.0, [1.0, 1.0, -2.0], 1.0, n_state=1, jac=jac)
    assert traj.termination == "reached_end"
    assert traj.dense_q.shape[1:] == (3, 5)
    decay = np.exp(-10.0 * traj.t)
    assert np.max(np.abs(traj.y[:, 1:] - np.column_stack((decay, -2.0 * decay)))) <= 1e-8
    with pytest.raises(ValueError, match="columns"):
        integrate(rhs, 0.0, [1.0, 1.0, -2.0], 1.0, n_state=2, jac=lambda t, y: np.eye(2))


def test_radau_route_calls_rhs_on_the_state_rows_alone():
    # every rhs call on the Radau route, the start's two included, sees the
    # state's rows alone; the riders' stage Jacobians are jac's, five calls
    # an accepted step
    widths, jac_calls = [], []

    def recorded(rhs):
        return lambda t, y: widths.append(np.shape(y)) or rhs(t, y)

    rhs, jac = _prothero_robinson_with_riders(10.0)
    counted = lambda t, y: jac_calls.append(t) or jac(t, y)
    plain = integrate(rhs, 0.0, [1.0], 1.0, jac=counted)
    n_plain = len(jac_calls)
    traj = integrate(recorded(rhs), 0.0, [1.0, 1.0, -2.0], 1.0, n_state=1, jac=counted)
    assert len(widths) == traj.n_rhs_evals == plain.n_rhs_evals and set(widths) == {(1,)}
    # the state's Jacobian refreshes are the plain shot's
    assert len(jac_calls) - n_plain == n_plain + 5 * (len(traj.t) - 1)
    widths.clear()
    cfg = shooting.ShootConfig()
    t0, y0 = shooting._launch("s1", (300.0,), cfg, tangent=True)
    with patch.object(shooting, "integrate", lambda rhs, *a: integrate(recorded(rhs), *a)):
        traj = shooting._shoot(y0, t0, "s1", "meet", cfg, 1.0, 1, stiff=True)
    assert traj.y.shape[1] == 8
    assert len(widths) == traj.n_rhs_evals and set(widths) == {(4,)}


def test_radau_riders_that_turn_non_finite_end_the_shot_as_a_blowup():
    # riders whose Jacobian turns NaN from t = 0.5 on turn NaN on the step
    # that reaches it; its dense output is not finite, so the loop ends the
    # shot on the node before that step, the plain shot's node bitwise
    lam = 1e2
    rhs, jac = _prothero_robinson(lam)
    bad = lambda t, y: jac(t, y) if t < 0.5 else np.array([[math.nan]])
    traj = integrate(rhs, 0.0, [1.0, 1.0], 1.0, n_state=1, jac=bad)
    plain = integrate(rhs, 0.0, [1.0], 1.0, jac=jac)
    n = len(traj.t)
    assert traj.termination == "blowup"
    assert np.isfinite(traj.y).all() and np.isfinite(traj.dense_q).all()
    assert traj.t.tobytes() == plain.t[:n].tobytes()
    assert traj.y[:, :1].tobytes() == plain.y[:n].tobytes()
    assert traj.t[-1] < 0.5 <= plain.t[n]


@settings(max_examples=10, deadline=None)
@given(
    lam=st.floats(1.0, 1e6),
    omega=st.floats(0.5, 4.0),
    riders=st.integers(1, 3),
    level=st.floats(-1.5, 0.9),
    t_end=st.floats(0.5, 4.0),
)
def test_property_radau_tangent_riders_leave_the_state_bitwise(lam, omega, riders, level, t_end):
    rhs, jac = _prothero_robinson(lam, omega)
    event = Event(lambda t, y: y[0] - level, direction=-1)
    plain = integrate(rhs, 0.0, [1.0], t_end, event=event, jac=jac)
    aug_rhs, _ = _prothero_robinson_with_riders(lam, omega)
    aug = integrate(aug_rhs, 0.0, [1.0] + [1.0] * riders, t_end, event=event, n_state=1, jac=jac)
    assert aug.y.shape[1] == 1 + riders
    assert aug.t.tobytes() == plain.t.tobytes()
    assert aug.y[:, :1].tobytes() == plain.y.tobytes()
    assert aug.dense_q[:, :1].tobytes() == plain.dense_q.tobytes()
    assert aug.dense_h.tobytes() == plain.dense_h.tobytes()
    assert (aug.termination, aug.n_rejected) == (plain.termination, plain.n_rejected)
    assert aug.dense_q.shape[2] == 5  # the riders' rows are quintic too


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


# The step's one-state forms (Python floats) against the lane-block forms
# that integrate_batch runs, on row 0 of a one-lane block: bitwise, with
# every NaN one value.  Each asserts the Python type only the one-state
# form returns, so it checks that form and not the block's twice.


def _bits(x):
    return "nan" if math.isnan(x) else float(x).hex()


_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e300]
# any float, moderate ones, and the special values, so that a state sits on
# either side of atol / rtol and errors overflow their scale
_ENTRY = st.one_of(st.floats(), st.floats(-10.0, 10.0), st.sampled_from(_SPECIAL))


def _rows(n_rows, entry=_ENTRY, widths=st.integers(1, 20)):
    """n_rows lists of one width; past 8 entries the sum takes numpy's
    blocked form."""
    return widths.flatmap(lambda d: st.lists(st.lists(entry, min_size=d, max_size=d), min_size=n_rows, max_size=n_rows))


@settings(max_examples=400, deadline=None)
@example(rows=[[0.0] * 4] * 4, rtol=1e-10, atol=1e-12, with_err3=True)  # both estimates 0
@example(rows=[[1e-20] * 4, [3e-21] * 4, [1e-20] * 4, [-4e-21] * 4], rtol=1e-10, atol=1e-12, with_err3=True)  # atol rules the scale
@example(rows=[[1e-3] * 4, [1e5] * 4, [-2e5] * 4, [2e-3] * 4], rtol=1e-10, atol=1e-12, with_err3=False)  # rtol does
@example(rows=[[1.0, math.nan, 0.0, 2.0], [1.0] * 4, [1.0] * 4, [1.0] * 4], rtol=1e-3, atol=1e-6, with_err3=True)
@example(rows=[[1.0] * 4, [1.0, 2.0, math.nan, 0.0], [math.inf, 1.0, 1.0, 1.0], [1.0] * 4], rtol=1e-3, atol=1e-6, with_err3=False)
@example(rows=[[1.0] * 4, [1.0] * 4, [1.0] * 4, [-math.inf, math.inf, 0.0, 1.0]], rtol=1e-3, atol=1e-6, with_err3=True)
@given(
    rows=_rows(4),
    rtol=st.floats(100 * np.finfo(float).eps, 0.99),
    atol=st.floats(1e-300, 0.99),
    with_err3=st.booleans(),
)
def test_property_one_state_error_norm_is_the_lane_blocks_bitwise(rows, rtol, atol, with_err3):
    err, y, y_new, err3 = (np.array(r) for r in rows)
    cfg = IntegratorConfig(rtol=rtol, atol=atol)
    one = ode._error_norm(err, y, y_new, cfg, err3 if with_err3 else None)
    assert type(one) is float
    block = ode._error_norm(err[None], y[None], y_new[None], cfg, err3[None] if with_err3 else None)
    assert _bits(one) == _bits(block[0])


@settings(max_examples=300, deadline=None)
# in order, 1.0 absorbs each small term; summed first, they would show
@example(terms=[1.0] + [1e-16] * 6)
# in order, the sum overflows before the last term could bring it back
@example(terms=[1e308, 1e308, -1e308])
# the reduction's identity +0.0 turns a sum of -0.0 into +0.0
@example(terms=[-0.0, -0.0])
@example(terms=[-0.0])
@example(terms=[math.inf, 1.0, -math.inf])
@given(
    terms=st.one_of(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300),  # the order shows in the last bits
        st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL)), min_size=1, max_size=300),
    )
)
def test_property_pairwise_sum_is_numpys_add_reduce(terms):
    # below 8 terms numpy sums in order from -0.0, as the emulation does;
    # longer lists go to np.add.reduce itself
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.add.reduce(np.array(terms))
    assert _bits(ode._pairwise_sum(terms)) == _bits(want)


_GUARD = ode._BLOWUP_NORM
_NEAR_GUARD = [_GUARD, -_GUARD, math.nextafter(_GUARD, 0.0), math.nextafter(_GUARD, math.inf),
               -math.nextafter(_GUARD, 0.0), math.nan, math.inf, -math.inf]


@settings(max_examples=300, deadline=None)
@example(y=[math.nextafter(_GUARD, 0.0)] * 3)
@example(y=[1.0, _GUARD, 1.0])
@example(y=[1.0, math.nextafter(_GUARD, math.inf)])
@example(y=[0.0, math.nan])
@example(y=[-math.inf])
@given(y=st.lists(st.one_of(st.sampled_from(_NEAR_GUARD), st.floats(-2e12, 2e12)), min_size=1, max_size=12))
def test_property_one_state_blowup_guard_is_the_lane_blocks(y):
    one = ode._blown_up(np.array(y))
    assert type(one) is bool
    assert one == bool(ode._blown_up(np.array([y]))[0])


@settings(max_examples=300, deadline=None)
@example(walk=[1.0, 0.0, -1.0, math.nan, 2.0], direction=-1)  # a crossing onto zero
@example(walk=[0.0, 1.0, 0.0, -1.0, 0.0], direction=0)  # left ends on zero do not count
@example(walk=[-1e-300, 1e-300, math.nan, -1.0, 1.0], direction=1)  # the product would underflow
@given(
    walk=st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, -1.0])), min_size=5, max_size=5),
    direction=st.sampled_from([-1, 0, 1]),
)
def test_property_one_state_crossing_index_is_the_lane_blocks(walk, direction):
    one = ode._crossing_index(walk, direction)
    assert type(one) is int
    assert one == int(ode._crossing_index(np.array([walk]), direction)[0])


def _probe_case(width):
    """Dense rows of ``width`` coefficients and (y, y_new) pairs, one per component."""
    return st.integers(1, 12).flatmap(lambda d: st.tuples(
        st.lists(st.lists(_ENTRY, min_size=width, max_size=width), min_size=d, max_size=d),
        st.lists(st.lists(_ENTRY, min_size=2, max_size=2), min_size=d, max_size=d),
    ))


@settings(max_examples=300, deadline=None)
@example(case=([[1.0, 2.0, 3.0, 0.0], [0.5, -0.25, 1e-3, 0.0]], [[1.0, 2.0], [1.5, 2.5]]), t=0.3, h=0.01)
@example(case=([[math.inf] + [1.0] * 6, [0.0] * 7], [[1.0, 2.0], [math.nan, 2.5]]), t=5.0, h=1e-6)
@given(
    case=st.sampled_from([7, 4]).flatmap(_probe_case),  # a DOP853 row, a Radau row
    t=st.floats(-1e6, 1e6),
    h=st.floats(1e-12, 1e3),
)
def test_property_one_state_probe_is_interp_bitwise(case, t, h):
    # the probe on Python floats against _interp at its times, the last
    # probe y_new, and one direct call of fn there
    rows, state = case
    q = np.array(rows)
    y, y_new = np.array(state).T
    calls = []

    def fn(tt, yy):
        calls.append((np.array(tt), np.array(yy)))
        return yy[0] * 2.0 + tt

    probe_t, g = ode._probe(fn, t, y, y_new, q, h)
    assert type(probe_t) is list
    (t_one, y_one), = calls
    want_t = t + ode._PROBE_FRACS * h
    with np.errstate(all="ignore"):
        want_y = ode._interp(y, q, h, want_t - t).T
        want_y[:, -1] = y_new  # the last probe is t + h
        want_g = fn(want_t, want_y)
    assert [_bits(v) for v in probe_t] == [_bits(v) for v in want_t]
    assert [_bits(v) for v in t_one] == [_bits(v) for v in want_t]
    assert y_one.shape == want_y.shape == (len(rows), 4)
    assert [_bits(v) for v in y_one.ravel()] == [_bits(v) for v in want_y.ravel()]
    assert [_bits(v) for v in g] == [_bits(v) for v in want_g]


@settings(max_examples=300, deadline=None)
@example(case=([[1.0, 2.0, 3.0, 0.0, 0.5, -1.0, 2.0]], [[1.0, 2.0]]), t0=0.3, h=0.01, frac=0.5)
@example(case=([[math.inf] + [1.0] * 4, [0.0] * 5], [[1.0, 2.0], [math.nan, 2.5]]), t0=5.0, h=1e-6, frac=0.25)
@given(
    case=st.sampled_from([7, 5]).flatmap(_probe_case),  # a DOP853 row, a Radau row
    t0=st.floats(-1e6, 1e6),
    h=st.floats(1e-12, 1e3),
    frac=st.floats(0.0, 1.0),
)
def test_property_one_state_segment_at_a_scalar_time_is_interp_bitwise(case, t0, h, frac):
    # brentq's evaluations of a step's dense output, on Python floats
    rows, state = case
    q, y0 = np.array(rows), np.array(state)[:, 0]
    t = t0 + frac * h
    with np.errstate(all="ignore"):
        want = ode._interp(y0, q, h, t - t0)
        got = ode._segment(t0, y0, q, h)(t)
        at_array = ode._segment(t0, y0, q, h)(np.array([t, t]))
    assert type(got) is np.ndarray and got.shape == want.shape == (len(rows),)
    assert [_bits(v) for v in got] == [_bits(v) for v in want]
    assert [_bits(v) for v in at_array.ravel()] == [_bits(v) for v in np.concatenate((want, want))]
