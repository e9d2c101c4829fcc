"""Adaptive Runge-Kutta integration with dense output and event location.

The integrator is self-contained: the stepping loop, the blow-up guard, the
termination bookkeeping and the dense interpolant all live here, so that a
trajectory is a plain, reproducible value object, bit-identical on a rerun.
Every ODE of the package steps through it, ``bryant``'s trace included.

Conventions
-----------
* integration runs forward only (t_end > t0); the singular-orbit problems in
  this package are all posed in a variable that increases away from the orbit.
* the right-hand side has signature ``rhs(t, y) -> ndarray`` and is assumed
  smooth on the trajectory's domain.
* dense evaluation at a stored node returns the stored sample exactly.

Termination reasons: ``"reached_end"``, ``"event"``, ``"blowup"``,
``"step_underflow"`` and (as a safety valve) ``"max_steps"``.

Events: an integration takes at most one :class:`Event`, and its first
matching crossing ends the integration.  The trajectory then ends on the
refined crossing, so ``(t[-1], y[-1])`` is the hit.  :func:`locate_event`
finds the first crossing time on a stored trajectory after the fact.

Two step methods share :func:`integrate`'s one loop, and with it the event
probes and refinement, the blow-up guard, the terminations and the
:class:`Trajectory`:

* Dormand-Prince 5(4), explicit, with a quartic dense interpolant;
* Radau IIA of order 5, implicit and L-stable, taken when the caller passes
  the Jacobian of the field.  Its constants are those of Hairer & Wanner's
  RADAU5 code (*Solving Ordinary Differential Equations II*, 2nd ed.,
  section IV.8), as scipy's ``scipy/integrate/_ivp/radau.py`` writes them,
  and its step-size and Newton controller is that file's.  Its dense output
  is the cubic collocation polynomial, stored as a quartic with q3 = 0.
  The stiff circle-side shots and ``bryant``'s trace take it.

There is one DP5 step, :func:`_dp5`, and one event probe, :func:`_probe`,
each over one state or a lockstep block of states: :func:`integrate`'s
loop calls them on its lane, :func:`integrate_batch` on its block of
lanes.  Every lane of a batch ends in that loop, which resumes from the
lane's state (and the try just made from it), so one loop decides why
every trajectory stops, refines every crossing, counts the rhs calls and
builds every :class:`Trajectory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "IntegratorConfig",
    "Event",
    "Trajectory",
    "integrate",
    "integrate_batch",
    "LaneEnd",
    "locate_event",
]

# Dormand & Prince (1980) 5(4) pair.  C/A/B are the classical tableau; E is
# the difference between the 5th- and 4th-order weights; P gives the quartic
# dense-output interpolant (Shampine's coefficients, as in MATLAB's ode45).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

# Gauss-Legendre 3-point rule on [0, 1]; exact for polynomials of degree <= 5,
# hence exact on the quartic dense interpolant.
_GL3_NODES = np.array([0.5 - math.sqrt(15) / 10, 0.5, 0.5 + math.sqrt(15) / 10])
_GL3_WEIGHTS = np.array([5 / 18, 8 / 18, 5 / 18])

# dense points probed for event sign changes on every step, so tight double
# crossings inside one step are still seen; t + 1.0 * h is exactly t + h,
# and h >= 10 eps max(|t|, 1) keeps the other probes short of it
_PROBE_FRACS = np.array([0.25, 0.5, 0.75, 1.0])
# the same on a stored segment, where locate_event probes 8 points
_LOCATE_FRACS = np.linspace(0.0, 1.0, 9)[1:]

# brentq accuracy of every refined crossing: |t - root| <= _XTOL + _RTOL |t|
_XTOL = 1e-15
_RTOL = 8.9e-16

ORDER = 5  # propagating order of the pair
_MAX_STEPS = 500_000  # step tries before "max_steps", a safety valve
_BLOWUP_NORM = 1e12  # the blow-up guard trips at max|y| >= this

# Radau IIA of order 5, 3 stages (Hairer & Wanner, *Solving ODEs II*, IV.8):
# the constants of their RADAU5 code as scipy's ``radau.py`` writes them.
# _RC are the nodes, _RE the embedded third-order error weights, _RT/_RTI
# the transform that splits the collocation system into one real and one
# complex d x d system with the eigenvalues _MU_REAL, _MU_COMPLEX of A^-1,
# and _RP the cubic collocation polynomial through the stages.
_S6 = math.sqrt(6)
_RC = np.array([(4 - _S6) / 10, (4 + _S6) / 10, 1.0])
_RE = np.array([-13 - 7 * _S6, -13 + 7 * _S6, -1.0]) / 3
_MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_MU_COMPLEX = 3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3)) - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6))
_RT = np.array([
    [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
    [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
    [1.0, 1.0, 0.0],
])
_RTI = np.array([
    [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
    [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
    [0.50287263494578682, -2.57192694985560522, 0.59603920482822492],
])
# MU_REAL and MU_COMPLEX = a + ib as the real 3 x 3 block of the transformed
# Newton system: w0 goes with MU_REAL, (w1, w2) with a + ib in real form
_LAMBDA = np.array([
    [_MU_REAL, 0.0, 0.0],
    [0.0, _MU_COMPLEX.real, -_MU_COMPLEX.imag],
    [0.0, _MU_COMPLEX.imag, _MU_COMPLEX.real],
])
_RP = np.array([
    [13 / 3 + 7 * _S6 / 3, -23 / 3 - 22 * _S6 / 3, 10 / 3 + 5 * _S6],
    [13 / 3 - 7 * _S6 / 3, -23 / 3 + 22 * _S6 / 3, 10 / 3 - 5 * _S6],
    [1 / 3, -8 / 3, 10 / 3],
])
_POWERS = np.array([1, 2, 3])  # of theta in that polynomial
_RADAU_ORDER = 4  # local order of the embedded estimate: factors go as err^(-1/4)
_NEWTON_MAXITER = 6


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances for :func:`integrate`; every step is adaptive.

    ``rtol`` and ``atol`` lie below 1, where the error norm still measures
    an error: at rtol = 1e300 a shot steps past its whole domain and its
    error scale overflows.  ``rtol`` is at least 100 eps, scipy's floor;
    below it the Radau Newton tolerance 10 eps / rtol exceeds 0.1.
    """

    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:  # NaN fails too
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
        if self.rtol < 100 * np.finfo(float).eps:
            raise ValueError(f"rtol must be at least 100 eps = 2.22e-14, got {self.rtol!r}")


@dataclass(frozen=True)
class Event:
    """Event function g(t, y) whose first matching root ends the integration.

    ``fn`` is called on arrays: ``t`` of shape (m,) and ``y`` of shape
    (d, m), so ``y[k]`` is component k at every t; it returns the m values.
    At a single point (the start of :func:`integrate`, and each iteration
    while a crossing is refined) it gets a scalar t and y of shape (d,).

    direction: +1 only rising crossings, -1 only falling, 0 both.
    """

    fn: Callable[[float, np.ndarray], float]
    direction: int = 0
    name: str = ""


@dataclass
class Trajectory:
    """Accepted samples plus the per-step dense interpolant.

    ``t``/``y`` are the accepted nodes (shape (n,), (n, d)).  Segment i covers
    [t[i], t[i+1]] and carries coefficients ``dense_q[i]`` (d, 4) built over
    the original step ``dense_h[i]``; the two differ only on a final segment
    truncated by the event.  When ``termination`` is ``"event"`` the last
    node ``(t[-1], y[-1])`` is the refined crossing.
    """

    t: np.ndarray
    y: np.ndarray
    dense_q: np.ndarray
    dense_h: np.ndarray
    termination: str
    n_rhs_evals: int = 0
    n_rejected: int = 0

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def _locate(self, t):
        """Flattened query times, the index of the first node at or after
        each, and the mask of exact node hits; ValueError outside the domain."""
        flat = np.asarray(t, dtype=float).ravel()
        inside = (self.t[0] <= flat) & (flat <= self.t[-1])
        if not np.all(inside):
            raise ValueError(
                f"t={flat[~inside][0]!r} outside trajectory domain "
                f"[{self.t[0]!r}, {self.t[-1]!r}]"
            )
        j = np.searchsorted(self.t, flat)
        return flat, j, self.t[j] == flat

    def eval(self, t):
        """Dense evaluation at scalar t (shape (d,)) or array t (shape (m, d)).

        Every t must lie inside the domain.  Exact node times return the
        stored samples bitwise.
        """
        flat, j, node = self._locate(t)
        out = self.y[j]
        i = j[~node] - 1  # off-node times lie strictly inside segment j - 1
        out[~node] = _interp(self.y[i], self.dense_q[i], self.dense_h[i], flat[~node] - self.t[i])
        return out[0] if np.ndim(t) == 0 else out

    def antiderivative(self, g: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        """Cumulative integral of g(t, y(t)) along the trajectory.

        ``g`` is called on arrays: ``t`` of shape (m,) and ``y`` of shape
        (d, m), so ``y[k]`` is component k at every point; it returns the m
        values.  Gauss-Legendre 3 per segment integrates the dense
        interpolant exactly.  Returns (node_values, eval_fn): node_values[i]
        is the integral from t[0] to t[i], and eval_fn gives it at scalar or
        array t inside the domain (node times return node_values bitwise).
        """

        def partial(i, b):
            # integral over [t[i], b[k]] inside segment i[k], for each k
            a = self.t[i]
            ts = a[:, None] + (b - a)[:, None] * _GL3_NODES
            ys = _interp(self.y[i, None], self.dense_q[i, None], self.dense_h[i, None], ts - a[:, None])
            vals = np.asarray(g(ts.ravel(), ys.reshape(-1, ys.shape[-1]).T)).reshape(ts.shape)
            # np.vecdot runs np.dot's kernel row by row, so a segment's value does
            # not depend on how many segments are summed together
            return (b - a) * np.vecdot(vals, _GL3_WEIGHTS)

        node_vals = np.concatenate(([0.0], np.cumsum(partial(np.arange(len(self.t) - 1), self.t[1:]))))

        def eval_fn(t):
            flat, j, node = self._locate(t)
            out = node_vals[j]
            i = j[~node] - 1
            out[~node] = node_vals[i] + partial(i, flat[~node])
            return out[0] if np.ndim(t) == 0 else out

        return node_vals, eval_fn


def _interp(y0, q, h, dt):
    """Quartic dense output y0 + h * (q0 th + q1 th^2 + q2 th^3 + q3 th^4) at
    th = dt / h, in Horner form.

    One segment (y0 (d,), q (d, 4), scalar h) at scalar or (m,) dt, or any
    broadcast stack of segments (y0 (..., d), q (..., d, 4), h (...)) with dt
    of the stack's shape; the result has dt's shape plus a trailing d.
    """
    theta = np.asarray(dt / h)
    th = theta[..., None]
    acc = q[..., 3]
    for j in (2, 1, 0):
        acc = acc * th + q[..., j]
    return y0 + (h * theta)[..., None] * acc


def _hairer_initial_step(rhs, t0, y0, f0, rtol, atol, span, n_state=None, order=ORDER):
    """Standard starting-step heuristic (Hairer, Norsett & Wanner II.4),
    read on the first ``n_state`` components (default all), for a method
    whose error estimate has local order ``order``."""
    state = y0[:n_state]
    scale = atol + rtol * np.abs(state)
    d0 = _rms(state / scale)
    d1 = _rms(f0[:n_state] / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = _rms((f1 - f0)[:n_state] / scale) / h0
    dmax = max(d1, d2)
    h1 = (0.01 / dmax) ** (1 / order) if dmax > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, span)


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v))))


def _segment(t0, y0, q, h):
    """Dense output of one step from (t0, y0) at scalar or array times."""
    return lambda tt: _interp(y0, q, h, tt - t0)


def _refine_crossing(seg_eval, gfn, walk_t, walk_g, p):
    """Root of g in [walk_t[p], walk_t[p + 1]], where g crosses from
    walk_g[p] (never 0) to walk_g[p + 1]; brentq on the dense output."""
    ta, tb = float(walk_t[p]), float(walk_t[p + 1])
    if walk_g[p + 1] == 0.0:
        return tb
    return float(brentq(lambda t: gfn(t, seg_eval(t)), ta, tb, xtol=_XTOL, rtol=_RTOL, maxiter=200))


def _crossing(ga, gb, direction):
    """Whether g crosses zero from ga to gb in ``direction``; floats or arrays.

    A crossing leaves zero strictly and ends on or past it, so a left end
    already on zero is not a new one.  Only signs are compared: the product
    ga * gb underflows to 0 for |g| below about 1e-162.  NaN never matches.
    """
    rising = (ga < 0.0) & (gb >= 0.0)
    falling = (ga > 0.0) & (gb <= 0.0)
    return rising if direction > 0 else falling if direction < 0 else rising | falling


def _crossing_index(g, direction):
    """Per row of g values along a walk, the first p with a crossing from
    g[:, p] to g[:, p + 1], or -1 where the row has none."""
    match = _crossing(g[:, :-1], g[:, 1:], direction)
    return np.where(match.any(axis=1), match.argmax(axis=1), -1)


def _error_norm(err, y, y_new, cfg: IntegratorConfig):
    """RMS of the error estimate scaled by atol + rtol max(|y|, |y_new|)
    over the last axis (Hairer, Norsett & Wanner I, II.4); NaN or inf where
    the step overflowed."""
    scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # the mean as np.mean forms it: sum, then / d
        return np.sqrt(np.add.reduce(np.square(err / scale), axis=-1) / err.shape[-1])


def _step_factor(err_norm: float) -> float:
    """Next step size over this one: at most 10 after an accepted step
    (norm <= 1), 0.2 to 1 after a rejected one.  A Python float, as numpy's
    array power differs from ``float ** float`` in the last bit at times."""
    if err_norm <= 1.0:
        return min(10.0, 0.9 * max(err_norm, 1e-10) ** (-1 / ORDER))
    if not err_norm < math.inf:  # inf or NaN
        return 0.2
    return min(max(0.2, 0.9 * err_norm ** (-1 / ORDER)), 1.0)


def _blown_up(y):
    """max|y| >= _BLOWUP_NORM or a non-finite component, per state (last axis)."""
    # NaN propagates through max and fails the comparison, as does inf
    return ~(np.abs(y).max(axis=-1) < _BLOWUP_NORM)


class _Radau:
    """The Radau IIA(5) step of :func:`integrate`, with the controller of
    scipy's ``radau.py``: a simplified Newton iteration on the collocation
    system, started from the last step's polynomial, with its
    convergence-rate test; Jacobian reuse; Gustafsson's predictive step
    factor; and halving after a Newton failure.

    Newton works on the transformed stage increments W = _RTI Z, whose
    system splits into a real one, (MU_REAL/h - J) dw0 = g0, and a complex
    one, (MU_COMPLEX/h - J) (dw1 + i dw2) = g1 + i g2.  Both are kept in
    real form as one 3d x 3d matrix, Lambda/h (x) I - I (x) J, and its
    inverse, so each Newton iteration solves with one matrix-vector product
    (a 4 x 4 ``lu_solve`` costs 10x that).  The inverse is formed again
    when h or J changes.
    """

    def __init__(self, rhs, jac, cfg: IntegratorConfig, t, y):
        self.rhs, self.jac, self.cfg = rhs, jac, cfg
        self.d = y.size
        self.lam_i = np.kron(_LAMBDA, np.eye(self.d))  # Lambda (x) I
        self._take_jac(t, y)
        self.retry = False  # this step was rejected by its error once already
        self.h_old = self.err_old = None  # of the last accepted step
        self.last = None  # (stage increments, dense q (d, 3), h) of that step
        self.newton_tol = max(10 * np.finfo(float).eps / cfg.rtol, min(0.03, cfg.rtol**0.5))
        self.n_evals = 0

    def _take_jac(self, t, y):
        i_j = np.zeros((3, self.d, 3, self.d))  # I (x) J: J on the diagonal blocks
        i_j[[0, 1, 2], :, [0, 1, 2]] = np.asarray(self.jac(t, y), dtype=float)
        self.i_j = i_j.reshape(3 * self.d, 3 * self.d)
        self.fresh_jac = True  # J was taken at the current state
        self.inv = None  # (h, inverse of Lambda/h (x) I - I (x) J)

    def _inverse(self, h):
        if self.inv is None or self.inv[0] != h:
            try:
                self.inv = (h, np.linalg.inv(self.lam_i / h - self.i_j))
            except np.linalg.LinAlgError:  # singular: Newton fails and h shrinks
                self.inv = (h, np.full_like(self.i_j, np.nan))
        return self.inv[1]

    def _newton(self, t, y, h, z, scale):
        """(converged, iterations, stage increments Z (3, d), rate)."""
        inv = self._inverse(h)
        lam = _LAMBDA / h
        w = _RTI @ z
        F = np.empty_like(z)
        ts = t + h * _RC
        norm_old = rate = None
        for k in range(_NEWTON_MAXITER):
            stages = y + z
            for i in range(3):
                F[i] = self.rhs(ts[i], stages[i])
            self.n_evals += 3
            dw = (inv @ (_RTI @ F - lam @ w).ravel()).reshape(w.shape)
            scaled = (dw / scale).ravel()
            dw_norm = math.sqrt(scaled @ scaled / scaled.size)
            if not dw_norm < math.inf:  # a stage left the field's domain
                break
            if norm_old is not None:
                rate = dw_norm / norm_old
                if rate >= 1 or rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dw_norm > self.newton_tol:
                    break
            w = w + dw
            z = _RT @ w
            if dw_norm == 0 or rate is not None and rate / (1 - rate) * dw_norm < self.newton_tol:
                return True, k + 1, z, rate
            norm_old = dw_norm
        return False, k + 1, z, rate

    def _predict(self, h, err_norm):
        """Gustafsson's predictive factor (Hairer & Wanner IV.8), before
        the safety factor."""
        err_norm = max(err_norm, 1e-10)  # NaN stays NaN
        mult = 1.0 if self.err_old is None else h / self.h_old * (self.err_old / err_norm) ** (1 / _RADAU_ORDER)
        return min(1.0, mult) * err_norm ** (-1 / _RADAU_ORDER)

    def step(self, t, y, f, h):
        """One try at the step from (t, y), f = rhs(t, y), to t + h: the new
        state, its (d, 4) dense coefficients (q3 = 0) and rhs there, and the
        next step factor, when accepted; else None and the factor to retry
        with."""
        cfg = self.cfg
        if self.last is None:
            z0 = np.zeros((3, self.d))
        else:
            # the last step's polynomial continued to this step's nodes
            z_a, q_a, h_a = self.last
            x = 1.0 + (h / h_a) * _RC
            z0 = h_a * (x[:, None] ** _POWERS) @ q_a.T - z_a[-1]
        scale = cfg.atol + cfg.rtol * np.abs(y)
        while True:
            converged, n_iter, z, rate = self._newton(t, y, h, z0, scale)
            if converged or self.fresh_jac:
                break
            self._take_jac(t, y)
        if not converged:
            return None, 0.5

        y_new = y + z[-1]
        ze = (_RE @ z) / h
        inv_real = self.inv[1][:self.d, :self.d]
        err = inv_real @ (f + ze)
        err_norm = float(_error_norm(err, y, y_new, cfg))
        if self.retry and not err_norm <= 1.0:
            # after a rejection, RADAU5 estimates again from rhs at y + err,
            # which tames the estimate's overshoot on stiff components
            err = inv_real @ (self.rhs(t, y + err) + ze)
            self.n_evals += 1
            err_norm = float(_error_norm(err, y, y_new, cfg))
        safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
        if not err_norm <= 1.0:  # NaN rejects too
            self.retry = True
            return None, max(0.2, safety * self._predict(h, err_norm))

        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = min(10.0, safety * self._predict(h, err_norm))
        if not recompute_jac and factor < 1.2:
            factor = 1.0  # keep h, and with it the inverse
        f_new = self.rhs(t + h, y_new)
        self.n_evals += 1
        if recompute_jac:
            self._take_jac(t + h, y_new)
        else:
            self.fresh_jac = False
        # RADAU5's floor on the remembered error keeps a tiny one from
        # collapsing the next predicted factor
        self.h_old, self.err_old, self.retry = h, max(err_norm, 1e-2), False
        q = np.zeros((self.d, 4))
        q[:, :3] = (z.T @ _RP) / h
        self.last = (z, q[:, :3], h)
        return (y_new, q, f_new), factor


def _dp5(rhs, t, y, f, h, hc):
    """The DP5 stages from (t, y), f = rhs(t, y), over the step h: the new
    state, the error estimate, the (d, 4) dense coefficients and rhs at the
    new state; six calls of rhs.  Of one state y (d,) with hc = h, or of a
    lockstep block: the lanes' states end to end in y (n * d,), t and h (n,),
    hc each lane's h repeated d times, and an rhs on such blocks.  Each of
    its stage sums is one product over all lanes (see integrate_batch)."""
    K = np.empty((7, y.size))
    K[0] = f
    for s in range(1, 6):
        K[s] = rhs(t + _C[s] * h, y + hc * (_A[s] @ K[:s]))
    y_new = y + hc * (_B @ K[:6])
    K[6] = rhs(t + h, y_new)
    return y_new, hc * (_E @ K), K.T @ _P, K[6]


def _probe(fn, t, y, y_new, q, h):
    """The event probe times of a step from (t, y) to y_new over h with
    dense coefficients q, and the values of g = fn there from one call.  Of
    one state, or of a lockstep block with t, h, y, q each given a new axis
    1 (the probes'); the times then have shape (n, 4)."""
    probe_t = t + _PROBE_FRACS * h
    probe_y = _interp(y, q, h, probe_t - t)
    probe_y[..., -1, :] = y_new  # the last probe is t + h
    return probe_t, fn(probe_t.ravel(), probe_y.reshape(-1, y.shape[-1]).T)


def _dp5_step(rhs, t, y, f, h, cfg: IntegratorConfig, n_state=None):
    """One try at the DP5 step from (t, y), f = rhs(t, y), to t + h, in the
    form of :meth:`_Radau.step`: the new state, its (d, 4) dense
    coefficients and rhs there, and the next step factor, when accepted;
    else None and the factor to retry with."""
    y_new, err, q, f_new = _dp5(rhs, t, y, f, h, h)
    err_norm = float(_error_norm(err[:n_state], y[:n_state], y_new[:n_state], cfg))
    factor = _step_factor(err_norm)
    if not err_norm <= 1.0:
        return None, factor
    return (y_new, q, f_new), factor


def _blown_start(t0, y) -> Trajectory:
    """The trajectory of a start state that the blow-up guard stops at once."""
    return Trajectory(np.array([t0]), y[None], np.zeros((0, y.size, 4)), np.zeros(0), "blowup")


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0,
    t_end: float,
    config: Optional[IntegratorConfig] = None,
    event: Optional[Event] = None,
    n_state: Optional[int] = None,
    jac: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
) -> Trajectory:
    """Integrate y' = rhs(t, y) from t0 to t_end (forward only).

    Steps with Dormand-Prince 5(4), or, when the Jacobian ``jac(t, y)``
    (d, d) of rhs is given, with Radau IIA(5) (RADAU5's constants and
    scipy's controller, see the module docstring).  That implicit step is
    L-stable, so on a stiff problem its step size follows the solution and
    not the stiff eigenvalue; each step costs about 8 rhs calls against
    DP5's 6.  Both steps feed one loop: the same event probes and
    refinement, blow-up guard, terminations and :class:`Trajectory`.  A
    Radau segment stores its cubic collocation polynomial in ``dense_q``
    with q3 = 0.  ``n_rhs_evals`` counts every call of rhs, Newton's
    included; the calls of jac are not counted.

    Stops early at the first matching crossing of ``event`` (the trajectory
    then ends on the refined crossing, termination ``"event"``), on the
    blow-up guard (max|y| >= _BLOWUP_NORM or a non-finite component, checked
    on the initial state too), or on step-size underflow; the partial
    trajectory with its termination reason is returned in every case.

    With ``n_state`` set, only the first n_state components of y enter the
    step control (the error norm, the initial-step heuristic and the blow-up
    guard); the others ride along, as the tangent columns of a variational
    system do.  Their presence then leaves the steps, the event times and
    the first n_state components bitwise as they are without them, provided
    both widths are multiples of 4 (see :func:`integrate_batch`).  The
    Radau step does not take ``n_state``.
    """
    cfg = config or IntegratorConfig()
    y = np.array(y0, dtype=float)
    if y.ndim != 1:
        raise ValueError("y0 must be a 1-d state vector")
    if n_state is not None and not 0 < n_state <= y.size:
        raise ValueError(f"n_state {n_state!r} outside [1, {y.size}]")
    if jac is not None and n_state is not None:
        raise ValueError("the Radau step (jac given) does not take n_state")
    t0 = float(t0)
    t_end = float(t_end)
    if not t_end > t0:
        raise ValueError("integration is forward only: t_end must exceed t0")
    if _blown_up(y[:n_state]):  # stepping on would only spin through the step budget
        return _blown_start(t0, y)

    f = np.asarray(rhs(t0, y), dtype=float)
    radau = None if jac is None else _Radau(rhs, jac, cfg, t0, y)
    order = ORDER if radau is None else _RADAU_ORDER
    h = _hairer_initial_step(rhs, t0, y, f, cfg.rtol, cfg.atol, t_end - t0, n_state, order)
    g_prev = event.fn(t0, y) if event is not None else None
    return _steps(rhs, t_end, cfg, event, n_state, radau, t0, y, f, h, g_prev, 0, 0, 2)


def _steps(rhs, t_end, cfg, event, n_state, radau, t, y, f, h, g_prev, n_steps, n_rejected, n_evals, step=None):
    """:func:`integrate`'s loop, resumed at the node (t, y) with f = rhs(t, y),
    the step size h to try next, the event function g_prev there, and the
    tries, rejections and rhs calls so far; ``step``, a DP5 try already
    made from there with h, is taken as the first.  The trajectory on."""
    ts, ys, qs, hs = [t], [y.copy()], [], []
    termination = "reached_end"
    tiny = 10 * np.finfo(float).eps

    while t < t_end:
        n_steps += 1
        if n_steps > _MAX_STEPS:
            termination = "max_steps"
            break
        h = min(h, t_end - t)
        if h < tiny * max(abs(t), 1.0):
            termination = "step_underflow"
            break

        if radau is not None:
            accepted, factor = radau.step(t, y, f, h)
        else:
            accepted, factor = _dp5_step(rhs, t, y, f, h, cfg, n_state) if step is None else step
            step = None
            n_evals += 6
        if accepted is None:
            n_rejected += 1
            h *= factor
            continue
        y_new, q, f_new = accepted
        t_new = t + h
        state_new = y_new[:n_state]
        node_t, node_y = t_new, y_new
        if event is not None:
            probe_t, g = _probe(event.fn, t, y, y_new, q, h)
            # the last probe's g becomes the next g_prev
            walk_t = [t, *probe_t.tolist()]
            walk_g = [g_prev, *g.tolist()]
            g_prev = walk_g[-1]
            p = next((p for p in range(4) if _crossing(*walk_g[p:p + 2], event.direction)), None)
            if p is not None:
                termination = "event"
                seg_eval = _segment(t, y, q, h)
                node_t = _refine_crossing(seg_eval, event.fn, walk_t, walk_g, p)
                if node_t != t_new:
                    node_y = seg_eval(node_t)

        ts.append(node_t)
        ys.append(node_y)
        qs.append(q)
        hs.append(h)
        if termination == "event":
            break
        t, y, f = t_new, y_new, f_new
        h *= factor

        if _blown_up(state_new):
            termination = "blowup"
            break

    return Trajectory(
        t=np.array(ts),
        y=np.array(ys),
        dense_q=np.array(qs) if qs else np.zeros((0, y.size, 4)),
        dense_h=np.array(hs),
        termination=termination,
        n_rhs_evals=n_evals + (radau.n_evals if radau else 0),
        n_rejected=n_rejected,
    )


class LaneEnd(NamedTuple):
    """Where one lane of :func:`integrate_batch` stopped, without its history."""

    t: float
    y: np.ndarray
    termination: str


def integrate_batch(
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
    t0,
    y0,
    t_end: float,
    event: Event,
    config: Optional[IntegratorConfig] = None,
    history: bool = False,
) -> list:
    """Integrate many independent initial value problems in lockstep.

    Lane i starts at (t0[i], y0[i]) and runs to t_end or to the first
    crossing of ``event``, which all lanes share.  Each lane has its own
    step size and accept/reject decision.  ``rhs(t, y)`` takes t of shape
    (m,) and y of shape (m, d) and returns the m derivative rows; it also
    takes one lane as :func:`integrate` passes it, a float t and y of shape
    (d,).  The event's ``fn`` is called once per step on the probes of
    every lane, as :class:`Event` describes.

    The batch takes the DP5 step and event probe of :func:`integrate`'s
    loop on all lanes together, keeping only its per-lane accept and step
    factor, and every lane ends in that loop, which alone decides why it
    stops.  A lane leaves the batch for the loop before a step that the
    loop would not take (t_end, the step budget, a step underflow), after
    an accepted step that crosses the event or blows up (the loop takes
    that step as its first, so it is not made twice), or when it is the
    last lane left.  That last lane steps at a single shot's cost there (a
    lone delta1 = 300 circle-side lane: 1.02x, against 2.6x in the batch).

    Every lane repeats the arithmetic of :func:`integrate` bit for bit, so
    its result does not depend on the batch size or on the other lanes.
    That needs a state width d that is a multiple of 4: the stage sums and
    the dense coefficients of all lanes are each one BLAS product, and only
    then does each lane's block of d entries take the same kernel path as a
    single lane's.  Pad a narrower state with a constant component.

    Returns one entry per lane: its :class:`Trajectory` when ``history`` is
    set, else a :class:`LaneEnd` with the final node and the termination.
    """
    cfg = config or IntegratorConfig()
    t0 = np.array(t0, dtype=float)
    y0 = np.array(y0, dtype=float)
    if y0.ndim != 2 or t0.shape != y0.shape[:1]:
        raise ValueError("need t0 of shape (B,) and y0 of shape (B, d)")
    if y0.shape[1] % 4:
        raise ValueError(f"state width {y0.shape[1]} is not a multiple of 4")
    t_end = float(t_end)
    if not np.all(t_end > t0):
        raise ValueError("integration is forward only: t_end must exceed every t0")
    n_lanes, d = y0.shape
    tails = [None] * n_lanes  # per lane, its trajectory from integrate's loop
    n_rejected = np.zeros(n_lanes, dtype=int)
    # per step, the accepted steps by their left nodes: (lane ids, t, y, dense_q, dense_h)
    log = [(np.zeros(0, int), np.zeros(0), np.zeros((0, d)), np.zeros((0, d, 4)), np.zeros(0))]
    n_steps = 0  # steps tried by every lane still in the batch
    tiny = 10 * np.finfo(float).eps

    # the blow-up guard on the initial state, as in ``integrate``
    blown = _blown_up(y0)
    for i in np.flatnonzero(blown).tolist():
        tails[i] = _blown_start(t0[i], y0[i])
    lane = np.flatnonzero(~blown)
    t, y = t0[lane], y0[lane]
    f = rhs(t, y)
    h = np.array([
        _hairer_initial_step(rhs, t[i], y[i], f[i], cfg.rtol, cfg.atol, t_end - t[i])
        for i in range(lane.size)
    ])
    g_prev = event.fn(t, y.T)
    flat_rhs = lambda t, y: rhs(t, y.reshape(t.size, d)).ravel()  # on blocks laid end to end

    def hand_off(mask, step=None):
        # from the state before the step, with the step's accepted try if made
        nonlocal lane, t, y, f, h, g_prev
        for i in np.flatnonzero(mask).tolist():
            tried = None if step is None else ((step[0][i], step[1][i], step[2][i]), float(step[3][i]))
            tails[lane[i]] = _steps(
                rhs, t_end, cfg, event, None, None, float(t[i]), y[i], f[i], float(h[i]),
                float(g_prev[i]), n_steps, int(n_rejected[lane[i]]), 2 + 6 * n_steps, tried,
            )
        keep = ~mask
        lane, t, y, f, h, g_prev = lane[keep], t[keep], y[keep], f[keep], h[keep], g_prev[keep]

    while lane.size:
        h = np.minimum(h, t_end - t)
        # before a step that integrate's loop would not take, and the last
        # lane left, which steps as cheaply there as a single shot
        leave = ~(t < t_end) | (n_steps >= _MAX_STEPS) | (lane.size == 1)
        leave |= h < tiny * np.maximum(np.abs(t), 1.0)
        if leave.any():
            hand_off(leave)
            continue

        y_new, err, q, f_new = _dp5(flat_rhs, t, y.ravel(), f.ravel(), h, np.repeat(h, d))
        y_new, err, q, f_new = y_new.reshape(-1, d), err.reshape(-1, d), q.reshape(-1, d, 4), f_new.reshape(-1, d)
        err_norm = _error_norm(err, y, y_new, cfg)
        ok = err_norm <= 1.0
        n_rejected[lane[~ok]] += 1
        factor = np.array([_step_factor(e) for e in err_norm.tolist()])
        _, g = _probe(event.fn, t[:, None], y[:, None], y_new, q[:, None], h[:, None])
        g = g.reshape(-1, 4)
        walk_g = np.column_stack((g_prev, g))
        end = ok & (_crossing(walk_g[:, :-1], walk_g[:, 1:], event.direction).any(axis=1) | _blown_up(y_new))
        go = ok & ~end
        if history:
            log.append((lane[go], t[go], y[go], q[go], h[go]))
        t = np.where(go, t + h, t)
        y = np.where(go[:, None], y_new, y)
        f = np.where(go[:, None], f_new, f)
        g_prev = np.where(go, g[:, -1], g_prev)
        h = np.where(end, h, h * factor)
        hand_off(end, (y_new, q, f_new, factor))
        n_steps += 1

    if not history:
        return [LaneEnd(tail.t_end, tail.y[-1], tail.termination) for tail in tails]
    return _assemble(tails, log)


def _assemble(tails, log) -> list:
    """Per lane, the steps it took in the batch, logged by their left
    nodes, followed by its tail from integrate's loop."""
    ids, *logged = (np.concatenate(parts) for parts in zip(*log))
    order = np.argsort(ids, kind="stable")
    bounds = np.searchsorted(ids[order], np.arange(len(tails) + 1))
    names = ("t", "y", "dense_q", "dense_h")
    return [
        replace(tail, **{k: np.concatenate((v[order[a:b]], getattr(tail, k))) for k, v in zip(names, logged)})
        for tail, a, b in zip(tails, bounds[:-1], bounds[1:])
    ]


def locate_event(
    traj: Trajectory,
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    direction: int = 0,
) -> Optional[float]:
    """Time of the first crossing of g(t, y(t)) = 0 on a stored trajectory.

    ``fn`` is called as :class:`Event` describes: once on the probes of
    every segment (t of shape (m,), y of shape (d, m)), then at scalar t
    while the first crossing is refined.  Each segment is probed at 8
    dense points, so crossings that reverse within one step are still
    caught.  Returns the time of the first crossing in ``direction``, or
    None; ``traj.eval`` gives the state there.

    A trajectory stopped by an event ends at the refined root, where g
    may still sit on the near side of zero by a rounding error.  So when
    its last segment shows no crossing, the search goes on along that
    step's interpolant to the step's original end, and a crossing that
    refines onto t[-1] within the refinement accuracy is reported at t[-1].
    """
    n_seg = len(traj.t) - 1
    if n_seg == 0:
        return None
    # one walk per segment from its left node (t_a, y_a) to t_b; past an
    # event one more walks the last step on from t[-1] to its original end
    seg, t_a, t_b, y_a = np.arange(n_seg), traj.t[:-1], traj.t[1:], traj.y[:-1]
    extended = traj.termination == "event"
    if extended:
        seg = np.append(seg, n_seg - 1)
        t_a = np.append(t_a, traj.t[-1])
        t_b = np.append(t_b, traj.t[-2] + traj.dense_h[-1])
        y_a = traj.y  # y[:-1], then y[-1] for the walk past the cut
    probe_t = np.minimum(t_a[:, None] + _LOCATE_FRACS * (t_b - t_a)[:, None], t_b[:, None])
    y0, q, h = traj.y[seg, None], traj.dense_q[seg, None], traj.dense_h[seg, None]
    probe_y = _interp(y0, q, h, probe_t - traj.t[seg, None])
    # a probe on a segment's right node reads the stored node
    on_node = probe_t[:n_seg] == traj.t[1:, None]
    probe_y[:n_seg] = np.where(on_node[..., None], traj.y[1:, None], probe_y[:n_seg])
    walk_t = np.column_stack((t_a, probe_t))
    walk_y = np.concatenate((y_a[:, None], probe_y), axis=1)
    g = fn(walk_t.ravel(), walk_y.reshape(-1, traj.y.shape[1]).T)
    walk_g = np.asarray(g).reshape(walk_t.shape)
    first = _crossing_index(walk_g, direction)

    def refine(r):
        i = seg[r]
        seg_eval = _segment(float(traj.t[i]), traj.y[i], traj.dense_q[i], traj.dense_h[i])
        return _refine_crossing(seg_eval, fn, walk_t[r], walk_g[r], first[r])

    rows = np.flatnonzero(first[:n_seg] >= 0)
    if rows.size:
        return refine(rows[0])
    t_end = float(traj.t[-1])
    if extended and first[-1] >= 0 and refine(n_seg) - t_end <= _XTOL + _RTOL * abs(t_end):
        return t_end
    return None
