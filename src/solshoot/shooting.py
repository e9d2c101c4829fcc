"""Two-sided shooting for the reduced soliton system.

A candidate soliton is assembled from two initial value problems, one started
just off each singular orbit by a short odd-parity series:

* the circle-orbit side is a one-parameter family (``delta1``), integrated
  forward in arc length t;
* the sphere-orbit side is a two-parameter family (``delta2``, ``delta3``),
  integrated in the distance s from the orbit, which runs backwards in t, so
  the field is negated.

Both trajectories are stopped at the unique xi = 0 crossing and compared
there.  The componentwise difference of the two crossing states (L1, L2, R)
is the mismatch map; its zeroes are the solitons.  The module also provides
the damped-Newton root finder and the coarse domain scan used to look for
zeroes away from the known round solution.

Newton takes the mismatch's Jacobian from the variational equations: each
shot carries the derivatives of its state by its parameters (one tangent
column on the circle side, two on the sphere side) next to the state,
started from the derivatives of the series launch state.  The tangent
columns stay out of the step control and the stop event, so the state part
of such a shot is bitwise the plain shot's, on the explicit DOP853 step and
on the Radau step alike (see "Stiff regime" below).

The sweeps (``sample_curve``, ``sample_surface``, ``scan_domain``) shoot all
their nodes of one side together, in lockstep through
``ode.integrate_batch``, one process; the last node left goes on alone in
``ode.integrate``'s loop.  A circle-side node in the stiff regime below
takes its single Radau shot instead.  Every node's result is bit-identical
to ``shoot_curve_point``/``shoot_surface_point``'s, so it does not depend on
the sweep's size or order.  ``scan_domain`` still accepts a ``workers``
argument, with no effect, because the benchmark's scan workload passes it.
Each lane ends as an ``ode.Trajectory``: in ``sample_curve`` the whole shot,
for its curvature minima, elsewhere its last node with its counters.

Failed shots inside sweeps are recorded, not raised: the large-delta1 regime
legitimately stresses the integrator and the failure boundary is data.

Stiff regime: on the circle side at large delta1, the L1 and L2 equations
have the eigenvalue -xi while xi is large, and the explicit step is held to
its stability limit there, so its step count grows linearly in delta1
(DOP853: 1.5k, 5.9k and 38k steps to xi = 10 at delta1 = 1e2, 1e3, 1e4).
A circle-side shot with delta1 >= ``_STIFF_DELTA1`` = 20 therefore takes
the 5-stage Radau IIA step of ``ode.integrate``, given the exact Jacobian
``family_tangent(y, I)``: 174, 225, 294, 379 and 526 steps to xi = 10 at
delta1 = 20, 1e2, 1e3, 1e4 and 1e6.  Uncapped in t, a shot meets near
t = 6 sqrt(delta1) to delta1 ~ 2.3e21.  20 is the measured crossover of
the meet shots of nodes only, which ``mismatch`` takes: DOP853 costs less
at 15, Radau at 20 (README, "Stiff regime").  It lies above 10, the top of
the default scan box, whose lanes all take DOP853.  The route depends on
delta1 alone, never on a runtime test: the plain shot, Newton's
tangent-carrying shot and a sweep's node all take it, so Newton's F is
bitwise ``mismatch`` and a ``sample_curve`` node bitwise
``shoot_curve_point`` at every delta1.  Newton's tangent column follows
each accepted Radau step by one direct solve of its linear collocation
system, whose stage Jacobians the field gives at width 4 + 16
(``ode.integrate``): 5 rhs calls a step more than the plain shot, and no
iteration that could fail to settle.  The sphere side and every delta1
below 20 take DOP853.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    EpsilonTooLarge,
    EventNotReached,
    InadmissibleParameters,
    LargeNewtonStep,
    MaxIterations,
    ShootFailure,
    SingularJacobian,
)
from .fields import (
    SolitonState,
    curvature_eigs_grid,
    family_rhs,
    family_tangent,
)
from .ode import Event, IntegratorConfig, Trajectory, _blown_up, integrate, integrate_batch

__all__ = [
    "ROUND_DELTAS",
    "ShootConfig",
    "MeetPoint",
    "MismatchVector",
    "RootResult",
    "NewtonStep",
    "CurveSample",
    "SurfaceSample",
    "ScanMinimum",
    "ScanResult",
    "s1_series_state",
    "s2_series_state",
    "check_admissible",
    "shoot_curve_point",
    "shoot_surface_point",
    "mismatch",
    "find_root",
    "sample_curve",
    "sample_surface",
    "scan_domain",
]

ROUND_DELTAS = (1 / 18, -7 / 9, 1 / math.sqrt(3))

_COLLAPSE_L1 = -1e6  # "collapse" stop: L1 falls to this on the circle side,
_COLLAPSE_R = 1e6  # R rises to this on the sphere side
_NEWTON_TOL = 1e-7  # Newton converges when |F|_inf < this
# ... and the Newton step there is small: |dp_i| <= _NEWTON_XTOL (1 + |p_i|).
# Over 60 roots of the bench root workload (seeds 1 and 7) the largest such
# relative step is 6.2e-8; at the pancake branch's false root (70964, -1.0,
# 0.9999997), where |F| has fallen below 1e-7, it is 0.49 in delta1.  1e-4
# sits between the two, three decades from either
_NEWTON_XTOL = 1e-4
_MAX_ITER = 25  # Newton iterations before MaxIterations
# circle-side shots from this delta1 on take ode.integrate's Radau IIA
# step; see "Stiff regime" in the module docstring
_STIFF_DELTA1 = 20.0
_EYE4 = np.eye(4)
_MAX_EPS = 1e-1  # the deepest series handoff ShootConfig.t_eps may ask for
# levels of the launch series, whose last term is of order t^(2L - 1): the
# smallest L whose last level stays below 1e-17 of the leading one wherever
# the handoff puts the series' products, at most 1e-2 (``_effective_eps``)
_SERIES_LEVELS = 10


@dataclass(frozen=True)
class ShootConfig:
    """Knobs shared by every shooting operation.

    ``t_eps`` is the series handoff distance on both sides, in (0, 1e-1]
    (shrunk for large parameters by ``_effective_eps``, never enlarged);
    outside that range the config raises EpsilonTooLarge.  ``rtol`` and
    ``atol`` follow :class:`IntegratorConfig`'s rules.  ``exploratory`` lifts
    the admissibility preconditions delta1 >= 0, delta2 >= -1, delta3 >= 0.
    """

    t_eps: float = _MAX_EPS
    rtol: float = IntegratorConfig.rtol
    atol: float = IntegratorConfig.atol
    exploratory: bool = False

    def __post_init__(self):
        _check_eps(self.t_eps)
        self.integrator()  # IntegratorConfig checks rtol and atol

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(rtol=self.rtol, atol=self.atol)


class MeetPoint(NamedTuple):
    """(L1, L2, R) at the xi = 0 crossing; r > 0 on principal orbits."""

    l1: float
    l2: float
    r: float


class MismatchVector(NamedTuple):
    """Componentwise circle-side minus sphere-side MeetPoint difference."""

    dl1: float
    dl2: float
    dr: float

    @property
    def inf_norm(self) -> float:
        return max(abs(self.dl1), abs(self.dl2), abs(self.dr))


class NewtonStep(NamedTuple):
    """One Newton iteration: |F|_inf where it ended, the damping of the step
    taken (0 when 20 halvings found no decrease and no step was taken), the
    1-norm condition number of the Jacobian the step solved with, and the
    integrations spent on its trial points (2 per trial)."""

    residual: float
    damping: float
    cond: float
    integrations: int


class RootResult(NamedTuple):
    """``history`` holds one :class:`NewtonStep` per iteration."""

    root: tuple
    residual: float
    iterations: int
    history: tuple = ()


class CurveSample(NamedTuple):
    delta1: float
    meet: Optional[MeetPoint]
    eig_min: Optional[tuple]
    status: str


class SurfaceSample(NamedTuple):
    delta2: float
    delta3: float
    meet: Optional[MeetPoint]
    status: str


class ScanMinimum(NamedTuple):
    """One grid-local minimum of |F|_inf, possibly a plateau of tied nodes.

    ``indices``/``delta*`` give the representative node (lowest index tuple);
    ``n_nodes`` counts the equal-value connected component it stands for and
    ``index_span`` is that component's inclusive index bounding box.
    """

    indices: tuple
    delta1: float
    delta2: float
    delta3: float
    value: float
    n_nodes: int
    index_span: tuple


@dataclass
class ScanResult:
    """``failures`` holds one (side, parameters, reason) entry per failed
    shot inside the box: side "s1" with (delta1,) or "s2" with (delta2,
    delta3), and the reason the single shot would raise.  ``n_failed`` is
    its length."""

    axes: tuple
    values: np.ndarray
    minima: list
    grid_bound: float
    n_failed: int
    failures: list = field(default_factory=list)

    def region_contains(self, m: ScanMinimum, d1: float, d2: float, d3: float) -> bool:
        """Whether a parameter point lies in the half-cell neighborhood of a
        reported minimum's plateau (the region the minimum speaks for)."""
        point = (d1, d2, d3)
        for ax, (lo, hi) in enumerate(m.index_span):
            nodes = self.axes[ax]
            half = 0.5 * (nodes[1] - nodes[0]) if len(nodes) > 1 else math.inf
            if not (nodes[lo] - half <= point[ax] <= nodes[hi] + half):
                return False
        return True


def _check_eps(eps: float) -> None:
    if not (0.0 < eps <= _MAX_EPS):
        raise EpsilonTooLarge(
            f"series handoff {eps!r} outside (0, {_MAX_EPS:g}]; the launch series "
            "is trusted only on that range"
        )


def s1_series_state(delta1: float, t_eps: float) -> SolitonState:
    """Order-1 series state at distance t_eps from the circle orbit.

    xi = 2/t + (8 d1 - 1) t,  L1 = -t/3,
    L2 = 1/t - 2 d1 t,        R = 1/t + d1 t.

    All four reduced functions are odd in t, so the truncation error is
    O(t_eps^3).  Shots launch from the series to t^19 (``_s1_series``).
    """
    _check_eps(t_eps)
    return SolitonState(*_s1_series(delta1, t_eps, 1.0, levels=1))


def s2_series_state(delta2: float, delta3: float, s_eps: float) -> SolitonState:
    """Order-2 series state at distance s_eps from the sphere orbit.

    -xi = 1/s + d2 s,            -L1 = 1/s - ((d2+1)/2) s,
    -L2 = ((d3^2-1)/2) s,         R  = d3 - (d3 (d3^2-1)/4) s^2,

    with truncation O(s_eps^3).  The formulas stay regular at d3 = 1 (the
    slope of L2 simply vanishes there) and reproduce the exact Gaussian at
    (d2, d3) = (-1, 1).  Shots launch from the series to s^19, and R's
    s^20 (``_s2_series``).
    """
    _check_eps(s_eps)
    return SolitonState(*_s2_series(delta2, delta3, s_eps, levels=1))


# The series are plain arithmetic, so they run on floats, on complex numbers
# (``_launch`` differentiates them by a complex step) and on sympy's rational
# functions (the tests check and differentiate them exactly) alike;
# ``_launch`` hands them Python floats, never numpy scalars.  Each level of a
# series is a polynomial in dimensionless products of the parameters and the
# distance: those products stay at most 1e-2 at the launch's handoff
# (``_effective_eps``), so no level overflows, however large the parameters.


def _s1_levels(delta1, t, lam, levels: int = _SERIES_LEVELS) -> list:
    """The levels Y_0, ..., Y_levels of the circle-side series at t and
    soliton constant ``lam``, each an (xi, L1, L2, R) tuple; the state is
    their sum over t.

    The field is unchanged by t -> t/p, delta1 -> p^2 delta1, lam -> p^2 lam,
    so the t^(2k-1) coefficient X_k is a degree-k form in (delta1, lam), and
    Y_k = X_k t^(2k) is that form at u = delta1 t^2 and v = lam t^2.  Y_0 and
    Y_1 are the terms of ``s1_series_state``.  Matching powers of t in the
    field (Frobenius' method; Hairer, Norsett & Wanner, *Solving ODEs I*,
    I.5) gives, for k >= 2,

        ((2k - 1) I - M) Y_k = sum over 0 < i < k of B(Y_i, Y_(k-i)),

    with B the symmetric bilinear form of the field's quadratic part and
    M = 2 B(Y_0, .).  M's eigenvalues are 1, -2, -2, -2, so only k = 1, the
    free delta1, is resonant.
    """
    u, v = delta1 * t * t, lam * t * t
    ys = [(2.0, 0.0, 1.0, 1.0), (8.0 * u - v, -v / 3.0, -2.0 * u, u)]
    for k in range(2, levels + 1):
        b0 = b1 = b2 = b3 = 0.0
        for (x0, x1, x2, x3), (y0, y1, y2, y3) in zip(ys[1:k], ys[k - 1:0:-1]):
            b0 -= x1 * y1 + 2.0 * x2 * y2
            b1 -= x0 * y1
            b2 += x3 * y3 - x0 * y2
            b3 -= x2 * y3
        # L1 stands alone; elimination on (xi, L2, R) leaves the determinant
        # (a - 1)(a + 2)^2 with a = 2k - 1
        a = 2 * k - 1
        l2 = (a * (a + 1) * b2 - (a + 1) * b0 + 2 * a * b3) / ((a - 1) * (a + 2) ** 2)
        ys.append(((b0 - 4.0 * l2) / a, b1 / (a + 2), l2, (b3 - l2) / (a + 1)))
    return ys


def _s2_levels(delta2, delta3, s, levels: int = _SERIES_LEVELS) -> list:
    """The levels of the sphere-side series at s, each an (xi, L1, L2, rho)
    tuple: (xi, L1, L2) is their sum over s, and R is delta3 times the sum of
    the rho.

    As in ``_s1_levels``, level j is a form in m = mu s^2, n = nu s^2 and
    q = s^2, with mu = (d2 + 1)/2 and nu = (1 - d3^2)/2; (d3 s)^2 = q - 2n.
    Level 0 is (-1, -1, 0, 1) and level 1 is the order-1 series.  Each later
    level is explicit: L2_j from the lower levels, then rho_j from
    2j rho_j = sum over i >= 1 of L2_i rho_(j-i), then (xi_j, L1_j) from a
    2 x 2 system of determinant 2 (2j + 1)(j - 1), singular only at j = 1,
    the free delta2.  At the Gaussian (-1, 1) m and n are exactly 0, so every
    level past 1 vanishes and the series is the exact trajectory there.
    """
    q = s * s
    m = 0.5 * (delta2 + 1.0) * q
    n = 0.5 * (q - (delta3 * s) * (delta3 * s))
    w = q - 2.0 * n
    ys = [(-1.0, -1.0, 0.0, 1.0), (q - 2.0 * m, m, n, 0.5 * n)]
    for j in range(2, levels + 1):
        # the sums over 0 < i < j of products of levels i and j - i (xi L2,
        # L2 rho, the xi equation's L1^2 + 2 L2^2, xi L1), and rr, the sum
        # over i + i' = j - 1 of rho_i rho_i'
        xl = lr = a = c = 0.0
        rr = ys[j - 1][3]
        for (x0, x1, x2, x3), (y0, y1, y2, y3), z in zip(ys[1:j], ys[j - 1:0:-1], ys[j - 2::-1]):
            xl += x0 * y2
            lr += x2 * y3
            a += x1 * y1 + 2.0 * x2 * y2
            c += x0 * y1
            rr += x3 * z[3]
        l2 = (xl - w * rr) / (2 * j)
        det = (2 * j + 1) * (j - 1)
        ys.append(((j * a - c) / det, ((2 * j - 1) * c - a) / (2 * det), l2, (lr + l2) / (2 * j)))
    return ys


def _s1_series(delta1, t, lam, levels: int = _SERIES_LEVELS) -> tuple:
    """(xi, L1, L2, R) of the circle-side series at t: the sum of
    ``_s1_levels`` over t, smallest level first.  Every shot launches from
    ``_SERIES_LEVELS`` levels; ``levels`` = 1 is ``s1_series_state``.

    From t = 1e-1 at rtol = 1e-13, the round meets lie 5.0e-10 (circle) and
    1.1e-9 (sphere) off the closed form with 3 levels (the t^5 terms),
    4.0e-14 and 1.0e-14 with 5, and 1.1e-14 and 9.9e-15 with 7 to 11; the
    level count is set by the largest products, not by the round point.
    """
    return tuple(sum(c) / t for c in zip(*reversed(_s1_levels(delta1, t, lam, levels))))


def _s2_series(delta2, delta3, s, levels: int = _SERIES_LEVELS) -> tuple:
    """(xi, L1, L2, R) of the sphere-side series at s, from ``_s2_levels``
    as ``_s1_series``."""
    xi, l1, l2, rho = (sum(c) for c in zip(*reversed(_s2_levels(delta2, delta3, s, levels))))
    return xi / s, l1 / s, l2 / s, delta3 * rho


def _s2_launch_params(s, state) -> Optional[tuple]:
    """(delta2, delta3) of the sphere-side series whose state at distance s
    from the orbit is ``state``, as at a shot's launch; None when no such
    series has that state.

    s L1 + 1 is m plus the higher levels and R is delta3 times the sum of
    the rho, so each pass of the fixed-point iteration below gains a factor
    of the products' size, at most 1e-2: eight passes reach rounding.
    """
    q = s * s
    if not q > 0.0:  # past the blow-up guard: s < 1e-161 starts at |xi| > 1e161
        return None
    m, delta3 = s * state[1] + 1.0, state[3]
    for _ in range(8):
        delta2 = 2.0 * m / q - 1.0
        ys = _s2_levels(delta2, delta3, s)
        m = s * state[1] + 1.0 - sum(y[1] for y in ys[2:])
        delta3 = state[3] / sum(y[3] for y in reversed(ys))
    gap = max(abs(a - b) for a, b in zip(_s2_series(delta2, delta3, s), state))
    return (delta2, delta3) if gap <= 1e-12 * max(abs(v) for v in state) else None


def _s2_series_f1(delta2, delta3, s) -> float:
    """f1 on the sphere-side series at s: s exp(-sum over j >= 1 of
    L1_j / 2j), the smooth f1 ~ s whose log-derivative is the series' -L1."""
    return s * math.exp(-sum(y[1] / (2 * j) for j, y in enumerate(_s2_levels(delta2, delta3, s)) if j))


def check_admissible(
    delta1: Optional[float] = None,
    delta2: Optional[float] = None,
    delta3: Optional[float] = None,
    exploratory: bool = False,
) -> None:
    """Reject non-finite deltas, and enforce delta1 >= 0, delta2 >= -1,
    delta3 >= 0 unless exploratory."""
    given = (("delta1", delta1), ("delta2", delta2), ("delta3", delta3))
    bad = [f"{k} = {float(v)!r}" for k, v in given if v is not None and not math.isfinite(v)]
    if bad:
        raise InadmissibleParameters("; ".join(bad) + ": parameters must be finite")
    if exploratory:
        return
    if delta1 is not None and delta1 < 0.0:
        bad.append(f"delta1 = {float(delta1)!r} < 0")
    if delta2 is not None and delta2 < -1.0:
        bad.append(f"delta2 = {float(delta2)!r} < -1")
    if delta3 is not None and delta3 < 0.0:
        bad.append(f"delta3 = {float(delta3)!r} < 0")
    if bad:
        raise InadmissibleParameters(
            "; ".join(bad) + " (pass exploratory to integrate anyway)"
        )


def _effective_eps(side: str, eps: float, params: tuple) -> float:
    """The handoff of a shot from ``params``: ``eps``, shrunk to
    min(eps, 1e-1 / scale) so that the series' products (``_s1_levels``,
    ``_s2_levels``) stay at most 1e-2: scale = sqrt(max(1, |d1|)) keeps
    d1 t^2 there on the circle side, and scale = max(1, |d3|, sqrt|d2|)
    keeps (d3 s)^2 and d2 s^2 there on the sphere side.
    """
    if side == "s1":
        scale = math.sqrt(max(1.0, abs(params[0])))
    else:
        delta2, delta3 = params
        scale = max(1.0, abs(delta3), math.sqrt(abs(delta2)))
    return min(eps, _MAX_EPS / scale)


# named stop rules per side: (state component k, level, direction, name); the
# stop event is y[k] - level
_STOP_TABLE = {
    ("meet", "s1"): (0, 0.0, -1, "xi=0"),
    ("meet", "s2"): (0, 0.0, +1, "xi=0"),
    ("collapse", "s1"): (1, _COLLAPSE_L1, -1, "l1_collapse"),
    ("collapse", "s2"): (3, _COLLAPSE_R, +1, "r_collapse"),
}


def _stop_rule(until, side: str):
    """(event or None, t_end) of a shot under the stop rule ``until``.

    ("xi", v) stops at xi = v in either direction; ("time", T) has no event
    and ends at T.  An event rule has t_end = inf: at lam > 0, xi' = -L1^2 -
    2 L2^2 - lam <= -lam on the circle side and dxi/ds >= lam on the sphere
    side, so a level v ahead of the launch xi0 is reached by t0 + |xi0 - v| /
    lam, and past it xi runs off until a collapse or blow-up ends the shot.
    xi being strictly monotone, the rules on it ("meet" and ("xi", v)) are
    ``monotone`` events: a shot tests each step's end and walks only the
    step whose two ends cross (``ode.Event``), so a dip of a crude step's
    interpolant through the level is no meet.
    """
    if isinstance(until, tuple) and len(until) == 2 and until[0] == "time":
        return None, float(until[1])
    if isinstance(until, tuple) and len(until) == 2 and until[0] == "xi":
        level = float(until[1])
        k, direction, name = 0, 0, f"xi={level:g}"
    elif isinstance(until, str) and (until, side) in _STOP_TABLE:
        k, level, direction, name = _STOP_TABLE[until, side]
    else:
        raise ValueError(f"unknown stop rule {until!r}")
    return Event(fn=lambda t, y: y[k] - level, direction=direction, name=name, monotone=k == 0), math.inf


_PARAM_NAMES = {"s1": ("delta1",), "s2": ("delta2", "delta3")}
# the complex step of the launch tangents: its square (1e-300), which enters
# the real parts, lies below the rounding of every series term
_CSTEP = 1e-150


def _launch(side: str, params: tuple, cfg: ShootConfig, lam: float = 1.0, tangent: bool = False):
    """(handoff distance, series start state) of a shot from ``params``:
    (delta1,) on the circle side, (delta2, delta3) on the sphere side.

    With ``tangent`` the start state is followed by the derivatives of the
    series by each parameter, 4 entries each (see ``family_rhs``).  The series
    is a polynomial in each parameter, so a complex step gives them to
    rounding, with no cancellation: d/dp = Im series(p + i h) / h.
    They hold the handoff distance fixed although ``_effective_eps`` moves
    it for large parameters: a series that solved the field exactly would
    give the same trajectory from any handoff, so that term is of the order
    of the series truncation and is left out.
    """
    # numpy scalars would warn where Python floats overflow quietly to inf
    params, lam = tuple(float(p) for p in params), float(lam)
    t0 = _effective_eps(side, cfg.t_eps, params)

    def series(*p):
        return _s2_series(*p, t0) if side == "s2" else _s1_series(*p, t0, lam)

    rows = [series(*params)]
    for j in range(len(params) if tangent else 0):
        bumped = series(*params[:j], params[j] + _CSTEP * 1j, *params[j + 1:])
        rows.append([v.imag / _CSTEP for v in bumped])
    y0 = np.array(rows).ravel()
    if not np.all(np.isfinite(y0)):
        # 1/s overflows for delta3 near the top of the float range; an
        # infinite launch state is stopped by the integrator's blow-up guard
        # before the first step
        y0[:] = math.inf
    return t0, y0


def _field(side: str, lam: float):
    """The field of a shot: one ``family_rhs`` call on the state and any
    tangent columns after it (bench/tracing.py counts these calls).  A single
    state goes in as Python floats, which cost less than numpy scalars; a
    (4, m) block of lanes stays an array."""
    def field(t, y):
        return family_rhs(y.tolist() if y.ndim == 1 else y, lam)

    if side == "s1":
        return field
    # the sphere side runs in s = (orbit time) - t, so the field reverses
    return lambda t, y: -field(t, y)


def _failure(side: str, event, t_end: float, traj: Trajectory) -> Optional[str]:
    """Why a shot or sweep lane that ended as ``traj`` missed its stop rule,
    or None.  A blow-up at a state the size guard passes is the integrator's
    other blow-up rule: the next step's dense output was not finite."""
    state = traj.y[-1, :4]
    cause = ""
    if traj.termination == "blowup" and not _blown_up(state):
        cause = ": the next step's dense output was not finite"
    if event is not None and traj.termination != "event":
        return (
            f"{side} shot never reached {event.name}: stopped by "
            f"{traj.termination} at t={traj.t_end:.6g} with "
            f"state={' '.join(f'{v:.6g}' for v in state)}{cause}"
        )
    if event is None and traj.termination != "reached_end":
        return (
            f"{side} shot stopped by {traj.termination} at t={traj.t_end:.6g} "
            f"before the requested time {t_end:g}{cause}"
        )
    return None


def _shoot(
    y0, t0: float, side: str, until, cfg: ShootConfig, lam: float, k: int = 0, stiff: bool = False,
    dense: bool = True,
):
    """The trajectory of a shot from (t0, y0) under ``until``, with ``k``
    tangent columns riding along; ``stiff`` takes the Radau step (circle
    side), and ``dense`` = False keeps its nodes only (``ode.integrate``).
    EventNotReached if it misses the rule."""
    event, t_end = _stop_rule(until, side)
    if event is not None and not lam > 0:
        raise ValueError(f"an event stop rule needs lam > 0, got lam = {lam!r}")
    field, n_state = _field(side, lam), (4 if k else None)
    jac = (lambda t, y: family_tangent(y, _EYE4)) if stiff else None
    traj = integrate(field, t0, np.array(y0), t_end, cfg.integrator(), event, n_state, jac, dense)
    reason = _failure(side, event, t_end, traj)
    if reason is not None:
        raise EventNotReached(reason)
    return traj


def _meet_from(y: np.ndarray) -> MeetPoint:
    return MeetPoint(l1=float(y[1]), l2=float(y[2]), r=float(y[3]))


def shoot_curve_point(
    delta1: float,
    cfg: Optional[ShootConfig] = None,
    until="meet",
    lam: float = 1.0,
    dense: bool = True,
):
    """Integrate the circle-side IVP; returns (MeetPoint, Trajectory).

    By default stops at the xi = 0 crossing.  Other stop rules: "collapse"
    (L1 falls to ``_COLLAPSE_L1``, the far orbit), ("xi", v), ("time", T);
    an event rule at lam <= 0 raises ValueError (see ``_stop_rule``).  The
    MeetPoint is the final state's (L1, L2, R) under any rule.  With
    ``dense`` = False the trajectory keeps its nodes only, the dense
    shot's nodes (see ``ode.integrate``).
    """
    cfg = cfg or ShootConfig()
    check_admissible(delta1=delta1, exploratory=cfg.exploratory)
    t0, y0 = _launch("s1", (delta1,), cfg, lam)
    traj = _shoot(y0, t0, "s1", until, cfg, lam, stiff=delta1 >= _STIFF_DELTA1, dense=dense)
    return _meet_from(traj.y[-1]), traj


def shoot_surface_point(
    delta2: float,
    delta3: float,
    cfg: Optional[ShootConfig] = None,
    until="meet",
    dense: bool = True,
):
    """Integrate the sphere-side IVP in the orbit distance s.

    The trajectory's independent variable increases away from the sphere
    orbit (backwards in the original time), so xi rises from -1/s_eps toward
    the meet.  Stop rules and ``dense`` as in ``shoot_curve_point``;
    ("xi", v) with v > 0 continues past the xi = 0 orbit into the region
    the Gaussian-closeness diagnostics examine.
    """
    cfg = cfg or ShootConfig()
    check_admissible(delta2=delta2, delta3=delta3, exploratory=cfg.exploratory)
    s0, y0 = _launch("s2", (delta2, delta3), cfg)
    traj = _shoot(y0, s0, "s2", until, cfg, lam=1.0, dense=dense)
    return _meet_from(traj.y[-1]), traj


def mismatch(
    delta1: float, delta2: float, delta3: float, cfg: Optional[ShootConfig] = None
) -> MismatchVector:
    """Circle-side minus sphere-side MeetPoint; zero exactly on solitons.

    Each side is one meet shot of nodes only (``dense`` = False), as
    Newton's (``_meet_with_slope``): only its last node is read, and no
    step forms a dense output but the one that holds the meet."""
    m1, _ = shoot_curve_point(delta1, cfg, dense=False)
    m2, _ = shoot_surface_point(delta2, delta3, cfg, dense=False)
    return MismatchVector(m1.l1 - m2.l1, m1.l2 - m2.l2, m1.r - m2.r)


def _meet_with_slope(side: str, params: tuple, cfg: ShootConfig):
    """(L1, L2, R) at the meet of a shot from ``params``, bitwise the plain
    shot's, and its derivatives by the parameters, (3, len(params)).  A
    circle-side shot takes the Radau step from ``_STIFF_DELTA1`` on, as
    ``shoot_curve_point`` does.  The shot keeps its nodes only
    (``dense`` = False), as ``mismatch``'s do: of its DOP853 steps only
    the meet's forms a dense output, 12 rhs calls a step against 15.

    The tangent columns Y are integrated with the state.  The meet moves
    with the parameters: xi(t*) = 0 gives dt*/dp = -Y[0] / xi'(y*), so
    dM/dp = Y - f(y*) Y[0] / f[0](y*), the same for either sign of the field.
    """
    check_admissible(**dict(zip(_PARAM_NAMES[side], params)), exploratory=cfg.exploratory)
    k = len(params)
    t0, y0 = _launch(side, params, cfg, tangent=True)
    stiff = side == "s1" and params[0] >= _STIFF_DELTA1
    end = _shoot(y0, t0, side, "meet", cfg, 1.0, k, stiff, dense=False).y[-1]
    y, cols = end[:4], end[4:].reshape(k, 4)
    f = family_rhs(y, 1.0)
    return y[1:], (cols[:, 1:] - np.outer(cols[:, 0] / f[0], f[1:])).T


def _mismatch_with_jacobian(p: np.ndarray, cfg: ShootConfig):
    """F(p) and its exact Jacobian: one shot per side with its tangent
    columns, each on the step ``mismatch`` takes there, so F is bitwise
    ``mismatch(*p)`` at every delta1."""
    try:
        m1, dm1 = _meet_with_slope("s1", (p[0],), cfg)
        m2, dm2 = _meet_with_slope("s2", (p[1], p[2]), cfg)
    except (EventNotReached, InadmissibleParameters) as exc:
        params = tuple(p.tolist())  # plain floats, which print without numpy's repr
        raise ShootFailure(f"shot failed at (d1, d2, d3) = {params!r}: {exc}", params=params) from exc
    return m1 - m2, np.column_stack((dm1, -dm2))


def _clip_admissible(p: np.ndarray) -> np.ndarray:
    return np.maximum(p, [0.0, -1.0, 0.0])


def find_root(guess: Sequence[float], cfg: Optional[ShootConfig] = None) -> RootResult:
    """Damped Newton iteration on the mismatch map.

    Every point Newton evaluates costs two shots, one per side, which carry
    the variational equations along: they give F, bitwise ``mismatch`` at
    that point (see ``_mismatch_with_jacobian``), and its exact Jacobian
    (see ``_meet_with_slope``).  Both are shots of nodes only, whose
    DOP853 steps form no dense output but at the meet.  Each
    Newton step is halved (up to 20 times) until the residual sup-norm
    decreases, so the residual falls strictly from iterate to iterate.
    Iterates are kept inside the admissible region unless the config is
    exploratory.  Convergence is the two-part stop of Dennis & Schnabel
    (7.2): |F|_inf < 1e-7, well above the ~1e-11 floor that the two
    integrations impose on the mismatch at default tolerances (Newton
    typically lands near that floor on its final step), and a Newton step
    at that point, from the J already computed there, of |dp_i| <=
    _NEWTON_XTOL (1 + |p_i|).  A small residual with a large step, as on
    the asymptotic (pancake) branch, where F falls under 1e-7 at delta1
    near 7e4, raises ``LargeNewtonStep``.

    The result's ``history`` has one :class:`NewtonStep` per iteration; the
    integrations of a run are 2 for the guess plus those of every step.  A
    ``NonConvergence`` carries the last iterate, which is the best, with
    its history.
    """
    cfg = cfg or ShootConfig()
    p = np.array(guess, dtype=float)
    if p.shape != (3,):
        raise ValueError("guess must be (delta1, delta2, delta3)")
    check_admissible(*p, exploratory=cfg.exploratory)

    d1_guess = float(p[0])
    F, J = _mismatch_with_jacobian(p, cfg)
    res = float(np.max(np.abs(F)))
    history = []
    for it in range(_MAX_ITER + 1):
        if it == _MAX_ITER and not res < _NEWTON_TOL:
            raise MaxIterations(
                f"residual {res:.3e} still above tol {_NEWTON_TOL:g} after {_MAX_ITER} iterations",
                result=RootResult(tuple(p.tolist()), res, _MAX_ITER, tuple(history)),
            )
        try:
            # one factorization gives the step and J^-1; np.linalg.cond's SVD
            # would add 0.75 MB of LAPACK pages to the peak RSS
            solved = np.linalg.solve(J, np.column_stack((-F, np.eye(3))))
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(
                f"Jacobian singular at {tuple(p.tolist())!r} (iteration {it})",
                result=RootResult(tuple(p.tolist()), res, it, tuple(history)),
            ) from exc
        step = solved[:, 0]
        cond = float(np.linalg.norm(J, 1) * np.linalg.norm(solved[:, 1:], 1))
        if res < _NEWTON_TOL:
            # the two-part stop: a small residual, and a small step from it
            rel = float(np.max(np.abs(step) / (1.0 + np.abs(p))))
            if rel <= _NEWTON_XTOL:
                return RootResult(tuple(p.tolist()), res, it, tuple(history))
            raise LargeNewtonStep(
                _large_step_reason(d1_guess, p, F, step, rel, cond),
                result=RootResult(tuple(p.tolist()), res, it, tuple(history)),
            )

        damp = 1.0
        for trials in range(1, 22):
            trial = p + damp * step
            if not cfg.exploratory:
                trial = _clip_admissible(trial)
            F_new, J_new = _mismatch_with_jacobian(trial, cfg)
            res_new = float(np.max(np.abs(F_new)))
            if res_new < res:
                break
            damp *= 0.5
        else:
            history.append(NewtonStep(res, 0.0, cond, 2 * trials))
            raise MaxIterations(
                f"no decrease after 20 halvings at {tuple(p.tolist())!r}, residual {res:.3e}",
                result=RootResult(tuple(p.tolist()), res, it + 1, tuple(history)),
            )
        history.append(NewtonStep(res_new, damp, cond, 2 * trials))
        p, F, J, res = trial, F_new, J_new, res_new


def _large_step_reason(d1_guess, p, F, step, rel, cond) -> str:
    """Why Newton's point p, with |F| below tolerance, is no root: its step.
    Along the asymptotic (pancake) branch delta1 grows without bound and F
    goes as (0, c, -c/2), c = 1/(36 delta1), so |F| falls under any
    tolerance while the step stays of the order of delta1."""
    text = (
        f"|F|_inf = {float(np.max(np.abs(F))):.3e} is below tol {_NEWTON_TOL:g} at "
        f"{tuple(p.tolist())!r}, but the Newton step there, {tuple(step.tolist())!r}, is "
        f"{rel:.3g} of 1 + |p| (at most {_NEWTON_XTOL:g} at a root); cond(J) = {cond:.3g}"
    )
    c = float(F[1])
    if p[0] > d1_guess and c != 0.0 and abs(F[0]) <= 0.1 * abs(c) and abs(F[2] + c / 2) <= 0.1 * abs(c):
        text += f": F ~ (0, c, -c/2) with delta1 grown from {d1_guess:g}, the asymptotic (pancake) branch"
    return text


def _shoot_lanes(side: str, points: list, cfg: ShootConfig, history: bool = False) -> list:
    """Meet shots of many parameter points, each bitwise its single shot:
    in lockstep through ``integrate_batch`` on the DOP853 step, but a
    circle-side point from ``_STIFF_DELTA1`` on, which takes its single
    Radau shot.

    Per point, (meet, trajectory, reason): a failed shot has meet None and
    the text its single shot would raise as reason; the trajectory, the
    whole shot, is returned only with ``history``, else None.
    """
    out = [None] * len(points)
    lanes, t0s, y0s = [], [], []
    for i, p in enumerate(points):
        try:
            check_admissible(**dict(zip(_PARAM_NAMES[side], p)), exploratory=cfg.exploratory)
        except InadmissibleParameters as exc:
            out[i] = (None, None, str(exc))
            continue
        t0, y0 = _launch(side, p, cfg)
        if side == "s1" and p[0] >= _STIFF_DELTA1:
            try:
                traj = _shoot(y0, t0, side, "meet", cfg, 1.0, stiff=True, dense=history)
            except EventNotReached as exc:
                out[i] = (None, None, str(exc))
            else:
                out[i] = (_meet_from(traj.y[-1]), traj if history else None, None)
            continue
        lanes.append(i)
        t0s.append(t0)
        y0s.append(y0)
    if not lanes:
        return out
    event, t_end = _stop_rule("meet", side)
    field = _field(side, 1.0)
    # the batch passes states as rows, or one state as a single shot does;
    # the field reads them as columns
    trajs = integrate_batch(
        lambda t, y: field(t, y.T).T, t0s, y0s, t_end, event, cfg.integrator(), history
    )
    for i, traj in zip(lanes, trajs):
        reason = _failure(side, event, t_end, traj)
        meet = None if reason is not None else _meet_from(traj.y[-1])
        out[i] = (meet, traj if history else None, reason)
    return out


def _check_finite_bounds(*ranges) -> None:
    if not np.all(np.isfinite(np.array(ranges, dtype=float))):
        raise ValueError(f"sweep bounds must be finite, got {ranges!r}")


def _count(name: str, n) -> int:
    """A sweep's node count as an int; ValueError unless an integer >= 2."""
    if not (float(n).is_integer() and n >= 2):
        raise ValueError(f"{name} must be an integer >= 2, got {n!r}")
    return int(n)


def sample_curve(
    d1_range: Sequence[float],
    n: int,
    cfg: Optional[ShootConfig] = None,
) -> list:
    """Log-uniform sweep of the circle-side meet map over ``d1_range``.

    Each record carries the MeetPoint and the per-eigenvalue trajectory
    minima; failed shots keep their slot with the failure reason in
    ``status``.
    """
    cfg = cfg or ShootConfig()
    lo, hi = float(d1_range[0]), float(d1_range[1])
    n = _count("n", n)
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"log-uniform sweep needs finite 0 < lo < hi, got {lo!r}, {hi!r}")
    d1s = [float(d1) for d1 in np.geomspace(lo, hi, n)]
    shots = _shoot_lanes("s1", [(d1,) for d1 in d1s], cfg, history=True)
    return [
        CurveSample(d1, meet, tuple(curvature_eigs_grid(traj.sample()[1]).min(axis=0).tolist()), "ok")
        if reason is None
        else CurveSample(d1, None, None, f"failed: {reason}")
        for d1, (meet, traj, reason) in zip(d1s, shots)
    ]


def sample_surface(
    d2_range: Sequence[float],
    d3_range: Sequence[float],
    n2: int,
    n3: int,
    cfg: Optional[ShootConfig] = None,
) -> list:
    """Uniform n2 x n3 sweep of the sphere-side meet map."""
    cfg = cfg or ShootConfig()
    n2, n3 = _count("n2", n2), _count("n3", n3)
    _check_finite_bounds(d2_range, d3_range)
    points = [
        (float(d2), float(d3))
        for d2 in np.linspace(float(d2_range[0]), float(d2_range[1]), n2)
        for d3 in np.linspace(float(d3_range[0]), float(d3_range[1]), n3)
    ]
    return [
        SurfaceSample(d2, d3, meet, "ok" if reason is None else f"failed: {reason}")
        for (d2, d3), (meet, _, reason) in zip(points, _shoot_lanes("s2", points, cfg))
    ]


DEFAULT_SCAN_BOX = ((0.0, 10.0), (-1.0, 0.0), (0.0, 40.0))


def scan_domain(
    box=DEFAULT_SCAN_BOX,
    resolution: int = 20,
    cfg: Optional[ShootConfig] = None,
    workers: int = 1,
) -> ScanResult:
    """Grid scan of |F|_inf over a parameter box, reporting grid-local minima.

    The grid has n = ``resolution`` nodes on each axis, an integer n >= 2.
    The mismatch separates into a curve part (delta1 only) and a surface
    part (delta2, delta3), so the n^3 grid needs only n + n^2 shots.  A node is a
    reported minimum when its value does not exceed any of its 26 neighbors
    in a grid extended by one ghost node beyond each face: a computable
    ghost vetoes a face node that merely continues a descent out of the box,
    while a ghost that is inadmissible or fails stands as a +inf wall, so
    genuine boundary minima survive.  Two 26-adjacent minima each do not
    exceed the other, so they tie: a flat plateau (e.g. where one mismatch
    component dominates along a degenerate axis) is a connected component
    of the minimum mask and is reported once, by its first node in index
    order.  ``grid_bound`` is the largest single-cell variation of |F|_inf
    along any axis inside the box: a minimum below it is indistinguishable
    from a zero at this resolution, one above it is a certified non-zero at
    the visited nodes.  Failed shots enter as +inf and are excluded from
    minima and from the bound; ``failures`` lists them, with their reasons,
    over the requested box only.  Every box bound must be finite, with
    lo < hi on each axis, as ``region_contains`` reads the axes ascending.
    ``workers`` has no effect (see the module docstring).
    """
    cfg = cfg or ShootConfig()
    n = _count("resolution", resolution)
    _check_finite_bounds(*box)
    (a1, b1), (a2, b2), (a3, b3) = box
    if not (a1 < b1 and a2 < b2 and a3 < b3):
        raise ValueError(f"every box axis needs lo < hi, got {box!r}")
    d1s = np.linspace(a1, b1, n)
    d2s = np.linspace(a2, b2, n)
    d3s = np.linspace(a3, b3, n)

    def extend(nodes, lo, hi):
        h = (hi - lo) / (n - 1)
        return np.concatenate(([lo - h], nodes, [hi + h]))

    curve_points = [(float(d1),) for d1 in extend(d1s, a1, b1)]
    surf_points = [
        (float(d2), float(d3)) for d2 in extend(d2s, a2, b2) for d3 in extend(d3s, a3, b3)
    ]
    curve = _shoot_lanes("s1", curve_points, cfg)
    surf = _shoot_lanes("s2", surf_points, cfg)
    # the ghost nodes lie outside the box: their failures are walls, not data
    failures = [
        ("s1", p, reason)
        for p, (_, _, reason) in zip(curve_points[1:-1], curve[1:-1])
        if reason
    ]
    in_box = np.pad(np.ones((n, n), bool), 1).ravel()
    failures += [
        ("s2", p, reason)
        for p, (_, _, reason), inside in zip(surf_points, surf, in_box)
        if inside and reason
    ]
    # a failed shot has meet None and enters as a NaN row
    failed = (math.nan,) * 3
    curve_meets = np.array([meet or failed for meet, _, _ in curve])
    surf_meets = np.array([meet or failed for meet, _, _ in surf]).reshape(n + 2, n + 2, 3)

    diff = curve_meets[:, None, None, :] - surf_meets[None, :, :, :]
    values_ext = np.max(np.abs(diff), axis=-1)
    values_ext = np.where(np.isnan(values_ext), np.inf, values_ext)
    minima, grid_bound = _grid_minima(values_ext, (d1s, d2s, d3s))
    return ScanResult(
        axes=(d1s, d2s, d3s),
        values=values_ext[1:-1, 1:-1, 1:-1],
        minima=minima,
        grid_bound=grid_bound,
        n_failed=len(failures),
        failures=failures,
    )


# offsets of a node's 3x3x3 neighbourhood, (0, 0, 0) among them
_NEIGHBOURS = [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]


def _grid_minima(values_ext: np.ndarray, axes: tuple) -> tuple:
    """Minima sorted by value, and grid_bound, of a ghost-extended grid of
    |F|_inf (+inf where a shot failed), by the rules of ``scan_domain``."""
    values = values_ext[1:-1, 1:-1, 1:-1]
    n1, n2, n3 = values.shape
    # the lowest value of each interior node's 3x3x3 neighbourhood, itself
    # included; np.min would spread a NaN, but scan_domain maps NaN to +inf
    shifted = [
        values_ext[1 + i : 1 + i + n1, 1 + j : 1 + j + n2, 1 + k : 1 + k + n3]
        for i, j, k in _NEIGHBOURS
    ]
    lowest = np.min(shifted, axis=0)
    is_min = np.isfinite(values) & (values <= lowest)
    minima = [
        ScanMinimum(
            indices=rep,
            delta1=float(axes[0][rep[0]]),
            delta2=float(axes[1][rep[1]]),
            delta3=float(axes[2][rep[2]]),
            value=float(values[rep]),
            n_nodes=count,
            index_span=span,
        )
        for rep, count, span in _components(is_min)
    ]
    minima.sort(key=lambda m: (m.value, m.indices))

    finite = np.where(np.isfinite(values), values, np.nan)
    grid_bound = 0.0
    for axis in range(3):
        step = np.abs(np.diff(finite, axis=axis))
        if np.any(np.isfinite(step)):
            grid_bound = max(grid_bound, float(np.nanmax(step)))
    return minima, grid_bound


def _components(mask: np.ndarray) -> list:
    """The 26-connected components of a 3-d boolean grid: for each, its
    first node in C order, its number of nodes and its (lo, hi) index span
    along each axis."""
    nodes = [tuple(node) for node in np.argwhere(mask).tolist()]  # C order
    todo = set(nodes)
    components = []
    for first in nodes:
        if first not in todo:
            continue
        todo.remove(first)
        stack, members = [first], []
        while stack:
            a, b, c = stack.pop()
            members.append((a, b, c))
            for i, j, k in _NEIGHBOURS:
                nb = (a + i, b + j, c + k)
                if nb in todo:
                    todo.remove(nb)
                    stack.append(nb)
        span = tuple((min(axis), max(axis)) for axis in zip(*members))
        components.append((first, len(members), span))
    return components
