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
columns stay out of the step control, so the state part of such a shot is
bitwise the plain shot's, as long as both take the DP5 step (see "Stiff
regime" below).

The sweeps (``sample_curve``, ``sample_surface``, ``scan_domain``) shoot all
their nodes of one side together, in lockstep through
``ode.integrate_batch``, one process; the last node left goes on alone in
``ode.integrate``'s loop.  Every node's result is bit-identical
to its single DP5 shot, so it does not depend on the sweep's size or order;
that is ``shoot_curve_point``/``shoot_surface_point`` except for a circle-side
node in the stiff regime below.  ``scan_domain`` still accepts a ``workers``
argument, with no effect, because the benchmark's scan workload passes it.
Only ``sample_curve`` keeps each node's trajectory, for its curvature minima.

Failed shots inside sweeps are recorded, not raised: the large-delta1 regime
legitimately stresses the integrator and the failure boundary is data.

Stiff regime: on the circle side at large delta1, the L1 and L2 equations
have the eigenvalue -xi while xi is large, and DP5's step is held to its
stability limit there, so its step count grows linearly in delta1 (3.8k,
15k and 72k steps to xi = 10 at delta1 = 1e2, 1e3, 1e4).  A plain
circle-side shot with delta1 >= ``_STIFF_DELTA1`` = 200 therefore takes
the Radau IIA(5) step of ``ode.integrate``, given the exact Jacobian
``family_tangent(y, I)``: 3.0k to 4.3k steps to xi = 10 from delta1 = 200
to 1e6.  Uncapped in t, a shot meets near t = 6 sqrt(delta1) to delta1 ~ 2e19.
DP5 and Radau cost the same near delta1 = 150 (measured on shots to the
meet and to xi = 10); 200 leaves a margin.  The route depends on delta1
alone, never on a runtime test.  Only the plain scalar shot has the Radau
step.  Newton's tangent-carrying shots, every sweep lane (``integrate_batch``
is DP5 only), the sphere side and every delta1 below 200 take DP5.  So at
delta1 >= 200, a ``sample_curve`` node and Newton's F agree with
``shoot_curve_point`` and ``mismatch`` to within the integration tolerance,
not bitwise.  Sweeps stay on DP5 because a lockstep DP5 batch amortises its
per-step cost over the lanes: ``curve --range 200,2000 --n 100`` took
12.5-15.2 s batched, against 74 s with each node a scalar Radau shot (2-core
Xeon VM).  The last lane, which leaves the batch, stays on DP5 too.
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
from .ode import Event, IntegratorConfig, LaneEnd, Trajectory, integrate, integrate_batch

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
_MAX_ITER = 25  # Newton iterations before MaxIterations
# plain circle-side shots from this delta1 on take ode.integrate's Radau IIA
# step; see "Stiff regime" in the module docstring
_STIFF_DELTA1 = 200.0
_EYE4 = np.eye(4)


@dataclass(frozen=True)
class ShootConfig:
    """Knobs shared by every shooting operation.

    ``t_eps`` is the series handoff distance on both sides (auto-shrunk for
    large parameters, never enlarged).  ``exploratory`` lifts the
    admissibility preconditions delta1 >= 0, delta2 >= -1, delta3 >= 0.
    """

    t_eps: float = 1e-4
    rtol: float = 1e-10
    atol: float = 1e-12
    exploratory: bool = False

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
    if not (0.0 < eps <= 1e-3):
        raise EpsilonTooLarge(
            f"series handoff {eps!r} outside (0, 1e-3]; truncation is O(eps^3) "
            "only on that range"
        )


def s1_series_state(delta1: float, t_eps: float) -> SolitonState:
    """Order-1 series state at distance t_eps from the circle orbit.

    xi = 2/t + (8 d1 - 1) t,  L1 = -t/3,
    L2 = 1/t - 2 d1 t,        R = 1/t + d1 t.

    All four reduced functions are odd in t, so the truncation error is
    O(t_eps^3).
    """
    _check_eps(t_eps)
    return SolitonState(*_s1_series(delta1, t_eps, 1.0, cubic=False))


def s2_series_state(delta2: float, delta3: float, s_eps: float) -> SolitonState:
    """Order-2 series state at distance s_eps from the sphere orbit.

    -xi = 1/s + d2 s,            -L1 = 1/s - ((d2+1)/2) s,
    -L2 = ((d3^2-1)/2) s,         R  = d3 - (d3 (d3^2-1)/4) s^2,

    with truncation O(s_eps^3).  The formulas stay regular at d3 = 1 (the
    slope of L2 simply vanishes there) and reproduce the exact Gaussian at
    (d2, d3) = (-1, 1).
    """
    _check_eps(s_eps)
    return SolitonState(*_s2_series(delta2, delta3, s_eps, cubic=False))


# The series are plain arithmetic, so they run on floats, on complex numbers
# (``_launch`` differentiates them by a complex step) and on sympy symbols
# (the tests differentiate them symbolically) alike.


def _s1_series(delta1, t, lam, cubic: bool = True) -> tuple:
    """(xi, L1, L2, R) of the circle-side series at t: the order-1 terms of
    ``s1_series_state`` at soliton constant ``lam`` and, with ``cubic``,
    the order-3 terms that every shot launches from.

    The extra odd terms cost nothing and matter: the order-1 handoff error,
    projected on the delta1 direction (which vanishes like t at the orbit),
    shifts the meet by ~1e-8 at t = 1e-3.  Coefficients were obtained by
    matching powers of t in the family field and cross-checked against the
    closed-form round trajectory (they reduce to the cot/tan/csc Taylor
    coefficients at delta1 = 1/18, lam = 1).
    """
    base = (
        2.0 / t + (8.0 * delta1 - lam) * t,
        -(lam / 3.0) * t,
        1.0 / t - 2.0 * delta1 * t,
        1.0 / t + delta1 * t,
    )
    if not cubic:
        return base
    c3 = (124 / 25) * delta1**2 - (12 / 25) * lam * delta1 + (2 / 225) * lam**2
    d3 = 0.5 * delta1**2 - 0.25 * c3
    a3 = -(lam**2) / 27 - (8 / 3) * delta1**2 - (4 / 3) * c3
    b3 = lam * (8 * delta1 - lam) / 15
    return tuple(b + c * t**3 for b, c in zip(base, (a3, b3, c3, d3)))


def _s2_series(delta2, delta3, s, cubic: bool = True) -> tuple:
    """(xi, L1, L2, R) of the sphere-side series at s, as ``_s1_series``:
    with ``cubic``, the next-order terms too, for the same reason."""
    base = (
        -(1.0 / s + delta2 * s),
        -(1.0 / s - 0.5 * (delta2 + 1.0) * s),
        -0.5 * (delta3 * delta3 - 1.0) * s,
        delta3 - 0.25 * delta3 * (delta3 * delta3 - 1.0) * s * s,
    )
    if not cubic:
        return base
    mu = 0.5 * (delta2 + 1.0)
    nu = 0.5 * (1.0 - delta3 * delta3)
    a3 = (2 * mu * mu + 4 * nu * nu + delta2 * mu) / 5.0
    b3 = (-delta2 * mu - a3) / 4.0
    c3 = -nu * (delta2 + delta3 * delta3) / 4.0
    r4 = delta3 * (c3 + 0.5 * nu * nu) / 4.0
    return tuple(b + c * s**3 for b, c in zip(base, (a3, b3, c3, r4 * s)))


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


def _effective_eps(eps: float, *coeffs: float) -> float:
    """Shrink the handoff so the series correction stays ~1e-4 relative.

    The order-1 terms carry coefficients growing with the parameters, so the
    expansion is trustworthy only while max|coeff| * eps^2 is small.
    """
    big = max(1.0, *(abs(c) for c in coeffs))
    return min(eps, 1e-2 / math.sqrt(big))


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
    return Event(fn=lambda t, y: y[k] - level, direction=direction, name=name), math.inf


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
    t0 = _effective_eps(cfg.t_eps, *params)
    _check_eps(t0)

    def series(*p):
        return _s2_series(*p, t0) if side == "s2" else _s1_series(*p, t0, lam)

    try:
        rows = [series(*params)]
        for j in range(len(params) if tangent else 0):
            bumped = series(*params[:j], params[j] + _CSTEP * 1j, *params[j + 1:])
            rows.append([v.imag / _CSTEP for v in bumped])
        return t0, np.array(rows).ravel()
    except OverflowError:
        # delta1**2 overflows above ~1.3e154; an infinite launch state is
        # stopped by the integrator's blow-up guard before the first step
        return t0, np.full(4 * (1 + tangent * len(params)), math.inf)


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


def _failure(side: str, event, t_end: float, last: LaneEnd) -> Optional[str]:
    """Why a shot that ended at ``last`` missed its stop rule, or None."""
    if event is not None and last.termination != "event":
        return (
            f"{side} shot never reached {event.name}: stopped by "
            f"{last.termination} at t={last.t:.6g} with "
            f"state={' '.join(f'{v:.6g}' for v in last.y)}"
        )
    if event is None and last.termination != "reached_end":
        return (
            f"{side} shot stopped by {last.termination} at t={last.t:.6g} "
            f"before the requested time {t_end:g}"
        )
    return None


def _shoot(
    y0, t0: float, side: str, until, cfg: ShootConfig, lam: float, k: int = 0, stiff: bool = False
):
    """The trajectory of a shot from (t0, y0) under ``until``, with ``k``
    tangent columns riding along; ``stiff`` takes the Radau step (circle
    side, no tangent columns).  EventNotReached if it misses the rule."""
    event, t_end = _stop_rule(until, side)
    if event is not None and not lam > 0:
        raise ValueError(f"an event stop rule needs lam > 0, got lam = {lam!r}")
    field, n_state = _field(side, lam), (4 if k else None)
    jac = (lambda t, y: family_tangent(y, _EYE4)) if stiff else None
    traj = integrate(field, t0, np.array(y0), t_end, cfg.integrator(), event, n_state, jac)
    reason = _failure(side, event, t_end, LaneEnd(traj.t_end, traj.y[-1, :4], traj.termination))
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
):
    """Integrate the circle-side IVP; returns (MeetPoint, Trajectory).

    By default stops at the xi = 0 crossing.  Other stop rules: "collapse"
    (L1 falls to ``_COLLAPSE_L1``, the far orbit), ("xi", v), ("time", T);
    an event rule at lam <= 0 raises ValueError (see ``_stop_rule``).  The
    MeetPoint is the final state's (L1, L2, R) under any rule.
    """
    cfg = cfg or ShootConfig()
    check_admissible(delta1=delta1, exploratory=cfg.exploratory)
    t0, y0 = _launch("s1", (delta1,), cfg, lam)
    traj = _shoot(y0, t0, "s1", until, cfg, lam, stiff=delta1 >= _STIFF_DELTA1)
    return _meet_from(traj.y[-1]), traj


def shoot_surface_point(
    delta2: float,
    delta3: float,
    cfg: Optional[ShootConfig] = None,
    until="meet",
):
    """Integrate the sphere-side IVP in the orbit distance s.

    The trajectory's independent variable increases away from the sphere
    orbit (backwards in the original time), so xi rises from -1/s_eps toward
    the meet.  Stop rules as in ``shoot_curve_point``; ("xi", v) with v > 0
    continues past the xi = 0 orbit into the region the Gaussian-closeness
    diagnostics examine.
    """
    cfg = cfg or ShootConfig()
    check_admissible(delta2=delta2, delta3=delta3, exploratory=cfg.exploratory)
    s0, y0 = _launch("s2", (delta2, delta3), cfg)
    traj = _shoot(y0, s0, "s2", until, cfg, lam=1.0)
    return _meet_from(traj.y[-1]), traj


def mismatch(
    delta1: float, delta2: float, delta3: float, cfg: Optional[ShootConfig] = None
) -> MismatchVector:
    """Circle-side minus sphere-side MeetPoint; zero exactly on solitons."""
    m1, _ = shoot_curve_point(delta1, cfg)
    m2, _ = shoot_surface_point(delta2, delta3, cfg)
    return MismatchVector(m1.l1 - m2.l1, m1.l2 - m2.l2, m1.r - m2.r)


def _meet_with_slope(side: str, params: tuple, cfg: ShootConfig):
    """(L1, L2, R) at the meet of a DP5 shot from ``params``, bitwise the
    plain DP5 shot's, and its derivatives by the parameters, (3, len(params)).

    The tangent columns Y are integrated with the state.  The meet moves
    with the parameters: xi(t*) = 0 gives dt*/dp = -Y[0] / xi'(y*), so
    dM/dp = Y - f(y*) Y[0] / f[0](y*), the same for either sign of the field.
    """
    check_admissible(**dict(zip(_PARAM_NAMES[side], params)), exploratory=cfg.exploratory)
    k = len(params)
    t0, y0 = _launch(side, params, cfg, tangent=True)
    end = _shoot(y0, t0, side, "meet", cfg, 1.0, k).y[-1]
    y, cols = end[:4], end[4:].reshape(k, 4)
    f = family_rhs(y, 1.0)
    return y[1:], (cols[:, 1:] - np.outer(cols[:, 0] / f[0], f[1:])).T


def _mismatch_with_jacobian(p: np.ndarray, cfg: ShootConfig):
    """F(p) and its exact Jacobian: one DP5 shot per side with its tangent
    columns.  F is bitwise ``mismatch(*p)`` for delta1 < ``_STIFF_DELTA1``;
    above, ``mismatch`` shoots the circle side with Radau and the two agree
    to within the integration tolerance."""
    try:
        m1, dm1 = _meet_with_slope("s1", (p[0],), cfg)
        m2, dm2 = _meet_with_slope("s2", (p[1], p[2]), cfg)
    except (EventNotReached, InadmissibleParameters) as exc:
        raise ShootFailure(
            f"shot failed at (d1, d2, d3) = {tuple(p)!r}: {exc}", params=tuple(p)
        ) from exc
    return m1 - m2, np.column_stack((dm1, -dm2))


def _clip_admissible(p: np.ndarray) -> np.ndarray:
    return np.maximum(p, [0.0, -1.0, 0.0])


def find_root(guess: Sequence[float], cfg: Optional[ShootConfig] = None) -> RootResult:
    """Damped Newton iteration on the mismatch map.

    Every point Newton evaluates costs two shots, one per side, which carry
    the variational equations along: they give F, bitwise ``mismatch`` at
    that point for delta1 < ``_STIFF_DELTA1`` (within the integration
    tolerance above it, see ``_mismatch_with_jacobian``), and its exact
    Jacobian (see ``_meet_with_slope``).  Each
    Newton step is halved (up to 20 times) until the residual sup-norm
    decreases, so the residual falls strictly from iterate to iterate.
    Iterates are kept inside the admissible region unless the config is
    exploratory.  Convergence means |F|_inf < 1e-7, which sits above the
    ~1e-8 floor that the two integrations impose on the mismatch at default
    tolerances (Newton typically lands near 1e-8 anyway on its final step).

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

    F, J = _mismatch_with_jacobian(p, cfg)
    res = float(np.max(np.abs(F)))
    history = []
    for it in range(_MAX_ITER):
        if res < _NEWTON_TOL:
            return RootResult(tuple(p), res, it, tuple(history))
        try:
            # one factorization gives the step and J^-1; np.linalg.cond's SVD
            # would add 0.75 MB of LAPACK pages to the peak RSS
            solved = np.linalg.solve(J, np.column_stack((-F, np.eye(3))))
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(
                f"Jacobian singular at {tuple(p)!r} (iteration {it})",
                result=RootResult(tuple(p), res, it, tuple(history)),
            ) from exc
        step = solved[:, 0]
        cond = float(np.linalg.norm(J, 1) * np.linalg.norm(solved[:, 1:], 1))

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
                f"no decrease after 20 halvings at {tuple(p)!r}, residual {res:.3e}",
                result=RootResult(tuple(p), res, it + 1, tuple(history)),
            )
        history.append(NewtonStep(res_new, damp, cond, 2 * trials))
        p, F, J, res = trial, F_new, J_new, res_new

    if res < _NEWTON_TOL:
        return RootResult(tuple(p), res, _MAX_ITER, tuple(history))
    raise MaxIterations(
        f"residual {res:.3e} still above tol {_NEWTON_TOL:g} after {_MAX_ITER} iterations",
        result=RootResult(tuple(p), res, _MAX_ITER, tuple(history)),
    )


def _eig_samples(traj: Trajectory) -> tuple:
    """(times, curvature eigenvalue rows) at a trajectory's nodes and step
    midpoints, in ascending time."""
    ts = np.sort(np.concatenate((traj.t, 0.5 * (traj.t[:-1] + traj.t[1:]))))
    return ts, curvature_eigs_grid(traj.eval(ts))


def _shoot_lanes(side: str, points: list, cfg: ShootConfig, history: bool = False) -> list:
    """Meet shots of many parameter points, in lockstep through
    ``integrate_batch``, every one with the DP5 step.

    Per point, (meet, trajectory, reason): a failed shot has meet None and
    the text its single DP5 shot would raise as reason; the trajectory is kept
    only with ``history``.
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
        lanes.append(i)
        t0s.append(t0)
        y0s.append(y0)
    if not lanes:
        return out
    event, t_end = _stop_rule("meet", side)
    field = _field(side, 1.0)
    # the batch passes states as rows, or one state as a single shot does;
    # the field reads them as columns
    ends = integrate_batch(
        lambda t, y: field(t, y.T).T, t0s, y0s, t_end, event, cfg.integrator(), history
    )
    for i, end in zip(lanes, ends):
        last = LaneEnd(end.t_end, end.y[-1], end.termination) if history else end
        reason = _failure(side, event, t_end, last)
        meet = None if reason is not None else _meet_from(last.y)
        out[i] = (meet, end if history else None, reason)
    return out


def _check_finite_bounds(*ranges) -> None:
    if not np.all(np.isfinite(np.array(ranges, dtype=float))):
        raise ValueError(f"sweep bounds must be finite, got {ranges!r}")


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
    if n < 2:
        raise ValueError("need n >= 2 samples")
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"log-uniform sweep needs finite 0 < lo < hi, got {lo!r}, {hi!r}")
    d1s = [float(d1) for d1 in np.geomspace(lo, hi, n)]
    shots = _shoot_lanes("s1", [(d1,) for d1 in d1s], cfg, history=True)
    return [
        CurveSample(d1, meet, tuple(_eig_samples(traj)[1].min(axis=0).tolist()), "ok")
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
    if n2 < 2 or n3 < 2:
        raise ValueError("need at least a 2 x 2 grid")
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
    if not (float(resolution).is_integer() and resolution >= 2):
        raise ValueError(f"resolution must be an integer >= 2, got {resolution!r}")
    n = int(resolution)
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


def _grid_minima(values_ext: np.ndarray, axes: tuple) -> tuple:
    """Minima sorted by value, and grid_bound, of a ghost-extended grid of
    |F|_inf (+inf where a shot failed), by the rules of ``scan_domain``."""
    # imported here: scipy.ndimage adds tens of ms to ``import solshoot``
    from scipy import ndimage

    values = values_ext[1:-1, 1:-1, 1:-1]
    lowest = ndimage.minimum_filter(values_ext, size=3)[1:-1, 1:-1, 1:-1]
    is_min = np.isfinite(values) & (values <= lowest)
    labels, _ = ndimage.label(is_min, structure=np.ones((3, 3, 3)))
    flat = labels.ravel()
    in_min = np.flatnonzero(flat)
    # labels are 1..n; np.unique gives each one's first flat index in C order
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
