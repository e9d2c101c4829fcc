"""Numerical monitors for the a priori estimates behind the shooting method.

Every operation here measures and reports; none asserts.  The monitors
cover the two maximum-principle sign conditions, the per-eigenvalue
sign-change inventory, closeness to the Gaussian state at the xi = 10
orbit, the differential inequality for K = sqrt(L2^2 + (R-1)^2), the
closed-form integral behind the delta3 window, the delta2 monitors X and
Y with their orbit extrapolation, and the large-delta1 traces in scaled
variables together with the matching steady-reference comparison.
"""

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import bryant, fields, ode
from .errors import EventNotReached, ExtrapolationUnstable, InadmissibleParameters
from .shooting import ShootConfig, _s2_launch_params, _s2_series, shoot_curve_point

__all__ = [
    "MaxPrincipleReport",
    "SignReport",
    "GaussianCloseness",
    "KMonitor",
    "Delta3Report",
    "Delta2Report",
    "PancakeTraceReport",
    "BryantCompareReport",
    "EIG_NAMES",
    "max_principle_report",
    "sign_profile",
    "gaussian_closeness_at_xi10",
    "k_monitor",
    "delta3_integral_check",
    "delta2_monitors",
    "large_delta1_trace",
    "rescaled_bryant_compare",
]

EIG_NAMES = fields.CurvatureEigenvalues._fields

# |value| below this everywhere classifies an eigenvalue as identically
# zero rather than sign-changing (degenerate cases like the Gaussian k_m)
_ZERO_BAND = 1e-9
# every eigenvalue is a quadratic in the state, so it carries a rounding
# error of a few eps |y|^2; a sample below _SIGN_ULPS eps max|y|^2 has no
# sign either.  On the Gaussian's launch k_t1 = 0 is computed from terms
# near 1e8 and reads between -7e-9 and 3e-8
_SIGN_ULPS = 8
_K_SAMPLES = 2001  # uniform grid points of k_monitor
# distances from the sphere orbit where delta2_monitors samples: a halving
# triple (s, s/2, s/4)
_DELTA2_SAMPLES = (0.2, 0.1, 0.05)


class MaxPrincipleReport(NamedTuple):
    """Minima of the two sign-condition quantities k_t1 = xi L1 + 1 - L1^2
    and k_s = R^2 - L2^2 over a trajectory, with their locations."""

    min_k_t1: float
    t_at_min_k_t1: float
    min_k_s: float
    t_at_min_k_s: float


class SignReport(NamedTuple):
    """Per-eigenvalue minima, their locations, refined interior
    sign-change times, and identically-zero flags, ordered as EIG_NAMES."""

    min_values: Tuple[float, ...]
    min_times: Tuple[float, ...]
    sign_changes: Tuple[Tuple[float, ...], ...]
    identically_zero: Tuple[bool, ...]


class GaussianCloseness(NamedTuple):
    """Deviations (|L1 + 1/(5+sqrt(26))|, |R-1|, |L2|) at the xi=10 orbit."""

    dl1: float
    dr: float
    dl2: float
    t_event: float


class KMonitor(NamedTuple):
    """Samples of K = sqrt(L2^2 + (R-1)^2), its physical-time derivative by
    centered differences, and the largest violation of
    K (-1/2 - max(0, xi)) <= K' <= (1/2 + max(0, -xi)) K."""

    times: np.ndarray
    k: np.ndarray
    dk: np.ndarray
    max_violation: float


class Delta3Report(NamedTuple):
    """Two independent evaluations of the delta3 window integral along
    with its first (dominant) term."""

    closed_form: float
    quadrature: float
    first_term: float


class Delta2Report(NamedTuple):
    """Samples of X = xi - L1 and Y = xi L1 + 1 - L1^2 at fixed distances
    from the sphere orbit, and Y extrapolated to the orbit itself."""

    s_samples: Tuple[float, ...]
    x_samples: Tuple[float, ...]
    y_samples: Tuple[float, ...]
    y_at_orbit: float


class PancakeTraceReport(NamedTuple):
    """Scaled-variable snapshot of a one-sided large-delta1 shot at the
    yz = 1/10 orbit, with en-route minima of x, of the gauge E, and of the
    distance to the critical line (0, 0, 0, z), z in [0, 1]."""

    z: float
    w: float
    d_plus_1: float
    x: float
    e_min: float
    x_min: float
    dist_critical_line: float
    t_event: float


class BryantCompareReport(NamedTuple):
    """Sup over [t_eps, 1/9] of the componentwise deviation between a
    rescaled one-sided shot and the steady reference, divided by p^2 t."""

    c_obs: float
    sup_dev: float
    p_squared: float


def max_principle_report(traj: ode.Trajectory) -> MaxPrincipleReport:
    """Minima of k_t1 and k_s over the points of ``Trajectory.sample``."""
    ts, states = traj.sample()
    eigs = fields.curvature_eigs_grid(states)
    i1 = int(np.argmin(eigs[:, 0]))
    i2 = int(np.argmin(eigs[:, 1]))
    return MaxPrincipleReport(
        min_k_t1=float(eigs[i1, 0]),
        t_at_min_k_t1=float(ts[i1]),
        min_k_s=float(eigs[i2, 1]),
        t_at_min_k_s=float(ts[i2]),
    )


def sign_profile(traj: ode.Trajectory) -> SignReport:
    """Sign-change inventory of the four curvature eigenvalues.

    An eigenvalue staying within 1e-9 of zero everywhere is
    flagged identically zero and contributes no sign changes.  Otherwise
    interior crossings between samples of definite opposite sign are
    refined with a bracketed root solve on the dense output.  A sample is
    definite when it lies outside 1e-9 and outside its own rounding error,
    ``_SIGN_ULPS`` eps max|y|^2 at its state y.
    """
    ts, states = traj.sample()
    eigs = fields.curvature_eigs_grid(states)
    band = np.maximum(_ZERO_BAND, _SIGN_ULPS * np.finfo(float).eps * np.max(states * states, axis=1))
    mins, tmins, changes, flat = [], [], [], []
    for j in range(4):
        v = eigs[:, j]
        i = int(np.argmin(v))
        mins.append(float(v[i]))
        tmins.append(float(ts[i]))
        if np.max(np.abs(v)) < _ZERO_BAND:
            flat.append(True)
            changes.append(())
            continue
        flat.append(False)

        def eig_j(t):
            return float(fields.curvature_eigs(traj.eval(t))[j])

        # brackets between consecutive definite samples of opposite sign (a
        # NaN sample counts as definite and negative)
        k = np.flatnonzero(~(np.abs(v) < band))
        flip = (v[k[1:]] > 0) != (v[k[:-1]] > 0)
        brackets = zip(ts[k[:-1][flip]], ts[k[1:][flip]])
        # rtol 4 eps and 100 iterations, scipy's brentq defaults
        rtol = 4 * np.finfo(float).eps
        changes.append(tuple(ode.brentq(eig_j, a, b, 1e-13, rtol, 100) for a, b in brackets))
    return SignReport(tuple(mins), tuple(tmins), tuple(changes), tuple(flat))


def gaussian_closeness_at_xi10(traj: ode.Trajectory) -> GaussianCloseness:
    """Deviation of (L1, R, L2) from the Gaussian values at the xi = 10
    orbit: L1 = -1/(5 + sqrt(26)), R = 1, L2 = 0."""
    t_hit = ode.locate_event(traj, lambda t, y: y[0] - 10.0)
    if t_hit is None:
        raise EventNotReached("trajectory has no xi = 10 orbit")
    xi, l1, l2, r = traj.eval(t_hit)
    return GaussianCloseness(
        dl1=abs(l1 + 1.0 / (5.0 + math.sqrt(26.0))),
        dr=abs(r - 1.0),
        dl2=abs(l2),
        t_event=t_hit,
    )


def k_monitor(traj: ode.Trajectory, side: str = "s2") -> KMonitor:
    """Check the two-sided differential inequality for K on a uniform grid
    of ``_K_SAMPLES`` points.

    ``side`` fixes the physical-time orientation of the stored parameter:
    on the sphere side ("s2") the parameter runs opposite to physical
    time, so the finite-difference derivative is sign-flipped.  The
    reported violation is expected at the finite-difference error scale
    O(h^2) for trajectories satisfying the inequality exactly.
    """
    if side not in ("s1", "s2"):
        raise ValueError(f"side must be 's1' or 's2', got {side!r}")
    sgn = 1.0 if side == "s1" else -1.0
    ts = np.linspace(traj.t0, traj.t_end, _K_SAMPLES)
    states = traj.eval(ts)
    xi, l2, r = states[:, 0], states[:, 2], states[:, 3]
    k = np.hypot(l2, r - 1.0)
    h = ts[1] - ts[0]
    dk = sgn * (k[2:] - k[:-2]) / (2.0 * h)
    ki, xii = k[1:-1], sgn * xi[1:-1]
    lower = ki * (-0.5 - np.maximum(0.0, xii))
    upper = (0.5 + np.maximum(0.0, -xii)) * ki
    viol = np.maximum(np.maximum(lower - dk, dk - upper), 0.0)
    return KMonitor(
        times=ts[1:-1], k=ki, dk=dk, max_violation=float(np.max(viol))
    )


def delta3_integral_check() -> Delta3Report:
    """Evaluate int_{1/40}^{1/2} [s/(1/40+s)^2 - s - 1/(4s)] ds two ways.

    The closed form uses the antiderivative ln(a+s) + a/(a+s) of the
    first term (a = 1/40); the oracle is 20-point Gauss-Legendre on 8
    geometric panels, which follow the 1/(4s) term's scale, summed by
    ``math.fsum`` so that no summation order moves its last digit.
    The value exceeding 1 is what pins the parameter window.
    """
    a = 1.0 / 40.0

    def first_anti(s):
        return math.log(a + s) + a / (a + s)

    first = first_anti(0.5) - first_anti(a)
    closed = first - (0.125 - 1.0 / 3200.0) - math.log(20.0) / 4.0
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.geomspace(a, 0.5, 9)
    half = np.diff(edges)[:, None] / 2.0
    s = edges[:-1, None] + half * (1.0 + nodes)
    val = math.fsum((half * weights * (s / (a + s) ** 2 - s - 1.0 / (4.0 * s))).ravel())
    return Delta3Report(closed_form=closed, quadrature=val, first_term=first)


def delta2_monitors(traj: ode.Trajectory) -> Delta2Report:
    """Sample X = xi - L1 and Y = xi L1 + 1 - L1^2 on a sphere-side shot at
    the distances ``_DELTA2_SAMPLES`` and extrapolate Y to the orbit.

    Both fields are odd in the distance s to the orbit, so Y is even and
    two Richardson levels on the halving triple (s, s/2, s/4) remove the
    s^2 and s^4 corrections.  Orbit value: Y -> (3/2)(delta2 + 1).  A
    sample below the shot's handoff is read off the launch series that the
    shot starts on.
    """
    below = min(_DELTA2_SAMPLES) < traj.t0
    params = _s2_launch_params(traj.t0, traj.y[0]) if below else ()
    if params is None or not traj.t_end >= max(_DELTA2_SAMPLES):
        raise ExtrapolationUnstable(
            f"trajectory [{traj.t0:g}, {traj.t_end:g}] does not span samples"
        )
    xi, l1 = np.array(
        [_s2_series(*params, s) if s < traj.t0 else traj.eval(s) for s in _DELTA2_SAMPLES]
    )[:, :2].T
    xs = [float(v) for v in xi - l1]
    ys = [float(v) for v in xi * l1 + 1.0 - l1 * l1]
    a1 = (4.0 * ys[1] - ys[0]) / 3.0
    a2 = (4.0 * ys[2] - ys[1]) / 3.0
    if abs(a2 - a1) > 1e-3:
        raise ExtrapolationUnstable(
            f"Richardson levels disagree by {abs(a2 - a1):.3g}"
        )
    return Delta2Report(
        s_samples=_DELTA2_SAMPLES,
        x_samples=tuple(xs),
        y_samples=tuple(ys),
        y_at_orbit=(16.0 * a2 - a1) / 15.0,
    )


def large_delta1_trace(
    d1: float, cfg: Optional[ShootConfig] = None
) -> PancakeTraceReport:
    """Run a one-sided shot at large delta1 and report it in scaled
    variables at the yz = 1/10 orbit (equivalently xi = 10).

    Along the way the minima of x and of the gauge E are tracked, as is
    the distance to the critical line (0, 0, 0, z) with z clipped to
    [0, 1].  They are minima over the dense output at the points of
    ``Trajectory.sample``.  EventNotReached propagates if the shot
    never reaches xi=10.
    """
    if not d1 > 0.0:
        raise InadmissibleParameters(f"d1 must be positive, got {d1:g}")
    _, traj = shoot_curve_point(d1, cfg, until=("xi", 10.0))
    # the last sample is the last node, bitwise
    scaled = fields.to_scaled(traj.sample()[1].T)
    w, x, y, z = scaled
    dist = np.sqrt(w * w + x * x + y * y + (z - np.clip(z, 0.0, 1.0)) ** 2)
    gauges = fields.gauge_quantities(scaled)
    return PancakeTraceReport(
        z=float(z[-1]),
        w=float(w[-1]),
        d_plus_1=float(gauges.d_gauge[-1] + 1.0),
        x=float(x[-1]),
        e_min=float(np.min(gauges.e_gauge)),
        x_min=float(np.min(x)),
        dist_critical_line=float(np.min(dist)),
        t_event=traj.t_end,
    )


def rescaled_bryant_compare(d1: float, cfg: Optional[ShootConfig] = None) -> BryantCompareReport:
    """Compare the rescaled large-delta1 shot against the steady reference.

    Rescaling by p = 1/sqrt(d1) turns the delta1 = d1 shot into the unit
    shot of the lam = p^2 family; its deviation from the lam = 0 steady
    reference on 200 points of [t_eps, 1/9] is reported as
    c_obs = sup |deviation|_inf / (p^2 t).  Both shots launch at the
    handoff t_eps of ``bryant.smalltime_config``.  At d1 = inf the two
    integrations coincide and c_obs = 0 by convention.
    """
    if not d1 >= 100.0:
        raise InadmissibleParameters(f"d1 must be >= 100, got {d1:g}")
    cfg = bryant.smalltime_config(cfg)
    p2 = 0.0 if math.isinf(d1) else 1.0 / d1
    _, shot = shoot_curve_point(1.0, cfg, until=("time", 1.0 / 9.0), lam=p2)
    ref = bryant.steady_reference(cfg=cfg)
    ts = np.linspace(cfg.t_eps, 1.0 / 9.0, 200)
    dev = np.max(np.abs(shot.eval(ts) - ref.eval(ts)), axis=1)
    sup_dev = float(np.max(dev))
    c_obs = 0.0 if p2 == 0.0 else float(np.max(dev / (p2 * ts)))
    return BryantCompareReport(c_obs=c_obs, sup_dev=sup_dev, p_squared=p2)
