"""Bryant steady soliton reference curves and their bound checks.

The steady rotationally symmetric soliton appears here in two guises: the
planar (x, y) system whose unstable-manifold curve y = f(x) connects
(1, 1/2) to the origin, and the three-field steady shot used as the
reference trajectory for large-parameter comparisons.  Both carry the
closed-form envelope bounds this module measures margins against.

The planar flow is stiff along its tail: the manifold attracts at unit
rate while the drift along it decays like x^3, so an explicit stepper
stalls at its stability boundary long before x reaches 1e-6.  The curve
is therefore traced by ``ode.integrate``'s Radau step, in s = -log x so
that time runs forward, on the scaled gap v = (y - x)/x^3: the gap shrinks
like x^3 (y = x - 2x^3 near the origin), so v stays near -2.
"""

import math
from dataclasses import replace
from typing import NamedTuple, Optional

import numpy as np

from . import ode
from .errors import LaunchOutOfRange, LaunchTooFar
from .shooting import ShootConfig, shoot_curve_point

__all__ = [
    "BryantCurve",
    "FBoundsReport",
    "SmalltimeReport",
    "bryant_unstable_curve",
    "verify_f_bounds",
    "smalltime_config",
    "steady_reference",
    "bryant_smalltime",
]

# quadratic coefficient of the local manifold expansion along the unstable
# eigendirection (2, 1) of the planar system at (1, 1/2)
_QUAD_COEF = 2.0 / 5.0
_X_CUTOFF = 1e-6
_N_NODES = 40_001
_SMALLTIME_SAMPLES = 500  # grid points of bryant_smalltime's margins
# the small-time checks launch at most this far out: their envelopes are
# tangent to the trajectory at t = 0, so they are read from near the orbit,
# not from the shots' default handoff
_SMALLTIME_EPS = 1e-4


class BryantCurve(NamedTuple):
    """Unstable-manifold curve samples, x descending from 1-h to 1e-6."""

    x: np.ndarray
    y: np.ndarray
    h: float

    def interp(self, xq):
        """y = f(x) by linear interpolation (x is stored descending)."""
        return np.interp(xq, self.x[::-1], self.y[::-1])


class FBoundsReport(NamedTuple):
    """Minimum signed margins of the four envelope bounds on y = f(x), plus
    the curve value at x = 0.3.  Positive margin = bound satisfied."""

    margin_ge_half_x: float
    margin_le_half_x_plus_sq: float
    margin_ge_x_minus_x2: float
    margin_le_x: float
    y_at_x03: float


class SmalltimeReport(NamedTuple):
    """Margins of the small-time envelope bounds for the steady shot on
    [t_eps, 1/9], and the endpoint values of z = 1/R and x = L2/R."""

    z_lower_margin: float
    z_upper_margin: float
    x_lower_margin: float
    x_upper_margin: float
    z_end: float
    x_end: float


def _scaled_gap_field(s, v, jac=False):
    """dv/ds = 3v - N/(x^2 D), or with ``jac`` its 1 x 1 Jacobian; N/D is
    the gap slope in (x, v), with no cancellation where y hugs x."""
    x2 = math.exp(-2.0 * s)
    x4 = x2 * x2
    v = float(v[0])
    a, b, c = 1.0 + 3.0 * x2 - 6.0 * x4, x4 * (6.0 * x2 - 1.0), 2.0 * x4 * x4
    n = -2.0 + 2.0 * x2 + v * (-a + v * (b + c * v))
    n_v = -a + v * (2.0 * b + 3.0 * c * v)
    d = 1.0 + v * (1.0 + x2) or math.nan  # 0 on x' = 0, where N/D is undefined: NaN stops the step
    if jac:
        return np.array([[3.0 - (n_v * d - n * (1.0 + x2)) / (x2 * d * d)]])
    return np.array([3.0 * v - n / (x2 * d)])


def bryant_unstable_curve(h: float = 1e-4, rtol: float = ode.IntegratorConfig.rtol) -> BryantCurve:
    """Trace the planar unstable-manifold curve from (1, 1/2) down to
    x = 1e-6.

    The launch point sits a distance h along the local expansion
    y = 1/2 - (1-x)/2 + (2/5)(1-x)^2 of the manifold.  Offsets beyond
    1e-3 leave the expansion's trust region, and an offset outside
    (0, 1e-3] raises LaunchOutOfRange.  A trace that stops short of
    x = 1e-6, or leaves the monotone-descent region (x' < 0, y' < 0) en
    route, raises LaunchTooFar.  ``rtol`` is the Radau step's relative
    tolerance; its absolute one, 1e-12 on v, is 1e-12 x^3 on y - x.
    """
    if not 0.0 < h <= 1e-3:
        raise LaunchOutOfRange(f"launch offset h={h:g} outside (0, 1e-3]")
    x0 = 1.0 - h
    u0 = (0.5 - h / 2.0 + _QUAD_COEF * h * h) - x0
    grid = np.geomspace(x0, _X_CUTOFF, _N_NODES)
    s0, s1 = -math.log(x0), -math.log(_X_CUTOFF)
    v0 = u0 / x0**3
    if not 1.0 + v0 * (1.0 + x0 * x0) < 0.0:  # the monotone-descent rule below, at the launch
        raise LaunchTooFar(f"launch from h={h:g} is not in the monotone-descent region")
    traj = ode.integrate(
        _scaled_gap_field, s0, [v0], s1, ode.IntegratorConfig(rtol=rtol),
        jac=lambda s, v: _scaled_gap_field(s, v, jac=True),
    )
    if traj.termination != "reached_end":
        raise LaunchTooFar(f"trace from h={h:g} stopped by {traj.termination} at x={math.exp(-traj.t_end):g}")
    # -log of the geomspace endpoints can round just outside [s0, s1]
    v = traj.eval(np.clip(-np.log(grid), s0, s1))[:, 0]
    y = grid + v * grid**3
    # x' < 0 where D = 1 + v (1 + x^2) < 0, which also puts y below x
    if np.any(1.0 + v * (1.0 + grid * grid) >= 0.0) or np.any(np.diff(y) >= 0.0):
        raise LaunchTooFar(f"trace from h={h:g} left the monotone-descent region")
    return BryantCurve(grid, y, h)


def verify_f_bounds(curve: BryantCurve) -> FBoundsReport:
    """Measure the four envelope bounds on the manifold curve.

    Lower bounds: f >= x/2 on [0, 1] and f >= x - x^2 on [0, 1/4].
    Upper bounds: f <= x/2 + (1-x)^2 on [3/4, 1] and f <= x on [0, 1].
    Margins are minima of the signed slack over the stated ranges; the
    report never asserts.
    """
    x, y = curve.x, curve.y
    in_cap = x <= 0.25
    in_shoulder = x >= 0.75
    return FBoundsReport(
        margin_ge_half_x=float(np.min(y - x / 2.0)),
        margin_le_half_x_plus_sq=float(
            np.min((x / 2.0 + (1.0 - x) ** 2 - y)[in_shoulder])
        ),
        margin_ge_x_minus_x2=float(np.min((y - (x - x * x))[in_cap])),
        margin_le_x=float(np.min(x - y)),
        y_at_x03=float(curve.interp(0.3)),
    )


def smalltime_config(cfg: Optional[ShootConfig] = None) -> ShootConfig:
    """``cfg`` with its handoff capped at 1e-4, for the small-time checks."""
    cfg = cfg or ShootConfig()
    return replace(cfg, t_eps=min(cfg.t_eps, _SMALLTIME_EPS))


def steady_reference(cfg: Optional[ShootConfig] = None) -> ode.Trajectory:
    """Reference steady shot: the four-field system at lam = 0 launched
    from the circle orbit with unit series parameter, at the handoff of
    ``smalltime_config``, integrated to t = 1/9."""
    _, traj = shoot_curve_point(1.0, smalltime_config(cfg), until=("time", 1.0 / 9.0), lam=0.0)
    return traj


def bryant_smalltime(cfg: Optional[ShootConfig] = None) -> SmalltimeReport:
    """Check the small-time envelopes of the steady shot on [t_eps, 1/9].

    In z = 1/R and x = L2/R the bounds read
    sin(sqrt(6) t)/sqrt(6) <= z <= t and
    1 - 2 tan^2(sqrt(3/2) t) <= x <= 1 - 3 t^2 exp(-9 t^2).
    All four are tangent to the trajectory at t = 0, so the margins vanish
    toward the left endpoint; the report carries their minima on
    ``_SMALLTIME_SAMPLES`` evenly spaced points.
    """
    traj = steady_reference(cfg=cfg)
    t = np.linspace(traj.t0, traj.t_end, _SMALLTIME_SAMPLES)
    states = traj.eval(t)
    l2, r = states[:, 2], states[:, 3]
    z = 1.0 / r
    x = l2 / r
    sq6, sq15 = math.sqrt(6.0), math.sqrt(1.5)
    z_lo = np.sin(sq6 * t) / sq6
    x_lo = 1.0 - 2.0 * np.tan(sq15 * t) ** 2
    x_hi = 1.0 - 3.0 * t * t * np.exp(-9.0 * t * t)
    return SmalltimeReport(
        z_lower_margin=float(np.min(z - z_lo)),
        z_upper_margin=float(np.min(t - z)),
        x_lower_margin=float(np.min(x - x_lo)),
        x_upper_margin=float(np.min(x_hi - x)),
        z_end=float(z[-1]),
        x_end=float(x[-1]),
    )
