"""Metric profile reconstruction from first-order trajectories.

A trajectory in the (xi, L1, L2, R) variables determines the warped-product
metric dt^2 + f1(t)^2 dtheta^2 + f2(t)^2 g_{S^2} and the soliton potential u
only up to integration constants.  This module recovers the gridded profile
functions, fixes the gauges (f1 slope -1 at the collapsing orbit, u = 0 on
the xi = 0 orbit), and provides an independent second-order residual check
of the reconstructed metric.
"""

from typing import NamedTuple, Optional

import numpy as np

from . import ode
from .errors import GridTooCoarse, NonPrincipal, ProfileGaugeError
from .fields import curvature_eigs
from .shooting import _s2_launch_params, _s2_series_f1

__all__ = [
    "MetricProfile",
    "reconstruct_profile",
    "second_order_residual",
]

# a circle-side shot's f1 is anchored at its last sample, where
# f1 = -(1 - k_t1 / (2 L1^2)) / L1 up to a relative O(f1^4); the anchor sample
# must be close enough for that error to sit below integration noise.
_ANCHOR_L1_MAX = -10.0


class MetricProfile(NamedTuple):
    """Gridded warping functions and potential, with first derivatives.

    ``grid`` is the trajectory's own parameter: physical arclength t for a
    circle-side shot, reversed arclength s for a sphere-side shot.  The
    derivative arrays are taken with respect to ``grid``.
    """

    grid: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    u: np.ndarray
    df1: np.ndarray
    df2: np.ndarray
    du: np.ndarray
    side: str
    u_gauge: str


def reconstruct_profile(
    traj: ode.Trajectory, side: str, grid_n: Optional[int] = None
) -> MetricProfile:
    """Recover (f1, f2, u) from a first-order trajectory.

    ``side`` says which singular orbit the shot was launched from: "s1"
    trajectories run with physical time, "s2" trajectories run against it
    (their stored states are the physical fields at t = T - s).  f2 = 1/R
    pointwise; f1 = exp(int L1) with the constant fixed at the sample
    nearest the collapsing orbit, where the smoothness condition f1' = -1
    pins it.  A sphere-side shot starts there, on the launch series, which
    gives f1 at its first sample (``shooting._s2_series_f1``).  A
    circle-side shot ends there: a smooth orbit at distance r has
    f1 = r - k r^3/6 + O(r^5), with k the curvature eigenvalue k_t1 there,
    so L1 = -(1 - k r^2/3)/r and f1 = -(1 - k_t1/(2 L1^2))/L1 up to a
    relative O(r^4), with k_t1 read at the last sample itself; u integrates
    L1 + 2 L2 - xi and vanishes on the xi = 0 orbit when the trajectory
    crosses it (otherwise u is zeroed at the left endpoint and the gauge tag
    says so).

    A circle-side shot must actually approach the collapsing orbit
    (integrate with until="collapse"), and a sphere-side one must start on
    the launch series; otherwise the f1 anchor is not trustworthy and
    ProfileGaugeError is raised.
    """
    if side not in ("s1", "s2"):
        raise ValueError(f"side must be 's1' or 's2', got {side!r}")
    sgn = 1.0 if side == "s1" else -1.0

    if grid_n is not None:
        if grid_n < 2:
            raise GridTooCoarse("profile grid needs at least 2 points")
        grid = np.linspace(traj.t0, traj.t_end, int(grid_n))
        states = traj.eval(grid)
    else:
        grid = np.asarray(traj.t, dtype=float)
        states = np.asarray(traj.y, dtype=float)

    xi, l1, l2, r = states.T
    if np.any(r <= 0.0):
        raise NonPrincipal("R <= 0 on the grid; profile leaves the principal part")
    f2 = 1.0 / r

    # log f1 and the potential u by exact quadrature of the dense
    # interpolant, in one pass: u' = L1 + 2 L2 - xi in physical time,
    # flipped with the grid.  log f1 is anchored at the collapsing-orbit end
    # (last sample for s1 shots, first for s2 shots)
    _, integrals = traj.antiderivative(
        lambda t, y: np.stack((sgn * y[1], sgn * (y[1] + 2.0 * y[2] - y[0])))
    )
    lnf1, u_grid = integrals(grid).T
    if side == "s2":
        params = _s2_launch_params(traj.t0, traj.y[0])
        if params is None:
            raise ProfileGaugeError(
                "trajectory does not start on the sphere-side launch series, "
                "so its f1 has no anchor; shoot it with shoot_surface_point"
            )
        anchor, f1_anchor = 0, _s2_series_f1(*params, traj.t0)
    else:
        anchor, l1_anchor = -1, l1[-1]
        if not l1_anchor <= _ANCHOR_L1_MAX:
            raise ProfileGaugeError(
                "trajectory does not reach the collapsing orbit "
                f"(L1 = {l1_anchor:.3g} at the anchor sample, need <= {_ANCHOR_L1_MAX:g}); "
                "integrate with until='collapse'"
            )
        k_t1 = curvature_eigs(states[-1]).k_t1
        f1_anchor = -(1.0 - k_t1 / (2.0 * l1_anchor * l1_anchor)) / l1_anchor
    f1 = f1_anchor * np.exp(lnf1 - lnf1[anchor])

    t_zero = ode.locate_event(traj, lambda t, y: y[0])
    if t_zero is not None:
        u_ref, u_gauge = integrals(t_zero)[1], "xi-zero"
    else:
        u_ref, u_gauge = u_grid[0], "left-endpoint"
    u = u_grid - u_ref

    df1 = sgn * l1 * f1
    df2 = sgn * l2 * f2
    du = sgn * (l1 + 2.0 * l2 - xi)
    return MetricProfile(grid, f1, f2, u, df1, df2, du, side, u_gauge)


def _centered_diff(x, f):
    """Centered three-point first derivative on a possibly nonuniform grid,
    at the interior points x[1:-1]."""
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    return (
        (-hp / (hm * (hm + hp))) * f[:-2]
        + ((hp - hm) / (hm * hp)) * f[1:-1]
        + (hm / (hp * (hm + hp))) * f[2:]
    )


def second_order_residual(profile: MetricProfile) -> float:
    """Largest residual of the second-order soliton equations on the grid.

    Second derivatives come from centered differences of the profile's
    first-derivative grids (differencing the values twice would amplify
    interpolation kinks by 1/h^2 and drown the signal near the orbits),
    so neighboring grid values are genuinely coupled and the result is an
    independent cross-check of the first-order integration rather than a
    restatement of it.  The three residuals (S^1 block, S^2 block, and the
    dt^2 trace component, with the normalization Ric + Hess u = g) are
    evaluated at interior points and the maximum absolute value returned.

    Points where f1 or f2 sits below 5% of its grid maximum are
    excluded: the equations there multiply absolute roundoff by 1/f, so no
    finite-difference check can certify the orbit-adjacent boundary layer
    (the series launch states cover it instead).
    """
    if len(profile.grid) < 5:
        raise GridTooCoarse("second-order residual needs at least 5 grid points")
    x = profile.grid
    d2f1 = _centered_diff(x, profile.df1)
    d2f2 = _centered_diff(x, profile.df2)
    d2u = _centered_diff(x, profile.du)
    f1, f2 = profile.f1[1:-1], profile.f2[1:-1]
    df1, df2, du = profile.df1[1:-1], profile.df2[1:-1], profile.du[1:-1]

    keep = (f1 >= 0.05 * np.max(profile.f1)) & (f2 >= 0.05 * np.max(profile.f2))
    if not np.any(keep):
        raise GridTooCoarse("no grid points clear the orbit margins")
    cross = df1 * df2 / (f1 * f2)
    r1 = -d2f1 / f1 - 2.0 * cross + du * df1 / f1 - 1.0
    r2 = -d2f2 / f2 + (1.0 - df2**2) / f2**2 - cross + du * df2 / f2 - 1.0
    r3 = -d2f1 / f1 - 2.0 * d2f2 / f2 + d2u - 1.0
    stacked = np.abs(np.vstack([r1, r2, r3]))[:, keep]
    return float(np.max(stacked))
