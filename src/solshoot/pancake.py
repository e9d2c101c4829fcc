"""Desk-scale pancake metrics: long thin profiles with curvature control.

A profile on [0, L+1] carries two warping functions: f2 rises from a
collapsing sphere orbit at r = 0 (f2 = sin r) to the unit cylinder
f2 = 1, and f1 stays at the plateau L before descending linearly to a
collapsing circle orbit at r = L+1 (f1 = L+1-r).  Polynomial blends make
both transitions C^2.  The point of the construction is that every
curvature eigenvalue stays non-negative and the scalar curvature range
is independent of L.  The eigenvalues come from the closed-form first
and second derivatives of these formulas, not from finite differences
of the gridded values, so they are exact to roundoff at any grid size.
"""

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import BlendInfeasible, GridTooCoarse

__all__ = [
    "BlendParams",
    "PancakeProfile",
    "ProfileCurvature",
    "ProfileReport",
    "SmoothnessReport",
    "build_profile",
    "profile_curvature",
    "profile_report",
    "smoothness_residuals",
]

_FEASIBILITY_TOL = 1e-12

# one-sided 6-point stencils (exact through quintics): the first and second
# derivative at an edge node from the 6 nodes starting at the edge
_D1_EDGE = np.array([-137.0, 300.0, -300.0, 200.0, -75.0, 12.0]) / 60.0
_D2_EDGE = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0


class BlendParams(NamedTuple):
    """Transition windows (r_start, r_end) for the two warping functions.

    The f1 window must be centered at r = 1: the cubic smoothstep slope
    profile integrates to half the window width, which has to equal the
    drop L - (L+1-r_end) demanded by the linear continuation.
    """

    f2_window: Tuple[float, float] = (0.5, 1.5)
    f1_window: Tuple[float, float] = (0.5, 1.5)


class PancakeProfile(NamedTuple):
    """Gridded profile with its construction parameters."""

    r: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    length: float
    f2_window: Tuple[float, float]
    f1_window: Tuple[float, float]
    f2_blend_coefs: np.ndarray


class ProfileCurvature(NamedTuple):
    """Per-grid-point curvature eigenvalues (multiplicities 1, 2, 1, 2),
    their scalar curvature, and the extrema used by the L-uniform bound,
    all from closed-form derivatives of the profile formulas.

    The reported extrema (min_eig, s_min, s_max) come from a dense
    fixed-resolution sweep of the blend windows combined with the exact
    flat-region constants, so they do not move when the profile grid is
    refined.  c_bound is the smallest C with [s_min, s_max] inside
    [1/C, C]."""

    r: np.ndarray
    k_t1: np.ndarray
    k_t2: np.ndarray
    k_s: np.ndarray
    k_m: np.ndarray
    scalar: np.ndarray
    min_eig: float
    s_min: float
    s_max: float
    c_bound: float


class ProfileReport(NamedTuple):
    """Volume, diameter interval, and curvature extrema of a profile."""

    volume: float
    diameter_low: float
    diameter_high: float
    min_eig: float
    s_min: float
    s_max: float


class SmoothnessReport(NamedTuple):
    """Absolute residuals of the orbit smoothness conditions: slope and
    parity requirements at the sphere orbit (r = 0) and the circle orbit
    (r = L+1), extracted from one-sided expansions of the grid values."""

    f2_slope_origin: float
    f2_curv_origin: float
    f1_slope_origin: float
    f1_slope_far: float
    f1_curv_far: float
    f2_slope_far: float


def _solve_f2_blend(a: float, b: float) -> np.ndarray:
    """Quartic q(sigma) = f2' on the window, sigma = (r-a)/(b-a).

    Constraints: q(0) = cos a, q'(0) = -(b-a) sin a (C^2 against sin r),
    q(1) = 0, q'(1) = 0 (C^2 against f2 = 1), and the area
    int q dsigma = (1 - sin a)/(b-a) so that f2(b) = 1.
    """
    w = b - a
    q0 = math.cos(a)
    q1 = -w * math.sin(a)
    target = (1.0 - math.sin(a)) / w
    mat = np.array(
        [
            [1.0, 1.0, 1.0],
            [2.0, 3.0, 4.0],
            [1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0],
        ]
    )
    rhs = np.array(
        [-q0 - q1, -q1, target - q0 - q1 / 2.0]
    )
    c2, c3, c4 = np.linalg.solve(mat, rhs)
    return np.array([q0, q1, c2, c3, c4])


def _check_f2_blend(coefs: np.ndarray) -> None:
    sig = np.linspace(0.0, 1.0, 2001)
    q = np.polyval(coefs[::-1], sig)
    dq = np.polyval(np.polynomial.polynomial.polyder(coefs)[::-1], sig)
    if np.min(q) < -_FEASIBILITY_TOL:
        raise BlendInfeasible(
            f"f2 slope blend dips to {np.min(q):.3g} < 0 (f2 not monotone)"
        )
    if np.max(dq) > _FEASIBILITY_TOL:
        raise BlendInfeasible(
            f"f2 slope blend rises by {np.max(dq):.3g} > 0 (f2 not concave)"
        )


def _jets(r, length, f2_window, f1_window, coefs):
    """f1, f1', f1'', f2, f2', f2'' in closed form at the points r.

    f2 is sin r on the cap r <= a, sin a + w int q on the blend, where
    f2' = q(sigma) and f2'' = q'(sigma)/w with sigma = (r-a)/w, w = b-a,
    and 1 from b on.  f1 is the plateau L minus the integrated smoothstep
    v (s^3 - s^4/2), s = (r-c)/v, v = d-c, and L+1-r from d on; with s
    clipped to [0, 1], f1' = -(3s^2 - 2s^3) and f1'' = -6s(1-s)/v hold on
    all three pieces.  Each f2 formula is evaluated on its own region
    only, since trig and quartics over the whole grid cost more than the
    masks.
    """
    a, b = f2_window
    c, d = f1_window
    v, w = d - c, b - a
    s = np.clip((r - c) / v, 0.0, 1.0)
    s3 = s**3
    f1 = np.where(r >= d, length + 1.0 - r, length - v * (s3 - 0.5 * s**4))
    df1 = -(3.0 * s * s - 2.0 * s3)
    d2f1 = -6.0 * s * (1.0 - s) / v
    f2, df2, d2f2 = np.ones(r.size), np.zeros(r.size), np.zeros(r.size)
    cap = r <= a
    f2[cap] = np.sin(r[cap])
    df2[cap] = np.cos(r[cap])
    d2f2[cap] = -f2[cap]
    blend = (r > a) & (r < b)
    sig = (r[blend] - a) / w
    poly = np.polynomial.polynomial
    f2[blend] = math.sin(a) + w * np.polyval(poly.polyint(coefs)[::-1], sig)
    df2[blend] = np.polyval(coefs[::-1], sig)
    d2f2[blend] = np.polyval(poly.polyder(coefs)[::-1], sig) / w
    return f1, df1, d2f1, f2, df2, d2f2


def build_profile(
    length: float,
    blend: Optional[BlendParams] = None,
    grid_n: int = 2048,
) -> PancakeProfile:
    """Build a pancake profile of plateau height ``length`` on [0, L+1].

    Requires a finite length >= 10 and grid_n >= 1000.  Raises
    BlendInfeasible when the requested windows cannot carry a monotone
    concave f2 transition, or when the f1 window is not centered at r = 1
    (the smoothstep drop is half the window width, which must match the
    linear continuation).
    """
    if not length >= 10.0:
        raise ValueError(f"length must be at least 10, got {length:g}")
    if not math.isfinite(length):
        raise ValueError(f"length must be finite, got {length:g}")
    if grid_n < 1000:
        raise GridTooCoarse(f"grid_n must be >= 1000, got {grid_n}")
    blend = blend or BlendParams()
    a, b = blend.f2_window
    c, d = blend.f1_window
    if not (0.0 < a < b <= length + 1.0):
        raise BlendInfeasible(f"f2 window {blend.f2_window} out of order or range")
    if not (0.0 < c < d <= length + 1.0):
        raise BlendInfeasible(f"f1 window {blend.f1_window} out of order or range")
    if abs((c + d) / 2.0 - 1.0) > _FEASIBILITY_TOL:
        raise BlendInfeasible(
            f"f1 window {blend.f1_window} not centered at r = 1: smoothstep "
            f"drop (d-c)/2 cannot meet the line L+1-r"
        )
    coefs = _solve_f2_blend(a, b)
    _check_f2_blend(coefs)
    r = np.linspace(0.0, length + 1.0, grid_n + 1)
    f1, _, _, f2, _, _ = _jets(r, length, (a, b), (c, d), coefs)
    return PancakeProfile(
        r=r,
        f1=f1,
        f2=f2,
        length=length,
        f2_window=(a, b),
        f1_window=(c, d),
        f2_blend_coefs=coefs,
    )


def _curvature_arrays(r, profile: PancakeProfile):
    """Eigenvalue arrays and S at the points r, from the profile's
    closed-form derivatives."""
    a, b = profile.f2_window
    c, d = profile.f1_window
    f1, df1, d2f1, f2, df2, d2f2 = _jets(
        r, profile.length, (a, b), (c, d), profile.f2_blend_coefs
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        k_t1 = -d2f1 / f1
        k_t2 = -d2f2 / f2
        k_s = (1.0 - df2 * df2) / (f2 * f2)
        k_m = -df1 * df2 / (f1 * f2)
    # exact constants off the blends; these also settle the 0/0 limits at
    # the two collapsing orbits (r=0 sits left of both windows, r=L+1
    # right of both) and keep -0.0 (from -0/f2) off the neck
    k_t1[(r <= c) | (r >= d)] = 0.0
    k_t2[r <= a] = 1.0
    k_t2[r >= b] = 0.0
    k_s[r <= a] = 1.0
    k_m[(r <= c) | (r >= b)] = 0.0
    scalar = 2.0 * (k_t1 + 2.0 * k_t2 + k_s + 2.0 * k_m)
    return k_t1, k_t2, k_s, k_m, scalar


_DENSE_EXTREMA_N = 16001


def _reported_extrema(profile: PancakeProfile):
    """Extrema from a dense fixed-resolution sweep of the blend cover,
    folded with the exact flat-region constants (eigenvalues 0 and 1,
    S = 6 on the cap, S = 2 on the neck).  Grid-independent: the node
    extrema of the profile's own grid shift by O(h^2) as the extremizer
    falls between nodes, which would break the sub-1e-6 stability of the
    reported values under grid doubling."""
    a, b = profile.f2_window
    c, d = profile.f1_window
    lo, hi = min(a, c), max(b, d)
    r = np.linspace(lo, hi, _DENSE_EXTREMA_N)
    k_t1, k_t2, k_s, k_m, scalar = _curvature_arrays(r, profile)
    min_eig = min(float(min(k.min() for k in (k_t1, k_t2, k_s, k_m))), 0.0)
    s_min = min(float(scalar.min()), 2.0)
    s_max = max(float(scalar.max()), 6.0)
    c_bound = max(s_max, 1.0 / s_min) if s_min > 0.0 else math.inf
    return min_eig, s_min, s_max, c_bound


def profile_curvature(profile: PancakeProfile) -> ProfileCurvature:
    """Curvature eigenvalues (-f1''/f1, -f2''/f2, (1-f2'^2)/f2^2,
    -f1'f2'/(f1 f2)) and S = 2(k_t1 + 2 k_t2 + k_s + 2 k_m).

    f1, f2 and their derivatives are evaluated in closed form at each
    node (see _jets), and the cap and neck get their exact constant
    eigenvalues.  The reported extrema are resolved beyond the profile
    grid (see ProfileCurvature).
    """
    k_t1, k_t2, k_s, k_m, scalar = _curvature_arrays(profile.r, profile)
    min_eig, s_min, s_max, c_bound = _reported_extrema(profile)
    return ProfileCurvature(
        r=profile.r,
        k_t1=k_t1,
        k_t2=k_t2,
        k_s=k_s,
        k_m=k_m,
        scalar=scalar,
        min_eig=min_eig,
        s_min=s_min,
        s_max=s_max,
        c_bound=c_bound,
    )


def profile_report(profile: PancakeProfile) -> ProfileReport:
    """Volume 8 pi^2 int f1 f2^2 dr, the diameter interval
    [L+1, L+1 + pi max f2 + pi max f1], and the curvature extrema."""
    min_eig, s_min, s_max, _ = _reported_extrema(profile)
    vol = 8.0 * math.pi**2 * float(
        np.trapezoid(profile.f1 * profile.f2**2, profile.r)
    )
    lo = profile.length + 1.0
    hi = lo + math.pi * float(np.max(profile.f2)) + math.pi * float(
        np.max(profile.f1)
    )
    return ProfileReport(
        volume=vol,
        diameter_low=lo,
        diameter_high=hi,
        min_eig=min_eig,
        s_min=s_min,
        s_max=s_max,
    )


def smoothness_residuals(profile: PancakeProfile) -> SmoothnessReport:
    """One-sided expansion residuals of the orbit smoothness conditions.

    Sphere orbit (r = 0): f2' = 1 and even-order residual f2'' = 0 (odd
    parity), f1' = 0 (even parity).  Circle orbit (r = L+1): f1' = -1 and
    f1'' = 0 (odd parity in L+1-r), f2' = 0 (even parity).

    The far-side stencils stride several nodes: second-derivative weights
    amplify value roundoff by roughly 50/H^2 for stencil step H, which on
    a fine grid would swamp the residual, while both profiles are exactly
    linear or constant past the blends so a wider H costs no truncation.
    At the origin the sampled values themselves shrink with the step, so
    plain adjacent-node stencils stay quiet there.

    Raises GridTooCoarse when a six-node stencil reaches into a blend:
    5h > min(a, c) at the sphere orbit, 5 stride h > L+1 - max(b, d) at
    the circle orbit.
    """
    r, f1, f2 = profile.r, profile.f1, profile.f2
    h = r[1] - r[0]
    far_start = max(profile.f2_window[1], profile.f1_window[1])
    span = profile.length + 1.0 - far_start
    stride = max(1, int(min(0.1, 0.16 * span) / h))
    hs = stride * h
    if not (5 * h <= min(profile.f2_window[0], profile.f1_window[0]) and 5 * hs <= span):
        raise GridTooCoarse(f"grid step {h:.3g} too coarse for the orbit stencils; raise grid_n")
    tail1 = f1[-1 : -6 * stride - 1 : -stride]
    tail2 = f2[-1 : -6 * stride - 1 : -stride]
    return SmoothnessReport(
        f2_slope_origin=abs(float(_D1_EDGE @ f2[:6] / h) - 1.0),
        f2_curv_origin=abs(float(_D2_EDGE @ f2[:6] / (h * h))),
        f1_slope_origin=abs(float(_D1_EDGE @ f1[:6] / h)),
        f1_slope_far=abs(float(-(_D1_EDGE @ tail1) / hs) + 1.0),
        f1_curv_far=abs(float(_D2_EDGE @ tail1 / (hs * hs))),
        f2_slope_far=abs(float(-(_D1_EDGE @ tail2) / hs)),
    )
