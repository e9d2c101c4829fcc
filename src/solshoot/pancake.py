"""Desk-scale pancake metrics: long thin profiles with curvature control.

A profile on [0, L+1] carries two warping functions: f2 rises from a
collapsing sphere orbit at r = 0 (f2 = sin r) to the unit cylinder
f2 = 1, and f1 stays at the plateau L before descending linearly to a
collapsing circle orbit at r = L+1 (f1 = L+1-r).  Polynomial blends make
both transitions C^2.  The point of the construction is that every
curvature eigenvalue stays non-negative and the scalar curvature range
is independent of L.
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
# derivative at an edge node and at its neighbour, from the 6 nodes starting
# at the edge
_D1_EDGE = np.array([-137.0, 300.0, -300.0, 200.0, -75.0, 12.0]) / 60.0
_D1_NEXT = np.array([-12.0, -65.0, 120.0, -60.0, 20.0, -3.0]) / 60.0
_D2_EDGE = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0
_D2_NEXT = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0


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
    their scalar curvature, and the extrema used by the L-uniform bound.

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


def _f2_values(r: np.ndarray, a: float, b: float, coefs: np.ndarray) -> np.ndarray:
    """f2 everywhere: sin r, then sin a + int q, then 1."""
    anti = np.polynomial.polynomial.polyint(coefs)
    w = b - a
    sig = np.clip((r - a) / w, 0.0, 1.0)
    blend = math.sin(a) + w * np.polyval(anti[::-1], sig)
    return np.where(r <= a, np.sin(np.minimum(r, a)), np.where(r >= b, 1.0, blend))


def _f1_values(r: np.ndarray, length: float, c: float, d: float) -> np.ndarray:
    """f1 everywhere: L, then L minus the integrated smoothstep, then L+1-r."""
    v = d - c
    sig = np.clip((r - c) / v, 0.0, 1.0)
    drop = v * (sig**3 - 0.5 * sig**4)
    return np.where(
        r <= c, length, np.where(r >= d, length + 1.0 - r, length - drop)
    )


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
    return PancakeProfile(
        r=r,
        f1=_f1_values(r, length, c, d),
        f2=_f2_values(r, a, b, coefs),
        length=length,
        f2_window=(a, b),
        f1_window=(c, d),
        f2_blend_coefs=coefs,
    )


def _fd_derivatives(r: np.ndarray, f: np.ndarray, lo: int, hi: int):
    """First and second derivatives of f on the index window [lo, hi)
    using 5-point stencils confined to the window (one-sided at edges)."""
    n = hi - lo
    if n < 6:
        raise GridTooCoarse(f"blend region holds {n} points; need >= 6")
    h = r[1] - r[0]
    seg = f[lo:hi]
    d1 = np.empty(n)
    d2 = np.empty(n)
    # interior: centered 5-point (exact through quintics for d2)
    d1[2:-2] = (seg[:-4] - 8 * seg[1:-3] + 8 * seg[3:-1] - seg[4:]) / (12 * h)
    d2[2:-2] = (
        -seg[:-4] + 16 * seg[1:-3] - 30 * seg[2:-2] + 16 * seg[3:-1] - seg[4:]
    ) / (12 * h * h)
    # edges: one-sided 6-point stencils
    d1[0] = _D1_EDGE @ seg[:6] / h
    d1[1] = _D1_NEXT @ seg[:6] / h
    d1[-1] = -(_D1_EDGE @ seg[-1:-7:-1]) / h
    d1[-2] = -(_D1_NEXT @ seg[-1:-7:-1]) / h
    d2[0] = _D2_EDGE @ seg[:6] / (h * h)
    d2[1] = _D2_NEXT @ seg[:6] / (h * h)
    d2[-1] = _D2_EDGE @ seg[-1:-7:-1] / (h * h)
    d2[-2] = _D2_NEXT @ seg[-1:-7:-1] / (h * h)
    return d1, d2


def _curvature_arrays(r, f1, f2, profile: PancakeProfile):
    """Eigenvalue arrays and S on any uniform grid carrying the
    profile's piecewise structure (closed-form derivatives off the blend
    windows, confined finite differences inside them)."""
    a, b = profile.f2_window
    c, d = profile.f1_window
    n = r.size
    df1, d2f1 = np.zeros(n), np.zeros(n)
    df2, d2f2 = np.zeros(n), np.zeros(n)
    # closed-form derivative values
    cap = r <= a
    df2[cap] = np.cos(r[cap])
    d2f2[cap] = -np.sin(r[cap])
    far = r >= d
    df1[far] = -1.0
    # blend-region derivatives by confined finite differences
    for f, d1_arr, d2_arr, lo_r, hi_r in (
        (f2, df2, d2f2, a, b),
        (f1, df1, d2f1, c, d),
    ):
        lo = int(np.searchsorted(r, lo_r, side="right"))
        hi = int(np.searchsorted(r, hi_r, side="left"))
        if hi > lo:
            d1_arr[lo:hi], d2_arr[lo:hi] = _fd_derivatives(r, f, lo, hi)

    with np.errstate(divide="ignore", invalid="ignore"):
        k_t1 = -d2f1 / f1
        k_t2 = -d2f2 / f2
        k_s = (1.0 - df2 * df2) / (f2 * f2)
        k_m = -df1 * df2 / (f1 * f2)
    # exact values on closed-form regions; these also settle the 0/0
    # limits at the two collapsing orbits (r=0 sits left of both windows,
    # r=L+1 right of both)
    k_t1[(r <= c) | (r >= d)] = 0.0
    k_t2[cap] = 1.0
    k_s[cap] = 1.0
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
    f1 = _f1_values(r, profile.length, c, d)
    f2 = _f2_values(r, a, b, profile.f2_blend_coefs)
    k_t1, k_t2, k_s, k_m, scalar = _curvature_arrays(r, f1, f2, profile)
    min_eig = min(float(min(k.min() for k in (k_t1, k_t2, k_s, k_m))), 0.0)
    s_min = min(float(scalar.min()), 2.0)
    s_max = max(float(scalar.max()), 6.0)
    c_bound = max(s_max, 1.0 / s_min) if s_min > 0.0 else math.inf
    return min_eig, s_min, s_max, c_bound


def profile_curvature(profile: PancakeProfile) -> ProfileCurvature:
    """Curvature eigenvalues (-f1''/f1, -f2''/f2, (1-f2'^2)/f2^2,
    -f1'f2'/(f1 f2)) and S = 2(k_t1 + 2 k_t2 + k_s + 2 k_m).

    Closed-form regions get their exact constant eigenvalues; blend
    regions use finite differences of the gridded values with stencils
    that never cross a region boundary.  The reported extrema are
    resolved beyond the profile grid (see ProfileCurvature).
    """
    k_t1, k_t2, k_s, k_m, scalar = _curvature_arrays(
        profile.r, profile.f1, profile.f2, profile
    )
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
    curv = profile_curvature(profile)
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
        min_eig=curv.min_eig,
        s_min=curv.s_min,
        s_max=curv.s_max,
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
    """
    r, f1, f2 = profile.r, profile.f1, profile.f2
    h = r[1] - r[0]
    far_start = max(profile.f2_window[1], profile.f1_window[1])
    span = profile.length + 1.0 - far_start
    stride = max(1, int(min(0.1, 0.16 * span) / h))
    hs = stride * h
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
