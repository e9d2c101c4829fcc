"""Shooting construction of rotationally invariant gradient Ricci solitons
on the four-sphere: reduced first-order systems integrated from the two
singular orbits, solitons as zeroes of a three-parameter mismatch map,
curvature-sign monitors, the Bryant steady reference curve, and pancake
initial metrics with certified curvature signs.
"""

__version__ = "0.1.0"

from . import bryant, fields, ode, output, pancake, profiles, shooting, verify
from .errors import SolshootError
from .fields import SolitonState, curvature_eigs, scalar_curvature, to_scaled
from .ode import IntegratorConfig, Trajectory, integrate, locate_event
from .pancake import (
    BlendParams,
    build_profile,
    profile_curvature,
    profile_report,
    smoothness_residuals,
)
from .profiles import MetricProfile, reconstruct_profile, second_order_residual
from .shooting import (
    ROUND_DELTAS,
    MeetPoint,
    MismatchVector,
    NewtonStep,
    RootResult,
    ShootConfig,
    find_root,
    mismatch,
    s1_series_state,
    s2_series_state,
    sample_curve,
    sample_surface,
    scan_domain,
    shoot_curve_point,
    shoot_surface_point,
)

__all__ = [
    "__version__",
    "SolshootError",
    "SolitonState",
    "curvature_eigs",
    "scalar_curvature",
    "to_scaled",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "locate_event",
    "BlendParams",
    "build_profile",
    "profile_curvature",
    "profile_report",
    "smoothness_residuals",
    "MetricProfile",
    "reconstruct_profile",
    "second_order_residual",
    "ROUND_DELTAS",
    "MeetPoint",
    "MismatchVector",
    "NewtonStep",
    "RootResult",
    "ShootConfig",
    "find_root",
    "mismatch",
    "s1_series_state",
    "s2_series_state",
    "sample_curve",
    "sample_surface",
    "scan_domain",
    "shoot_curve_point",
    "shoot_surface_point",
    "bryant",
    "fields",
    "ode",
    "output",
    "pancake",
    "profiles",
    "shooting",
    "verify",
]
