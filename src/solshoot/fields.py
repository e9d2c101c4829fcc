"""States, vector fields and pointwise diagnostics for the reduced soliton systems.

Everything here operates on the first-order reduction of the gradient-soliton
equations for doubly-warped metrics dt^2 + f1(t)^2 dtheta^2 + f2(t)^2 g_{S^2}.
The working variables are

    xi = L1 + 2 L2 - u'   (u the soliton potential),
    L1 = f1'/f1,  L2 = f2'/f2,  R = 1/f2,

collected as ``SolitonState``.  The shrinking system (soliton constant 1) is
``soliton_rhs``; ``family_rhs`` carries the one-parameter family that also
contains the rescaled systems (constant lam) and, at lam = 0, the steady
limit, and the variational equations: on 4 + 4k entries, the state and k
tangent columns, it returns the state's derivative, then J(state) v for each
column v (``family_tangent`` alone).  The planar steady Bryant system in
x = L2/R, y = R/xi gets its own function, ``bryant_xy_rhs``.

``ScaledState`` holds the compactified variables (w, x, y, z) =
(L1, L2/R, R/xi, 1/R) used for the large-parameter analysis, together with the
gauge quantities C, D, E that measure distance from the exact Gaussian
trajectory.

All *_rhs functions are autonomous: they take a state (any length-matching
sequence, including the NamedTuples above) and return an ndarray derivative.
Wrap with ``as_field`` to get the (t, y) signature the integrator expects.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateXi, DegenerateZ, UndefinedGauge

__all__ = [
    "SolitonState",
    "CurvatureEigenvalues",
    "ScaledState",
    "GaugeQuantities",
    "soliton_rhs",
    "family_rhs",
    "family_tangent",
    "bryant_xy_rhs",
    "scaled_rhs",
    "curvature_eigs",
    "curvature_eigs_grid",
    "scalar_curvature",
    "to_scaled",
    "from_scaled",
    "gauge_quantities",
    "as_field",
]


class SolitonState(NamedTuple):
    xi: float
    l1: float
    l2: float
    r: float


class CurvatureEigenvalues(NamedTuple):
    """Eigenvalues of the curvature operator, multiplicities (1, 1, 2, 2)."""

    k_t1: float  # plane spanned by d/dt and the collapsing circle
    k_s: float   # plane inside the sphere factor
    k_m: float   # mixed circle-sphere planes (x2)
    k_t2: float  # planes spanned by d/dt and the sphere factor (x2)


class ScaledState(NamedTuple):
    w: float
    x: float
    y: float
    z: float


class GaugeQuantities(NamedTuple):
    c_gauge: float
    d_gauge: float
    e_gauge: float


def as_field(rhs):
    """Adapt an autonomous state->derivative map to the integrator's (t, y)."""
    return lambda t, y: rhs(y)


# the field's six quadratic products are rows _FIRST times rows _SECOND of
# the state, row 1 doubled first: l1 l1, (2 l2) l2, xi l1, xi l2, r r, l2 r
_FIRST = np.array([1, 2, 0, 0, 3, 2])
_SECOND = np.array([1, 2, 1, 2, 3, 3])
# the products that enter the four components negated
_NEGATED = np.array([0, 2, 3, 5])


def family_rhs(s, lam: float) -> np.ndarray:
    """One-parameter family of first-order soliton fields.

    lam = 1 is the shrinking system, lam = p^2 the system satisfied by a
    p-rescaled shrinking trajectory, lam = 0 the steady limit.  The state
    (xi, L1, L2, R) may be followed by k >= 0 tangent columns: on those
    4 + 4k entries the field is the state's derivative, then J(state) v for
    each column v.  Entries may be arrays of equal shape, the rows of a
    (4 + 4k, m) block say.

    The state's six quadratic products come first, then the signs and
    lam: -(l1 l1) - (2 l2) l2 - lam, -(xi l1) - lam, r r - xi l2 - lam and
    -(l2 r).  A (4, m) block of lane states forms the six in one multiply of
    two gathers of its rows, 9 numpy calls against 16 and a stack for one
    expression per component, and takes the same operations in the same
    order as one column given as Python floats, so a lane and its single
    shot agree bitwise; a block with tangent columns takes the expressions.
    """
    if type(s) is np.ndarray and s.ndim > 1 and len(s) == 4:
        p = s.take(_FIRST, axis=0)
        p[1] *= 2.0
        p *= s.take(_SECOND, axis=0)
        f = -p.take(_NEGATED, axis=0)
        f[0] -= p[1]
        np.subtract(p[4], p[3], out=f[2])
        f[:3] -= lam
        return f
    xi, l1, l2, r = s[:4]
    out = [-(l1 * l1) - (2.0 * l2) * l2 - lam, -(xi * l1) - lam, r * r - xi * l2 - lam, -(l2 * r)]
    for j in range(4, len(s), 4):
        out += _tangent(xi, l1, l2, r, s[j:j + 4])
    return np.array(out)


def _tangent(xi, l1, l2, r, v) -> list:
    """The four components of J(xi, L1, L2, R) v; lam is a constant term of
    ``family_rhs``, so it drops out."""
    v0, v1, v2, v3 = v
    return [
        -2.0 * l1 * v1 - 4.0 * l2 * v2,
        -l1 * v0 - xi * v1,
        -l2 * v0 - xi * v2 + 2.0 * r * v3,
        -r * v2 - l2 * v3,
    ]


def family_tangent(s, v) -> np.ndarray:
    """J(s) v: the Jacobian of ``family_rhs`` at the state s applied to a
    tangent vector v (xi, L1, L2, R components).  v may also be a (4, k)
    stack of k tangent columns."""
    xi, l1, l2, r = s
    return np.array(_tangent(xi, l1, l2, r, v))


def soliton_rhs(s) -> np.ndarray:
    """Shrinking-soliton field: (xi', L1', L2', R') at soliton constant 1."""
    return family_rhs(s, 1.0)


def bryant_xy_rhs(s) -> np.ndarray:
    """Planar steady system in x = L2/R, y = R/xi.

    Agrees with ``scaled_rhs`` restricted to w = z = 0.  Fixed points: the
    origin and (1, 1/2).
    """
    x, y = s
    return np.array([-x + y + y * x * x, -x * y * y + 2.0 * x * x * y ** 3])


def scaled_rhs(s) -> np.ndarray:
    """Field in the compactified variables (w, x, y, z).

    The independent variable is stretched by xi (ds = xi dt), which is what
    removes xi from the equations.  Critical points: (0, 1, 1/2, 0) and the
    whole line (0, 0, 0, z); the former has a two-dimensional unstable
    manifold.
    """
    w, x, y, z = s
    return np.array(
        [
            -w - y * z,
            -x + y - y * z * z + x * x * y,
            -x * y * y + y ** 3 * (w * w * z * z + 2.0 * x * x + z * z),
            x * y * z,
        ]
    )


def curvature_eigs(s) -> CurvatureEigenvalues:
    """Curvature-operator eigenvalues of the metric behind a soliton state.

    The formulas use the first-order equations to eliminate second
    derivatives, so they represent curvatures only on actual trajectories;
    evaluated off-shell (e.g. on Newton iterates) they are just the same
    algebraic expressions.  The four components may be arrays of equal
    shape; the eigenvalues are then arrays of that shape.
    """
    xi, l1, l2, r = s
    return CurvatureEigenvalues(
        k_t1=xi * l1 + 1.0 - l1 * l1,
        k_s=r * r - l2 * l2,
        k_m=-l1 * l2,
        k_t2=xi * l2 + 1.0 - r * r - l2 * l2,
    )


def curvature_eigs_grid(states: np.ndarray) -> np.ndarray:
    """``curvature_eigs`` over an (n, 4) array of states.

    Returns an (n, 4) array with columns (k_t1, k_s, k_m, k_t2).
    """
    return np.column_stack(curvature_eigs(np.asarray(states, dtype=float).T))


def scalar_curvature(s) -> float:
    """Scalar curvature: twice the multiplicity-weighted eigenvalue sum.

    The factor 2 counts both orientations of each 2-plane; the round
    unit-Einstein sphere comes out as 4 under this convention.
    """
    k = curvature_eigs(s)
    return 2.0 * (k.k_t1 + k.k_s + 2.0 * k.k_m + 2.0 * k.k_t2)


def to_scaled(s) -> ScaledState:
    """(xi, L1, L2, R) -> (w, x, y, z); needs xi != 0 and R > 0.

    The components may be arrays of equal shape (``states.T`` of an (n, 4)
    array, say); the guards then apply to every entry.
    """
    xi, l1, l2, r = s
    if np.any(np.equal(xi, 0.0)):
        raise DegenerateXi("to_scaled: xi = 0 has no scaled image")
    if np.any(np.less_equal(r, 0.0)):
        raise DegenerateZ(f"to_scaled: r = {np.min(r)} must be positive")
    return ScaledState(w=l1, x=l2 / r, y=r / xi, z=1.0 / r)


def from_scaled(s) -> SolitonState:
    """(w, x, y, z) -> (xi, L1, L2, R); needs z > 0 and y != 0."""
    w, x, y, z = s
    if z <= 0.0:
        raise DegenerateZ(f"from_scaled: z = {z!r} must be positive")
    if y == 0.0:
        raise DegenerateXi("from_scaled: y = 0 corresponds to infinite xi")
    r = 1.0 / z
    return SolitonState(xi=r / y, l1=w, l2=x * r, r=r)


def gauge_quantities(s) -> GaugeQuantities:
    """Gaussian-structure gauges C = x/(y(1-z)), D = w/y - w^2, E = x/y + z^2 - 1 - x^2.

    Requires y != 0.  At z = 1 only C degenerates; it is reported as nan
    while D and E stay valid (the exact Gaussian trajectory lives at z = 1,
    D = -1, E = 0).  Array components work as in ``to_scaled``.
    """
    w, x, y, z = s
    if np.any(np.equal(y, 0.0)):
        raise UndefinedGauge("gauge quantities need y != 0")
    # C is nan at z = 1, where 1 - z becomes 1 so nothing divides by zero;
    # [()] turns the 0-d result of a scalar call back into a float
    at_one = np.equal(z, 1.0)
    c = np.where(at_one, math.nan, x / (y * np.where(at_one, 1.0, 1.0 - z)))[()]
    return GaugeQuantities(
        c_gauge=c,
        d_gauge=w / y - w * w,
        e_gauge=x / y + z * z - 1.0 - x * x,
    )
