"""Seeded inputs, operations and oracles of the four benchmark workloads.

Each workload hands out its inputs in groups: ``make(seed, g)`` returns the
inputs of group ``g`` and depends on nothing else, so the same seed gives
the same inputs.  The timed loop starts whole groups only.  ``run(input,
workers)`` is one operation; it calls the package through module
attributes, so a tracer that rebinds them sees every call.  ``check(inputs,
outputs)`` is the oracle of one group and returns one list of failure
messages per operation.  Oracles use closed forms, the acceptance-criterion
thresholds or direct recomputation, never the result under test alone.

Why these four: ``root`` is Newton over many short event-terminated shots;
``scan`` is hundreds of independent short shots through the process pool;
``pancake-trace`` is one very long integration per operation; ``monitors``
reads stored trajectories back (dense output, quadrature, curvature
monitors) and covers the bryant and pancake modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from solshoot import bryant, pancake, profiles, shooting, verify
from solshoot.fields import SolitonState, curvature_eigs
from solshoot.shooting import DEFAULT_SCAN_BOX, ROUND_DELTAS

ADMISSIBLE_FLOOR = (0.0, -1.0, 0.0)  # delta1 >= 0, delta2 >= -1, delta3 >= 0

# root and monitors perturb each component of ROUND_DELTAS by a relative
# U(-0.3, 0.3); every such guess converges in 3-5 Newton iterations
PERTURBATION = 0.3

# scan: a 12^3 grid is 14 circle-side and 196 sphere-side shots (ghost
# layer included) and takes a few seconds on two cores
SCAN_RESOLUTION = 12

# pancake-trace: one d1 per decade, drawn from the first 3% (in log10) of
# the decade; cost grows linearly in d1, so a narrow band keeps seeds
# comparable while the 1e4 shot still takes ~72k steps
PANCAKE_DECADES = (2, 3, 4)
PANCAKE_BAND = 0.03

# uniform profile grid, as the profile tests use for residual checks
PROFILE_GRID = 1000

PANCAKE_LENGTHS = (10.0, 20.0, 40.0)
PANCAKE_GRID = 10_000
COMPARE_D1 = 1e4


def _rng(seed: int, g: int) -> np.random.Generator:
    return np.random.default_rng([seed, g])


# additive recurrence with the generalized golden ratio (Roberts' R3): the
# points k * _R3 mod 1 fill the unit cube evenly for every run length
_PHI3 = 1.2207440846057596  # real root of x^3 = x + 1
_R3 = np.array([_PHI3**-1, _PHI3**-2, _PHI3**-3])


def _perturbed_round(seed: int, g: int) -> tuple:
    """Group g's point: ROUND_DELTAS x (1 + u), u uniform in the cube.

    The u of successive groups follow a low-discrepancy sequence shifted by
    a seeded offset.  Each u is still uniform over seeds, but any run's
    points cover the cube evenly, so Newton's cost, which depends on where
    the guess lies, averages out within one run instead of across runs.
    """
    shift = np.random.default_rng(seed).random(3)
    u = PERTURBATION * (2.0 * np.mod(shift + g * _R3, 1.0) - 1.0)
    p = np.maximum(np.array(ROUND_DELTAS) * (1.0 + u), ADMISSIBLE_FLOOR)
    return tuple(float(x) for x in p)


# ------------------------------------------------------------------ root


def root_make(seed: int, g: int) -> list:
    return [_perturbed_round(seed, g)]


def root_run(guess, workers):
    return shooting.find_root(guess)


def root_check(inputs, outputs) -> list:
    out = []
    for res in outputs:
        fails = []
        err = max(abs(a - b) for a, b in zip(res.root, ROUND_DELTAS))
        if not err < 1e-6:
            fails.append(f"root {res.root} is {err:.2e} from ROUND_DELTAS")
        resid = shooting.mismatch(*res.root).inf_norm
        if not resid < 1e-7:
            fails.append(f"recomputed residual {resid:.2e} >= 1e-7")
        out.append(fails)
    return out


# ------------------------------------------------------------------ scan


class ScanInput(NamedTuple):
    box: tuple
    resolution: int
    probes: tuple  # grid indices the oracle recomputes; not passed to the scan


def scan_make(seed: int, g: int) -> list:
    """The criterion-12 box with each upper face moved inward by up to half
    a cell.  The lower faces are the admissibility boundary and stay put."""
    rng = _rng(seed, g)
    n = SCAN_RESOLUTION
    frac = rng.uniform(0.0, 0.5, 3)
    box = tuple(
        (lo, hi - f * (hi - lo) / (n - 1)) for (lo, hi), f in zip(DEFAULT_SCAN_BOX, frac)
    )
    probes = tuple(tuple(int(i) for i in rng.integers(0, n, 3)) for _ in range(3))
    return [ScanInput(box, n, probes)]


def scan_run(inp: ScanInput, workers):
    return shooting.scan_domain(inp.box, inp.resolution, workers=workers)


def scan_check(inputs, outputs) -> list:
    out = []
    for inp, res in zip(inputs, outputs):
        fails = []
        if res.n_failed:
            fails.append(f"{res.n_failed} failed nodes inside the box")
        if not any(res.region_contains(m, *ROUND_DELTAS) for m in res.minima):
            fails.append("no reported minimum's region contains ROUND_DELTAS")
        for i, j, k in inp.probes:
            d = (res.axes[0][i], res.axes[1][j], res.axes[2][k])
            direct = shooting.mismatch(*d).inf_norm
            if not abs(res.values[i, j, k] - direct) <= 1e-12:
                fails.append(f"node {(i, j, k)}: {res.values[i, j, k]!r} != direct {direct!r}")
        out.append(fails)
    return out


# ---------------------------------------------------------- pancake-trace


def pancake_make(seed: int, g: int) -> list:
    rng = _rng(seed, g)
    return sorted(float(10.0 ** (k + PANCAKE_BAND * rng.random())) for k in PANCAKE_DECADES)


def pancake_run(d1, workers):
    return verify.large_delta1_trace(d1)


def pancake_check(inputs, outputs) -> list:
    """Criterion 9: per trace the x and E floors; across the sorted d1 of a
    group, strictly decreasing distance to the Gaussian and D + 1 gap."""
    out = []
    prev = None
    for rep in outputs:
        fails = []
        if not rep.x_min >= -1e-8:
            fails.append(f"x_min {rep.x_min:.2e} < -1e-8")
        if not rep.e_min >= -1e-6:
            fails.append(f"e_min {rep.e_min:.2e} < -1e-6")
        dev = abs(1.0 / rep.z - 1.0) + abs(rep.x) / rep.z
        gap = abs(rep.d_plus_1)
        if prev is not None and not (dev < prev[0] and gap < prev[1]):
            fails.append(f"trend not decreasing: (dev, gap) {prev} -> {(dev, gap)}")
        prev = (dev, gap)
        out.append(fails)
    return out


# --------------------------------------------------------------- monitors


FIXED = "fixed"


def monitors_make(seed: int, g: int) -> list:
    """Group 0 is the fixed oracle cases; later groups are seeded points."""
    return [FIXED] if g == 0 else [_perturbed_round(seed, g)]


def _fixed_cases() -> dict:
    d1, d2, d3 = ROUND_DELTAS
    trajs = {
        "round-s1": shooting.shoot_curve_point(d1)[1],
        "round-s2": shooting.shoot_surface_point(d2, d3)[1],
        "gaussian": shooting.shoot_surface_point(-1.0, 1.0)[1],
    }
    out = {}
    for name, traj in trajs.items():
        out[name] = (verify.max_principle_report(traj), verify.sign_profile(traj))
        if name.startswith("round"):
            out[name + "-samples"] = traj.eval(np.linspace(traj.t0, traj.t_end, 2001))
    curve = bryant.bryant_unstable_curve()
    out["bryant-curve"] = (curve, bryant.verify_f_bounds(curve))
    out["bryant-smalltime"] = bryant.bryant_smalltime()
    out["bryant-compare"] = verify.rescaled_bryant_compare(COMPARE_D1)
    for length in PANCAKE_LENGTHS:
        prof = pancake.build_profile(length, grid_n=PANCAKE_GRID)
        out[f"pancake-{length:g}"] = (
            pancake.profile_report(prof),
            pancake.smoothness_residuals(prof),
        )
    return out


def _monitor_point(p) -> dict:
    d1, d2, d3 = p
    _, t1 = shooting.shoot_curve_point(d1, until="collapse")
    prof1 = profiles.reconstruct_profile(t1, "s1", PROFILE_GRID)
    _, t2 = shooting.shoot_surface_point(d2, d3)
    prof2 = profiles.reconstruct_profile(t2, "s2", PROFILE_GRID)
    return {
        "s1-residual": profiles.second_order_residual(prof1),
        "s1-max-principle": verify.max_principle_report(t1),
        "s1-signs": verify.sign_profile(t1),
        "s2-k-monitor": verify.k_monitor(t2, "s2"),
        "s2-delta2": verify.delta2_monitors(t2),
        "s2-residual": profiles.second_order_residual(prof2),
    }


def monitors_run(inp, workers):
    return _fixed_cases() if inp == FIXED else _monitor_point(inp)


def _fixed_failures(out: dict) -> list:
    fails = []
    # criterion 8: sign conditions, no eigenvalue sign change, and the round
    # soliton's four eigenvalues all at the constant 1/3
    min_signed = min(
        min(out[n][0].min_k_t1, out[n][0].min_k_s) for n in ("round-s1", "round-s2", "gaussian")
    )
    changes = sum(
        len(c) for n in ("round-s1", "round-s2", "gaussian") for c in out[n][1].sign_changes
    )
    round_dev = max(
        float(np.max(np.abs(np.array(curvature_eigs(SolitonState(*out[n].T))) - 1.0 / 3.0)))
        for n in ("round-s1-samples", "round-s2-samples")
    )
    if not (min_signed >= -1e-8 and changes == 0 and round_dev < 1e-7):
        fails.append(f"criterion 8: min_eig {min_signed:.2e} changes {changes} dev {round_dev:.2e}")
    # criterion 5: envelope margins and the planar manifold equation
    curve, fb = out["bryant-curve"]
    margins = (fb.margin_ge_half_x, fb.margin_le_half_x_plus_sq, fb.margin_ge_x_minus_x2, fb.margin_le_x)
    xg = np.linspace(0.1, 0.99, 300)
    f = curve.interp(xg)
    fp = (curve.interp(xg + 1e-3) - curve.interp(xg - 1e-3)) / 2e-3
    manifold = float(
        np.max(np.abs((-xg + f + f * xg * xg) * fp - (-xg * f * f + 2.0 * xg * xg * f**3)))
    )
    if not (min(margins) >= -1e-6 and fb.y_at_x03 > 0.21 and manifold < 1e-6):
        fails.append(f"criterion 5: margin {min(margins):.2e} y(0.3) {fb.y_at_x03:.4f} res {manifold:.2e}")
    # criterion 6: small-time envelopes
    st = out["bryant-smalltime"]
    st_margin = min(st.z_lower_margin, st.z_upper_margin, st.x_lower_margin, st.x_upper_margin)
    if not st_margin >= -1e-6:
        fails.append(f"criterion 6: margin {st_margin:.2e}")
    cmp = out["bryant-compare"]
    if not (math.isfinite(cmp.sup_dev) and 0.0 < cmp.c_obs < 1e6):
        fails.append(f"rescaled comparison: c_obs {cmp.c_obs!r}")
    # criterion 10: curvature signs, smoothness and an L-uniform scalar range
    for length in PANCAKE_LENGTHS:
        rep, smooth = out[f"pancake-{length:g}"]
        if not (rep.min_eig >= -1e-9 and max(smooth) < 1e-8 and 0.1 <= rep.s_min and rep.s_max <= 10.0):
            fails.append(
                f"criterion 10 at L={length:g}: min_eig {rep.min_eig:.1e} "
                f"res {max(smooth):.1e} S [{rep.s_min:.3f}, {rep.s_max:.3f}]"
            )
    return fails


def monitors_check(inputs, outputs) -> list:
    out = []
    for inp, res in zip(inputs, outputs):
        if inp == FIXED:
            out.append(_fixed_failures(res))
            continue
        fails = [] if all_finite(res) else ["non-finite value in a report"]
        # circle-side collapse residuals are not a soliton check; the sphere
        # side up to the meet is a genuine soliton piece
        if not res["s2-residual"] < 1e-5:
            fails.append(f"sphere-side residual {res['s2-residual']:.2e} >= 1e-5")
        out.append(fails)
    return out


# ------------------------------------------------------------ the table


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable  # (seed, group) -> inputs of the group
    run: Callable  # (input, workers) -> output
    check: Callable  # (inputs, outputs) -> failure messages per operation
    trace_groups: int  # groups the traced run covers
    parallel: bool  # whether ``workers`` changes how the operation runs
    size: str  # stated input size


WORKLOADS = {
    w.name: w
    for w in (
        Workload("root", root_make, root_run, root_check, 3, False,
                 f"find_root from ROUND_DELTAS x (1 + U(-{PERTURBATION}, {PERTURBATION}))"),
        Workload("scan", scan_make, scan_run, scan_check, 1, True,
                 f"scan_domain at resolution {SCAN_RESOLUTION} over the criterion-12 box"),
        Workload("pancake-trace", pancake_make, pancake_run, pancake_check, 1, False,
                 f"large_delta1_trace at one d1 in [10^k, 10^(k+{PANCAKE_BAND})] for k in {PANCAKE_DECADES}"),
        Workload("monitors", monitors_make, monitors_run, monitors_check, 3, False,
                 "fixed oracle cases once, then seeded points near ROUND_DELTAS"),
    )
}


# ------------------------------------------------------------ comparison


def all_finite(obj) -> bool:
    """Whether every float in a (nested) report is finite."""
    if isinstance(obj, (float, np.floating)):
        return math.isfinite(obj)
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind != "f" or bool(np.all(np.isfinite(obj)))
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return all(all_finite(v) for v in obj)
    return True


def canonical(obj):
    """A bit-exact, comparable form of an operation output: floats by their
    hex form, arrays by dtype, shape and bytes."""
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return tuple((k, canonical(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (tuple, list)):
        return (type(obj).__name__, tuple(canonical(v) for v in obj))
    if hasattr(obj, "__dataclass_fields__"):
        return (type(obj).__name__, tuple(canonical(getattr(obj, f.name)) for f in fields(obj)))
    return repr(obj)
