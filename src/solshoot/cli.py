"""Command-line surface: every operation as a subcommand with reproducible,
file-based outputs.

Exit codes: 0 = success / all checks passed; 1 = a verification check ran
and failed (the report is still written); 2 = numerical failure (blow-up,
missed event, Newton stall); 64 = usage error (bad arguments, inadmissible
parameters without --exploratory, infeasible blends).

Single-record reports print to stdout by default; array and sweep outputs
default to ``<subcommand>.<format>`` in the working directory.  Both are
byte-identical across reruns of the same invocation: headers echo the full
configuration and never the clock.
"""

import argparse
import math
import os
import sys

from . import __version__, bryant, output, pancake, shooting, verify
from .errors import (
    BlendInfeasible,
    EpsilonTooLarge,
    GridTooCoarse,
    InadmissibleParameters,
    SolshootError,
)
from .ode import IntegratorConfig
from .shooting import ShootConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

# thresholds used by the verification subcommands (match the documented
# acceptance contracts)
_SIGN_TOL = 1e-8
_MARGIN_TOL = 1e-6
_EIG_TOL = 1e-9
_TRACE_X_TOL = 1e-8
_TRACE_E_TOL = 1e-6
_COMPARE_CAP = 1e6

_USAGE_ERRORS = (
    InadmissibleParameters,
    EpsilonTooLarge,
    BlendInfeasible,
    GridTooCoarse,
    ValueError,
)

# subcommands whose natural output is an array or a sweep: these default
# to a file, everything else to stdout
_FILE_DEFAULT = {"curve", "surface", "scan", "pancake-build", "pancake-curvature"}


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code of this tool (64)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected lo,hi - got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers - got {text!r}")
    return (float(parts[0]), float(parts[1]), float(parts[2]))


def _box(text):
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError(f"expected six comma-separated numbers - got {text!r}")
    vals = [float(p) for p in parts]
    return ((vals[0], vals[1]), (vals[2], vals[3]), (vals[4], vals[5]))


def _float_list(text):
    return tuple(float(p) for p in text.split(","))


def _config(args) -> ShootConfig:
    return ShootConfig(
        t_eps=args.t_eps,
        rtol=args.tol_rel,
        atol=args.tol_abs,
        exploratory=args.exploratory,
    )


def _workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    return os.cpu_count() or 1


def _safe(text) -> str:
    """Status strings must not break the CSV record grammar."""
    return str(text).replace(",", ";").replace("\n", " ")


def _meta(args, **params) -> dict:
    meta = {
        "tool": "solshoot",
        "version": __version__,
        "subcommand": args.subcommand,
    }
    meta.update(params)
    meta.update(
        tol_rel=args.tol_rel,
        tol_abs=args.tol_abs,
        t_eps=args.t_eps,
        exploratory=args.exploratory,
        workers=_workers(args),
        format=args.format,
        random_free=True,
    )
    return meta


def _emit(args, meta, columns, records) -> None:
    if args.format == "json":
        text = output.format_json(meta, columns, records)
    else:
        text = output.format_csv(meta, columns, records)
    path = args.out
    if path is None and args.subcommand in _FILE_DEFAULT:
        path = f"{args.subcommand}.{args.format}"
    output.write_text(path, text)
    if path is not None:
        sys.stderr.write(f"wrote {path}\n")


def _emit_error(args, exc) -> None:
    meta = _meta(args)
    records = [(type(exc).__name__, _safe(exc))]
    _emit(args, meta, ("error", "message"), records)
    sys.stderr.write(f"error: {exc}\n")


# ---------------------------------------------------------------- shooting


def _cmd_shoot_s1(args):
    cfg = _config(args)
    meet, traj = shooting.shoot_curve_point(args.delta1, cfg)
    meta = _meta(args, delta1=args.delta1)
    columns = ("delta1", "l1", "l2", "r", "t_meet", "n_nodes")
    rec = (args.delta1, meet.l1, meet.l2, meet.r, float(traj.t[-1]), traj.t.size)
    _emit(args, meta, columns, [rec])
    return EXIT_OK


def _cmd_shoot_s2(args):
    cfg = _config(args)
    meet, traj = shooting.shoot_surface_point(args.delta2, args.delta3, cfg)
    meta = _meta(args, delta2=args.delta2, delta3=args.delta3)
    columns = ("delta2", "delta3", "l1", "l2", "r", "s_meet", "n_nodes")
    rec = (
        args.delta2,
        args.delta3,
        meet.l1,
        meet.l2,
        meet.r,
        float(traj.t[-1]),
        traj.t.size,
    )
    _emit(args, meta, columns, [rec])
    return EXIT_OK


def _cmd_mismatch(args):
    cfg = _config(args)
    vec = shooting.mismatch(args.delta1, args.delta2, args.delta3, cfg)
    f_inf = max(abs(vec.dl1), abs(vec.dl2), abs(vec.dr))
    meta = _meta(args, delta1=args.delta1, delta2=args.delta2, delta3=args.delta3)
    columns = ("delta1", "delta2", "delta3", "dl1", "dl2", "dr", "f_inf")
    rec = (args.delta1, args.delta2, args.delta3, vec.dl1, vec.dl2, vec.dr, f_inf)
    _emit(args, meta, columns, [rec])
    return EXIT_OK


def _cmd_root(args):
    cfg = _config(args)
    res = shooting.find_root(args.guess, cfg)
    meta = _meta(args, guess=",".join(repr(g) for g in args.guess))
    columns = ("delta1", "delta2", "delta3", "residual_inf", "iterations", "converged")
    rec = (*res.root, res.residual, res.iterations, True)
    _emit(args, meta, columns, [rec])
    return EXIT_OK


def _cmd_curve(args):
    cfg = _config(args)
    samples = shooting.sample_curve(args.range, args.n, cfg, workers=_workers(args))
    meta = _meta(args, range=f"{args.range[0]!r},{args.range[1]!r}", n=args.n)
    columns = (
        "delta1",
        "l1",
        "l2",
        "r",
        "min_k_t1",
        "min_k_s",
        "min_k_m",
        "min_k_t2",
        "status",
    )
    records = []
    for s in samples:
        if s.meet is None:
            records.append((s.delta1,) + (math.nan,) * 7 + (_safe(s.status),))
        else:
            records.append((s.delta1, *s.meet, *s.eig_min, s.status))
    _emit(args, meta, columns, records)
    return EXIT_OK


def _cmd_surface(args):
    cfg = _config(args)
    samples = shooting.sample_surface(
        args.d2_range, args.d3_range, args.n2, args.n3, cfg, workers=_workers(args)
    )
    meta = _meta(
        args,
        d2_range=f"{args.d2_range[0]!r},{args.d2_range[1]!r}",
        d3_range=f"{args.d3_range[0]!r},{args.d3_range[1]!r}",
        n2=args.n2,
        n3=args.n3,
    )
    columns = ("delta2", "delta3", "l1", "l2", "r", "status")
    records = []
    for s in samples:
        if s.meet is None:
            records.append((s.delta2, s.delta3) + (math.nan,) * 3 + (_safe(s.status),))
        else:
            records.append((s.delta2, s.delta3, *s.meet, s.status))
    _emit(args, meta, columns, records)
    return EXIT_OK


def _cmd_scan(args):
    cfg = _config(args)
    res = shooting.scan_domain(args.box, args.resolution, cfg, workers=_workers(args))
    box_text = ",".join(repr(v) for pair in args.box for v in pair)
    meta = _meta(
        args,
        box=box_text,
        resolution=args.resolution,
        grid_bound=res.grid_bound,
        n_failed=res.n_failed,
        n_minima=len(res.minima),
    )
    columns = ("delta1", "delta2", "delta3", "f_inf", "n_nodes", "i1", "i2", "i3")
    records = [
        (m.delta1, m.delta2, m.delta3, m.value, m.n_nodes, *m.indices)
        for m in res.minima
    ]
    _emit(args, meta, columns, records)
    return EXIT_OK


# ------------------------------------------------------------ verification


def _max_principle_record(name, traj, check):
    mp = verify.max_principle_report(traj)
    sp = verify.sign_profile(traj)
    n_changes = sum(len(c) for c in sp.sign_changes)
    if check:
        ok = (
            mp.min_k_t1 >= -_SIGN_TOL
            and mp.min_k_s >= -_SIGN_TOL
            and n_changes == 0
        )
        status = "pass" if ok else "fail"
    else:
        ok, status = True, "report"
    rec = (
        name,
        mp.min_k_t1,
        mp.t_at_min_k_t1,
        mp.min_k_s,
        mp.t_at_min_k_s,
        n_changes,
        status,
    )
    return rec, ok


def _cmd_verify_maxprinciple(args):
    cfg = _config(args)
    custom_s1 = args.delta1 is not None
    custom_s2 = args.delta2 is not None or args.delta3 is not None
    if custom_s2 and (args.delta2 is None or args.delta3 is None):
        raise ValueError("sphere-side check needs both --delta2 and --delta3")
    records, all_ok = [], True
    if custom_s1 or custom_s2:
        # custom parameters: the sign conditions are theorems only for
        # solitons, so report without judging
        if custom_s1:
            _, traj = shooting.shoot_curve_point(args.delta1, cfg)
            rec, _ = _max_principle_record("custom-s1", traj, check=False)
            records.append(rec)
        if custom_s2:
            _, traj = shooting.shoot_surface_point(args.delta2, args.delta3, cfg)
            rec, _ = _max_principle_record("custom-s2", traj, check=False)
            records.append(rec)
    else:
        d1, d2, d3 = shooting.ROUND_DELTAS
        cases = (
            ("round-s1", shooting.shoot_curve_point(d1, cfg)[1]),
            ("round-s2", shooting.shoot_surface_point(d2, d3, cfg)[1]),
            ("gaussian", shooting.shoot_surface_point(-1.0, 1.0, cfg)[1]),
        )
        for name, traj in cases:
            rec, ok = _max_principle_record(name, traj, check=True)
            records.append(rec)
            all_ok = all_ok and ok
    meta = _meta(args, threshold=_SIGN_TOL)
    columns = (
        "case",
        "min_k_t1",
        "t_at_min_k_t1",
        "min_k_s",
        "t_at_min_k_s",
        "sign_changes",
        "status",
    )
    _emit(args, meta, columns, records)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_verify_delta3(args):
    rep = verify.delta3_integral_check()
    ok = (
        rep.closed_form > 1.0
        and rep.first_term >= 1.89
        and abs(rep.closed_form - rep.quadrature) < 1e-10
    )
    meta = _meta(args)
    columns = ("closed_form", "quadrature", "first_term", "status")
    rec = (rep.closed_form, rep.quadrature, rep.first_term, "pass" if ok else "fail")
    _emit(args, meta, columns, [rec])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_verify_bryant(args):
    curve = bryant.bryant_unstable_curve(
        args.launch_offset, IntegratorConfig(rtol=args.tol_rel)
    )
    fb = bryant.verify_f_bounds(curve)
    margins = (
        fb.margin_ge_half_x,
        fb.margin_le_half_x_plus_sq,
        fb.margin_ge_x_minus_x2,
        fb.margin_le_x,
    )
    ok = min(margins) >= -_MARGIN_TOL and fb.y_at_x03 > 0.21
    meta = _meta(args, launch_offset=args.launch_offset, threshold=_MARGIN_TOL)
    columns = (
        "margin_ge_half_x",
        "margin_le_half_x_plus_sq",
        "margin_ge_x_minus_x2",
        "margin_le_x",
        "y_at_x03",
        "status",
    )
    rec = (*margins, fb.y_at_x03, "pass" if ok else "fail")
    _emit(args, meta, columns, [rec])
    if args.curve_out is not None:
        curve_meta = _meta(args, launch_offset=args.launch_offset)
        for name, value in zip(columns[:5], rec[:5]):
            curve_meta[name] = value
        text_fn = output.format_json if args.format == "json" else output.format_csv
        text = text_fn(curve_meta, ("x", "y"), list(zip(curve.x, curve.y)))
        output.write_text(args.curve_out, text)
        sys.stderr.write(f"wrote {args.curve_out}\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_verify_smalltime(args):
    cfg = _config(args)
    rep = bryant.bryant_smalltime(cfg)
    margins = (
        rep.z_lower_margin,
        rep.z_upper_margin,
        rep.x_lower_margin,
        rep.x_upper_margin,
    )
    ok = min(margins) >= -_MARGIN_TOL
    meta = _meta(args, threshold=_MARGIN_TOL)
    columns = (
        "z_lower_margin",
        "z_upper_margin",
        "x_lower_margin",
        "x_upper_margin",
        "z_end",
        "x_end",
        "status",
    )
    rec = (*margins, rep.z_end, rep.x_end, "pass" if ok else "fail")
    _emit(args, meta, columns, [rec])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_trace_pancake_limit(args):
    cfg = _config(args)
    d1s = args.delta1 if args.delta1 is not None else (100.0, 1000.0, 10000.0)
    records, all_ok = [], True
    devs, gaps = [], []
    for d1 in d1s:
        rep = verify.large_delta1_trace(d1, cfg)
        dev = abs(1.0 / rep.z - 1.0) + abs(rep.x) / rep.z
        ok = rep.x_min >= -_TRACE_X_TOL and rep.e_min >= -_TRACE_E_TOL
        all_ok = all_ok and ok
        devs.append(dev)
        gaps.append(abs(rep.d_plus_1))
        records.append(
            (
                d1,
                rep.z,
                rep.w,
                rep.d_plus_1,
                rep.x,
                dev,
                rep.e_min,
                rep.x_min,
                rep.dist_critical_line,
                rep.t_event,
                "pass" if ok else "fail",
            )
        )
    trend_checked = len(d1s) >= 2 and list(d1s) == sorted(d1s)
    trend_ok = True
    if trend_checked:
        trend_ok = all(b < a for a, b in zip(devs, devs[1:])) and all(
            b < a for a, b in zip(gaps, gaps[1:])
        )
        all_ok = all_ok and trend_ok
    meta = _meta(
        args,
        delta1_list=",".join(repr(d) for d in d1s),
        trend_checked=trend_checked,
        trend_monotone=trend_ok,
    )
    columns = (
        "delta1",
        "z",
        "w",
        "d_plus_1",
        "x",
        "dev_event",
        "e_min",
        "x_min",
        "dist_critical_line",
        "t_event",
        "status",
    )
    _emit(args, meta, columns, records)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_compare_bryant(args):
    cfg = _config(args)
    rep = verify.rescaled_bryant_compare(args.delta1, cfg)
    ok = rep.c_obs < _COMPARE_CAP
    meta = _meta(args, delta1=args.delta1, cap=_COMPARE_CAP)
    columns = ("delta1", "p_squared", "sup_dev", "c_obs", "status")
    rec = (args.delta1, rep.p_squared, rep.sup_dev, rep.c_obs, "pass" if ok else "fail")
    _emit(args, meta, columns, [rec])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ----------------------------------------------------------------- pancake


def _build_profile_from(args):
    blend = pancake.BlendParams(f2_window=args.f2_window, f1_window=args.f1_window)
    return pancake.build_profile(args.length, blend=blend, grid_n=args.grid_n)


def _pancake_meta(args, prof):
    return dict(
        length=prof.length,
        grid_n=args.grid_n,
        f2_window=",".join(repr(v) for v in prof.f2_window),
        f1_window=",".join(repr(v) for v in prof.f1_window),
        f2_blend_coefs=";".join(repr(float(c)) for c in prof.f2_blend_coefs),
    )


def _cmd_pancake_build(args):
    prof = _build_profile_from(args)
    rep = pancake.profile_report(prof)
    res = pancake.smoothness_residuals(prof)
    meta = _meta(
        args,
        **_pancake_meta(args, prof),
        volume=rep.volume,
        diameter_low=rep.diameter_low,
        diameter_high=rep.diameter_high,
        max_smoothness_residual=max(res),
    )
    columns = ("r", "f1", "f2")
    records = list(zip(prof.r, prof.f1, prof.f2))
    _emit(args, meta, columns, records)
    return EXIT_OK


def _cmd_pancake_curvature(args):
    prof = _build_profile_from(args)
    curv = pancake.profile_curvature(prof)
    ok = curv.min_eig >= -_EIG_TOL
    meta = _meta(
        args,
        **_pancake_meta(args, prof),
        min_eig=curv.min_eig,
        s_min=curv.s_min,
        s_max=curv.s_max,
        c_bound=curv.c_bound,
        threshold=_EIG_TOL,
        status="pass" if ok else "fail",
    )
    columns = ("r", "f1", "f2", "k_t1", "k_t2", "k_s", "k_m", "S")
    records = list(
        zip(
            prof.r,
            prof.f1,
            prof.f2,
            curv.k_t1,
            curv.k_t2,
            curv.k_s,
            curv.k_m,
            curv.scalar,
        )
    )
    _emit(args, meta, columns, records)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ------------------------------------------------------------------ parser


def _add_common(p):
    p.add_argument("--tol-rel", type=float, default=1e-10, help="integrator relative tolerance")
    p.add_argument("--tol-abs", type=float, default=1e-12, help="integrator absolute tolerance")
    p.add_argument("--t-eps", type=float, default=1e-4, help="series handoff distance from the singular orbit")
    p.add_argument("--out", default=None, help="output path (default: stdout for reports, <subcommand>.<format> for sweeps)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=None, help="sweep parallelism (default: available cores)")
    p.add_argument("--exploratory", action="store_true", help="allow parameters outside the admissible region")


def _build_parser() -> _Parser:
    parser = _Parser(prog="solshoot", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"solshoot {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def cmd(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(handler=handler)
        return p

    p = cmd("shoot-s1", _cmd_shoot_s1, "integrate the circle-side shot to its xi=0 crossing")
    p.add_argument("--delta1", type=float, required=True)

    p = cmd("shoot-s2", _cmd_shoot_s2, "integrate the sphere-side shot to its xi=0 crossing")
    p.add_argument("--delta2", type=float, required=True)
    p.add_argument("--delta3", type=float, required=True)

    p = cmd("mismatch", _cmd_mismatch, "difference of the two crossing states")
    p.add_argument("--delta1", type=float, required=True)
    p.add_argument("--delta2", type=float, required=True)
    p.add_argument("--delta3", type=float, required=True)

    p = cmd("root", _cmd_root, "damped Newton on the mismatch map")
    p.add_argument("--guess", type=_triple, required=True, metavar="D1,D2,D3")

    p = cmd("curve", _cmd_curve, "log-uniform sweep of the circle-side meet map")
    p.add_argument("--range", type=_pair, default=(0.01, 10.0), metavar="LO,HI")
    p.add_argument("--n", type=int, default=100)

    p = cmd("surface", _cmd_surface, "grid sweep of the sphere-side meet map")
    p.add_argument("--d2-range", type=_pair, default=(-1.0, 0.0), metavar="LO,HI")
    p.add_argument("--d3-range", type=_pair, default=(0.1, 2.0), metavar="LO,HI")
    p.add_argument("--n2", type=int, default=10)
    p.add_argument("--n3", type=int, default=10)

    p = cmd("scan", _cmd_scan, "grid-local minima of |F|_inf over a parameter box")
    p.add_argument("--box", type=_box, default=shooting.DEFAULT_SCAN_BOX, metavar="D1LO,D1HI,D2LO,D2HI,D3LO,D3HI")
    p.add_argument("--resolution", type=int, default=20)

    p = cmd("verify-maxprinciple", _cmd_verify_maxprinciple, "curvature sign conditions on closed-form solitons (or report a custom shot)")
    p.add_argument("--delta1", type=float, default=None)
    p.add_argument("--delta2", type=float, default=None)
    p.add_argument("--delta3", type=float, default=None)

    cmd("verify-delta3", _cmd_verify_delta3, "closed form vs quadrature for the delta3 bound integral")

    p = cmd("verify-bryant", _cmd_verify_bryant, "envelope bounds along the Bryant unstable curve")
    p.add_argument("--launch-offset", type=float, default=1e-4)
    p.add_argument("--curve-out", default=None, help="also export the (x, y) locus to this path")

    cmd("verify-smalltime", _cmd_verify_smalltime, "small-time envelope for the delta1=1 shot")

    p = cmd("trace-pancake-limit", _cmd_trace_pancake_limit, "scaled-variable traces of large-delta1 shots")
    p.add_argument("--delta1", type=_float_list, default=None, metavar="D1[,D1...]")

    p = cmd("compare-bryant", _cmd_compare_bryant, "rescaled large-delta1 shot against the steady reference")
    p.add_argument("--delta1", type=float, required=True)

    p = cmd("pancake-build", _cmd_pancake_build, "build a pancake profile and export it")
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--grid-n", type=int, default=2048)
    p.add_argument("--f2-window", type=_pair, default=(0.5, 1.5), metavar="A,B")
    p.add_argument("--f1-window", type=_pair, default=(0.5, 1.5), metavar="C,D")

    p = cmd("pancake-curvature", _cmd_pancake_curvature, "curvature eigenvalues and scalar range of a pancake profile")
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--grid-n", type=int, default=2048)
    p.add_argument("--f2-window", type=_pair, default=(0.5, 1.5), metavar="A,B")
    p.add_argument("--f1-window", type=_pair, default=(0.5, 1.5), metavar="C,D")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.handler(args)
    except _USAGE_ERRORS as exc:
        _emit_error(args, exc)
        return EXIT_USAGE
    except SolshootError as exc:
        _emit_error(args, exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
