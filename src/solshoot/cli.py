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
import sys
from typing import NamedTuple

from . import __version__, bryant, output, pancake, shooting, verify
from .errors import (
    BlendInfeasible,
    EpsilonTooLarge,
    GridTooCoarse,
    InadmissibleParameters,
    SolshootError,
)
from .fields import CurvatureEigenvalues
from .shooting import MeetPoint, MismatchVector, ShootConfig
from .verify import MaxPrincipleReport, PancakeTraceReport

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


class _Report(NamedTuple):
    """What a handler hands to ``main``: the header parameters beyond the
    common configuration, the column names, the records, and whether every
    check passed (exit 0) or one failed (exit 1)."""

    params: dict
    columns: tuple
    records: list
    ok: bool = True


def _numbers(count=None):
    """argparse type: comma-separated numbers, exactly ``count`` of them
    when given."""

    def parse(text):
        try:
            values = tuple(float(p) for p in text.split(","))
            if count is None or len(values) == count:
                return values
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected {count or 'one or more'} comma-separated numbers, got {text!r}"
        )

    return parse


def _joined(values) -> str:
    """Header text of a list-valued parameter: shortest round-trip floats."""
    return ",".join(repr(v) for v in values)


# --tol-abs defaults to None so that a handler can tell whether it was given
_TOL_ABS = ShootConfig().atol


def _tol_abs(args) -> float:
    return _TOL_ABS if args.tol_abs is None else args.tol_abs


def _config(args) -> ShootConfig:
    return ShootConfig(
        t_eps=args.t_eps,
        rtol=args.tol_rel,
        atol=_tol_abs(args),
        exploratory=args.exploratory,
    )


def _safe(text) -> str:
    """Status strings must not break the CSV record grammar."""
    return str(text).replace(",", ";").replace("\n", " ")


def _status(ok) -> str:
    return "pass" if ok else "fail"


def _check_report(params, rep, ok) -> _Report:
    """One-record report of a NamedTuple check result and its status; the
    columns are the tuple's fields, so header and values cannot drift."""
    return _Report(params, type(rep)._fields + ("status",), [(*rep, _status(ok))], ok)


def _meta(args, **params) -> dict:
    meta = {
        "tool": "solshoot",
        "version": __version__,
        "subcommand": args.subcommand,
    }
    meta.update(params)
    meta.update(
        tol_rel=args.tol_rel,
        tol_abs=_tol_abs(args),
        t_eps=args.t_eps,
        exploratory=args.exploratory,
        workers=max(1, args.workers),
        format=args.format,
        random_free=True,
    )
    return meta


def _emit(args, meta, columns, records, path=None) -> None:
    """Write one document to ``path``; by default to ``--out``, else the
    subcommand's default file or stdout."""
    if args.format == "json":
        text = output.format_json(meta, columns, records)
    else:
        text = output.format_csv(meta, columns, records)
    if path is None:
        path = args.out
    if path is None and args.subcommand in _FILE_DEFAULT:
        path = f"{args.subcommand}.{args.format}"
    output.write_text(path, text)
    if path is not None:
        sys.stderr.write(f"wrote {path}\n")


def _emit_error(args, exc) -> None:
    records = [(type(exc).__name__, _safe(exc))]
    _emit(args, _meta(args), ("error", "message"), records)
    sys.stderr.write(f"error: {exc}\n")


# ---------------------------------------------------------------- shooting


def _shot_report(params, shot, meet_time) -> _Report:
    """Report of one shot from its parameters: the meet point, its time
    under the name ``meet_time`` and the node count.  The header adds the
    handoff distance the shot started from (after ``_effective_eps``) and
    its integrator counters."""
    meet, traj = shot
    columns = (*params, *MeetPoint._fields, meet_time, "n_nodes")
    rec = (*params.values(), *meet, float(traj.t[-1]), traj.t.size)
    telemetry = dict(handoff_eps=traj.t0, rhs_evals=traj.n_rhs_evals, rejected_steps=traj.n_rejected)
    return _Report({**params, **telemetry}, columns, [rec])


def _cmd_shoot_s1(args, cfg):
    shot = shooting.shoot_curve_point(args.delta1, cfg)
    return _shot_report(dict(delta1=args.delta1), shot, "t_meet")


def _cmd_shoot_s2(args, cfg):
    shot = shooting.shoot_surface_point(args.delta2, args.delta3, cfg)
    return _shot_report(dict(delta2=args.delta2, delta3=args.delta3), shot, "s_meet")


def _cmd_mismatch(args, cfg):
    params = dict(delta1=args.delta1, delta2=args.delta2, delta3=args.delta3)
    vec = shooting.mismatch(*params.values(), cfg)
    columns = (*params, *MismatchVector._fields, "f_inf")
    return _Report(params, columns, [(*params.values(), *vec, vec.inf_norm)])


def _cmd_root(args, cfg):
    res = shooting.find_root(args.guess, cfg)
    columns = ("delta1", "delta2", "delta3", "residual_inf", "iterations", "converged")
    rec = (*res.root, res.residual, res.iterations, True)
    return _Report(dict(guess=_joined(args.guess)), columns, [rec])


def _sweep_row(columns, params, values, status) -> tuple:
    """One sweep record; a failed node (``values`` None) keeps its
    parameters and puts NaN in every value column."""
    if values is None:
        values = (math.nan,) * (len(columns) - len(params) - 1)
    return (*params, *values, _safe(status))


def _cmd_curve(args, cfg):
    samples = shooting.sample_curve(args.range, args.n, cfg)
    minima = ("min_" + name for name in CurvatureEigenvalues._fields)
    columns = ("delta1", *MeetPoint._fields, *minima, "status")
    records = [
        _sweep_row(columns, (s.delta1,), (*s.meet, *s.eig_min) if s.meet else None, s.status)
        for s in samples
    ]
    return _Report(dict(range=_joined(args.range), n=args.n), columns, records)


def _cmd_surface(args, cfg):
    samples = shooting.sample_surface(args.d2_range, args.d3_range, args.n2, args.n3, cfg)
    params = dict(
        d2_range=_joined(args.d2_range),
        d3_range=_joined(args.d3_range),
        n2=args.n2,
        n3=args.n3,
    )
    columns = ("delta2", "delta3", *MeetPoint._fields, "status")
    records = [_sweep_row(columns, (s.delta2, s.delta3), s.meet, s.status) for s in samples]
    return _Report(params, columns, records)


def _cmd_scan(args, cfg):
    box = tuple(zip(args.box[::2], args.box[1::2]))
    res = shooting.scan_domain(box, args.resolution, cfg)
    params = dict(
        box=_joined(args.box),
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
    return _Report(params, columns, records)


# ------------------------------------------------------------ verification


def _cmd_verify_maxprinciple(args, cfg):
    custom_s1 = args.delta1 is not None
    custom_s2 = args.delta2 is not None or args.delta3 is not None
    if custom_s2 and (args.delta2 is None or args.delta3 is None):
        raise ValueError("sphere-side check needs both --delta2 and --delta3")
    s1, s2 = shooting.shoot_curve_point, shooting.shoot_surface_point
    # custom parameters: the sign conditions are theorems only for
    # solitons, so report without judging
    check = not (custom_s1 or custom_s2)
    if check:
        d1, d2, d3 = shooting.ROUND_DELTAS
        cases = [
            ("round-s1", s1(d1, cfg)),
            ("round-s2", s2(d2, d3, cfg)),
            ("gaussian", s2(-1.0, 1.0, cfg)),
        ]
    else:
        cases = [("custom-s1", s1(args.delta1, cfg))] if custom_s1 else []
        if custom_s2:
            cases.append(("custom-s2", s2(args.delta2, args.delta3, cfg)))
    records, all_ok = [], True
    for name, (_, traj) in cases:
        # the first two minima are k_t1's and k_s's, as max_principle_report
        # finds them on the same samples
        sp = verify.sign_profile(traj)
        rep = MaxPrincipleReport(sp.min_values[0], sp.min_times[0], sp.min_values[1], sp.min_times[1])
        n_changes = sum(len(c) for c in sp.sign_changes)
        ok = rep.min_k_t1 >= -_SIGN_TOL and rep.min_k_s >= -_SIGN_TOL and n_changes == 0
        records.append((name, *rep, n_changes, _status(ok) if check else "report"))
        all_ok = all_ok and (ok or not check)
    columns = ("case", *MaxPrincipleReport._fields, "sign_changes", "status")
    return _Report(dict(threshold=_SIGN_TOL), columns, records, all_ok)


def _cmd_verify_delta3(args, cfg):
    rep = verify.delta3_integral_check()
    ok = (
        rep.closed_form > 1.0
        and rep.first_term >= 1.89
        and abs(rep.closed_form - rep.quadrature) < 1e-10
    )
    return _check_report({}, rep, ok)


def _cmd_verify_bryant(args, cfg):
    if args.tol_abs is not None:
        raise ValueError(
            f"verify-bryant does not take --tol-abs: its trace fixes it at {_TOL_ABS:g} on "
            "the scaled gap (y - x)/x^3, because the gap y - x shrinks like x^3"
        )
    curve = bryant.bryant_unstable_curve(args.launch_offset, rtol=args.tol_rel)
    fb = bryant.verify_f_bounds(curve)
    ok = min(fb[:4]) >= -_MARGIN_TOL and fb.y_at_x03 > 0.21  # fb[:4]: the margins
    if args.curve_out is not None:
        curve_meta = {**_meta(args, launch_offset=args.launch_offset), **fb._asdict()}
        _emit(args, curve_meta, ("x", "y"), list(zip(curve.x, curve.y)), args.curve_out)
    return _check_report(dict(launch_offset=args.launch_offset, threshold=_MARGIN_TOL), fb, ok)


def _cmd_verify_smalltime(args, cfg):
    rep = bryant.bryant_smalltime(cfg)
    ok = min(rep[:4]) >= -_MARGIN_TOL  # the four envelope margins
    return _check_report(dict(threshold=_MARGIN_TOL), rep, ok)


def _cmd_trace_pancake_limit(args, cfg):
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
        records.append((d1, *rep[:4], dev, *rep[4:], _status(ok)))
    trend_checked = len(d1s) >= 2 and list(d1s) == sorted(d1s)
    trend_ok = True
    if trend_checked:
        trend_ok = all(b < a for a, b in zip(devs, devs[1:])) and all(
            b < a for a, b in zip(gaps, gaps[1:])
        )
        all_ok = all_ok and trend_ok
    params = dict(
        delta1_list=_joined(d1s),
        trend_checked=trend_checked,
        trend_monotone=trend_ok,
    )
    # the frozen column order puts dev_event after x
    names = PancakeTraceReport._fields
    columns = ("delta1", *names[:4], "dev_event", *names[4:], "status")
    return _Report(params, columns, records, all_ok)


def _cmd_compare_bryant(args, cfg):
    rep = verify.rescaled_bryant_compare(args.delta1, cfg)
    ok = rep.c_obs < _COMPARE_CAP
    columns = ("delta1", "p_squared", "sup_dev", "c_obs", "status")
    rec = (args.delta1, rep.p_squared, rep.sup_dev, rep.c_obs, _status(ok))
    return _Report(dict(delta1=args.delta1, cap=_COMPARE_CAP), columns, [rec], ok)


# ----------------------------------------------------------------- pancake


def _pancake_profile(args):
    """The profile the pancake flags describe, and its header entries."""
    blend = pancake.BlendParams(f2_window=args.f2_window, f1_window=args.f1_window)
    prof = pancake.build_profile(args.length, blend=blend, grid_n=args.grid_n)
    params = dict(
        length=prof.length,
        grid_n=args.grid_n,
        f2_window=_joined(prof.f2_window),
        f1_window=_joined(prof.f1_window),
        f2_blend_coefs=";".join(repr(float(c)) for c in prof.f2_blend_coefs),
    )
    return prof, params


def _cmd_pancake_build(args, cfg):
    prof, params = _pancake_profile(args)
    # first, so that a grid too coarse is refused before profile_report overflows on it
    residual = max(pancake.smoothness_residuals(prof))
    rep = pancake.profile_report(prof)
    params.update(
        volume=rep.volume,
        diameter_low=rep.diameter_low,
        diameter_high=rep.diameter_high,
        max_smoothness_residual=residual,
    )
    return _Report(params, ("r", "f1", "f2"), list(zip(prof.r, prof.f1, prof.f2)))


def _cmd_pancake_curvature(args, cfg):
    prof, params = _pancake_profile(args)
    curv = pancake.profile_curvature(prof)
    ok = curv.min_eig >= -_EIG_TOL
    params.update(
        min_eig=curv.min_eig,
        s_min=curv.s_min,
        s_max=curv.s_max,
        c_bound=curv.c_bound,
        threshold=_EIG_TOL,
        status=_status(ok),
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
    return _Report(params, columns, records, ok)


# ------------------------------------------------------------------ parser


def _add_common(p):
    p.add_argument("--tol-rel", type=float, default=ShootConfig().rtol, help="integrator relative tolerance")
    p.add_argument("--tol-abs", type=float, default=None, help=f"integrator absolute tolerance (default {_TOL_ABS:g}; not taken by verify-bryant)")
    p.add_argument("--t-eps", type=float, default=ShootConfig().t_eps, help="series handoff distance from the singular orbit, in (0, 1e-1]")
    p.add_argument("--out", default=None, help="output path (default: stdout for reports, <subcommand>.<format> for sweeps)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=1, help="accepted and echoed in the header; no effect, sweeps run batched in one process")
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

    pair, triple = _numbers(2), _numbers(3)

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
    p.add_argument("--guess", type=triple, required=True, metavar="D1,D2,D3")

    p = cmd("curve", _cmd_curve, "log-uniform sweep of the circle-side meet map")
    p.add_argument("--range", type=pair, default=(0.01, 10.0), metavar="LO,HI")
    p.add_argument("--n", type=int, default=100)

    p = cmd("surface", _cmd_surface, "grid sweep of the sphere-side meet map")
    p.add_argument("--d2-range", type=pair, default=(-1.0, 0.0), metavar="LO,HI")
    p.add_argument("--d3-range", type=pair, default=(0.1, 2.0), metavar="LO,HI")
    p.add_argument("--n2", type=int, default=10)
    p.add_argument("--n3", type=int, default=10)

    p = cmd("scan", _cmd_scan, "grid-local minima of |F|_inf over a parameter box")
    p.add_argument(
        "--box",
        type=_numbers(6),
        default=sum(shooting.DEFAULT_SCAN_BOX, ()),
        metavar="D1LO,D1HI,D2LO,D2HI,D3LO,D3HI",
    )
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
    p.add_argument("--delta1", type=_numbers(), default=None, metavar="D1[,D1...]")

    p = cmd("compare-bryant", _cmd_compare_bryant, "rescaled large-delta1 shot against the steady reference")
    p.add_argument("--delta1", type=float, required=True)

    for name, handler, help_text in (
        ("pancake-build", _cmd_pancake_build, "build a pancake profile and export it"),
        ("pancake-curvature", _cmd_pancake_curvature, "curvature eigenvalues and scalar range of a pancake profile"),
    ):
        p = cmd(name, handler, help_text)
        p.add_argument("--length", type=float, required=True)
        p.add_argument("--grid-n", type=int, default=2048)
        p.add_argument("--f2-window", type=pair, default=(0.5, 1.5), metavar="A,B")
        p.add_argument("--f1-window", type=pair, default=(0.5, 1.5), metavar="C,D")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        rep = args.handler(args, _config(args))
    except _USAGE_ERRORS as exc:
        _emit_error(args, exc)
        return EXIT_USAGE
    except SolshootError as exc:
        _emit_error(args, exc)
        return EXIT_NUMERICAL
    _emit(args, _meta(args, **rep.params), rep.columns, rep.records)
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
