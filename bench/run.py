"""Benchmark of the solshoot package: one closed-loop client per workload.

    python3 bench/run.py --workload root --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then operations back to back for about ``--seconds``, then every
output is checked by the workload's oracle.  ``--trace 1`` runs a fixed,
seeded set of operations untraced and then with the tracer's wrappers
installed, checks that both give bit-identical outputs, and reports the
per-layer metrics.  ``--workload all`` runs every workload in its own
process.  The last line of standard output is the JSON result; the exit
code is non-zero when any operation failed or raised.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("root", "scan", "pancake-trace", "monitors")

# fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 7
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import solshoot; "
    "solshoot.shoot_curve_point(1.0 / 18.0)"
)


class OpError(Exception):
    """An operation that raised; carries the formatted traceback."""


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=_positive, default=16.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return p.parse_args(argv)


def host_block(args, size: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = r.stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_size": size,
    }


def measure_setup(paced) -> tuple[list[float], list[float]]:
    """Wall and nominal seconds from interpreter start to one finished
    round shot, per fresh interpreter."""

    def probe():
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], check=True)

    wall, nominal = [], []
    for _ in range(SETUP_PROBES):
        _, w, n = paced.call(probe)
        wall.append(w)
        nominal.append(n)
    return wall, nominal


def run_op(wl, inp, workers):
    """One operation; a raised exception becomes an ``OpError`` output."""
    try:
        return wl.run(inp, workers)
    except Exception:  # the loop must go on; the failure is counted
        return OpError(traceback.format_exc())


def check_group(wl, inputs, outputs) -> list[list[str]]:
    """Oracle messages per operation; operations that raised fail as such."""
    if any(isinstance(o, OpError) for o in outputs):
        return [
            [f"raised: {o}"] if isinstance(o, OpError)
            else ["not checked: another operation of its group raised"]
            for o in outputs
        ]
    try:
        return wl.check(inputs, outputs)
    except Exception:
        return [[f"oracle raised: {traceback.format_exc()}"] for _ in outputs]


def timed_loop(wl, seed, seconds, workers, paced):
    """Closed loop over whole groups for about ``seconds``.

    The first group always runs; a later one starts only if, taking as long
    as the one before, it would end inside the window.  Groups of one
    workload do the same kind of work, so a run ends near ``seconds``
    however slow the host is.  Returns the groups' inputs and outputs,
    per-operation wall and nominal seconds, and the wall time of the window.
    """
    groups, wall, nominal = [], [], []
    g = 0
    start = time.perf_counter()
    last = 0.0
    while not groups or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        inputs = wl.make(seed, g)
        outputs = []
        for inp in inputs:
            out, w, n = paced.call(run_op, wl, inp, workers)
            outputs.append(out)
            wall.append(w)
            nominal.append(n)
        groups.append((inputs, outputs))
        last = time.perf_counter() - t0
        g += 1
    return groups, wall, nominal, time.perf_counter() - start


def cpu_sets(wl):
    """The CPU a single-threaded client is pinned to, and the CPUs the
    workload's operations run on: all of them when worker processes share
    the work, else that one."""
    cpus = os.sched_getaffinity(0)
    single = {max(cpus)}
    return single, (cpus if wl.parallel else single)


def where(wl, workers) -> str:
    """Where an operation's work runs, for ``hostspeed.Paced``."""
    return "workers" if wl.parallel and workers > 1 else "self"


def warm_up():
    from solshoot import shooting

    shooting.shoot_curve_point(shooting.ROUND_DELTAS[0])


def end_to_end(wl, args, workers):
    from hostspeed import Paced, pinned
    from stats import percentile, tail_percentile

    single, loop_cpus = cpu_sets(wl)
    with pinned(single):
        setup_wall, setup = measure_setup(Paced(single))
    with pinned(loop_cpus):
        warm_up()
        groups, wall, durations, elapsed = timed_loop(
            wl, args.seed, args.seconds, workers, Paced(loop_cpus, sample=where(wl, workers))
        )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = [m for inputs, outputs in groups for m in check_group(wl, inputs, outputs)]
    attempted = len(failures)
    failed = sum(1 for m in failures if m)
    for i, m in enumerate(failures):
        for msg in m:
            print(f"FAILED op {i}: {msg}", file=sys.stderr)
    n, ok = len(durations), attempted - failed
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"nominal; median of {len(setup)} fresh interpreters"),
        "ops_per_s": (ok / sum(durations), "1/s", f"nominal; {ok} verified ops"),
        "op_s.p50": (percentile(durations, 50), "s", f"nominal; n={n}"),
        "peak_rss_mb": (peak_mb, "MB", "client process"),
    }
    shown = dict(metrics)
    tail = tail_percentile(durations)
    if tail is not None:
        shown[f"op_s.p{tail[0]}"] = (tail[1], "s", f"nominal; n={n}")
    shown["failed_frac"] = (failed / attempted, "1", f"{failed}/{attempted}")
    shown["wall.setup_s"] = (statistics.median(setup_wall), "s", "wall")
    shown["wall.ops_per_s"] = (ok / sum(wall), "1/s", f"wall; window {elapsed:.3f} s with the kernel")
    shown["wall.op_s.p50"] = (percentile(wall, 50), "s", f"wall; n={n}")
    shown["host_speed"] = (
        statistics.median(d / w for d, w in zip(durations, wall)), "1", "nominal / wall, median"
    )
    for name, (value, unit, note) in shown.items():
        print(f"{name:<14} {value:12.6g} {unit:<5} ({note})")
    if tail is None:
        print(f"{'op_s.p90':<14} {'n/a':>12}       (n={n}: fewer than 10 samples beyond it)")
    return attempted, failed, {k: (v, u) for k, (v, u, _) in metrics.items()}


def traced(wl, args, workers):
    from hostspeed import Paced, pinned
    from tracing import DETERMINISTIC, LAYER_METRICS, Tracer, instrument, layer_metrics
    from workloads import canonical

    inputs = [inp for g in range(wl.trace_groups) for inp in wl.make(args.seed, g)]
    single, loop_cpus = cpu_sets(wl)

    def run_all(n_workers, cpus, tracer=None):
        """Outputs and total nominal seconds of one pass over ``inputs``."""
        outputs, total = [], 0.0
        with pinned(cpus):
            paced = Paced(cpus, sample=where(wl, n_workers))
            for i, inp in enumerate(inputs):
                if tracer is not None:
                    tracer.op = i
                out, _, nominal = paced.call(run_op, wl, inp, n_workers)
                outputs.append(out)
                total += nominal
        return outputs, total

    warm_up()
    # the reference runs as end to end does; the traced run is in-process,
    # so its untraced twin (the overhead base) uses one worker on one CPU
    reference, ref_s = run_all(workers, loop_cpus)
    if wl.parallel:
        base, base_s = run_all(1, single)
    else:
        base, base_s = reference, ref_s
    tracer = Tracer()
    problems = []
    try:
        with instrument(tracer):
            outputs, traced_s = run_all(1, single, tracer)
    except RuntimeError as exc:
        problems.append(str(exc))
        outputs, traced_s = [OpError("tracer failed")] * len(inputs), base_s

    msgs = check_group(wl, inputs, outputs)
    for i, (r, b, o) in enumerate(zip(reference, base, outputs)):
        if not canonical(r) == canonical(b) == canonical(o):
            msgs[i].append("traced, one-worker and end-to-end outputs differ")
    failed = sum(1 for m in msgs if m)
    for i, m in enumerate(msgs):
        for msg in m:
            print(f"FAILED op {i}: {msg}", file=sys.stderr)
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)

    metrics = layer_metrics(tracer, traced_s / base_s)
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    tracer.dump(dump)
    for name, unit, _ in LAYER_METRICS:
        mark = "*" if name in DETERMINISTIC else " "
        print(f"{name:<26} {metrics[name]:14.6g} {unit:<5}{mark}")
    print(f"(* deterministic counter; {len(tracer.spans)} spans written to {dump.relative_to(ROOT)})")
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return len(inputs), failed + len(problems), {k: (v, units[k]) for k, v in metrics.items()}


def run_one(args) -> int:
    if not (SRC / "solshoot" / "__init__.py").is_file():
        print(f"bench: no solshoot package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workers = os.cpu_count() or 1  # the CLI's default
    print("host " + json.dumps(host_block(args, wl.size)))
    if args.trace:
        attempted, failed, metrics = traced(wl, args, workers)
    else:
        attempted, failed, metrics = end_to_end(wl, args, workers)
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
