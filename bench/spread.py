"""Run-to-run spread of the end-to-end metrics, against the declared bounds.

    python3 bench/spread.py --workload root --seeds 1-10 [--seconds 20]

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric its median, its quartile spread (q3 - q1) / median and
the bound from ``BENCHMARK.json``.  A spread above a third of the bound is
flagged; ``setup_s`` is exempt from the spread rule, as its bound only
limits how far a median may move.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int, default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    status = 0
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        t0 = time.perf_counter()
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        took = time.perf_counter() - t0
        result = json.loads(r.stdout.strip().splitlines()[-1]) if r.stdout.strip() else {}
        if r.returncode or not result.get("correct"):
            print(f"seed {seed}: exit {r.returncode}\n{r.stderr}", file=sys.stderr)
            status = 1
            continue
        row = {k: v["value"] for k, v in result["metrics"].items()}
        cells = "  ".join(f"{k}={v:.5g}" for k, v in row.items())
        print(f"seed {seed}: {cells}  (run {took:.1f} s)", flush=True)
        for k in values:
            values[k].append(row[k])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        if len(vals) < 2:
            continue
        spread = quartile_spread(vals)
        flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- above bound/3"
        print(
            f"{m['name']:<12} median {statistics.median(vals):.5g} {m['unit']:<4} "
            f"spread {spread:.4f}  bound {m['bound']}{flag}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
