"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import solshoot  # noqa: E402
from solshoot import bryant, fields, ode, pancake, profiles, shooting, verify  # noqa: E402
from hostspeed import KERNEL_NOMINAL_S, Paced  # noqa: E402
from stats import percentile, quartile_spread, tail_percentile  # noqa: E402
from tracing import DETERMINISTIC, Span, Tracer, instrument, layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    FIXED,
    PANCAKE_BAND,
    PANCAKE_DECADES,
    PERTURBATION,
    WORKLOADS,
    canonical,
)

MODULES = (solshoot, ode, fields, shooting, verify, profiles, bryant, pancake, ode.Trajectory)


# ------------------------------------------------------------ inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_seed_and_group(name):
    make = WORKLOADS[name].make
    for seed in (0, 1, 12345):
        for g in range(4):
            assert canonical(make(seed, g)) == canonical(make(seed, g))
    assert canonical(make(1, 1)) != canonical(make(2, 1))


@pytest.mark.parametrize("name", ["root", "monitors"])
def test_perturbed_points_are_admissible(name):
    make = WORKLOADS[name].make
    for seed in range(20):
        for g in range(1, 6):
            for p in make(seed, g):
                shooting.check_admissible(*p)
                for x, r in zip(p, shooting.ROUND_DELTAS):
                    assert min(r * (1 - PERTURBATION), r * (1 + PERTURBATION)) <= x or x == -1.0
                    assert x <= max(r * (1 - PERTURBATION), r * (1 + PERTURBATION))
    assert WORKLOADS["monitors"].make(7, 0) == [FIXED]


def test_scan_box_moves_only_upper_faces_inward():
    for seed in range(20):
        [inp] = WORKLOADS["scan"].make(seed, 0)
        n = inp.resolution
        for (lo, hi), (blo, bhi) in zip(shooting.DEFAULT_SCAN_BOX, inp.box):
            assert blo == lo
            assert hi - 0.5 * (hi - lo) / (n - 1) <= bhi <= hi
        assert all(0 <= i < n for probe in inp.probes for i in probe)


def test_pancake_d1_one_per_decade_sorted():
    for seed in range(20):
        d1s = WORKLOADS["pancake-trace"].make(seed, 0)
        assert d1s == sorted(d1s)
        for d1, k in zip(d1s, PANCAKE_DECADES):
            assert 10.0**k <= d1 <= 10.0 ** (k + PANCAKE_BAND)


# ------------------------------------------------------------ statistics


def test_percentile_matches_linear_interpolation():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([5.0], 90) == 5.0
    rng = np.random.default_rng(0)
    for n in (2, 7, 100):
        xs = list(rng.random(n))
        for q in (0, 10, 50, 90, 100):
            assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)), abs=1e-15)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99))) is None
    assert tail_percentile(list(range(100)))[0] == 90
    assert tail_percentile(list(range(999)))[0] == 90
    assert tail_percentile(list(range(1000)))[0] == 99


def test_quartile_spread_uses_statistics_quantiles():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    assert quartile_spread(xs) == (q3 - q1) / q2
    assert quartile_spread([2.0] * 10) == 0.0


# ------------------------------------------------------------ spans


def test_self_time_subtracts_children_and_inner():
    spans = [
        Span("a", 0.0, 10.0, parent=-1, inner=1.0),
        Span("b", 1.0, 3.0, parent=0),
        Span("c", 4.0, 8.0, parent=0, inner=0.5),
        Span("d", 5.0, 6.0, parent=2),
        Span("e", 11.0, 12.0, parent=-1),
    ]
    assert self_times(spans) == pytest.approx([10 - 2 - 4 - 1, 2, 4 - 1 - 0.5, 1, 1])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0), Span("b", 1.0, 5.0, parent=0), Span("c", 4.0, 6.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_aggregate_counts_nested_calls_without_timing_them():
    t = Tracer()
    inner = t.aggregate("inner", lambda: None)
    outer = t.aggregate("outer", lambda: inner())
    top = t.span("top", lambda: outer())
    top()
    assert t.totals["outer.calls"] == 1 and t.totals["inner.calls"] == 1
    assert "inner.s" not in t.totals
    assert t.spans[0].inner == t.totals["outer.s"]


# ------------------------------------------------------------ wrappers


def _snapshot():
    return {id(m): dict(vars(m)) for m in MODULES}


def _same(before):
    for m in MODULES:
        now = vars(m)
        for name, value in before[id(m)].items():
            if now.get(name) is not value:
                return f"{getattr(m, '__name__', m)}.{name}"
    return None


def test_wrappers_restore_every_attribute():
    before = _snapshot()
    with instrument(Tracer()):
        assert shooting.integrate is not before[id(shooting)]["integrate"]
        assert ode.Trajectory.eval is not before[id(ode.Trajectory)]["eval"]
    assert _same(before) is None


def test_wrappers_restore_after_an_exception():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with instrument(Tracer()):
            1 / 0
    assert _same(before) is None


def _traced_round_mismatch():
    tracer = Tracer()
    with instrument(tracer):
        out = shooting.mismatch(*shooting.ROUND_DELTAS)
    return out, layer_metrics(tracer, 1.0)


def test_traced_output_is_bitwise_untraced_and_counters_repeat():
    plain = shooting.mismatch(*shooting.ROUND_DELTAS)
    out_a, m_a = _traced_round_mismatch()
    out_b, m_b = _traced_round_mismatch()
    assert canonical(out_a) == canonical(plain) == canonical(out_b)
    assert {k: m_a[k] for k in DETERMINISTIC} == {k: m_b[k] for k in DETERMINISTIC}
    assert m_a["shooting.shots.s1"] == m_a["shooting.shots.s2"] == 1
    assert m_a["fields.rhs.calls"] == m_a["ode.rhs_evals"] > 0
    assert m_a["ode.event.refine_calls"] == 2


def test_canonical_sees_one_ulp():
    x = np.array([1.0, 2.0])
    y = x.copy()
    y[1] = math.nextafter(2.0, 3.0)
    assert canonical((x, 1.0)) != canonical((y, 1.0))
    assert canonical({"a": 1.0}) != canonical({"a": math.nextafter(1.0, 2.0)})


# ------------------------------------------------------------ host speed


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


@pytest.mark.parametrize("sample", ["self", None])
def test_paced_call_returns_result_and_positive_times(sample):
    cpus = {max(os.sched_getaffinity(0))}
    result, wall, nominal = Paced(cpus, sample).call(_busy, 0.2)
    assert result == "done"
    assert 0.1 < wall < 0.3 and nominal > 0.0
    assert KERNEL_NOMINAL_S > 0.0


def _pool_busy(seconds):
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(2) as pool:
        return pool.map(_busy, [seconds, seconds])


def test_forked_workers_send_samples():
    paced = Paced(os.sched_getaffinity(0), "workers")
    result, wall, nominal = paced.call(_pool_busy, 0.3)
    assert result == ["done", "done"]
    assert len(paced._worker_samples()) == 0  # drained by the call
    assert wall > 0.25 and nominal > 0.0


def test_sampler_restores_the_alarm_handler_and_timer():
    before = signal.getsignal(signal.SIGALRM)
    Paced({max(os.sched_getaffinity(0))}, "self").call(_busy, 0.15)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
