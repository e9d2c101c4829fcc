"""Spans and counters recorded around calls into the solshoot modules.

The package itself is never edited.  ``instrument`` rebinds public
functions in every solshoot module that holds them, records what each call
did, and puts every original back on exit.  Entry points of a layer get
one span per call (name, start, end, parent, op id).  Per-step hot
functions (the RHS, event functions, dense evaluation, scaled-variable
conversions) are aggregated into a count and a time instead, because one
span per call would cost more than the call.

A span's self time is its duration minus the part covered by its child
spans and minus the aggregated hot calls made directly under it.  An
aggregated call nested in another aggregated call (an event function
evaluated inside the crossing refinement, say) is counted but not timed,
since its time is already inside the outer one.  Aggregated functions
must not call span-wrapped ones.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at the top
    op: int = -1
    inner: float = 0.0  # aggregated hot-call time directly under this span


class Tracer:
    """In-memory record of spans and aggregated counters for one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self._open: list[int] = []
        self._timing: set[str] = set()

    def top(self) -> str:
        """Name of the innermost open span, '' outside every span."""
        return self.spans[self._open[-1]].name if self._open else ""

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so every call records one span named ``name``.

        ``on_result(tracer, result)`` may add counters from the return value.
        """

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx].end = time.perf_counter()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def aggregate(self, name, fn, size=None):
        """Wrap ``fn`` to add to ``<name>.calls`` and ``<name>.s``.

        ``size(*args)`` names a second counter as ``(suffix, amount)``.
        Re-entrant calls of the same name (a method recursing into itself)
        pass straight through.
        """

        def wrapper(*args, **kwargs):
            if name in self._timing:
                return fn(*args, **kwargs)
            self.totals[name + ".calls"] += 1
            if size is not None:
                suffix, amount = size(*args, **kwargs)
                self.totals[f"{name}.{suffix}"] += amount
            if self._timing:
                return fn(*args, **kwargs)
            self._timing.add(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._timing.discard(name)
                self.totals[name + ".s"] += dt
                if self._open:
                    self.spans[self._open[-1]].inner += dt

        return wrapper

    def dump(self, path) -> None:
        """Write the spans and counters as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], "totals": dict(self.totals)},
                fh,
            )


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children's
    intervals minus its aggregated ``inner`` time."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, -np.inf
        for a, b in sorted(children[idx]):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered - s.inner)
    return out


# ------------------------------------------------------------ rebinding


def _count_trajectory(tracer, traj):
    tracer.totals["ode.steps"] += len(traj.t) - 1
    tracer.totals["ode.rejected"] += traj.n_rejected
    tracer.totals["ode.rhs_evals"] += traj.n_rhs_evals


def _count_root(tracer, result):
    tracer.totals["shooting.newton.iters"] += result.iterations


def _count_scan(tracer, result):
    tracer.totals["shooting.scan.nodes"] += result.values.size


def _grid_rows(states):
    return "rows", len(states)


def _state_rows(state):
    return "rows", np.size(state[0])


def _wrappers(tracer):
    """(owner, attribute, wrapped) for every rebinding the tracer makes."""
    import solshoot
    from solshoot import bryant, fields, ode, pancake, profiles, shooting, verify

    modules = (solshoot, ode, fields, shooting, verify, profiles, bryant, pancake)

    def everywhere(original, wrapped):
        # every module that imported the function holds it under its own name
        return [
            (mod, name, wrapped)
            for mod in modules
            for name, value in vars(mod).items()
            if value is original
        ]

    plan = []
    span_targets = {
        ode.integrate: ("ode.integrate", _count_trajectory),
        ode.locate_event: ("ode.locate_event", None),
        shooting.shoot_curve_point: ("shooting.shot.s1", None),
        shooting.shoot_surface_point: ("shooting.shot.s2", None),
        shooting.find_root: ("shooting.newton", _count_root),
        shooting.scan_domain: ("shooting.scan", _count_scan),
    }
    for mod in (verify, profiles, bryant, pancake):
        short = mod.__name__.rsplit(".", 1)[1]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                span_targets[fn] = (f"{short}.{name}", None)
    for fn, (name, on_result) in span_targets.items():
        plan += everywhere(fn, tracer.span(name, fn, on_result))

    hot = {
        fields.family_rhs: ("fields.rhs", None),
        fields.curvature_eigs: ("fields.eigs", _state_rows),
        fields.curvature_eigs_grid: ("fields.eigs", _grid_rows),
        fields.to_scaled: ("fields.scaled", None),
        fields.from_scaled: ("fields.scaled", None),
        fields.gauge_quantities: ("fields.scaled", None),
    }
    for fn, (name, size) in hot.items():
        plan += everywhere(fn, tracer.aggregate(name, fn, size))

    # event functions are wrapped where shots build them
    event_cls = shooting.Event

    def traced_event(fn, *args, **kwargs):
        return event_cls(tracer.aggregate("ode.event.g", fn), *args, **kwargs)

    plan.append((shooting, "Event", traced_event))

    # crossing refinement counts as event cost only inside an integration;
    # on a stored trajectory it is part of locate_event
    brentq = ode.brentq
    timed_brentq = tracer.aggregate("ode.event.refine", brentq)

    def refine(*args, **kwargs):
        if tracer.top() == "ode.integrate":
            return timed_brentq(*args, **kwargs)
        return brentq(*args, **kwargs)

    plan.append((ode, "brentq", refine))

    traj = ode.Trajectory
    plan.append(
        (traj, "eval", tracer.aggregate("ode.eval", traj.eval, lambda _, t: ("points", np.size(t))))
    )
    timed_anti = tracer.aggregate("ode.antiderivative", traj.antiderivative)

    def antiderivative(self, g):
        node_vals, eval_fn = timed_anti(self, g)
        return node_vals, tracer.aggregate("ode.antiderivative.eval", eval_fn)

    plan.append((traj, "antiderivative", antiderivative))
    return plan


@contextmanager
def instrument(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block.

    On exit every rebound attribute gets its original object back, and a
    RuntimeError is raised if any attribute is not the original afterwards.
    """
    plan = _wrappers(tracer)
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in plan]
    try:
        for owner, name, wrapped in plan:
            setattr(owner, name, wrapped)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
        left = [f"{getattr(o, '__name__', o)}.{n}" for o, n, v in saved if vars(o)[n] is not v]
        if left:
            raise RuntimeError(f"attributes not restored: {left}")


# --------------------------------------------------------- layer metrics

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("ode.integrate.calls", "count", "lower"),
    ("ode.integrate.self_s", "s", "lower"),
    ("ode.us_per_step", "us", "lower"),
    ("ode.steps", "count", "lower"),
    ("ode.rejected", "count", "lower"),
    ("ode.accept_ratio", "ratio", "higher"),
    ("ode.rhs_evals", "count", "lower"),
    ("ode.event.g_calls", "count", "lower"),
    ("ode.event.refine_calls", "count", "lower"),
    ("ode.event.s", "s", "lower"),
    ("ode.eval.calls", "count", "lower"),
    ("ode.eval.points", "count", "lower"),
    ("ode.eval.s", "s", "lower"),
    ("ode.antiderivative.calls", "count", "lower"),
    ("ode.antiderivative.s", "s", "lower"),
    ("ode.locate_event.calls", "count", "lower"),
    ("ode.locate_event.s", "s", "lower"),
    ("fields.rhs.calls", "count", "lower"),
    ("fields.rhs.s", "s", "lower"),
    ("fields.eigs.rows", "count", "lower"),
    ("fields.eigs.s", "s", "lower"),
    ("fields.scaled.calls", "count", "lower"),
    ("fields.scaled.s", "s", "lower"),
    ("shooting.shots.s1", "count", "lower"),
    ("shooting.shots.s2", "count", "lower"),
    ("shooting.shot.self_s", "s", "lower"),
    ("shooting.shots_per_root", "count", "lower"),
    ("shooting.newton.iters", "count", "lower"),
    ("shooting.newton.self_s", "s", "lower"),
    ("shooting.scan.nodes", "count", "higher"),
    ("shooting.scan.self_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("profiles.self_s", "s", "lower"),
    ("bryant.self_s", "s", "lower"),
    ("pancake.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

# metrics that count work and must repeat exactly for a given seed
DETERMINISTIC = tuple(
    name for name, unit, _ in LAYER_METRICS if unit == "count" or name == "ode.accept_ratio"
)


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    """Per-layer metric values, keyed as in ``LAYER_METRICS``."""
    spans = tracer.spans
    own = self_times(spans)
    tot = tracer.totals

    def spans_named(prefix):
        return [i for i, s in enumerate(spans) if s.name == prefix or s.name.startswith(prefix + ".")]

    def self_sum(prefix):
        return sum(own[i] for i in spans_named(prefix))

    def under_newton(i):
        while i >= 0:
            if spans[i].name == "shooting.newton":
                return True
            i = spans[i].parent
        return False

    integrate = spans_named("ode.integrate")
    attempts = tot["ode.steps"] + tot["ode.rejected"]
    newton = spans_named("shooting.newton")
    shots = spans_named("shooting.shot")
    root_shots = sum(1 for i in shots if under_newton(spans[i].parent))
    locate = spans_named("ode.locate_event")

    m = {
        "ode.integrate.calls": len(integrate),
        "ode.integrate.self_s": self_sum("ode.integrate"),
        "ode.us_per_step": 1e6 * self_sum("ode.integrate") / attempts if attempts else 0.0,
        "ode.steps": tot["ode.steps"],
        "ode.rejected": tot["ode.rejected"],
        "ode.accept_ratio": tot["ode.steps"] / attempts if attempts else 0.0,
        "ode.rhs_evals": tot["ode.rhs_evals"],
        "ode.event.g_calls": tot["ode.event.g.calls"],
        "ode.event.refine_calls": tot["ode.event.refine.calls"],
        "ode.event.s": tot["ode.event.g.s"] + tot["ode.event.refine.s"],
        "ode.eval.calls": tot["ode.eval.calls"],
        "ode.eval.points": tot["ode.eval.points"],
        "ode.eval.s": tot["ode.eval.s"],
        "ode.antiderivative.calls": tot["ode.antiderivative.calls"],
        "ode.antiderivative.s": tot["ode.antiderivative.s"] + tot["ode.antiderivative.eval.s"],
        "ode.locate_event.calls": len(locate),
        "ode.locate_event.s": sum(spans[i].end - spans[i].start for i in locate),
        "fields.rhs.calls": tot["fields.rhs.calls"],
        "fields.rhs.s": tot["fields.rhs.s"],
        "fields.eigs.rows": tot["fields.eigs.rows"],
        "fields.eigs.s": tot["fields.eigs.s"],
        "fields.scaled.calls": tot["fields.scaled.calls"],
        "fields.scaled.s": tot["fields.scaled.s"],
        "shooting.shots.s1": len(spans_named("shooting.shot.s1")),
        "shooting.shots.s2": len(spans_named("shooting.shot.s2")),
        "shooting.shot.self_s": self_sum("shooting.shot"),
        "shooting.shots_per_root": root_shots / len(newton) if newton else 0.0,
        "shooting.newton.iters": tot["shooting.newton.iters"],
        "shooting.newton.self_s": self_sum("shooting.newton"),
        "shooting.scan.nodes": tot["shooting.scan.nodes"],
        "shooting.scan.self_s": self_sum("shooting.scan"),
        "verify.self_s": self_sum("verify"),
        "profiles.self_s": self_sum("profiles"),
        "bryant.self_s": self_sum("bryant"),
        "pancake.self_s": self_sum("pancake"),
        "trace.overhead": overhead,
    }
    return {k: float(v) for k, v in m.items()}
