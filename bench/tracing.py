"""Spans around the calls into each admac module, set from outside the program.

``Tracer.install`` replaces every public function of the package's modules,
wherever a module holds it by name, with a wrapper that records a span
(name, parent, start, end, operation, attributes).  ``cli`` imports
``analyze``, ``run_simulation``, ``empirical_report`` and
``validation_report`` by name, so the wrappers go into each importing
module's namespace, not only the defining one.  Calls between private
helpers of one module are not spanned.  Spans stay in memory until
``write`` saves them.
"""

import functools
import importlib
import inspect
import json
import math
import statistics
import time

import checks

PACKAGE = "admac"
LAYERS = ("cli", "config", "markov", "metrics", "chain", "simulator")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _coupling(tracer, fn, args, kwargs, sol):
    a = _bound(fn, args, kwargs)
    return {"key": [a["n_k"], a["w0"], a["m"], a["window_rule"]],
            "iterations": sol.iterations}


def _fixed_point(tracer, fn, args, kwargs, sol):
    return {"iterations": sol.iterations}


def _build_chain(tracer, fn, args, kwargs, built):
    return {"states": built.n_states, "matrix_mb": _nbytes(built.matrix) / 1e6}


def _nbytes(matrix):
    """Bytes held by a dense array or by the arrays of a sparse matrix."""
    if hasattr(matrix, "nbytes"):
        return matrix.nbytes
    return sum(getattr(matrix, part).nbytes
               for part in ("data", "indices", "indptr") if hasattr(matrix, part))


def _stationary(tracer, fn, args, kwargs, vec):
    a = _bound(fn, args, kwargs)
    method = a["method"]
    if method == "auto":
        limit = getattr(inspect.getmodule(fn), "DENSE_LIMIT", math.inf)
        method = "direct" if a["chain"].n_states <= limit else "power"
    return {"power": method == "power"}


def _validation(tracer, fn, args, kwargs, rows):
    return {"points": len(rows)}


def _simulation(tracer, fn, args, kwargs, stats):
    a = _bound(fn, args, kwargs)
    params, timings = a["params"], a["timings"]
    try:
        checks.check_slot_conservation(
            stats, timings.n_frame_slots,
            math.ceil(timings.t_col / params.slot_time), f"seed {a['seed']}")
    except checks.CheckFailed as exc:
        tracer.violations.append(str(exc))
    return {"events": sum(stats.successes) + sum(stats.collisions),
            "slots": sum(stats.sector_cbap_slots) * stats.num_bi,
            "delays": sum(len(d) for d in stats.delays)}


OBSERVERS = {
    "markov.solve_idle_slot_coupling": _coupling,
    "markov.solve_fixed_point": _fixed_point,
    "chain.build_chain": _build_chain,
    "chain.stationary_distribution": _stationary,
    "chain.validation_report": _validation,
    "simulator.run_simulation": _simulation,
}


class Tracer:
    """Span recorder for one process; install, run, uninstall, read."""

    def __init__(self):
        self.spans = []          # [name, parent index, start, end, op, attrs]
        self.violations = []     # failed slot-conservation checks
        self.op = None           # key of the operation being sent
        self._stack = []
        self._undo = []

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if value.__module__ != f"{PACKAGE}.{home}" or home not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(home, value)
                self._undo.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def _wrap(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(self, fn, args, kwargs, result)
            return result

        return traced

    def write(self, path):
        """Save every span as one JSON object per line."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end, op, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "parent": parent, "start": start - origin,
                    "end": end - origin, "op": op, "attrs": attrs}) + "\n")


def _attrs(spans, name):
    """Attributes of the spans named ``name`` whose call returned."""
    return [s[5] for s in spans if s[0] == name and s[5] is not None]


def _attr_sum(spans, name, attr):
    return sum(a[attr] for a in _attrs(spans, name))


def _duration_ms(spans, name):
    return 1e3 * sum(s[3] - s[2] for s in spans if s[0] == name)


def layer_metrics(spans, first):
    """Per-layer metrics of the spans ``spans``, which start at index ``first``.

    A span's self time is its duration less its children's.  A layer's self
    time sums the self time of its spans; ``metrics.analyze_self_ms`` counts
    the metrics spans at or under ``analyze`` with no other layer between.
    """
    self_s = [s[3] - s[2] for s in spans]
    in_analyze = [False] * len(spans)
    for i, (name, parent, *_rest) in enumerate(spans):
        local = parent - first
        if local >= 0:
            self_s[local] -= spans[i][3] - spans[i][2]
        layer = name.partition(".")[0]
        in_analyze[i] = name == "metrics.analyze" or (
            local >= 0 and in_analyze[local] and layer == "metrics")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    analyze_self = 0.0
    for i, span in enumerate(spans):
        layer_self[span[0].partition(".")[0]] += self_s[i]
        if in_analyze[i]:
            analyze_self += self_s[i]

    keys = [tuple(a["key"])
            for a in _attrs(spans, "markov.solve_idle_slot_coupling")]
    builds = _attrs(spans, "chain.build_chain")
    run_ms = _duration_ms(spans, "simulator.run_simulation")
    events = _attr_sum(spans, "simulator.run_simulation", "events")
    slots = _attr_sum(spans, "simulator.run_simulation", "slots")
    return {
        "cli.self_ms": 1e3 * layer_self["cli"],
        "config.self_ms": 1e3 * layer_self["config"],
        "markov.coupling_calls": len(keys),
        "markov.coupling_distinct": len(set(keys)),
        "markov.coupling_ms": _duration_ms(
            spans, "markov.solve_idle_slot_coupling"),
        "markov.coupling_iterations": _attr_sum(
            spans, "markov.solve_idle_slot_coupling", "iterations"),
        "markov.fixed_point_calls": sum(
            s[0] == "markov.solve_fixed_point" for s in spans),
        "markov.fixed_point_ms": _duration_ms(spans, "markov.solve_fixed_point"),
        "metrics.analyze_calls": sum(s[0] == "metrics.analyze" for s in spans),
        "metrics.analyze_self_ms": 1e3 * analyze_self,
        "chain.points": _attr_sum(spans, "chain.validation_report", "points"),
        "chain.states": sum(b["states"] for b in builds),
        "chain.build_ms": _duration_ms(spans, "chain.build_chain"),
        "chain.solve_ms": _duration_ms(spans, "chain.stationary_distribution"),
        "chain.dense_mb": max((b["matrix_mb"] for b in builds), default=0.0),
        "chain.power_points": _attr_sum(
            spans, "chain.stationary_distribution", "power"),
        "simulator.runs": sum(
            s[0] == "simulator.run_simulation" for s in spans),
        "simulator.events": events,
        "simulator.run_ms": run_ms,
        "simulator.us_per_event": 1e3 * run_ms / events if events else 0.0,
        "simulator.slots_per_s": 1e3 * slots / run_ms if run_ms else 0.0,
        "simulator.delays_held": _attr_sum(
            spans, "simulator.run_simulation", "delays"),
        "simulator.report_ms": _duration_ms(spans, "simulator.empirical_report"),
    }


UNITS = {
    "cli.self_ms": "ms",
    "config.self_ms": "ms",
    "markov.coupling_calls": "count",
    "markov.coupling_distinct": "count",
    "markov.coupling_ms": "ms",
    "markov.coupling_iterations": "count",
    "markov.fixed_point_calls": "count",
    "markov.fixed_point_ms": "ms",
    "metrics.analyze_calls": "count",
    "metrics.analyze_self_ms": "ms",
    "chain.points": "count",
    "chain.states": "count",
    "chain.build_ms": "ms",
    "chain.solve_ms": "ms",
    "chain.dense_mb": "MB",
    "chain.power_points": "count",
    "simulator.runs": "count",
    "simulator.events": "count",
    "simulator.run_ms": "ms",
    "simulator.us_per_event": "us",
    "simulator.slots_per_s": "slots/s",
    "simulator.delays_held": "count",
    "simulator.report_ms": "ms",
}


def median_metrics(per_round):
    """Median of each metric over traced rounds; counts repeat exactly."""
    medians = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        exact = all(isinstance(v, int) for v in values)
        medians[name] = (statistics.median_low if exact
                         else statistics.median)(values)
    return medians
