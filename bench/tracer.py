"""Span recorder for the benchmark's traced runs.

The recorder wraps the package's public entry points by replacing module
and class attributes, so the program under test is not edited.  Each
wrapped call becomes a span (name, start, end, parent, run id); the three
hottest boundaries (the allocation function f, its antiderivative table
F and scipy's Hopcroft-Karp) are kept as a call count plus total time
instead, because one span per call would cost more than the call.

A span's name starts with the layer it belongs to: ``instance``,
``allocation``, ``engine``, ``oracle`` or ``harness``.  A layer's self time
is the time its spans and counted calls cover minus the time covered by
spans and counted calls nested inside them, so the self times of all
layers add up to the outermost span.
"""

from __future__ import annotations

import json
import math
import time

STEP_SPANS = ("engine.primal_dual_step", "engine.greedy_allocation_step")
LAYERS = ("instance", "allocation", "engine", "oracle", "harness")


class Tracer:
    """Records spans and counted calls of one command in memory."""

    def __init__(self):
        # one list per span: [name, start, end, parent index, seconds covered
        # by nested spans and counted calls, counted calls nested inside, index]
        self.spans: list[list] = []
        self.counted: dict[str, list] = {}  # name -> [calls, seconds]
        self.counted_total = 0
        self.saturated = 0
        self.raised = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that each call records one span."""
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1][6] if stack else -1, 0.0, self.counted_total,
                   len(spans)]
            spans.append(rec)
            stack.append(rec)
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                rec[2] = end
                rec[5] = self.counted_total - rec[5]
                stack.pop()
                if stack:
                    stack[-1][4] += end - rec[1]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, name: str, fn):
        """Wrap fn so that each call adds to a call count and a total time."""
        acc = self.counted.setdefault(name, [0, 0.0])
        stack, perf = self._stack, time.perf_counter

        def counted(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - start
                acc[0] += 1
                acc[1] += d
                self.counted_total += 1
                if stack:
                    stack[-1][4] += d

        return counted

    def record_outcome(self, result) -> None:
        """Read saturation and fan-out from a water-filling step's result."""
        outcome = result[1]
        self.saturated += bool(outcome.saturated)
        self.raised += len(outcome.raised)

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path, run_id: int) -> None:
        """Append this command's spans to a JSON-lines file."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _, _, _) in enumerate(self.spans):
                fh.write(json.dumps({"run": run_id, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            for name, (calls, seconds) in sorted(self.counted.items()):
                fh.write(json.dumps({"run": run_id, "name": name, "calls": calls,
                                     "seconds": seconds}) + "\n")

    def layer_figures(self, arrivals: int) -> tuple[dict, dict]:
        """Per-layer metrics and the counts two identical runs must share."""
        spans = self.spans
        dur = [rec[2] - rec[1] for rec in spans]

        def total(name: str) -> float:
            return sum(d for rec, d in zip(spans, dur) if rec[0] == name)

        def self_time(name: str) -> float:
            return sum(d - rec[4] for rec, d in zip(spans, dur) if rec[0] == name)

        def inside(i: int, name: str) -> bool:
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return True
                p = spans[p][3]
            return False

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for rec, d in zip(spans, dur):
            layer_self[rec[0].split(".", 1)[0]] += d - rec[4]
        for name, (_, seconds) in self.counted.items():
            layer_self[name.split(".", 1)[0]] += seconds

        steps = [
            d for rec, d in zip(spans, dur)
            if rec[0] in STEP_SPANS and (rec[3] < 0 or spans[rec[3]][0] not in STEP_SPANS)
        ]
        steps.sort()
        pd_inner = sum(
            d for rec, d in zip(spans, dur)
            if rec[0] == "engine.greedy_allocation_step"
            and rec[3] >= 0 and spans[rec[3]][0] == "engine.primal_dual_step"
        )
        fog = "oracle.fractional_optima_general"
        in_prefix = {
            i for i, rec in enumerate(spans)
            if rec[0] == fog and inside(i, "oracle.prefix_optimal_values")
        }
        f_calls, f_s = self.counted.get("allocation.f", (0, 0.0))
        big_f_calls, big_f_s = self.counted.get("allocation.F", (0, 0.0))
        hk_calls, hk_s = self.counted.get("oracle.hk", (0, 0.0))
        # a from-scratch solve is a Hopcroft-Karp call, or a general-oracle
        # call that made none (its weighted min-cut path)
        solves = hk_calls + sum(1 for rec in spans if rec[0] == fog and rec[5] == 0)
        per_arrival = max(arrivals, 1)

        metrics = {
            "instance.gen_s": total("instance.resolve_generator")
            + total("instance.reduce_ski_rental"),
            "allocation.resolve_s": total("allocation.resolve_allocation"),
            "allocation.beta_s": total("allocation.beta_of"),
            "allocation.f_calls": f_calls,
            "allocation.f_calls_per_arrival": f_calls / per_arrival,
            "allocation.f_s": f_s,
            "allocation.F_calls": big_f_calls,
            "allocation.F_s": big_f_s,
            "engine.step_s": sum(steps),
            "engine.step_p50_us": 1e6 * _rank(steps, 0.50),
            "engine.step_p98_us": 1e6 * _rank(steps, 0.98),
            "engine.waterfill_s": total("engine.greedy_allocation_step"),
            "engine.pd_bookkeeping_s": total("engine.primal_dual_step") - pd_inner,
            "engine.run_self_s": self_time("engine.run_stream"),
            "engine.saturated_ratio": self.saturated / per_arrival,
            "engine.raised_per_arrival": self.raised / per_arrival,
            "oracle.final_s": sum(
                dur[i] for i, rec in enumerate(spans) if rec[0] == fog and i not in in_prefix
            ),
            "oracle.prefix_s": total("oracle.prefix_optimal_values"),
            "oracle.prefix_self_s": self_time("oracle.prefix_optimal_values"),
            "oracle.hk_s": hk_s,
            "oracle.mincut_s": sum(dur[i] for i in in_prefix),
            "oracle.solves": solves,
            "oracle.solves_per_arrival": solves / per_arrival,
            "harness.cli_s": self_time("harness.cli_main"),
            "harness.adversary_step_s": total("harness.EngineAlgorithm.process"),
            "harness.adversary_self_s": self_time("harness.adaptive_adversary_vc"),
        }
        metrics.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})

        counts = {
            "steps": len(steps),
            "saturated": self.saturated,
            "raised": self.raised,
            "solves": solves,
            **{f"calls.{name}": calls for name, (calls, _) in self.counted.items()},
        }
        for rec in spans:
            counts[f"spans.{rec[0]}"] = counts.get(f"spans.{rec[0]}", 0) + 1
        return metrics, counts


def _rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def install(tracer: Tracer, allocation, engine, harness, oracle) -> None:
    """Wrap every traced entry point of the package."""
    span, count, patch = tracer.span, tracer.count, tracer.patch
    patch(harness, "resolve_generator", span("instance.resolve_generator", harness.resolve_generator))
    patch(harness, "reduce_ski_rental", span("instance.reduce_ski_rental", harness.reduce_ski_rental))
    patch(harness, "resolve_allocation",
          span("allocation.resolve_allocation", harness.resolve_allocation))
    beta_of = span("allocation.beta_of", allocation.beta_of)
    patch(allocation, "beta_of", beta_of)
    patch(engine, "beta_of", beta_of)
    patch(engine, "run_stream", span("engine.run_stream", engine.run_stream))
    patch(engine, "greedy_allocation_step",
          span("engine.greedy_allocation_step", engine.greedy_allocation_step, tracer.record_outcome))
    patch(engine, "primal_dual_step", span("engine.primal_dual_step", engine.primal_dual_step))
    patch(oracle, "prefix_optimal_values",
          span("oracle.prefix_optimal_values", oracle.prefix_optimal_values))
    patch(oracle, "fractional_optima_general",
          span("oracle.fractional_optima_general", oracle.fractional_optima_general))
    patch(oracle, "maximum_bipartite_matching",
          count("oracle.hk", oracle.maximum_bipartite_matching))
    patch(allocation.AllocationFunction, "__call__",
          count("allocation.f", allocation.AllocationFunction.__call__))
    patch(allocation.QuadratureTable, "eval", count("allocation.F", allocation.QuadratureTable.eval))
    patch(harness.EngineAlgorithm, "process",
          span("harness.EngineAlgorithm.process", harness.EngineAlgorithm.process))
    patch(harness, "adaptive_adversary_vc",
          span("harness.adaptive_adversary_vc", harness.adaptive_adversary_vc))
