"""Span tracing from outside the package, and the per-layer metrics derived
from the spans.

Public names are wrapped where their callers look them up (``harness``
calls its own ``run_lock`` binding, ``DisturbedObjective`` calls
``disturbance.measure``), so nothing inside ``src/`` changes.  Spans are
kept in memory as (name, start, end, parent, trial) and written out once
the run ends.  A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from polarlock import anneal, cli, config, disturbance, harness, oracle

# (owner, attribute, span name): every place a layer boundary is looked up
SPAN_TARGETS = (
    (config, "load_experiment_config", "config.load"),
    (cli, "load_experiment_config", "config.load"),
    (cli, "run_experiment", "harness.run_experiment"),
    (harness.ResultsTable, "write_csv", "harness.write_csv"),
    (harness.ResultsTable, "write_aggregate_csv", "harness.write_aggregate"),
    (cli, "summarize", "harness.summarize"),
    (anneal, "run_lock", "anneal.run_lock"),
    (harness, "run_lock", "anneal.run_lock"),
    (disturbance, "run_lock", "anneal.run_lock"),
    (anneal, "measure", "device.measure"),
    (disturbance, "measure", "device.measure"),
    (disturbance.DisturbedObjective, "__call__", "disturbance.objective"),
    (disturbance, "relock_experiment", "disturbance.relock"),
    (oracle, "oracle_best", "oracle.oracle_best"),
    (oracle, "port_intensity", "oracle.port_intensity"),
)

# (owner, attribute, counter name): calls counted without a span
COUNT_TARGETS = (
    (disturbance, "rotate_sop", "disturbance.rotate_sop"),
)


class Tracer:
    """Records spans and counts for the calls it wraps."""

    def __init__(self, clock):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._clock = clock

    def install(self, patches) -> None:
        for owner, attr, name in SPAN_TARGETS:
            on_result = self._count_lock if name == "anneal.run_lock" else None
            patches.wrap(owner, attr,
                         lambda fn, name=name, cb=on_result:
                         self._span(name, fn, cb))
        for owner, attr, name in COUNT_TARGETS:
            patches.wrap(owner, attr,
                         lambda fn, name=name: self._count(name, fn))

    def _span(self, name, fn, on_result):
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, clock.current)
            if on_result is not None:
                on_result(out)
            return out
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_lock(self, trace) -> None:
        self.counts["anneal.iters"] += len(trace)
        self.counts["anneal.accepted"] += int(trace.accepted.sum())

    def write_csv(self, path: str) -> None:
        """Spans in start order of recording; times in seconds from the
        first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("id,name,start_s,end_s,parent,trial\n")
            for i, (name, t0, t1, parent, trial) in enumerate(self.spans):
                f.write(f"{i},{name},{t0 - origin:.9f},{t1 - origin:.9f},"
                        f"{parent},{trial}\n")

    def layer_metrics(self, passes: int, rows_bytes: float) -> dict[str, float]:
        """Per-layer metrics over ``passes`` traced passes.

        Counts are per pass, so they repeat exactly at any run length.
        Metrics of a layer the workload never calls are omitted.
        """
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
            calls[name] += 1

        iters = self.counts["anneal.iters"]
        lock_calls = calls["anneal.run_lock"]
        m = {
            "anneal.run_lock_calls": lock_calls / passes,
            "anneal.iters": iters / passes,
            "device.measure_calls": calls["device.measure"] / passes,
            "disturbance.rotate_sop_calls":
                self.counts["disturbance.rotate_sop"] / passes,
            "disturbance.relock_calls": calls["disturbance.relock"] / passes,
            "oracle.port_intensity_calls":
                calls["oracle.port_intensity"] / passes,
            "harness.write_rows_bytes": rows_bytes,
        }
        if calls["config.load"]:
            m["config.load_ms"] = 1e3 * total["config.load"] / calls["config.load"]
        if lock_calls:
            m["anneal.self_us_per_iter"] = 1e6 * own["anneal.run_lock"] / iters
            m["anneal.accept_ratio"] = self.counts["anneal.accepted"] / iters
            m["device.measure_us"] = (1e6 * own["device.measure"]
                                      / calls["device.measure"])
            m["device.measure_share"] = (total["device.measure"]
                                         / total["anneal.run_lock"])
        if calls["harness.run_experiment"]:
            m["harness.lock_s"] = total["harness.run_experiment"] / passes
            m["harness.write_rows_s"] = total["harness.write_csv"] / passes
            m["harness.aggregate_s"] = (total["harness.write_aggregate"]
                                        + total["harness.summarize"]) / passes
        if calls["disturbance.objective"]:
            m["disturbance.advance_us"] = (1e6 * own["disturbance.objective"]
                                           / calls["disturbance.objective"])
        if calls["oracle.oracle_best"]:
            n = calls["oracle.oracle_best"]
            m["oracle.oracle_best_ms"] = 1e3 * total["oracle.oracle_best"] / n
            m["oracle.grid_ms"] = 1e3 * own["oracle.oracle_best"] / n
            m["oracle.refine_share"] = (total["oracle.port_intensity"]
                                        / total["oracle.oracle_best"])
        return m
