"""The traced run: spans and call counters recorded from outside the program.

Wrappers are installed per instance (on a system, on ``system.bus``) or
for the duration of one pass (``check_shape``, ``build_system``,
``load_tasks``), and only by the benchmark. Point-level work gets a span
(name, start, end, parent, point id); high-frequency calls (loads,
stores, commits, bus reservations, litmus system builds) are aggregated
per point as a count plus summed time, so the overhead stays bounded.
Everything stays in memory until the run writes :meth:`Tracer.to_dict` out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: The memory-system entry points the timing simulator and the litmus
#: executor call; a layer's call time is the time inside the outermost
#: of these (a violation squash runs inside a store).
SYSTEM_METHODS = ("load", "store", "begin_task", "commit_head", "squash_from_rank", "drain")


class Tracer:
    """In-memory span and call-aggregate store for one traced pass."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.spans: List[dict] = []
        #: point id -> name -> [count, summed seconds]
        self.calls: Dict[Optional[str], Dict[str, list]] = {}
        self._open: List[int] = []
        self._point: Optional[str] = None
        self._depth = 0
        #: Stats of every system the pass built, by kind ("svc"/"arb").
        self.stats: Dict[str, Dict[str, int]] = {"svc": {}, "arb": {}}
        self._systems: List[tuple] = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, point: Optional[str] = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "point": point if point is not None else self._point,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        outer_point = self._point
        self._point = record["point"]
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()
            self._point = outer_point

    def point(self, point_id: str):
        return self.span("point", point_id)

    def span_seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    # -- aggregated calls ----------------------------------------------

    def _add(self, name: str, seconds: float) -> None:
        per_point = self.calls.setdefault(self._point, {})
        entry = per_point.get(name)
        if entry is None:
            per_point[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def wrap(self, obj, method: str, name: str, layer: str) -> None:
        """Replace ``obj.method`` on the instance with a counting wrapper.
        Time of the outermost wrapped call is also summed as
        ``<layer>.outer``, so nested calls are not counted twice."""
        inner = getattr(obj, method)
        tracer = self
        outer_name = f"{layer}.outer"

        def wrapper(*args, **kwargs):
            outer = tracer._depth == 0
            tracer._depth += 1
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._depth -= 1
                tracer._add(name, elapsed)
                if outer:
                    tracer._add(outer_name, elapsed)

        setattr(obj, method, wrapper)

    def call_totals(self) -> Dict[str, list]:
        totals: Dict[str, list] = {}
        for per_point in self.calls.values():
            for name, (count, seconds) in per_point.items():
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += count
                entry[1] += seconds
        return totals

    # -- instrumented systems ------------------------------------------

    def instrument(self, system, kind: str):
        """Wrap a freshly built system's entry points and its bus."""
        for method in SYSTEM_METHODS:
            self.wrap(system, method, f"{kind}.{method}", kind)
        bus = getattr(system, "bus", None)
        if bus is not None:
            self.wrap(bus, "reserve", "bus.reserve", "bus")
        self._systems.append((kind, system))
        return system

    def construct(self, point):
        """Build ``point``'s machine, timed as ``<kind>.construct``."""
        start = time.perf_counter()
        system = point.build()
        self._add(f"{point.kind}.construct", time.perf_counter() - start)
        return self.instrument(system, point.kind)

    def run(self, simulator):
        with self.span("timing.run"):
            return simulator.run()

    def fold_stats(self) -> None:
        """Add the stats of every instrumented system into :attr:`stats`
        and drop the references (litmus builds thousands of systems)."""
        for kind, system in self._systems:
            totals = self.stats[kind]
            for key, value in system.stats.snapshot().items():
                totals[key] = totals.get(key, 0) + value
        self._systems.clear()

    @contextmanager
    def patched(self, module, attr: str, name: str, layer: str):
        """Count and time ``module.attr`` for the duration of the block."""
        original = getattr(module, attr)
        self.wrap(module, attr, name, layer)
        try:
            yield
        finally:
            setattr(module, attr, original)

    @contextmanager
    def litmus_hooks(self):
        """Per-unit ``check_shape`` spans and instrumented litmus systems."""
        from repro.litmus import runner
        from repro.modelcheck import explorer

        check_shape = runner.check_shape
        build_system = explorer.build_system
        tracer = self

        def traced_check(shape, tier, *args, **kwargs):
            with tracer.span("modelcheck.check_shape", f"{shape.name}/{tier}"):
                return check_shape(shape, tier, *args, **kwargs)

        def traced_build(case):
            start = time.perf_counter()
            system = build_system(case)
            tracer._add("svc.construct", time.perf_counter() - start)
            if len(tracer._systems) > 64:
                tracer.fold_stats()
            return tracer.instrument(system, "arb" if case.design == "arb" else "svc")

        runner.check_shape = traced_check
        explorer.build_system = traced_build
        try:
            yield
        finally:
            runner.check_shape = check_shape
            explorer.build_system = build_system

    def to_dict(self) -> dict:
        """The spans and per-point call aggregates, JSON-ready."""
        return {
            "spans": self.spans,
            "calls": {str(k): v for k, v in self.calls.items()},
        }


#: Every per-layer metric, in print order, with its unit. Metrics of a
#: layer a workload does not reach read 0.
PER_LAYER = {
    "workloads.generate_s": "s",
    "workloads.ops_generated": "count",
    "workloads.trace_load_s": "s",
    "timing.run_s": "s",
    "timing.self_s": "s",
    "timing.executed_mem_ops": "count",
    "timing.useful_mem_op_ratio": "ratio",
    "timing.stall_retries": "count",
    "timing.sim_cycles": "cycles",
    "svc.construct_s": "s",
    "svc.call_s": "s",
    "svc.accesses": "count",
    "svc.us_per_access": "us",
    "svc.commits": "count",
    "svc.squashes": "count",
    "svc.load_misses": "count",
    "svc.store_misses": "count",
    "svc.snarfs": "count",
    "svc.writebacks": "count",
    "svc.replacements": "count",
    "arb.call_s": "s",
    "arb.accesses": "count",
    "arb.us_per_access": "us",
    "arb.dcache_misses": "count",
    "arb.full_stalls": "count",
    "bus.reserve_s": "s",
    "bus.transactions": "count",
    "bus.busy_cycles": "cycles",
    "bus.wait_cycles": "cycles",
    "bus.cache_to_cache": "count",
    "mem.memory_supplies": "count",
    "mem.miss_ratio": "ratio",
    "modelcheck.explore_s": "s",
    "modelcheck.nodes": "count",
    "modelcheck.schedules": "count",
    "modelcheck.us_per_node": "us",
    "modelcheck.truncated_units": "count",
    "litmus.units": "count",
    "litmus.conformant_ratio": "ratio",
    "harness.campaign_overhead_ratio": "ratio",
    "harness.litmus_dispatch_s": "s",
    "telemetry.enabled_overhead_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, timing_reports: list, litmus_checks: list) -> Dict[str, float]:
    """The per-layer metrics one traced pass determines; the workload,
    harness, telemetry and trace rows are measured by the caller."""
    tracer.fold_stats()
    calls = tracer.call_totals()

    def seconds(name: str) -> float:
        return calls.get(name, [0, 0.0])[1]

    def count(name: str) -> int:
        return calls.get(name, [0, 0.0])[0]

    svc, arb = tracer.stats["svc"], tracer.stats["arb"]
    svc_accesses = count("svc.load") + count("svc.store")
    arb_accesses = count("arb.load") + count("arb.store")
    run_s = tracer.span_seconds("timing.run")
    executed = sum(r.executed_memory_ops for r in timing_reports)
    committed = sum(r.committed_memory_ops for r in timing_reports)
    supplies = svc.get("memory_supplies", 0) + arb.get("memory_supplies", 0)
    accesses = sum(s.get("loads", 0) + s.get("stores", 0) for s in (svc, arb))
    explore_s = tracer.span_seconds("modelcheck.check_shape")
    nodes = sum(c.nodes for c in litmus_checks)
    conformant = sum(1 for c in litmus_checks if not c.problems and not c.truncated)
    return {
        "timing.run_s": run_s,
        # Time in the event loop itself: the run minus the memory-system
        # calls it makes (construction happens before the run).
        "timing.self_s": max(0.0, run_s - seconds("svc.outer") - seconds("arb.outer"))
        if run_s else 0.0,
        "timing.executed_mem_ops": executed,
        "timing.useful_mem_op_ratio": _ratio(committed, executed),
        "timing.stall_retries": sum(r.replacement_stall_retries for r in timing_reports),
        "timing.sim_cycles": sum(r.cycles for r in timing_reports),
        "svc.construct_s": seconds("svc.construct"),
        "svc.call_s": seconds("svc.outer"),
        "svc.accesses": svc_accesses,
        "svc.us_per_access": 1e6 * _ratio(
            seconds("svc.load") + seconds("svc.store"), svc_accesses),
        "svc.commits": svc.get("commits", 0),
        "svc.squashes": sum(v for k, v in svc.items() if k.startswith("squashes_")),
        "svc.load_misses": svc.get("load_misses", 0),
        "svc.store_misses": svc.get("store_misses", 0),
        "svc.snarfs": svc.get("snarfs", 0),
        "svc.writebacks": svc.get("writebacks", 0) + svc.get("commit_writebacks", 0),
        "svc.replacements": svc.get("replacements", 0),
        "arb.call_s": seconds("arb.outer"),
        "arb.accesses": arb_accesses,
        "arb.us_per_access": 1e6 * _ratio(
            seconds("arb.load") + seconds("arb.store"), arb_accesses),
        "arb.dcache_misses": arb.get("dcache_misses", 0),
        "arb.full_stalls": arb.get("arb_full_stalls", 0),
        "bus.reserve_s": seconds("bus.reserve"),
        "bus.transactions": svc.get("bus_transactions", 0),
        "bus.busy_cycles": svc.get("bus_busy_cycles", 0),
        "bus.wait_cycles": svc.get("bus_wait_cycles", 0),
        "bus.cache_to_cache": svc.get("bus_cache_to_cache", 0),
        "mem.memory_supplies": supplies,
        "mem.miss_ratio": _ratio(supplies, accesses),
        "modelcheck.explore_s": explore_s,
        "modelcheck.nodes": nodes,
        "modelcheck.schedules": sum(c.schedules for c in litmus_checks),
        "modelcheck.us_per_node": 1e6 * _ratio(explore_s, nodes),
        "modelcheck.truncated_units": sum(1 for c in litmus_checks if c.truncated),
        "litmus.units": len(litmus_checks),
        "litmus.conformant_ratio": _ratio(conformant, len(litmus_checks)),
    }
