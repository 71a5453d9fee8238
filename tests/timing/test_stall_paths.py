"""Timing simulator: structural stall and recovery paths."""

import dataclasses

from conftest import make_svc, small_geometry
from repro.arb.system import ARBSystem
from repro.common.config import ARBConfig, SVCConfig
from repro.hier.task import MemOp, TaskProgram
from repro.svc.designs import design_config, final_design
from repro.svc.system import SVCSystem
from repro.timing.simulator import TimingSimulator


def test_replacement_stalls_retry_and_finish():
    """Tasks whose working set exceeds their set's ways must stall and
    retry (non-head), yet the run completes with correct totals."""
    config = final_design(SVCConfig(
        geometry=small_geometry(size_bytes=64, associativity=2),
        check_invariants=True,
    ))
    system = SVCSystem(config)
    stride = system.geometry.n_sets * system.geometry.line_size
    tasks = []
    for i in range(6):
        ops = [MemOp.store(0x1000 + w * stride, i) for w in range(3)]
        tasks.append(TaskProgram(ops=ops))
    report = TimingSimulator(system, tasks).run()
    assert report.replacement_stall_retries > 0
    assert report.committed_instructions == sum(len(t.ops) for t in tasks)


def _count_probes(system):
    """Wrap the system's load/store entry points with a call counter."""
    calls = {"n": 0}
    real_load, real_store = system.load, system.store

    def counting_load(*args, **kwargs):
        calls["n"] += 1
        return real_load(*args, **kwargs)

    def counting_store(*args, **kwargs):
        calls["n"] += 1
        return real_store(*args, **kwargs)

    system.load = counting_load
    system.store = counting_store
    return calls


def _run_svc_pressure(tier):
    """Per-task working sets larger than one set's ways: non-head tasks
    must stall on replacement until commits free capacity."""
    config = design_config(
        tier,
        SVCConfig(geometry=small_geometry(size_bytes=64, associativity=2)),
    )
    system = SVCSystem(config)
    stride = system.geometry.n_sets * system.geometry.line_size
    tasks = []
    for i in range(6):
        ops = [MemOp.store(0x1000 + w * stride, i) for w in range(3)]
        ops += [MemOp.load(0x1000 + w * stride) for w in range(3)]
        tasks.append(TaskProgram(ops=ops))
    calls = _count_probes(system)
    return TimingSimulator(system, tasks).run(), calls["n"]


def test_svc_stall_retries_across_tiers():
    """Every tier stalls, retries and finishes with each probe (stalled
    or not) counted once as a load or store; reruns are identical."""
    for tier in ("base", "ec", "ecs", "hr", "rl", "final"):
        report, _calls = _run_svc_pressure(tier)
        assert report.replacement_stall_retries > 0, tier
        stats = report.memory_stats
        assert stats["loads"] + stats["stores"] == (
            report.executed_memory_ops + report.replacement_stall_retries
        ), tier
        rerun, _calls = _run_svc_pressure(tier)
        assert dataclasses.asdict(rerun) == dataclasses.asdict(report), tier


def test_stall_retries_reprobe_every_time():
    """Every executed op enters the system once and every replacement
    stall retry re-enters the protocol: no retry is skipped."""
    report, calls = _run_svc_pressure("final")
    assert report.replacement_stall_retries > 0
    assert calls == report.executed_memory_ops + report.replacement_stall_retries


def test_arb_full_buffer_stalls_retry_with_exact_accounting():
    """ARB rows exhausted by speculative tasks: non-head accesses stall,
    retry and finish; every stalled probe counts one full-buffer stall."""
    system = ARBSystem(ARBConfig(n_rows=6))
    tasks = []
    words = 8
    for i in range(6):
        ops = [MemOp.store(0x1000 + (i * words + w) * 64, i) for w in range(words)]
        ops += [MemOp.load(0x1000 + (i * words + w) * 64) for w in range(words)]
        tasks.append(TaskProgram(ops=ops))
    report = TimingSimulator(system, tasks).run()
    assert report.replacement_stall_retries > 0
    assert report.committed_instructions == sum(len(t.ops) for t in tasks)
    stats = report.memory_stats
    assert stats["arb_full_stalls"] == report.replacement_stall_retries
    assert stats["loads"] + stats["stores"] == (
        report.executed_memory_ops + report.replacement_stall_retries
    )


def test_mshr_pressure_defers_but_completes():
    """More outstanding misses than MSHRs: issue must defer, not drop."""
    config = dataclasses.replace(
        final_design(SVCConfig(geometry=small_geometry())),
        n_mshrs=1,
        mshr_combining=1,
    )
    system = SVCSystem(config)
    tasks = []
    for i in range(4):
        # Many distinct-line loads in a row: misses pile onto 1 MSHR.
        ops = [MemOp.load(0x4000 + 16 * (8 * i + j)) for j in range(8)]
        tasks.append(TaskProgram(ops=ops))
    report = TimingSimulator(system, tasks).run()
    assert report.committed_instructions == sum(len(t.ops) for t in tasks)


def test_squash_restart_penalty_extends_cycles():
    fast = [
        TaskProgram(ops=[MemOp.store(0x100, 1)]),
        TaskProgram(ops=[MemOp.load(0x100)]),
    ]
    # The same program where the consumer is forced to run early:
    slow_producer = [
        TaskProgram(ops=[MemOp.compute(latency=8)] * 6 + [MemOp.store(0x100, 1)]),
        TaskProgram(ops=[MemOp.load(0x100)]),
    ]
    clean = TimingSimulator(make_svc("final"), fast).run()
    squashy = TimingSimulator(make_svc("final"), slow_producer).run()
    assert squashy.violation_squashes >= 1
    assert squashy.cycles > clean.cycles


def test_stale_events_from_squashed_attempts_ignored():
    """A squashed attempt's scheduled events must not corrupt the
    restarted attempt (epoch filtering)."""
    tasks = [
        TaskProgram(ops=[MemOp.compute(latency=6)] * 4 + [MemOp.store(0x100, 7)]),
        TaskProgram(ops=[MemOp.load(0x100), MemOp.load(0x100),
                         MemOp.load(0x100)]),
        TaskProgram(ops=[MemOp.load(0x100)]),
    ]
    report = TimingSimulator(make_svc("final"), tasks).run()
    assert report.committed_instructions == sum(len(t.ops) for t in tasks)
    assert report.violation_squashes >= 1
