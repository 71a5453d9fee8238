"""Workload point sets, seeded inputs, checked runs and result digests.

A *point* is one (SPEC95 profile, machine) timing run. The benchmark
generates every input itself with :func:`repro.workloads.generator.
generate_tasks`, drives the public entry points (``SVCSystem`` /
``ARBSystem`` + ``TimingSimulator.run``, ``run_litmus``) and checks each
output against the sequential oracle or the litmus catalog. Nothing here
touches the simulator's own code paths beyond those calls.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence

from repro.arb.system import ARBSystem
from repro.common.config import ARBConfig, SVCConfig
from repro.harness.experiments import PAPER_TABLE2, PAPER_TABLE3
from repro.litmus.runner import run_litmus
from repro.litmus.shapes import LITMUS_SHAPES, compile_shape
from repro.oracle.sequential import SequentialOracle
from repro.svc.designs import DESIGNS, design_config, final_design
from repro.svc.system import SVCSystem
from repro.timing.simulator import TimingSimulator
from repro.workloads.generator import generate_tasks
from repro.workloads.spec95 import BENCHMARKS, SPEC95_PROFILES

#: Workload scale: 0.2 x the profiles' 1500 tasks. Smaller scales are
#: startup-skewed (per-point construction dominates); larger ones make a
#: pass too long to repeat inside one run.
DEFAULT_SCALE = 0.2

#: The profiles the svc-tiers workload runs: the three the repository's
#: design ablation uses (high sharing, high misprediction, big working set).
TIER_PROFILES = ("compress", "gcc", "mgrid")

#: The accuracy metrics :func:`fidelity_metrics` returns.
FIDELITY_METRICS = ("table2_miss_err", "table3_bus_err", "svc_vs_arb3c_ipc", "svc_wins_at_3c")

#: Units of one litmus pass: every catalog shape on every design tier.
LITMUS_UNITS = len(LITMUS_SHAPES) * len(DESIGNS)

#: Machines whose results feed the accuracy metrics (Tables 2 and 3 and
#: the fig19/fig20 3-cycle crossover).
FIDELITY_MACHINES = ("svc_4x8k", "svc_4x16k", "arb_32k_1c", "arb_32k_3c", "arb_64k_3c")


@dataclass(frozen=True)
class Point:
    """One (profile, machine) timing run."""

    profile: str
    machine: str
    kind: str
    config: object

    @property
    def id(self) -> str:
        return f"{self.profile}/{self.machine}"

    def build(self, telemetry=None):
        machine = SVCSystem if self.kind == "svc" else ARBSystem
        return machine(self.config, telemetry=telemetry)


def paper_figs_points(profiles: Sequence[str] = BENCHMARKS) -> List[Point]:
    """fig19 + fig20: SVC FINAL 4x8K/4x16K at 1-cycle hit and ARB
    32K/64K at 1-4 cycle hits, on every profile (70 points)."""
    points = []
    for profile in profiles:
        for svc, kb, arb in (
            (SVCConfig.paper_32kb(), 32, ARBConfig.paper_32kb),
            (SVCConfig.paper_64kb(), 64, ARBConfig.paper_64kb),
        ):
            per_cache = kb // 4
            points.append(
                Point(profile, f"svc_4x{per_cache}k", "svc", final_design(svc))
            )
            for hit in (1, 2, 3, 4):
                points.append(
                    Point(profile, f"arb_{kb}k_{hit}c", "arb", arb(hit_cycles=hit))
                )
    return points


def svc_tiers_points(profiles: Sequence[str] = TIER_PROFILES) -> List[Point]:
    """The six SVC design tiers at 4x8K on ``profiles`` (18 points)."""
    return [
        Point(profile, f"svc_{tier}_32k", "svc",
              design_config(tier, SVCConfig.paper_32kb()))
        for profile in profiles
        for tier in DESIGNS
    ]


def fidelity_points(profiles: Sequence[str] = BENCHMARKS) -> List[Point]:
    """The paper-figs points the accuracy metrics read."""
    return [p for p in paper_figs_points(profiles) if p.machine in FIDELITY_MACHINES]


@dataclass
class Inputs:
    """Seeded task lists plus the reference each run is checked against."""

    tasks: Dict[str, list]
    images: Dict[str, Dict[int, int]] = field(default_factory=dict)
    instructions: Dict[str, int] = field(default_factory=dict)


def generate_inputs(
    profiles: Sequence[str],
    seed: int,
    scale: float = DEFAULT_SCALE,
    generate: Callable = generate_tasks,
) -> Dict[str, list]:
    """Every profile's task list, with the profile's ``seed`` replaced by
    ``seed`` (the generator mixes in the profile name, so profiles stay
    distinct)."""
    return {
        name: generate(replace(SPEC95_PROFILES[name].scaled(scale), seed=seed))
        for name in profiles
    }


def with_references(tasks: Dict[str, list]) -> Inputs:
    """Attach the sequential oracle's final image and the instruction count."""
    inputs = Inputs(tasks=tasks)
    for name, program in tasks.items():
        inputs.images[name] = SequentialOracle().run(program).memory_image
        inputs.instructions[name] = sum(len(task.ops) for task in program)
    return inputs


def compile_litmus() -> Dict[str, tuple]:
    """Litmus set-up: lower every catalog shape to task programs."""
    return {name: compile_shape(shape) for name, shape in LITMUS_SHAPES.items()}


def setup_inputs(workload: str, seed: int, scale: float, generate: Callable = generate_tasks):
    """The whole set-up step of ``workload`` (what ``setup_s`` times)."""
    if workload == "litmus":
        return compile_litmus()
    profiles = BENCHMARKS if workload == "paper-figs" else TIER_PROFILES
    return generate_inputs(profiles, seed, scale, generate)


def workload_plan(workload: str) -> List[Point]:
    """The points one pass of a timing workload runs, in order."""
    return paper_figs_points() if workload == "paper-figs" else svc_tiers_points()


@dataclass
class PointResult:
    """One point's host seconds, report and correctness problems."""

    point: Point
    seconds: float
    report: object = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report is not None and not self.problems


def check_point(report, image, inputs: Inputs, profile: str) -> List[str]:
    """The correctness gate: final memory equals the sequential oracle's,
    and every instruction of the program committed."""
    problems = []
    if image != inputs.images[profile]:
        problems.append("final memory image differs from the sequential oracle")
    if report.committed_instructions != inputs.instructions[profile]:
        problems.append(
            f"committed {report.committed_instructions} instructions, "
            f"program has {inputs.instructions[profile]}"
        )
    return problems


def run_point(point: Point, inputs: Inputs, tracer=None) -> PointResult:
    """Build the machine and run the point; the clock covers construction
    and the timing run, not the check. A raise counts as a failure."""
    tasks = inputs.tasks[point.profile]
    try:
        start = time.perf_counter()
        if tracer is None:
            system = point.build()
            report = TimingSimulator(system, tasks).run()
        else:
            system = tracer.construct(point)
            report = tracer.run(TimingSimulator(system, tasks))
        seconds = time.perf_counter() - start
    except Exception:  # a failing point is counted, and the pass goes on
        traceback.print_exc(file=sys.stderr)
        return PointResult(point, 0.0, problems=["raised"])
    result = PointResult(point, seconds, report)
    result.problems = check_point(report, system.memory.image(), inputs, point.profile)
    for problem in result.problems:
        print(f"FAILED {point.id}: {problem}", file=sys.stderr)
    return result


def run_points(points: Sequence[Point], inputs: Inputs, tracer=None) -> List[PointResult]:
    """One closed-loop pass: each point starts when the previous ends."""
    results = []
    for point in points:
        if tracer is not None:
            with tracer.point(point.id):
                results.append(run_point(point, inputs, tracer))
        else:
            results.append(run_point(point, inputs))
    return results


def point_record(result: PointResult) -> list:
    report = result.report
    if report is None:
        return [result.point.id, None]
    return [
        result.point.id,
        report.cycles,
        report.committed_instructions,
        report.executed_memory_ops,
        sorted(report.memory_stats.items()),
    ]


def digest(records: Sequence[list]) -> str:
    """sha256 over simulated results, in run order."""
    payload = json.dumps(list(records), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def results_digest(results: Sequence[PointResult]) -> str:
    """Digest of a pass: each point's cycles, instructions, executed
    memory ops and sorted memory stats."""
    return digest([point_record(r) for r in results])


@dataclass
class LitmusPass:
    """One run of the whole litmus corpus."""

    seconds: float
    checks: list
    units: int
    failed: int

    @property
    def nodes(self) -> int:
        return sum(c.nodes for c in self.checks)

    @property
    def digest(self) -> str:
        """Digest of each unit's observed valuations and node counts."""
        return digest([
            [c.shape, c.tier, [list(map(list, v)) for v in c.observed], c.nodes, c.schedules]
            for c in self.checks
        ])


def run_litmus_pass() -> LitmusPass:
    """The full corpus, 8 shapes x 6 tiers, serially. A unit fails when
    it reports a problem or its exploration was truncated."""
    try:
        start = time.perf_counter()
        report = run_litmus(workers=1)
        seconds = time.perf_counter() - start
    except Exception:  # the whole corpus counts as failed
        traceback.print_exc(file=sys.stderr)
        return LitmusPass(0.0, [], LITMUS_UNITS, LITMUS_UNITS)
    failed = 0
    for check in report.checks:
        if check.problems or check.truncated:
            failed += 1
            print(f"FAILED litmus {check.shape}/{check.tier}: "
                  f"{check.problems or 'truncated'}", file=sys.stderr)
    return LitmusPass(seconds, report.checks, len(report.checks), failed)


def fidelity_metrics(results: Sequence[PointResult]) -> Dict[str, float]:
    """Accuracy against the paper's Tables 2 and 3 and the fig19/fig20
    3-cycle crossover (the repository's only reference values)."""
    by_id = {r.point.id: r.report for r in results if r.report is not None}

    def rel(measured: float, paper: float) -> float:
        return abs(measured - paper) / paper

    miss, bus, wins, ratios = [], [], 0, []
    for name in BENCHMARKS:
        svc8, svc16 = by_id[f"{name}/svc_4x8k"], by_id[f"{name}/svc_4x16k"]
        miss.append(rel(svc8.miss_ratio(), PAPER_TABLE2[name]["svc_4x8k"]))
        miss.append(rel(by_id[f"{name}/arb_32k_1c"].miss_ratio(),
                        PAPER_TABLE2[name]["arb_32k"]))
        bus.append(rel(svc8.bus_utilization(), PAPER_TABLE3[name]["svc_4x8k"]))
        bus.append(rel(svc16.bus_utilization(), PAPER_TABLE3[name]["svc_4x16k"]))
        for svc, arb in ((svc8, "arb_32k_3c"), (svc16, "arb_64k_3c")):
            arb_ipc = by_id[f"{name}/{arb}"].ipc
            wins += svc.ipc >= arb_ipc
            ratios.append(svc.ipc / arb_ipc)
    return {
        "table2_miss_err": sum(miss) / len(miss),
        "table3_bus_err": sum(bus) / len(bus),
        "svc_wins_at_3c": wins,
        "svc_vs_arb3c_ipc": sum(ratios) / len(ratios),
    }


def committed_instructions(results: Sequence[PointResult]) -> int:
    return sum(r.report.committed_instructions for r in results if r.report is not None)


def timed_passes(run_pass: Callable[[], object], seconds: float) -> list:
    """Repeat ``run_pass`` while another pass of the mean length still
    fits in ``seconds``; always at least one pass."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes
