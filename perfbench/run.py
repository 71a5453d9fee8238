"""Repository benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the repository root.

Workloads (perfbench/README.md records why each exists):

* ``paper-figs`` - the fig19 + fig20 point set on all seven SPEC95 profiles;
* ``svc-tiers``  - the six SVC design tiers at 4x8K on compress, gcc, mgrid;
* ``litmus``     - the full litmus corpus through ``run_litmus(workers=1)``
  (fixed catalog: the seed is ignored).

Load comes from one client in one process, closed loop: each point starts
when the previous one finishes. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of separately traced passes.
The last line of standard output is one JSON object; the exit code is
nonzero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("paper-figs", "svc-tiers", "litmus")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: Points re-run with production telemetry for the telemetry overhead:
#: one SVC and one ARB machine per profile on paper-figs, FINAL on svc-tiers.
TELEMETRY_MACHINES = ("svc_4x8k", "arb_32k_1c", "svc_final_32k")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (default: points.DEFAULT_SCALE)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.scale is not None and args.scale <= 0:
        parser.error("--scale must be positive")
    return args


class Tally:
    """Attempted and failed checked units of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def points(self, results) -> None:
        self.attempted += len(results)
        self.failed += sum(1 for r in results if not r.ok)

    def litmus(self, lp) -> None:
        self.attempted += lp.units
        self.failed += lp.failed

    def unit(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)


def setup_probe(args) -> int:
    """Child process: time importing the simulator plus building the
    workload's inputs, and print the seconds."""
    start = time.perf_counter()
    import points

    points.setup_inputs(args.workload, args.seed, args.scale or points.DEFAULT_SCALE)
    print(time.perf_counter() - start)
    return 0


def measure_setup(args, points) -> float:
    """Median over fresh processes of import + input generation."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError("set-up probe failed")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accuracy(points, args, tally, results=None):
    """Accuracy metrics. Other workloads than paper-figs run its reference
    points once, untimed, after the measurement."""
    if results is None:
        inputs = points.with_references(
            points.generate_inputs(points.BENCHMARKS, args.seed, args.scale))
        results = points.run_points(points.fidelity_points(), inputs)
        tally.points(results)
    if not all(r.ok for r in results):
        tally.unit(False, "reference points of the accuracy metrics")
        return dict.fromkeys(points.FIDELITY_METRICS, 0.0)
    return points.fidelity_metrics(results)


def end_to_end(args, points, tally):
    """The untraced run: returns (metrics with units, digest, info lines)."""
    setup_s = measure_setup(args, points)
    if args.workload == "litmus":
        passes = points.timed_passes(points.run_litmus_pass, args.seconds)
        for lp in passes:
            tally.litmus(lp)
        digests = {lp.digest for lp in passes}
        wall_s = statistics.median([lp.seconds for lp in passes])
        work = passes[0].nodes
        info = [f"{len(passes)} passes of {points.LITMUS_UNITS} units; throughput "
                f"counts explored model-check nodes ({work} per pass)"]
        rss = peak_rss_mb()
        fidelity = accuracy(points, args, tally)
    else:
        inputs = points.with_references(
            points.setup_inputs(args.workload, args.seed, args.scale))
        plan = points.workload_plan(args.workload)
        passes = points.timed_passes(lambda: points.run_points(plan, inputs), args.seconds)
        for results in passes:
            tally.points(results)
        digests = {points.results_digest(results) for results in passes}
        # Per-point median over passes, summed: one slow pass or point
        # does not move the figure.
        wall_s = sum(statistics.median([results[i].seconds for results in passes])
                     for i in range(len(plan)))
        work = points.committed_instructions(passes[0])
        info = [f"{len(passes)} passes of {len(plan)} points; "
                f"{work} committed instructions per pass"]
        rss = peak_rss_mb()
        fidelity = accuracy(points, args, tally,
                            passes[0] if args.workload == "paper-figs" else None)
    tally.unit(len(digests) == 1, "simulated results differ between passes")
    info.append(f"svc_wins_at_3c {fidelity.pop('svc_wins_at_3c')} count "
                "(fig19/fig20 pairs with SVC 1c IPC >= ARB 3c IPC, of 14; paper: 14)")
    metrics = {
        "wall_s": (wall_s, "s"),
        "sim_instr_per_s": (work / wall_s if wall_s else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / max(1, tally.attempted), "ratio"),
    }
    metrics.update((name, (value, "ratio")) for name, value in fidelity.items())
    return metrics, sorted(digests)[0], info


def telemetry_overhead(points, plan, inputs, tally) -> float:
    """Wall of a subset of points with telemetry recording (production
    ring and sampling) over the same points run without, each pair back
    to back."""
    from repro.telemetry import (PRODUCTION_SAMPLE_INTERVAL,
                                 PRODUCTION_TRACE_CAPACITY, Telemetry)

    on = off = 0.0
    for point in plan:
        if point.machine not in TELEMETRY_MACHINES:
            continue
        plain = points.run_point(point, inputs)
        start = time.perf_counter()
        telemetry = Telemetry(label=point.id, capacity=PRODUCTION_TRACE_CAPACITY,
                              sample_interval=PRODUCTION_SAMPLE_INTERVAL)
        system = point.build(telemetry=telemetry)
        report = points.TimingSimulator(system, inputs.tasks[point.profile]).run()
        telemetry.snapshot()
        on += time.perf_counter() - start
        off += plain.seconds
        tally.unit(plain.ok and points.point_record(points.PointResult(point, 0.0, report))
                   == points.point_record(plain),
                   f"telemetry changed the simulated results of {point.id}")
    return on / off


def campaign_overhead(points, layers, plan, inputs, reference, tally, dump) -> dict:
    """The same points through ``run_campaign(workers=1)`` with inputs
    read back from ``trace:`` files, against the direct calls."""
    from repro.harness.parallel import PointSpec
    from repro.harness.supervisor import SupervisorConfig, run_campaign
    from repro.workloads import traceio, traceprog

    tracer = layers.Tracer()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for name, program in inputs.tasks.items():
            paths[name] = str(work / f"{name}.jsonl")
            traceio.dump_tasks(program, paths[name])
        specs = [PointSpec(f"trace:{paths[p.profile]}", p.machine, p.kind, p.config, 1.0)
                 for p in plan]
        with tracer.patched(traceprog, "load_tasks", "workloads.trace_load", "workloads"):
            start = time.perf_counter()
            outcomes = run_campaign(specs, SupervisorConfig(flight=False),
                                    workers=1, resume=False).outcomes
            wall = time.perf_counter() - start
    finally:
        shutil.rmtree(work)
    for ref, outcome in zip(reference, outcomes):
        got = outcome.result
        tally.unit(got is not None and (got.cycles, got.instructions)
                   == (ref.report.cycles, ref.report.committed_instructions),
                   f"campaign result of {ref.point.id}")
    dump["campaign"] = tracer.to_dict()
    return {
        "workloads.trace_load_s": tracer.call_totals()["workloads.trace_load"][1],
        "harness.campaign_overhead_ratio": wall / sum(r.seconds for r in reference),
    }


def traced(args, points, layers, tally):
    """The traced run: one untraced reference pass, traced passes for the
    time budget, then the harness and telemetry side measurements."""
    dump = {"workload": args.workload, "seed": args.seed}
    extra = {}
    if args.workload == "litmus":
        reference = points.run_litmus_pass()
        tally.litmus(reference)
        ref_digest, ref_wall = reference.digest, reference.seconds

        def traced_pass():
            tracer = layers.Tracer()
            with tracer.litmus_hooks(), tracer.span("litmus.run"):
                lp = points.run_litmus_pass()
            tally.litmus(lp)
            metrics = layers.layer_metrics(tracer, [], lp.checks)
            metrics["harness.litmus_dispatch_s"] = lp.seconds - metrics["modelcheck.explore_s"]
            return tracer, metrics, lp.digest, lp.seconds
    else:
        setup = layers.Tracer()

        def generate(spec):
            with setup.span("workloads.generate", spec.name):
                return points.generate_tasks(spec)

        inputs = points.with_references(
            points.setup_inputs(args.workload, args.seed, args.scale, generate))
        plan = points.workload_plan(args.workload)
        dump["setup"] = setup.to_dict()
        extra["workloads.generate_s"] = setup.span_seconds("workloads.generate")
        extra["workloads.ops_generated"] = sum(
            len(task.ops) for program in inputs.tasks.values() for task in program)
        reference = points.run_points(plan, inputs)
        tally.points(reference)
        ref_digest = points.results_digest(reference)
        ref_wall = sum(r.seconds for r in reference)

        def traced_pass():
            tracer = layers.Tracer()
            with tracer.span("pass"):
                results = points.run_points(plan, inputs, tracer)
            tally.points(results)
            reports = [r.report for r in results if r.report is not None]
            return (tracer, layers.layer_metrics(tracer, reports, []),
                    points.results_digest(results), sum(r.seconds for r in results))

    runs = points.timed_passes(traced_pass, args.seconds)
    for _, _, run_digest, _ in runs:
        tally.unit(run_digest == ref_digest, "traced pass changed the simulated results")
    dump["passes"] = [tracer.to_dict() for tracer, _, _, _ in runs]
    # Every per-layer figure comes from one pass, the median by wall, so
    # the figures stay consistent with each other.
    _, pass_metrics, _, pass_wall = sorted(runs, key=lambda run: run[3])[(len(runs) - 1) // 2]
    metrics = dict.fromkeys(layers.PER_LAYER, 0)
    metrics.update(pass_metrics)
    metrics.update(extra)
    metrics["trace.overhead_ratio"] = pass_wall / ref_wall
    if args.workload != "litmus" and tally.failed == 0:
        metrics.update(campaign_overhead(points, layers, plan, inputs, reference, tally, dump))
        metrics["telemetry.enabled_overhead_ratio"] = telemetry_overhead(
            points, plan, inputs, tally)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as handle:
        json.dump(dump, handle)
    metrics = {name: (metrics[name], unit) for name, unit in layers.PER_LAYER.items()}
    return metrics, ref_digest, [f"{len(runs)} traced passes + 1 untraced reference pass"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    import layers
    import points

    if args.scale is None:
        args.scale = points.DEFAULT_SCALE

    tally = Tally()
    if args.trace:
        metrics, result_digest, info = traced(args, points, layers, tally)
    else:
        metrics, result_digest, info = end_to_end(args, points, tally)
    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"digest {args.workload} {result_digest}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
