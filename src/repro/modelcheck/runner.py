"""Fan-out, aggregation and the ``python -m repro modelcheck`` CLI.

One *unit* of work is (design, program): an exhaustive exploration of
every schedule of that program on that design. Units are independent —
each builds fresh systems — so they fan out over
:func:`repro.harness.parallel.parallel_map` exactly like experiment
points, serialized as plain dicts so fork and spawn contexts both work.

Beyond the per-schedule oracle check inside the explorer, the runner
cross-checks *between* targets: every design and the ARB baseline must
produce the same set of terminal outcomes for the same program (a
singleton set when everything is healthy, since each outcome already
matched the sequential oracle). Counterexamples are written as
:class:`repro.replay.FailureCapture` JSON files, immediately consumable
by ``python -m repro replay <file> --shrink``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.harness.parallel import parallel_map, resolve_workers
from repro.modelcheck.explorer import explore_case
from repro.modelcheck.mutations import MUTATIONS
from repro.modelcheck.programs import Bounds, bound_geometry, enumerate_programs
from repro.replay import Case, FailureCapture, task_from_dict, task_to_dict
from repro.svc.designs import DESIGNS

#: Default exploration targets: all six SVC tiers plus the ARB baseline.
ALL_TARGETS = tuple(DESIGNS) + ("arb",)

DEFAULT_CAPTURES_DIR = os.path.join("failures", "modelcheck")


@dataclass
class DesignStats:
    """Aggregated exploration statistics for one design."""

    design: str
    programs: int = 0
    nodes: int = 0
    schedules: int = 0
    sleep_pruned: int = 0
    fp_pruned: int = 0
    truncated_programs: int = 0
    counterexamples: int = 0

    def describe(self) -> str:
        line = (
            f"{self.design:>6}: {self.programs} programs, "
            f"{self.schedules} schedules explored, "
            f"{self.sleep_pruned + self.fp_pruned} pruned "
            f"({self.sleep_pruned} sleep, {self.fp_pruned} fingerprint), "
            f"{self.nodes} nodes, {self.counterexamples} counterexamples"
        )
        if self.truncated_programs:
            line += f" [{self.truncated_programs} programs truncated]"
        return line


@dataclass
class ModelCheckReport:
    """Everything one model-check run established."""

    bounds: Bounds
    designs: Tuple[str, ...]
    programs: int
    per_design: Dict[str, DesignStats] = field(default_factory=dict)
    #: Cross-target outcome divergences (design disagreement messages).
    mismatches: List[str] = field(default_factory=list)
    #: Paths of saved counterexample captures.
    captures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.mismatches
            and all(s.counterexamples == 0 for s in self.per_design.values())
            and all(s.truncated_programs == 0 for s in self.per_design.values())
        )

    def describe(self) -> str:
        lines = [
            f"modelcheck: {self.bounds.describe()}, "
            f"{self.programs} canonical programs x {len(self.designs)} targets"
        ]
        for design in self.designs:
            lines.append(self.per_design[design].describe())
        for message in self.mismatches:
            lines.append(f"MISMATCH: {message}")
        for path in self.captures:
            lines.append(f"counterexample capture: {path}")
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _check_unit(payload: Dict) -> Dict:
    """Explore one (design, program) unit. Top-level so it pickles."""
    case = Case(
        design=payload["design"],
        tasks=tuple(task_from_dict(t) for t in payload["tasks"]),
        geometry=CacheGeometry(**payload["geometry"]),
        schedule="script",
        checker=True,
        check_invariants=True,
        n_caches=payload["n_caches"],
        mutation=payload["mutation"],
    )
    result = explore_case(
        case,
        max_nodes=payload["max_nodes"],
        max_counterexamples=payload["max_counterexamples"],
    )
    return {
        "design": result.design,
        "program": payload["program"],
        "nodes": result.nodes,
        "schedules": result.schedules,
        "sleep_pruned": result.sleep_pruned,
        "fp_pruned": result.fp_pruned,
        "truncated": result.truncated,
        "outcomes": sorted(result.outcomes),
        "captures": [
            FailureCapture.from_result(failing, failure).to_dict()
            for failing, failure in result.counterexamples
        ],
    }


def run_modelcheck(
    bounds: Bounds,
    designs: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    mutation: Optional[str] = None,
    captures_dir: str = DEFAULT_CAPTURES_DIR,
    max_nodes: int = 250_000,
    max_counterexamples: int = 1,
    max_programs: Optional[int] = None,
    programs: Optional[Sequence[Sequence]] = None,
    log=None,
) -> ModelCheckReport:
    """Exhaustively check every program within ``bounds`` on ``designs``.

    With a ``mutation``, targets default to the tiers the mutation is
    reachable on (and the cross-target comparison is skipped — a mutated
    machine is *supposed* to diverge from the baseline).

    ``programs`` supplies externally built task lists (litmus shapes,
    trace fragments) to check *instead of* the bound's enumeration. They
    are explored exactly as given — no symmetry canonicalization, no
    location renaming — so a hand-built IRIW shape round-trips the
    explorer unchanged; ``bounds`` then only sizes the replacement-free
    geometry (see :func:`repro.modelcheck.programs.bounds_for_programs`).
    """
    if mutation is not None and mutation not in MUTATIONS:
        raise ConfigError(
            f"unknown mutation {mutation!r}; choose from {sorted(MUTATIONS)}"
        )
    if designs is None:
        designs = MUTATIONS[mutation].tiers if mutation else ALL_TARGETS
    designs = tuple(designs)
    for design in designs:
        if design not in ALL_TARGETS:
            raise ConfigError(
                f"unknown design {design!r}; choose from {ALL_TARGETS}"
            )

    programs = (
        [tuple(program) for program in programs]
        if programs is not None
        else list(enumerate_programs(bounds))
    )
    if max_programs is not None and len(programs) > max_programs:
        if log is not None:
            log(
                f"note: bound yields {len(programs)} programs, "
                f"checking only the first {max_programs}"
            )
        programs = programs[:max_programs]

    geometry = bound_geometry(bounds)
    geometry_dict = {
        "size_bytes": geometry.size_bytes,
        "associativity": geometry.associativity,
        "line_size": geometry.line_size,
        "versioning_block_size": geometry.versioning_block_size,
    }
    indexed = list(enumerate(programs))
    if mutation is not None:
        # Largest programs first: mutations need a few cooperating ops
        # to manifest, and the enumeration emits small programs first.
        indexed.reverse()
    payloads = [
        {
            "design": design,
            "program": index,
            "tasks": [task_to_dict(t) for t in program],
            "geometry": geometry_dict,
            "n_caches": bounds.pus,
            "mutation": mutation,
            "max_nodes": max_nodes,
            "max_counterexamples": max_counterexamples,
        }
        for index, program in indexed
        for design in designs
    ]
    if log is not None:
        log(
            f"exploring {len(programs)} programs x {len(designs)} targets "
            f"({len(payloads)} units, {resolve_workers(workers)} workers)"
        )
    if mutation is not None:
        # Kill-switch mode only needs one counterexample, so stop
        # scheduling units once a chunk produced one.
        chunk = max(resolve_workers(workers), 16)
        results = []
        for start in range(0, len(payloads), chunk):
            batch = parallel_map(_check_unit, payloads[start : start + chunk], workers)
            results.extend(batch)
            if any(unit["captures"] for unit in batch):
                break
    else:
        results = parallel_map(_check_unit, payloads, workers)

    report = ModelCheckReport(
        bounds=bounds,
        designs=designs,
        programs=len(programs),
        per_design={design: DesignStats(design=design) for design in designs},
    )
    outcomes_by_program: Dict[int, Dict[str, List]] = {}
    for unit in results:
        stats = report.per_design[unit["design"]]
        stats.programs += 1
        stats.nodes += unit["nodes"]
        stats.schedules += unit["schedules"]
        stats.sleep_pruned += unit["sleep_pruned"]
        stats.fp_pruned += unit["fp_pruned"]
        stats.truncated_programs += 1 if unit["truncated"] else 0
        stats.counterexamples += len(unit["captures"])
        outcomes_by_program.setdefault(unit["program"], {})[unit["design"]] = (
            unit["outcomes"]
        )
        for i, capture_dict in enumerate(unit["captures"]):
            path = os.path.join(
                captures_dir,
                f"modelcheck-{unit['design']}-p{unit['program']:04d}-{i}.json",
            )
            FailureCapture.from_dict(capture_dict).save(path)
            report.captures.append(path)
            if log is not None:
                log(f"counterexample: {path}")

    # Cross-target comparison: identical outcome sets per program. Only
    # meaningful for clean protocols — a mutated run diverges by design.
    if mutation is None:
        for program_index in sorted(outcomes_by_program):
            per_design = outcomes_by_program[program_index]
            reference: Optional[Tuple[str, List]] = None
            for design in designs:
                outcomes = per_design.get(design)
                if outcomes is None or not outcomes:
                    continue  # exploration failed or truncated early
                if reference is None:
                    reference = (design, outcomes)
                elif outcomes != reference[1]:
                    report.mismatches.append(
                        f"program {program_index}: {design} outcomes differ "
                        f"from {reference[0]}"
                    )
    return report


def build_parser():
    """Argument parser for ``python -m repro modelcheck`` (exposed so
    tools/check_docs.py can validate commands quoted in the docs)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro modelcheck",
        description="Bounded exhaustive exploration of every schedule of "
        "every small program, across the design tiers and the ARB, "
        "cross-checked against the sequential oracle.",
    )
    parser.add_argument("--pus", type=int, default=2, help="processing units")
    parser.add_argument(
        "--ops", type=int, default=3, help="total memory-op budget per program"
    )
    parser.add_argument(
        "--lines", type=int, default=2, help="distinct 16-byte lines"
    )
    parser.add_argument(
        "--tasks", type=int, default=None,
        help="tasks per program (default: PUs + 1, exercising PU reuse)",
    )
    parser.add_argument(
        "--designs", default=None,
        help="comma-separated targets (default: all tiers + arb)",
    )
    parser.add_argument(
        "--mutation", default=None, choices=sorted(MUTATIONS),
        help="apply a known-bad protocol mutation (kill-switch mode)",
    )
    parser.add_argument(
        "--workers", default=None,
        help="worker processes (default: REPRO_WORKERS or serial; 0 = all CPUs)",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=250_000,
        help="per-unit node budget before truncation",
    )
    parser.add_argument(
        "--max-programs", type=int, default=None,
        help="check only the first N canonical programs",
    )
    parser.add_argument(
        "--captures-dir", default=DEFAULT_CAPTURES_DIR,
        help="where counterexample captures are written",
    )
    return parser


def modelcheck_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro modelcheck [--pus N] [--ops N] [--lines N] ...``"""
    args = build_parser().parse_args(argv)

    bounds = Bounds(
        pus=args.pus, ops=args.ops, lines=args.lines, tasks=args.tasks
    )
    designs = args.designs.split(",") if args.designs else None
    try:
        report = run_modelcheck(
            bounds,
            designs=designs,
            workers=args.workers,
            mutation=args.mutation,
            captures_dir=args.captures_dir,
            max_nodes=args.max_nodes,
            max_programs=args.max_programs,
            log=print,
        )
    except ConfigError as error:
        print(f"config error: {error}")
        return 2
    print(report.describe())
    if args.mutation is not None:
        found = sum(s.counterexamples for s in report.per_design.values())
        if found:
            print(
                f"kill switch OK: mutation {args.mutation!r} produced "
                f"{found} counterexample(s)"
            )
            return 0
        print(f"kill switch FAILED: mutation {args.mutation!r} went undetected")
        return 1
    return 0 if report.ok else 1
