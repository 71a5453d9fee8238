"""The bounded exhaustive DFS over scheduler choices.

One exploration = one (design, program) pair. The tree's nodes are
schedule prefixes; an edge is one enabled action. The live
``(system, executor)`` pair is carried down the DFS: the root builds
one system, and each child applies exactly one action — its incoming
one, with the invariant checker bound — to a state it owns. The last
child a node explores takes the node's own state; each earlier child
restores a :class:`Snapshot` of it, a pickle round trip taken once per
node. A node therefore costs one action plus at most one restore
(about 0.2-0.5 ms for a litmus-sized system) instead of a replay of
its whole prefix. Two prunings keep the tree small:

* **sleep sets** (Godefroid's partial-order reduction): after exploring
  action ``a`` at a node, sibling subtrees need not re-explore ``b`` in
  schedules where only independent actions intervened. Independence here
  is deliberately narrow — two *loads* by different tasks to different
  (effective) cache lines — because stores squash, invalidate and snarf
  across tasks, and commits move the head: all observably order-sensitive.
* **fingerprint pruning**: canonical state hashing
  (:mod:`repro.modelcheck.fingerprint`) cuts converging prefixes. With
  sleep sets in play a state may only be skipped when a previous visit
  explored a *superset* of this visit's actions, i.e. when some recorded
  sleep set is a subset of the current one.

Every terminal schedule's (load values, final memory) outcome is checked
against the sequential oracle; any structured failure or mismatch is
returned as a failing :class:`repro.replay.Case` (with the schedule as
its ``script``) plus its classified result — ready to capture, shrink
and replay.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.common.errors import (
    ConfigError,
    InvariantViolation,
    ProtocolError,
    SimulationError,
)
from repro.hier.task import OpKind
from repro.modelcheck.executor import Action, ScheduleExecutor
from repro.modelcheck.fingerprint import fingerprint
from repro.modelcheck.snapshot import Snapshot
from repro.oracle.sequential import SequentialOracle, verify_run
from repro.replay import Case, CaseResult, build_system, run_case

#: A terminal outcome: per-task load values and the non-zero memory image.
Outcome = Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, int], ...]]


@dataclass
class ExplorationResult:
    """What exploring one (design, program) pair found."""

    design: str
    nodes: int = 0
    schedules: int = 0
    sleep_pruned: int = 0
    fp_pruned: int = 0
    depth_capped: int = 0
    truncated: bool = False
    outcomes: Set[Outcome] = field(default_factory=set)
    #: First schedule observed to reach each outcome — the witness the
    #: litmus layer prints under ``--explain``. Keys are a subset of
    #: ``outcomes``; values are full action scripts.
    witnesses: Dict[Outcome, Tuple[Action, ...]] = field(default_factory=dict)
    #: Failing cases, each paired with its classified result.
    counterexamples: List[Tuple[Case, CaseResult]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.truncated


class _StopExploration(Exception):
    """Private unwind signal: budget exhausted or enough counterexamples."""


class _Explorer:
    def __init__(
        self,
        case: Case,
        max_nodes: int,
        max_depth: int,
        max_counterexamples: int,
    ) -> None:
        self.case = case
        self.max_nodes = max_nodes
        self.max_depth = max_depth
        self.max_counterexamples = max_counterexamples
        self.result = ExplorationResult(design=case.design)
        self.oracle = SequentialOracle().run(list(case.tasks))
        #: fingerprint -> sleep sets it was explored under.
        self.seen: Dict[Tuple, List[FrozenSet[Action]]] = {}

    # -- plumbing -----------------------------------------------------------

    def _record_counterexample(self, script: List[Action]) -> None:
        failing = dataclasses.replace(self.case, script=tuple(script))
        result = run_case(failing)
        if result.ok:
            # The scripted lenient replay (plus oldest-first completion)
            # masked the failure; keep the strict story as a protocol
            # failure so the capture still points at the schedule.
            result = CaseResult(
                ok=False,
                error_kind="protocol",
                error_type="NonReplayable",
                error_message="failure did not survive lenient re-execution",
            )
        self.result.counterexamples.append((failing, result))
        if len(self.result.counterexamples) >= self.max_counterexamples:
            raise _StopExploration()

    def _independent(self, executor, system, a: Action, b: Action) -> bool:
        """True only for two loads by different tasks to different
        effective lines — everything else is order-sensitive."""
        if a[0] != "op" or b[0] != "op" or a[1] == b[1]:
            return False
        op_a = executor.current_op(a[1])
        op_b = executor.current_op(b[1])
        if op_a is None or op_b is None:
            return False
        if op_a.kind != OpKind.LOAD or op_b.kind != OpKind.LOAD:
            return False
        amap = system.amap
        return amap.line_address(op_a.addr) != amap.line_address(op_b.addr)

    # -- the DFS ------------------------------------------------------------

    def _visit(
        self, state, script: List[Action], sleep: FrozenSet[Action]
    ) -> None:
        """Explore the node ``script`` reaches. ``state`` is the parent
        node's ``(system, executor)``, owned by this call (``None`` at
        the root); the node applies its incoming action to it."""
        self.result.nodes += 1
        if self.result.nodes > self.max_nodes:
            self.result.truncated = True
            raise _StopExploration()
        try:
            if state is None:
                system = build_system(self.case)
                executor = ScheduleExecutor(system, self.case.tasks)
            else:
                system, executor = state
                executor.apply(script[-1])
        except (InvariantViolation, SimulationError, ProtocolError):
            self._record_counterexample(script)
            return

        if executor.terminal:
            self.result.schedules += 1
            try:
                report = executor.finish()
            except (InvariantViolation, SimulationError, ProtocolError):
                self._record_counterexample(script)
                return
            problems = verify_run(report, self.oracle, system.memory)
            if problems:
                self._record_counterexample(script)
                return
            outcome = (
                tuple(tuple(values) for values in report.load_values),
                tuple(sorted(system.memory.image().items())),
            )
            if outcome not in self.result.outcomes:
                self.result.outcomes.add(outcome)
                self.result.witnesses[outcome] = tuple(script)
            return

        if len(script) >= self.max_depth:
            self.result.depth_capped += 1
            self.result.truncated = True
            return

        fp = fingerprint(system, executor)
        explored_under = self.seen.get(fp)
        if explored_under is not None and any(
            prev <= sleep for prev in explored_under
        ):
            self.result.fp_pruned += 1
            return
        self.seen.setdefault(fp, []).append(sleep)

        enabled = executor.enabled()
        # The last child to explore continues on this node's own state;
        # each earlier one restores a copy of a snapshot taken first.
        last = max(
            (i for i, action in enumerate(enabled) if action not in sleep),
            default=-1,
        )
        frozen: Optional[Snapshot] = None
        explored: List[Action] = []
        for i, action in enumerate(enabled):
            if action in sleep:
                self.result.sleep_pruned += 1
                explored.append(action)
                continue
            child_sleep = frozenset(
                b
                for b in set(sleep) | set(explored)
                if self._independent(executor, system, action, b)
            )
            if i == last:
                child = (system, executor)
            else:
                if frozen is None:
                    frozen = Snapshot(system, executor)
                child = frozen.restore()
            self._visit(child, script + [action], child_sleep)
            explored.append(action)

    def run(self) -> ExplorationResult:
        try:
            self._visit(None, [], frozenset())
        except _StopExploration:
            pass
        return self.result


def explore_case(
    case: Case,
    max_nodes: int = 250_000,
    max_depth: int = 120,
    max_counterexamples: int = 1,
) -> ExplorationResult:
    """Exhaustively explore every schedule of ``case``'s tasks.

    ``case`` supplies the design, geometry, task programs, mutation and
    checker settings; its ``script``/``schedule`` fields are ignored (the
    explorer generates the scripts). Exploration stops early after
    ``max_counterexamples`` failures, ``max_nodes`` visited prefixes, or
    when a schedule exceeds ``max_depth`` actions (both caps mark the
    result ``truncated`` so exhaustiveness claims stay honest). A budget
    below one is a :class:`~repro.common.errors.ConfigError`.
    """
    for name, value in (("max_nodes", max_nodes), ("max_depth", max_depth)):
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
    if case.fault_plan is not None and not case.fault_plan.is_noop:
        raise SimulationError("model checking does not compose with fault plans")
    template = dataclasses.replace(case, script=None, squash_probability=0.0)
    return _Explorer(template, max_nodes, max_depth, max_counterexamples).run()
