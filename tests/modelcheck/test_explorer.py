"""Exploration smoke tests: clean protocols pass, mutations are caught,
and the snapshot DFS agrees with replaying each schedule from scratch."""

import dataclasses

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.faults import FaultPlan
from repro.hier.task import MemOp, OpKind, TaskProgram
from repro.litmus.shapes import LITMUS_SHAPES, compile_shape
from repro.modelcheck.executor import ScheduleExecutor
from repro.modelcheck.explorer import explore_case
from repro.modelcheck.fingerprint import fingerprint
from repro.modelcheck.programs import Bounds, bound_geometry, bounds_for_programs
from repro.modelcheck.snapshot import Snapshot
from repro.replay import Case, build_system, run_case


def _case(tasks, design="final", pus=2, **overrides):
    return Case(
        design=design,
        tasks=tuple(tasks),
        geometry=bound_geometry(Bounds(pus=pus)),
        schedule="script",
        checker=True,
        check_invariants=True,
        n_caches=pus,
        **overrides,
    )


RACY = (
    TaskProgram(ops=[MemOp.store(0, 42, 4)]),
    TaskProgram(ops=[MemOp.load(0, 4)]),
)


@pytest.mark.parametrize("design", ["base", "final", "arb"])
def test_clean_racy_program_explores_without_counterexamples(design):
    result = explore_case(_case(RACY, design=design))
    assert result.ok
    # Both orders (store-first, load-first) are covered, though pruning
    # may collapse converging prefixes before they terminate.
    assert result.schedules >= 1
    assert result.schedules + result.fp_pruned + result.sleep_pruned >= 2
    # Violation squashes make every interleaving converge on one outcome.
    assert len(result.outcomes) == 1
    ((loads, memory),) = result.outcomes
    assert loads == ((), (42,))


def test_independent_loads_get_pruned():
    tasks = (
        TaskProgram(ops=[MemOp.load(0, 4)]),
        TaskProgram(ops=[MemOp.load(16, 4)]),  # a different line
    )
    result = explore_case(_case(tasks))
    assert result.ok
    assert result.sleep_pruned + result.fp_pruned > 0


def test_node_budget_marks_truncation():
    result = explore_case(_case(RACY), max_nodes=2)
    assert result.truncated
    assert not result.ok


def test_mutation_produces_a_replayable_counterexample():
    case = _case(RACY, mutation="no_violation_squash")
    result = explore_case(case)
    assert len(result.counterexamples) == 1
    failing, failure = result.counterexamples[0]
    assert not failure.ok
    assert failing.script  # the schedule that exposed it
    # The captured case replays to a failure on its own.
    assert not run_case(failing).ok


def test_explorer_rejects_fault_plans():
    case = dataclasses.replace(
        _case(RACY), fault_plan=FaultPlan(squash_at=((0, 1),))
    )
    with pytest.raises(SimulationError):
        explore_case(case)


@pytest.mark.parametrize(
    "budget", [{"max_nodes": 0}, {"max_nodes": -5}, {"max_depth": 0}]
)
def test_non_positive_budget_is_a_config_error(budget):
    with pytest.raises(ConfigError):
        explore_case(_case(RACY), **budget)


def _shape_case(shape, design):
    tasks = compile_shape(shape)
    bounds = bounds_for_programs([tasks], pus=shape.pus)
    return Case(
        design=design,
        tasks=tasks,
        geometry=bound_geometry(bounds),
        schedule="script",
        checker=True,
        check_invariants=True,
        n_caches=bounds.pus,
    )


def _replay_from_scratch(case, script):
    """The reference the snapshot DFS replaced: a fresh system, every
    action applied strictly, then the terminal audit and drain."""
    system = build_system(case)
    executor = ScheduleExecutor(system, case.tasks)
    for action in script:
        executor.apply(action)
    report = executor.finish()
    loads = tuple(tuple(values) for values in report.load_values)
    return loads, tuple(sorted(system.memory.image().items()))


@pytest.mark.parametrize("design", ["base", "final"])
@pytest.mark.parametrize("name", sorted(LITMUS_SHAPES))
def test_every_witness_replays_to_its_outcome_from_a_fresh_system(name, design):
    case = _shape_case(LITMUS_SHAPES[name], design)
    result = explore_case(case)
    assert result.ok
    assert set(result.witnesses) == result.outcomes
    for outcome, witness in result.witnesses.items():
        assert _replay_from_scratch(case, witness) == outcome
        replayed = run_case(dataclasses.replace(case, script=witness))
        assert replayed.ok
        loads = tuple(tuple(values) for values in replayed.report.load_values)
        assert loads == outcome[0]


def _mid_run(design="final"):
    case = _shape_case(LITMUS_SHAPES["iriw"], design)
    system = build_system(case)
    executor = ScheduleExecutor(system, case.tasks)
    for _ in range(4):
        executor.apply(executor.enabled()[-1])
    return system, executor


def test_snapshot_is_independent_of_its_source():
    system, executor = _mid_run()
    before = fingerprint(system, executor)
    copy_system, copy_executor = Snapshot(system, executor).restore()
    assert copy_system is not system
    assert copy_executor.system is copy_system
    assert fingerprint(copy_system, copy_executor) == before
    action = copy_executor.enabled()[0]
    copy_executor.apply(action)
    assert fingerprint(copy_system, copy_executor) != before
    assert fingerprint(system, executor) == before
    # The source still runs on its own: the same action leads both to
    # the same state.
    executor.apply(action)
    assert fingerprint(system, executor) == fingerprint(copy_system, copy_executor)


def test_snapshot_rebinds_an_instance_wrapper_to_the_copy():
    system, executor = _mid_run()
    calls = []
    inner = system.load

    def counting_load(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    system.load = counting_load
    copy_system, copy_executor = Snapshot(system, executor).restore()
    before = fingerprint(system, executor)
    action = next(
        a for a in copy_executor.enabled()
        if a[0] == "op" and copy_executor.current_op(a[1]).kind == OpKind.LOAD
    )
    copy_executor.apply(action)
    # The wrapper's captured state is shared, its wrapped method is the
    # copy's: the call was counted and only the copy moved.
    assert len(calls) == 1
    assert fingerprint(system, executor) == before
