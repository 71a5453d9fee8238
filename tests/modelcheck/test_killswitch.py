"""The kill switch: every tier's known-bad mutation must be caught.

An exhaustive checker that reports zero violations proves nothing unless
it demonstrably *would* report one. For each design tier we plant the
mutation that breaks that tier's signature machinery and assert the
model checker finds a counterexample within the mutation's own bound —
and that the saved capture replays to a failure from the JSON alone.
"""

import glob
import os
from functools import partial

import pytest

from repro.modelcheck.executor import ScheduleExecutor
from repro.modelcheck.mutations import MUTATIONS, TIER_KILL_SWITCH
from repro.modelcheck.programs import bound_geometry
from repro.modelcheck.runner import run_modelcheck
from repro.modelcheck.snapshot import Snapshot
from repro.replay import Case, FailureCapture, build_system, run_case
from repro.svc.designs import DESIGNS


def test_every_tier_has_a_kill_switch():
    assert set(TIER_KILL_SWITCH) == set(DESIGNS)
    for tier, name in TIER_KILL_SWITCH.items():
        assert tier in MUTATIONS[name].tiers


@pytest.mark.parametrize("tier", DESIGNS)
def test_kill_switch_finds_a_replayable_counterexample(tier, tmp_path):
    name = TIER_KILL_SWITCH[tier]
    spec = MUTATIONS[name]
    report = run_modelcheck(
        spec.bounds,
        designs=(tier,),
        mutation=name,
        captures_dir=str(tmp_path),
    )
    assert report.per_design[tier].counterexamples > 0, (
        f"mutation {name!r} went undetected on {tier} within {spec.bounds}"
    )
    captures = sorted(glob.glob(os.path.join(str(tmp_path), "*.json")))
    assert captures
    # The capture must reproduce the failure from the file alone: the
    # mutation name rides in the case and is re-applied at build time.
    capture = FailureCapture.load(captures[0])
    assert capture.case.mutation == name
    assert capture.case.script
    assert not run_case(capture.case).ok


def _patches(system):
    """Every (object, attribute, partial) a mutation left on an instance."""
    return [
        (owner, name, value)
        for owner in (system, system.vcl, *system.caches)
        for name, value in vars(owner).items()
        if isinstance(value, partial)
    ]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_survives_a_snapshot_and_binds_the_copy(name):
    spec = MUTATIONS[name]
    case = Case(
        design=spec.tiers[-1],
        tasks=(),
        geometry=bound_geometry(spec.bounds),
        n_caches=spec.bounds.pus,
        mutation=name,
    )
    system = build_system(case)
    copy, _ = Snapshot(system, ScheduleExecutor(system, ())).restore()
    originals = {id(owner) for owner, _, _ in _patches(system)} | {id(system)}
    patches = _patches(copy)
    assert [(type(o), n) for o, n, _ in patches] == [
        (type(o), n) for o, n, _ in _patches(system)
    ]
    assert patches
    for owner, attribute, patch in patches:
        assert patch.args[0] in (owner, copy), (owner, attribute)
        assert id(patch.args[0]) not in originals
