"""The structure-of-arrays fastpath kernel is observationally invisible.

:class:`repro.svc.fastpath.FastpathKernel` exists purely for speed —
supply plans without byte movement, stamp-compare snarf acceptance,
fused VOL repair, copy-free residency checks. These tests pin the
wiring (``SVCConfig.use_fastpath`` selects the kernel, off selects the
per-line reference walks), check the kernel's answers against brute
force on live systems, and replay seeded workloads with fault plans
both ways demanding byte-identical observables. The broad seed sweep
lives in ``tests/integration/test_property_differential.py``; these
are the fast deterministic anchors.
"""

import pytest

from conftest import make_svc
from repro.common.errors import ProtocolError
from repro.faults import random_fault_plan
from repro.harness.differential import (
    TIERS,
    compare_fastpath_modes,
    differential_workload,
)

A = 0x100


def begin_all(system, n=4):
    for cache_id in range(n):
        system.begin_task(cache_id, cache_id)
    return system


# -- wiring ------------------------------------------------------------------


def test_fastpath_on_by_default():
    system = make_svc("final")
    assert system.config.use_fastpath
    assert system.vcl.fastpath is not None


def test_fastpath_off_selects_reference_path():
    system = make_svc("final", use_fastpath=False)
    assert system.vcl.fastpath is None


# -- kernel answers vs brute force -------------------------------------------


def _sharing_system():
    """Four tasks, one line with a mid-chain version and mixed holders."""
    system = begin_all(make_svc("hr"))
    system.memory.write_int(A, 4, 0x42)
    system.store(1, A, 11)
    system.load(0, A)
    system.load(3, A)
    return system


def _brute_holders(system, line_addr):
    return {
        cache.cache_id
        for cache in system.caches
        if cache.line_for(line_addr) is not None
    }


@pytest.mark.parametrize("squash_tail", [False, True])
def test_residency_checks_match_brute_force(squash_tail):
    """Shared line, or (after squashing every task but the head) a line
    left in the head's cache alone, so both answers are seen true."""
    system = begin_all(make_svc("hr"))
    system.memory.write_int(A, 4, 0x42)
    system.store(1, A, 11)
    system.load(0, A)
    if squash_tail:
        system.squash_from_rank(1)
    kernel = system.vcl.fastpath
    line_addr = system.amap.line_address(A)
    assert (_brute_holders(system, line_addr) == {0}) == squash_tail
    for requestor in range(4):
        holders = _brute_holders(system, line_addr)
        assert kernel.is_sole_holder(line_addr, requestor) == (
            holders == {requestor}
        )
        expected_invalid = all(
            system.caches[c].line_for(line_addr) is None
            or system.caches[c].line_for(line_addr).valid_mask == 0
            for c in holders
            if c != requestor
        )
        assert kernel.others_all_invalid(line_addr, requestor) == expected_invalid


def test_ranks_column_is_the_live_map():
    system = _sharing_system()
    kernel = system.vcl.fastpath
    assert kernel.ranks() == system.current_ranks()
    system.commit_head(0)
    assert kernel.ranks() == system.current_ranks()


def test_supply_plan_stamps_match_composed_bytes():
    """A plan whose stamps equal a composed line's stamps must describe
    the same bytes (invariant 2: equal stamps imply equal data)."""
    from repro.svc.vol import build_vol

    system = _sharing_system()
    vcl = system.vcl
    kernel = vcl.fastpath
    line_addr = system.amap.line_address(A)
    entries = vcl._entries(line_addr)
    ranks = system.current_ranks()
    vol = build_vol(entries, ranks)
    for position in range(len(vol) + 1):
        suppliers, stamps = kernel.supply_plan(line_addr, entries, vol, position)
        data, ref_suppliers, stamp_map = vcl._compose(
            line_addr, entries, vol, position, system.amap.full_mask
        )
        assert suppliers == ref_suppliers
        assert stamps == [
            stamp_map.get(b, 0) for b in range(system.amap.blocks_per_line)
        ]


# -- persistent columns vs the cache arrays ----------------------------------
#
# The snapshot cache is maintained incrementally by the caches' install,
# drop and flash hooks; :meth:`FastpathKernel.audit` re-derives every
# cached column from a full snoop. These tests walk each residency
# mutation path and check both the arrays and the audit, then
# manufacture a desync behind the hooks' back and require the audit to
# catch it.


def _resident(system, cache_id):
    return {line_addr for line_addr, _line in system.caches[cache_id].lines()}


def _cached_holders(system, addr):
    line_addr = system.amap.line_address(addr)
    assert line_addr in system.vcl.fastpath._snaps  # audit is not vacuous
    return list(system.vcl.fastpath._snaps[line_addr][0])


def test_snoop_entries_are_identity_mapped_and_ascending(svc):
    svc.store(3, A, 1)
    svc.store(0, A, 2)
    line_addr = svc.amap.line_address(A)
    entries = svc.vcl._entries(line_addr)
    assert list(entries) == [0, 3]
    for cache_id, line in entries.items():
        assert svc.caches[cache_id].line_for(line_addr) is line
    # The snoop hands out a fresh dict: callers (snarf) may mutate it.
    entries.clear()
    assert list(svc.vcl._entries(line_addr)) == [0, 3]


def test_columns_track_installs(svc):
    svc.store(0, A, 1)
    svc.store(1, A, 2)
    svc.store(2, 0x200, 3)
    assert _cached_holders(svc, A) == [0, 1]
    assert _cached_holders(svc, 0x200) == [2]
    svc.vcl.fastpath.audit()


def test_squash_flash_clear_drops_squashed_lines(svc):
    for cache_id in range(4):
        svc.store(cache_id, A, cache_id + 1)
    svc.squash_from_rank(2)
    line_addr = svc.amap.line_address(A)
    assert line_addr in _resident(svc, 0) and line_addr in _resident(svc, 1)
    assert not _resident(svc, 2) and not _resident(svc, 3)
    svc.vcl.fastpath.audit()
    # Re-dispatch and keep going: the columns stay consistent.
    svc.begin_task(2, 2)
    svc.begin_task(3, 3)
    svc.store(2, A, 7)
    svc.vcl.fastpath.audit()


def test_columns_follow_commits(svc):
    svc.store(0, A, 1)
    svc.store(1, A, 2)
    svc.load(2, A)
    svc.commit_head(0)
    svc.vcl.fastpath.audit()
    svc.commit_head(1)
    svc.vcl.fastpath.audit()


def test_eager_commit_invalidation_empties_committing_cache():
    # The base design commits eagerly: flash-invalidating every line in
    # the committing cache must leave it (and its columns) empty.
    svc = begin_all(make_svc("base"))
    svc.store(0, A, 1)
    svc.store(0, 0x200, 2)
    svc.load(1, A)
    svc.commit_head(0)
    assert not _resident(svc, 0)
    for _entries, _vol in svc.vcl.fastpath._snaps.values():
        assert 0 not in _entries
    svc.vcl.fastpath.audit()


def test_columns_follow_vol_repair(svc):
    svc.store(0, A, 1)
    svc.store(2, A, 2)
    svc.squash_from_rank(2)  # leaves a dangling VOL pointer in cache 0
    svc.begin_task(2, 2)
    svc.begin_task(3, 3)
    svc.verify()  # repairs the pointer; must leave the columns exact
    svc.vcl.fastpath.audit()
    svc.load(3, A)
    svc.vcl.fastpath.audit()


def _rogue_line():
    from repro.svc.line import SVCLine

    line = SVCLine(data=bytearray(16), valid_mask=0b1111)
    line.ensure_block_stamps(4)
    return line


def test_column_audit_catches_smuggled_line(svc):
    svc.store(0, A, 1)
    assert _cached_holders(svc, A) == [0]
    svc.caches[1].array.insert(svc.amap.line_address(A), _rogue_line())
    with pytest.raises(ProtocolError):
        svc.vcl.fastpath.audit()


def test_column_audit_catches_stale_entry(svc):
    svc.store(0, A, 1)
    assert _cached_holders(svc, A) == [0]
    svc.caches[0].array.remove(svc.amap.line_address(A))  # behind the hooks
    with pytest.raises(ProtocolError):
        svc.vcl.fastpath.audit()


def test_column_audit_catches_identity_mismatch(svc):
    svc.store(0, A, 1)
    line_addr = svc.amap.line_address(A)
    assert _cached_holders(svc, A) == [0]
    svc.caches[0].array.remove(line_addr)
    svc.caches[0].array.insert(line_addr, _rogue_line())  # same slot, new object
    with pytest.raises(ProtocolError):
        svc.vcl.fastpath.audit()


def test_verify_runs_column_audit(svc):
    """system.verify() must surface a column desync, not mask it."""
    svc.store(0, A, 1)
    svc.caches[0].array.remove(svc.amap.line_address(A))
    with pytest.raises(ProtocolError, match="fastpath column"):
        svc.verify()


# -- stamp-mismatch fallback (invariant 3's escape hatch) --------------------


def _stamp_divergence_run(system):
    """Drive a snarf whose candidate supply plans carry different stamps
    than the bus line while describing the same bytes.

    Task 0 stores 7 and commits (committed version, stamp S0).  Task 2
    then stores the *same value* (active version, fresh stamp S2).  Task
    1's load fills from the committed version alone, so snarfing is
    allowed — but the free caches 3 and 4 insert *after* task 2's
    version, so their supply plans see S2 where the bus line carries S0.
    Equal bytes, unequal stamps: exactly the divergence the
    stamp-compare accept must hand back to reference byte composition.
    """
    for cache_id in range(5):
        system.begin_task(cache_id, cache_id)
    system.store(0, A, 7)
    system.commit_head(0)
    system.store(2, A, 7)
    return system.load(1, A)


def test_snarf_stamp_mismatch_takes_byte_compose_fallback(monkeypatch):
    from repro.svc.fastpath import FastpathKernel
    from repro.svc.vcl import VersionControlLogic

    depth = {"snarf": 0}
    composed = {"in_snarf": 0}
    real_snarf = FastpathKernel.snarf
    real_compose = VersionControlLogic._compose

    def tracking_snarf(self, *args, **kwargs):
        depth["snarf"] += 1
        try:
            return real_snarf(self, *args, **kwargs)
        finally:
            depth["snarf"] -= 1

    def counting_compose(self, *args, **kwargs):
        if depth["snarf"]:
            composed["in_snarf"] += 1
        return real_compose(self, *args, **kwargs)

    monkeypatch.setattr(FastpathKernel, "snarf", tracking_snarf)
    monkeypatch.setattr(VersionControlLogic, "_compose", counting_compose)

    system = make_svc("hr", n_caches=5)
    _stamp_divergence_run(system)
    line_addr = system.amap.line_address(A)
    # The kernel could not accept on stamps — it composed bytes inside
    # snarf for each free cache — yet the byte comparison succeeded and
    # both candidates still took their copies.
    assert composed["in_snarf"] >= 2
    assert system.stats.snapshot().get("snarfs", 0) >= 2
    for cache_id in (3, 4):
        assert system.caches[cache_id].line_for(line_addr) is not None


def test_stamp_mismatch_fallback_matches_reference_observables():
    """The fallback must be invisible: identical event stream, stats,
    and loaded value with the kernel on and off."""
    observed = {}
    for use_fastpath in (True, False):
        system = make_svc("hr", n_caches=5, use_fastpath=use_fastpath)
        result = _stamp_divergence_run(system)
        observed[use_fastpath] = (
            [(e.kind, e.source, e.detail) for e in system.event_log],
            system.stats.snapshot(),
            result.value,
        )
    assert observed[True] == observed[False]


# -- differential anchors (fixed seeds, fault plans attached) ----------------


@pytest.mark.parametrize("tier", TIERS)
def test_fastpath_equals_reference_with_faults(tier):
    seed = 3
    tasks = differential_workload(seed, n_tasks=10, ops_per_task=8)
    allow_squashes = tier != "ec"
    plan = random_fault_plan(seed, len(tasks), 8, allow_squashes=allow_squashes)
    mismatches = compare_fastpath_modes(
        tier,
        tasks,
        seed=seed,
        squash_probability=0.05 if allow_squashes else 0.0,
        fault_plan=plan,
    )
    assert not mismatches, "\n".join(mismatches)


# -- litmus shapes as differential inputs ------------------------------------
#
# The litmus corpus (tests/litmus/) proves each shape's outcome set by
# exhaustive exploration; here each shape doubles as a tiny adversarial
# workload for the fastpath kernel: every shape must produce an
# identical event stream with the kernel on and off, on every tier.


def _litmus_cases():
    from repro.litmus.shapes import LITMUS_SHAPES

    return [
        (name, tier) for name in sorted(LITMUS_SHAPES) for tier in TIERS
    ]


@pytest.mark.parametrize("shape,tier", _litmus_cases())
def test_fastpath_identical_on_litmus_shapes(shape, tier):
    from repro.litmus.shapes import LITMUS_SHAPES, compile_shape

    tasks = list(compile_shape(LITMUS_SHAPES[shape]))
    mismatches = compare_fastpath_modes(tier, tasks, seed=5)
    assert not mismatches, "\n".join(mismatches)


def test_fastpath_equals_reference_adversarial_schedule():
    """youngest_first maximizes misspeculation — the squash/repair path
    is where a desynchronized kernel would show first."""
    tasks = differential_workload(11, n_tasks=12, ops_per_task=10)
    mismatches = compare_fastpath_modes(
        "final",
        tasks,
        seed=11,
        schedule="youngest_first",
        squash_probability=0.1,
    )
    assert not mismatches, "\n".join(mismatches)
