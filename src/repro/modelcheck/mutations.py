"""Known-bad protocol mutations: the model checker's kill switch.

An exhaustive checker that reports "zero violations" proves nothing
unless it demonstrably *would* report one. Each mutation here plants a
deliberate, paper-relevant bug — applied to one system instance, never
module state, so mutated and clean systems coexist in one process — and
the kill-switch tests assert the checker finds a counterexample within
the default bound. One mutation per design tier exercises that tier's
signature machinery:

========================  ======  ==============================================
mutation                  tier    broken mechanism
========================  ======  ==============================================
commit_writeback_dropped  base    serial commit loses dirty lines (section 3.2.6)
stale_bit_ignored         ec      T bit: stale passive copies reused (3.4.3)
squash_spares_reader      ecs     violation squash misses the violating reader
snarf_any_version         hr      snarf installs a copy of the wrong version (3.6)
compose_oldest_writer     rl      fill composes from the oldest, not closest,
                                  previous writer (3.7)
no_violation_squash       final   invalidation window never squashes (3.2.4)
========================  ======  ==============================================

Each mutation shadows one method on one instance with
``functools.partial(module_level_function, instance)``. A partial
pickles as plain data — the function by name, the instance with the
rest of the state — so the explorer's snapshot of a mutated system is
mutated too, and the copy's patch acts on the copy. A closure would
keep acting on the instance it captured, and a plain pickle drops a
``types.MethodType`` stored in an instance dict. The replacement calls
the class's own method where it needs the correct behaviour.

A mutation name stored in :attr:`repro.replay.Case.mutation` is re-applied
at ``build_system`` time, which is what keeps kill-switch counterexample
captures replayable from the JSON file alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Tuple

from repro.modelcheck.programs import Bounds
from repro.svc.line import SVCLine
from repro.svc.vcl import CACHE, CLEAN, MEMORY
from repro.svc.vol import build_vol, clean_supplier


@dataclass(frozen=True)
class MutationSpec:
    """One registered protocol mutation."""

    name: str
    description: str
    #: Designs on which the mutated machinery is reachable.
    tiers: Tuple[str, ...]
    #: A bound within which the checker provably finds a counterexample.
    bounds: Bounds
    apply: Callable[[object], None]


_KILL_BOUNDS = Bounds(pus=2, ops=3, lines=1)


def _no_dirty_lines(cache):
    return []


def _commit_writeback_dropped(system) -> None:
    """Base-design commit skips the bus writebacks of dirty lines, so a
    committed task's stores silently never reach memory."""
    for cache in system.caches:
        cache.dirty_active_lines = partial(_no_dirty_lines, cache)


def _probe_load_reusing_stale(cache, line_addr, block_mask):
    line = cache.line_for(line_addr)
    if line is not None and line.committed and line.stale:
        line.stale = False
    return type(cache).probe_load(cache, line_addr, block_mask)


def _stale_bit_ignored(system) -> None:
    """probe_load treats every passive copy as fresh: the T bit is wiped
    before the reuse check, so a new task reads outdated data locally."""
    for cache in system.caches:
        cache.probe_load = partial(_probe_load_reusing_stale, cache)


def _squash_sparing_reader(system, rank, reason="misprediction"):
    if reason == "violation":
        rank += 1
    return type(system).squash_from_rank(system, rank, reason)


def _squash_spares_reader(system) -> None:
    """A dependence-violation squash starts one rank too late, leaving
    the task that performed the premature load running on stale data."""
    system.squash_from_rank = partial(_squash_sparing_reader, system)


def _squash_never_on_violation(system, rank, reason="misprediction"):
    if reason == "violation":
        return []
    return type(system).squash_from_rank(system, rank, reason)


def _no_violation_squash(system) -> None:
    """The invalidation window detects use-before-definition but the
    squash never happens — premature loads survive to commit."""
    system.squash_from_rank = partial(_squash_never_on_violation, system)


def _snarf_ignoring_version(system, requestor, line_addr, new_line, ranks):
    vcl = system.vcl
    snarfed = []
    entries = vcl._entries(line_addr)
    vol = build_vol(entries, ranks)
    for cache in system.caches:
        cid = cache.cache_id
        if cid == requestor or cache.current_task is None:
            continue
        if cache.line_for(line_addr) is not None:
            continue
        if not cache.array.has_free_way(line_addr):
            continue
        position = vcl._insertion_index(vol, entries, ranks, ranks[cid])
        data, suppliers, stamps = vcl._compose(
            line_addr, entries, vol, position, system.amap.full_mask
        )
        # The correct implementation skips this cache when its own
        # composition differs from the bus data; the mutation installs
        # the bus line regardless.
        vcl._clear_supplier_exclusivity(entries, suppliers)
        vcl._revoke_other_exclusivity(entries, cid)
        copy = SVCLine(
            data=bytearray(new_line.data),
            valid_mask=system.amap.full_mask,
            architectural=vcl._suppliers_architectural(
                suppliers, entries, ranks
            ),
            version_seq=new_line.version_seq,
            task_id=ranks[cid],
        )
        copy.ensure_block_stamps(system.amap.blocks_per_line)
        for block, stamp in stamps.items():
            copy.block_content[block] = stamp
        cache.install(line_addr, copy)
        entries[cid] = copy
        vol = build_vol(entries, ranks)
        snarfed.append(cid)
        system.stats.add("snarfs")
    return snarfed


def _snarf_any_version(system) -> None:
    """Snarfing drops its version check: a cache copies the bus data
    even when its task's VOL position calls for a different version."""
    system.vcl._snarf = partial(_snarf_ignoring_version, system)


def _compose_from_oldest(system, line_addr, entries, vol, position, need_mask):
    vcl = system.vcl
    amap = system.amap
    vbs = amap.versioning_block_size
    data = bytearray(amap.line_size)
    suppliers = {}
    memory_stamps = vcl.memory_stamps_for(line_addr)
    stamps = {}
    for block in amap.blocks_in_mask(need_mask):
        start = block * vbs
        bit = 1 << block
        supplier = None
        for index in range(position):  # oldest-first: the mutation
            line = entries[vol[index]]
            if line.store_mask & bit and line.valid_mask & bit:
                supplier = vol[index]
                break
        if supplier is not None:
            data[start : start + vbs] = entries[supplier].data[
                start : start + vbs
            ]
            suppliers[block] = (CACHE, supplier)
            stamps[block] = entries[supplier].block_content[block]
            continue
        stamps[block] = memory_stamps[block]
        clean = clean_supplier(entries, block, memory_stamps)
        if clean is not None:
            data[start : start + vbs] = entries[clean].data[
                start : start + vbs
            ]
            suppliers[block] = (CLEAN, clean)
        else:
            data[start : start + vbs] = system.memory.read_bytes(
                line_addr + start, vbs
            )
            suppliers[block] = (MEMORY, None)
    return data, suppliers, stamps


def _compose_oldest_writer(system) -> None:
    """Fill composition supplies each block from the *oldest* previous
    writer instead of the closest one, resurrecting overwritten data."""
    system.vcl._compose = partial(_compose_from_oldest, system)


MUTATIONS: Dict[str, MutationSpec] = {
    spec.name: spec
    for spec in (
        MutationSpec(
            name="commit_writeback_dropped",
            description="base commit invalidates dirty lines without the "
            "bus writebacks",
            tiers=("base",),
            bounds=_KILL_BOUNDS,
            apply=_commit_writeback_dropped,
        ),
        MutationSpec(
            name="stale_bit_ignored",
            description="passive-copy reuse ignores the T (stale) bit",
            tiers=("ec", "ecs", "hr", "rl", "final"),
            bounds=_KILL_BOUNDS,
            apply=_stale_bit_ignored,
        ),
        MutationSpec(
            name="squash_spares_reader",
            description="violation squash spares the violating reader",
            tiers=("base", "ec", "ecs", "hr", "rl", "final"),
            bounds=_KILL_BOUNDS,
            apply=_squash_spares_reader,
        ),
        MutationSpec(
            name="snarf_any_version",
            description="snarf installs the bus data regardless of the "
            "snarfing task's version",
            tiers=("hr", "rl", "final"),
            # A wrong-version snarf needs three concurrently active
            # tasks: a requestor, a version between it and the snarfer,
            # and the snarfing cache itself (which must not already
            # hold the line).
            bounds=Bounds(pus=3, ops=3, lines=1),
            apply=_snarf_any_version,
        ),
        MutationSpec(
            name="compose_oldest_writer",
            description="fill composition picks the oldest previous "
            "writer per block",
            tiers=("base", "ec", "ecs", "hr", "rl", "final"),
            bounds=_KILL_BOUNDS,
            apply=_compose_oldest_writer,
        ),
        MutationSpec(
            name="no_violation_squash",
            description="use-before-definition detected but never squashed",
            tiers=("base", "ec", "ecs", "hr", "rl", "final"),
            bounds=_KILL_BOUNDS,
            apply=_no_violation_squash,
        ),
    )
}

#: The per-tier kill switch: the mutation whose counterexample exercises
#: that tier's signature machinery.
TIER_KILL_SWITCH: Dict[str, str] = {
    "base": "commit_writeback_dropped",
    "ec": "stale_bit_ignored",
    "ecs": "squash_spares_reader",
    "hr": "snarf_any_version",
    "rl": "compose_oldest_writer",
    "final": "no_violation_squash",
}
