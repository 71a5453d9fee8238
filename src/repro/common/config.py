"""Configuration dataclasses for every machine in the repository.

The default values reproduce the paper's evaluation configuration
(section 4.2): a 4-PU multiscalar processor, 2-wide PUs, private 4-way
8KB/16KB SVC caches in 16-byte lines on a 3-cycle split-transaction
snooping bus, and a contention-free ARB of 256 rows and five stages backed
by a 32KB/64KB direct-mapped shared data cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.addresses import AddressMap
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of one cache: capacity, associativity and line layout."""

    size_bytes: int = 8 * 1024
    associativity: int = 4
    line_size: int = 16
    versioning_block_size: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ConfigError("cache size and associativity must be positive")
        if self.size_bytes % (self.associativity * self.line_size) != 0:
            raise ConfigError(
                f"{self.size_bytes}B / {self.associativity}-way / "
                f"{self.line_size}B lines does not divide into whole sets"
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_size)

    @property
    def address_map(self) -> AddressMap:
        # Memoized: some callers fetch this per access, and AddressMap
        # precomputes lookup tables at construction.
        cached = getattr(self, "_amap_cache", None)
        if cached is None:
            cached = AddressMap(
                line_size=self.line_size,
                versioning_block_size=self.versioning_block_size,
            )
            object.__setattr__(self, "_amap_cache", cached)
        return cached

    def set_index(self, line_addr: int) -> int:
        """Set index of a line address (direct-mapped when n_sets==1 ways)."""
        return (line_addr // self.line_size) % self.n_sets


@dataclass(frozen=True)
class BusConfig:
    """Split-transaction snooping bus (section 4.2).

    A typical transaction occupies the bus for ``transaction_cycles``; a
    flush of a committed version to the next level of memory takes one
    extra cycle (paper footnote 7). Arbitration occurs only once for
    cache-to-cache transfers.
    """

    transaction_cycles: int = 3
    commit_flush_extra_cycles: int = 1
    width_words: int = 4


class UpdatePolicy:
    """Coherence reaction of non-requesting caches to a BusWrite.

    ``INVALIDATE`` is the protocol developed through sections 3.2-3.7;
    ``UPDATE`` pushes the stored blocks into later tasks' copies instead of
    invalidating them; ``HYBRID`` (section 3.8) selects per request.
    """

    INVALIDATE = "invalidate"
    UPDATE = "update"
    HYBRID = "hybrid"

    ALL = (INVALIDATE, UPDATE, HYBRID)


@dataclass(frozen=True)
class SVCFeatures:
    """Feature flags selecting one of the paper's design levels.

    The design progression of section 3 maps onto these flags:

    ========  ============================================================
    Design    Flags
    ========  ============================================================
    BASE      all flags off (and a 1-word, 1-block line geometry)
    EC        ``lazy_commit`` (C bit) and ``stale_bit`` (T bit)
    ECS       EC + ``architectural_bit`` (A bit) + ``vol_repair``
    HR        ECS + ``snarfing``
    RL        HR + multi-word lines (geometry, not a flag here)
    FINAL     RL + ``update_policy`` other than pure invalidate, optional
              ``retain_passive_dirty``
    ========  ============================================================
    """

    lazy_commit: bool = False
    stale_bit: bool = False
    architectural_bit: bool = False
    vol_repair: bool = False
    snarfing: bool = False
    retain_passive_dirty: bool = False
    update_policy: str = UpdatePolicy.INVALIDATE

    def __post_init__(self) -> None:
        if self.update_policy not in UpdatePolicy.ALL:
            raise ConfigError(f"unknown update policy {self.update_policy!r}")
        if self.architectural_bit and not self.lazy_commit:
            raise ConfigError("the A bit (ECS) requires the C bit (EC)")
        if self.vol_repair and not self.lazy_commit:
            raise ConfigError("VOL repair (ECS) requires lazy commit (EC)")
        if self.stale_bit and not self.lazy_commit:
            raise ConfigError("the T bit is an EC-design feature")

    @classmethod
    def base(cls) -> "SVCFeatures":
        return cls()

    @classmethod
    def ec(cls) -> "SVCFeatures":
        return cls(lazy_commit=True, stale_bit=True)

    @classmethod
    def ecs(cls) -> "SVCFeatures":
        return cls(
            lazy_commit=True,
            stale_bit=True,
            architectural_bit=True,
            vol_repair=True,
        )

    @classmethod
    def hr(cls) -> "SVCFeatures":
        return replace(cls.ecs(), snarfing=True)

    @classmethod
    def rl(cls) -> "SVCFeatures":
        # RL changes the geometry, not the protocol flags beyond HR.
        return cls.hr()

    @classmethod
    def final(cls, update_policy: str = UpdatePolicy.HYBRID) -> "SVCFeatures":
        return replace(
            cls.hr(),
            update_policy=update_policy,
            retain_passive_dirty=True,
        )


@dataclass(frozen=True)
class SVCConfig:
    """One SVC memory system: N private caches, bus, VCL, next-level memory."""

    n_caches: int = 4
    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    features: SVCFeatures = field(default_factory=SVCFeatures.final)
    bus: BusConfig = field(default_factory=BusConfig)
    hit_cycles: int = 1
    miss_penalty_cycles: int = 10
    n_mshrs: int = 8
    mshr_combining: int = 4
    writeback_buffer_entries: int = 8
    check_invariants: bool = False
    #: Route the hot VCL snoop/supply/snarf/repair path through the
    #: structure-of-arrays kernel (repro.svc.fastpath). Off = the
    #: per-line object model alone, kept as the slow reference
    #: implementation; behaviour must be identical either way
    #: (enforced by repro.harness.differential).
    use_fastpath: bool = True

    def __post_init__(self) -> None:
        if self.n_caches < 2:
            raise ConfigError("an SVC needs at least two private caches")

    @classmethod
    def paper_32kb(cls, **overrides) -> "SVCConfig":
        """4 x 8KB, 4-way, 16B lines: the paper's 32KB-total configuration."""
        geometry = CacheGeometry(size_bytes=8 * 1024)
        return replace(cls(geometry=geometry), **overrides)

    @classmethod
    def paper_64kb(cls, **overrides) -> "SVCConfig":
        """4 x 16KB, 4-way, 16B lines: the paper's 64KB-total configuration."""
        geometry = CacheGeometry(size_bytes=16 * 1024)
        return replace(cls(geometry=geometry), **overrides)


@dataclass(frozen=True)
class ARBConfig:
    """Address Resolution Buffer and its backing shared data cache.

    The paper's ARB (section 4.2): fully associative, 256 rows, five
    stages, backed by a 32KB or 64KB direct-mapped data cache in 16-byte
    lines; hit time swept from 1 to 4 cycles; contention-free.
    """

    n_rows: int = 256
    n_stages: int = 5
    cache_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=32 * 1024, associativity=1, line_size=16
        )
    )
    hit_cycles: int = 1
    miss_penalty_cycles: int = 10
    n_mshrs: int = 32
    mshr_combining: int = 8
    writeback_buffer_entries: int = 32

    @classmethod
    def paper_32kb(cls, hit_cycles: int = 1, **overrides) -> "ARBConfig":
        return replace(cls(hit_cycles=hit_cycles), **overrides)

    @classmethod
    def paper_64kb(cls, hit_cycles: int = 1, **overrides) -> "ARBConfig":
        geometry = CacheGeometry(
            size_bytes=64 * 1024, associativity=1, line_size=16
        )
        return replace(
            cls(cache_geometry=geometry, hit_cycles=hit_cycles), **overrides
        )


@dataclass(frozen=True)
class TimingConfig:
    """Latencies of the non-memory parts of the machine."""

    ialu_cycles: int = 1
    imul_cycles: int = 3
    fpu_cycles: int = 4
    branch_cycles: int = 1
    agen_cycles: int = 1
    register_forward_cycles: int = 1
    task_dispatch_cycles: int = 1
    squash_restart_cycles: int = 5


@dataclass(frozen=True)
class ProcessorConfig:
    """The multiscalar-like processor of section 4.2."""

    n_pus: int = 4
    issue_width: int = 2
    lsq_entries: int = 16
    timing: TimingConfig = field(default_factory=TimingConfig)

    def __post_init__(self) -> None:
        if self.n_pus < 1 or self.issue_width < 1:
            raise ConfigError("n_pus and issue_width must be positive")
