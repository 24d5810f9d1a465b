"""Three-level cache hierarchy with a non-inclusive victim LLC.

Models the paper's Table I hierarchy: per-core private L1/L2 and a shared
LLC that operates as a victim cache for L2 evictions (Skylake-style
non-inclusive design, [28] in the paper). The consequences matter for
Sweeper's story:

* A CPU read that hits the LLC copies the line into the core's L1/L2
  but leaves it resident (and still dirty) in the LLC. Consumed RX
  buffers therefore stay parked in the DDIO ways until a later NIC
  write-allocation evicts them — producing the writeback the paper
  identifies as the dominant "consumed buffer eviction" leak.
* A CPU write takes ownership: the LLC copy is invalidated and the
  dirty data lives in the private caches until it migrates back down
  as an L2 victim.
* NIC (DDIO) writes allocate only in the DDIO way mask, but in-place
  hits can refresh a line anywhere in the LLC.
* Dirty LLC evictions are the memory writebacks the paper attributes to
  RX Evct / TX Evct / Other Evct; clean L2 victims are dropped unless
  ``victim_fill_clean`` enables the §VI-C runaway-buffer behaviour.

All traffic recording happens here so that every engine sees identical
accounting.
"""

from __future__ import annotations

from enum import IntEnum
from typing import List, Optional, Sequence, Tuple

from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import ConfigError
from repro.mem.layout import RegionKind
from repro.params import SystemConfig
from repro.traffic import (
    CPU_READ_CATEGORY,
    EVICT_CATEGORY,
    MemCategory,
    TrafficCounter,
)


class AccessLevel(IntEnum):
    """Hierarchy level that serviced an access (for latency accounting)."""

    L1 = 1
    L2 = 2
    LLC = 3
    MEM = 4


class CacheHierarchy:
    """Private L1/L2 per core plus one shared victim LLC."""

    #: cache implementation hook: the batch engine's hierarchy swaps in
    #: the struct-of-arrays cache, whose state only its C kernel mutates.
    CACHE_CLS = SetAssociativeCache

    def __init__(
        self,
        config: SystemConfig,
        traffic: Optional[TrafficCounter] = None,
        victim_fill_clean: bool = False,
    ) -> None:
        self.config = config
        self.num_cores = config.cpu.num_cores
        self.traffic = traffic if traffic is not None else TrafficCounter()
        cache_cls = self.CACHE_CLS
        self.l1s = [
            cache_cls(config.l1, name=f"L1[{c}]")
            for c in range(self.num_cores)
        ]
        self.l2s = [
            cache_cls(config.l2, name=f"L2[{c}]")
            for c in range(self.num_cores)
        ]
        self.llc = cache_cls(config.llc, name="LLC")
        self.ddio_way_mask: Tuple[int, ...] = tuple(range(config.nic.ddio_ways))
        self._core_fill_masks: List[Optional[Tuple[int, ...]]] = [
            None
        ] * self.num_cores
        # Whether clean L2 victims allocate in the LLC. Modern
        # non-inclusive LLCs drop most clean victims (selective fill);
        # keeping them would let NIC in-place updates pin whole rings in
        # non-DDIO ways, erasing the buffer-depth sensitivity the paper
        # measures. True enables the parking behaviour for the §VI-C
        # "runaway buffer" ablation.
        self.victim_fill_clean = victim_fill_clean

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def set_ddio_way_mask(self, ways: Sequence[int]) -> None:
        mask = tuple(ways)
        if not mask:
            raise ConfigError("DDIO way mask is empty")
        if any(w < 0 or w >= self.llc.ways for w in mask):
            raise ConfigError("DDIO way mask exceeds LLC associativity")
        self.ddio_way_mask = mask

    def set_core_fill_mask(self, core: int, ways: Optional[Sequence[int]]) -> None:
        """Restrict a core's LLC victim fills to a way subset (§VI-E)."""
        if ways is None:
            self._core_fill_masks[core] = None
            return
        mask = tuple(ways)
        if not mask:
            raise ConfigError("core fill mask is empty (None clears it)")
        if any(w < 0 or w >= self.llc.ways for w in mask):
            raise ConfigError("core fill mask exceeds LLC associativity")
        self._core_fill_masks[core] = mask

    # ------------------------------------------------------------------
    # internal fill/eviction cascade
    # ------------------------------------------------------------------

    def _writeback(self, kind: int) -> None:
        # Direct counter bump; TrafficCounter.record's validation is
        # redundant for the constant blocks=1 of the eviction path.
        self.traffic.counts[EVICT_CATEGORY[kind]] += 1

    def _victim_fill_llc(
        self, core: int, block: int, dirty: bool, kind: int
    ) -> None:
        if not dirty and not self.victim_fill_clean:
            return
        mask = self._core_fill_masks[core]
        # Victim fills draw uniformly over their allowed ways rather than
        # hunting for invalid slots, so collocated tenants do not vacuum
        # up the DDIO slots that sweeps free for the NIC.
        evicted = self.llc.insert(
            block, dirty=dirty, kind=kind, way_mask=mask, prefer_invalid=False
        )
        if evicted is not None and evicted.dirty:
            self._writeback(evicted.kind)

    def _fill_l2(self, core: int, block: int, dirty: bool, kind: int) -> None:
        evicted = self.l2s[core].insert(block, dirty=dirty, kind=kind)
        if evicted is not None:
            self._victim_fill_llc(core, evicted.block, evicted.dirty, evicted.kind)

    def _fill_l1(self, core: int, block: int, dirty: bool, kind: int) -> None:
        evicted = self.l1s[core].insert(block, dirty=dirty, kind=kind)
        if evicted is None:
            return
        # Dirty L1 victims merge into (or allocate in) the L2; clean ones
        # are silently dropped, as the L2 usually retains a copy.
        if not evicted.dirty:
            return
        l2 = self.l2s[core]
        if l2.access(evicted.block, write=True):
            return
        self._fill_l2(core, evicted.block, dirty=True, kind=evicted.kind)

    # ------------------------------------------------------------------
    # CPU side
    # ------------------------------------------------------------------

    def cpu_access(
        self, core: int, block: int, kind: RegionKind, write: bool
    ) -> AccessLevel:
        """One CPU load/store at block granularity.

        Stores use write-allocate / read-for-ownership: a store miss
        fetches the block from wherever it lives and dirties the L1 copy.
        """
        if self.l1s[core].access(block, write=write):
            return AccessLevel.L1
        return self._cpu_access_l1_missed(core, block, kind, write)

    def cpu_access_run(
        self,
        core: int,
        start: int,
        n: int,
        kind: RegionKind,
        write: bool,
        level_counts: dict,
    ) -> None:
        """Batched :meth:`cpu_access` over ``n`` consecutive blocks.

        The L1 is probed with one batched call; only misses take the
        per-block fill cascade. ``level_counts`` (AccessLevel -> int) is
        updated in place with the servicing level of every block.
        """
        missed = self.l1s[core].access_run(start, n, write=write)
        level_counts[AccessLevel.L1] += n - len(missed)
        if not missed:
            return
        l1_missed = self._cpu_access_l1_missed
        for block in missed:
            level_counts[l1_missed(core, block, kind, write)] += 1

    def _cpu_access_l1_missed(
        self, core: int, block: int, kind: RegionKind, write: bool
    ) -> AccessLevel:
        """L2-and-below half of :meth:`cpu_access` (L1 already missed)."""
        if self.l2s[core].access(block):
            self._fill_l1(core, block, dirty=write, kind=kind)
            return AccessLevel.L2
        llc_kind = self.llc.access_kind(block)
        if llc_kind is not None:
            if write:
                # Read-for-ownership: the store takes the line exclusively;
                # the LLC copy is invalidated and dirtiness moves up with
                # the new L1 data (any prior dirty state is subsumed by
                # the dirty L1 line that will eventually migrate back).
                self.llc.remove(block)
            # Read hits leave the line resident in the LLC (non-inclusive
            # LLC retains it); the private caches get clean copies. This
            # is what keeps consumed, dirty RX buffers parked in the DDIO
            # ways until a later NIC write-allocation evicts them — the
            # paper's consumed-buffer-eviction mechanism.
            self._fill_l2(core, block, dirty=False, kind=llc_kind)
            self._fill_l1(core, block, dirty=write, kind=llc_kind)
            return AccessLevel.LLC
        self.traffic.counts[CPU_READ_CATEGORY[kind]] += 1
        self._fill_l2(core, block, dirty=False, kind=kind)
        self._fill_l1(core, block, dirty=write, kind=kind)
        return AccessLevel.MEM

    def cpu_access_batch(
        self,
        core: int,
        blocks,
        writes,
        kind: RegionKind,
        level_counts: dict,
    ) -> int:
        """Array-driven :meth:`cpu_access` over (block, write) pairs.

        ``blocks``/``writes`` are parallel numpy arrays (arbitrary,
        non-contiguous addresses — the X-Mem tenant's access stream).
        ``level_counts`` is updated in place; returns the access count.
        """
        cpu_access = self.cpu_access
        for block, write in zip(blocks.tolist(), writes.tolist()):
            level_counts[cpu_access(core, block, kind, write)] += 1
        return len(blocks)

    def cpu_read(self, core: int, block: int, kind: RegionKind) -> AccessLevel:
        return self.cpu_access(core, block, kind, write=False)

    def cpu_write(self, core: int, block: int, kind: RegionKind) -> AccessLevel:
        return self.cpu_access(core, block, kind, write=True)

    # ------------------------------------------------------------------
    # NIC side primitives (used by the injection policies)
    # ------------------------------------------------------------------

    def invalidate_block(
        self, core_hint: int, block: int, discard_dirty: bool
    ) -> bool:
        """Drop every cached copy of ``block``.

        With ``discard_dirty=False``, a dirty copy is written back to
        memory first (CLFLUSH semantics, used by the DMA baseline on the
        TX path); with True, dirty data is silently discarded (a NIC
        full-line overwrite, or a sweep).

        Returns True if any dirty copy existed.
        """
        dirty_seen = False
        kind_seen: Optional[int] = None
        for cache in (self.l1s[core_hint], self.l2s[core_hint], self.llc):
            removed = cache.remove(block)
            if removed is not None:
                dirty, kind = removed
                if dirty:
                    dirty_seen = True
                    kind_seen = kind
        if dirty_seen and not discard_dirty:
            self._writeback(
                kind_seen if kind_seen is not None else int(RegionKind.APP)
            )
        return dirty_seen

    def dma_rx_write_run(self, core_hint: int, blocks: Sequence[int]) -> None:
        """Batched DMA RX: invalidate cached copies, packet lands in DRAM.

        One ``NIC_RX_WR`` memory write per block; dirty copies are
        superseded by the full-line NIC write (no writeback).
        """
        for block in blocks:
            self.invalidate_block(core_hint, block, discard_dirty=True)
        self.traffic.counts[MemCategory.NIC_RX_WR] += len(blocks)

    def dma_tx_read_run(self, core_hint: int, blocks: Sequence[int]) -> None:
        """Batched DMA TX: flush dirty copies, NIC reads from DRAM."""
        for block in blocks:
            self.invalidate_block(core_hint, block, discard_dirty=False)
        self.traffic.counts[MemCategory.NIC_TX_RD] += len(blocks)

    def nic_llc_write(
        self, core_hint: int, block: int, kind: RegionKind = RegionKind.RX_BUFFER
    ) -> None:
        """DDIO write-allocate of one incoming block into the LLC.

        Any private-cache copies on the consuming core are snooped out;
        their dirty data is superseded by the full-line NIC write, so no
        writeback occurs. A miss allocates inside the DDIO way mask; a
        hit updates the existing line in place wherever it resides.
        """
        self.l1s[core_hint].remove(block)
        self.l2s[core_hint].remove(block)
        evicted = self.llc.insert(
            block, dirty=True, kind=kind, way_mask=self.ddio_way_mask
        )
        if evicted is not None and evicted.dirty:
            self._writeback(evicted.kind)

    def nic_llc_write_run(
        self,
        core_hint: int,
        blocks: Sequence[int],
        kind: RegionKind = RegionKind.RX_BUFFER,
    ) -> None:
        """Batched :meth:`nic_llc_write` over one packet buffer."""
        l1_remove = self.l1s[core_hint].remove
        l2_remove = self.l2s[core_hint].remove
        llc_insert = self.llc.insert
        mask = self.ddio_way_mask
        counts = self.traffic.counts
        for block in blocks:
            l1_remove(block)
            l2_remove(block)
            evicted = llc_insert(block, True, kind, mask)
            if evicted is not None and evicted.dirty:
                counts[EVICT_CATEGORY[evicted.kind]] += 1

    def nic_probe_read(self, core_hint: int, block: int) -> bool:
        """NIC read for packet transmission; True if serviced by a cache.

        DDIO reads do not allocate in the LLC; a miss is a DRAM read
        (NIC TX Rd).
        """
        if (
            self.l1s[core_hint].contains(block)
            or self.l2s[core_hint].contains(block)
        ):
            return True
        if self.llc.access(block):
            return True
        self.traffic.record(MemCategory.NIC_TX_RD)
        return False

    def nic_probe_read_run(self, core_hint: int, blocks: Sequence[int]) -> None:
        """Batched :meth:`nic_probe_read` over one packet buffer."""
        l1_contains = self.l1s[core_hint].contains
        l2_contains = self.l2s[core_hint].contains
        llc_access = self.llc.access
        counts = self.traffic.counts
        for block in blocks:
            if l1_contains(block) or l2_contains(block) or llc_access(block):
                continue
            counts[MemCategory.NIC_TX_RD] += 1

    # ------------------------------------------------------------------
    # prime+probe tenant (repro.sidechannel.observer)
    # ------------------------------------------------------------------

    def llc_prime(self, blocks: Sequence[int], ways: Sequence[int]) -> None:
        """Insert ``blocks`` into the LLC clean, in order, confined to
        ``ways``. A line a prime evicts is discarded: no writeback and
        no private-cache back-invalidation (DESIGN.md §12)."""
        insert = self.llc.insert
        kind = int(RegionKind.APP)
        for block in blocks:
            insert(block, False, kind, ways, True)

    def llc_probe(self, blocks: Sequence[int], ways: Sequence[int]) -> List[int]:
        """Probe ``blocks`` in the LLC, then re-prime the missed ones.

        Every block is probed with ``llc.access`` first; the missed
        blocks are then re-primed with :meth:`llc_prime`. Returns the
        missed blocks in probe order.
        """
        llc_access = self.llc.access
        missed = [block for block in blocks if not llc_access(block)]
        self.llc_prime(missed, ways)
        return missed

    # ------------------------------------------------------------------
    # Sweeper
    # ------------------------------------------------------------------

    def sweep_block(self, core_hint: int, block: int) -> int:
        """Propagate a sweep message: invalidate without writeback.

        Returns the number of cache copies dropped (0-3).
        """
        dropped = 0
        if self.l1s[core_hint].sweep(block):
            dropped += 1
        if self.l2s[core_hint].sweep(block):
            dropped += 1
        if self.llc.sweep(block):
            dropped += 1
        return dropped

    def sweep_run(self, core_hint: int, blocks: Sequence[int]) -> int:
        """Batched :meth:`sweep_block` over one buffer's blocks."""
        return (
            self.l1s[core_hint].sweep_run(blocks)
            + self.l2s[core_hint].sweep_run(blocks)
            + self.llc.sweep_run(blocks)
        )

    # ------------------------------------------------------------------
    # introspection / observability
    # ------------------------------------------------------------------

    def all_caches(self) -> Tuple[SetAssociativeCache, ...]:
        return (*self.l1s, *self.l2s, self.llc)

    def stats_totals(self) -> dict:
        """Sum every :class:`CacheStats` field across all caches.

        Field-driven (``dataclasses.fields``) so counters added to
        CacheStats aggregate automatically — this is the end-of-run
        truth the epoch timeline's summed deltas must match exactly.
        """
        import dataclasses

        from repro.cache.stats import CacheStats

        totals = {f.name: 0 for f in dataclasses.fields(CacheStats)}
        for cache in self.all_caches():
            for name, value in cache.stats.as_dict().items():
                totals[name] += value
        return totals

    def publish_metrics(self, registry) -> None:
        """Publish every cache's counters plus LLC/DDIO occupancy.

        All samples are pull-collected at registry sample time; nothing
        on the access path changes.
        """
        for cache in self.all_caches():
            cache.publish_metrics(registry)
        self.traffic.publish_metrics(registry)
        occupancy = registry.gauge(
            "llc_occupancy_blocks",
            "Valid LLC lines by region kind",
            labels=("kind",),
        )
        ddio_occupancy = registry.gauge(
            "llc_ddio_occupancy_blocks",
            "Valid LLC lines resident in the DDIO way mask",
        )
        ddio_ways = registry.gauge(
            "llc_ddio_ways", "Number of LLC ways in the DDIO mask"
        )
        way_occupancy = registry.gauge(
            "llc_way_occupancy_blocks",
            "Valid LLC lines per way index (side-channel pressure view: "
            "the DDIO ways are the attack surface)",
            labels=("way",),
        )

        def collect(_registry, hier=self) -> None:
            for kind, count in hier.llc.occupancy_by_kind().items():
                occupancy.labels(kind=kind.name).set(count)
            ddio_occupancy.set(hier.llc.occupancy_in_ways(hier.ddio_way_mask))
            ddio_ways.set(len(hier.ddio_way_mask))
            for way, count in enumerate(hier.llc.occupancy_by_way()):
                way_occupancy.labels(way=str(way)).set(count)

        registry.register_collector(collect)

    def resident_anywhere(self, core_hint: int, block: int) -> bool:
        return (
            self.l1s[core_hint].contains(block)
            or self.l2s[core_hint].contains(block)
            or self.llc.contains(block)
        )

    def reset_stats(self) -> None:
        for cache in (*self.l1s, *self.l2s, self.llc):
            cache.stats.reset()
        self.traffic.reset()
