"""Buffer-management policy zoo: injection policies beyond the paper.

The paper evaluates three baselines (DMA, DDIO, ideal-DDIO — see
:mod:`repro.nic.ddio`). The zoo seeds two more from the related work,
so Sweeper can be compared against *active* buffer management under the
same harness:

* **Occamy** — preemptive buffer management. The NIC still injects into
  the DDIO ways, but it tracks which RX buffers it has written and,
  when the tracked cache-resident footprint exceeds a pressure
  threshold, proactively evicts the *oldest* buffers (the ones most
  likely already consumed by the CPU) with a writeback. Eviction
  pressure is spent on known-stale network data instead of whatever the
  LLC's replacement policy happens to pick.
* **RDCA** — remote-direct-cache-access injection with a *bounded*
  cache-resident buffer pool. The NIC keeps at most ``pool_buffers``
  RX buffers per core resident; writing a buffer beyond the bound first
  evicts the least-recently-written pool entry. The cache-resident
  window is an explicit device-managed resource rather than implicit
  LRU collateral.

Both are built purely from :class:`~repro.cache.hierarchy.CacheHierarchy`
primitives (``nic_llc_write_run`` / ``nic_probe_read_run`` /
``invalidate_block``), so both engines' cascade rules are inherited
unchanged. The code below is the reference the object engine runs. On
the batch engine both policies run inside the fused request loop
(``bc_run_requests``, DESIGN.md §11): the simulator only ever writes a
core's buffers in its RX ring's cyclic post order, so each per-core
dict is always that ring's last ``W`` posted slots, oldest first, and
one window length per core is all the kernel needs to replay the
bookkeeping. The dicts stay the source of truth between kernel calls,
rebuilt after each one, so snapshots pickle the same object.

Policy knobs are class-level defaults on purpose: a policy's identity in
a :class:`~repro.engine.parallel.PointSpec` (and thus in the point-cache
fingerprint) is its short spec string, so knob changes must arrive as
code changes (which rotate the cache's code salt).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.mem.layout import RegionKind
from repro.nic.ddio import DdioPolicy, InjectionPolicy


class OccamyPolicy(DdioPolicy):
    """DDIO + preemptive eviction of stale RX buffers under pressure.

    The policy tracks, per core, the buffers it has written (keyed by
    first block; re-posting a ring slot replaces the stale entry). When
    the tracked footprint across all cores exceeds
    ``pressure_fraction`` of the DDIO-way capacity, the oldest tracked
    buffers of the writing core are evicted — dirty data written back,
    so an unconsumed packet survives in DRAM — until the footprint is
    back under the threshold or only ``protect_buffers`` recent buffers
    remain on that core.
    """

    #: start evicting when tracked blocks exceed this fraction of the
    #: DDIO-way capacity (num_sets * |way mask| blocks)
    pressure_fraction = 0.5
    #: never evict the newest N buffers of a core (likely unconsumed)
    protect_buffers = 16

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self.name = f"Occamy {ways} Ways"
        #: core -> {first block -> block run}, insertion-ordered (FIFO)
        self._posted: Dict[int, Dict[int, Sequence[int]]] = {}
        self._resident_blocks = 0
        #: buffers preemptively evicted (observability/debugging)
        self.preempted = 0

    def rx_write(self, hier: CacheHierarchy, core: int, block: int) -> None:
        self.rx_write_run(hier, core, range(block, block + 1))

    def rx_write_run(
        self, hier: CacheHierarchy, core: int, blocks: Sequence[int]
    ) -> None:
        posted = self._posted.setdefault(core, {})
        start = blocks[0]
        stale = posted.pop(start, None)
        if stale is None:
            self._resident_blocks += len(blocks)
        posted[start] = blocks
        capacity = hier.llc.num_sets * len(hier.ddio_way_mask)
        threshold = self.pressure_fraction * capacity
        while (
            self._resident_blocks > threshold
            and len(posted) > self.protect_buffers
        ):
            victim_start = next(iter(posted))
            if victim_start == start:
                break
            victim = posted.pop(victim_start)
            self._resident_blocks -= len(victim)
            self.preempted += 1
            for b in victim:
                hier.invalidate_block(core, b, discard_dirty=False)
        hier.nic_llc_write_run(core, blocks, kind=RegionKind.RX_BUFFER)


class RdcaPolicy(DdioPolicy):
    """Direct cache access with a bounded device-managed buffer pool.

    At most ``pool_buffers`` RX buffers per core stay cache-resident.
    Writing a new buffer while the pool is full first evicts the
    least-recently-written entry (writeback, not discard); rewriting a
    pooled buffer refreshes its position. TX reads inherit DDIO's
    non-allocating probe.
    """

    #: cache-resident RX buffers the device keeps per core
    pool_buffers = 32

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self.name = f"RDCA {ways} Ways"
        #: core -> {first block -> block run}, insertion-ordered (LRU
        #: by write: oldest entry is the first key)
        self._pool: Dict[int, Dict[int, Sequence[int]]] = {}
        #: pool-overflow evictions (observability/debugging)
        self.pool_evictions = 0

    def rx_write(self, hier: CacheHierarchy, core: int, block: int) -> None:
        self.rx_write_run(hier, core, range(block, block + 1))

    def rx_write_run(
        self, hier: CacheHierarchy, core: int, blocks: Sequence[int]
    ) -> None:
        pool = self._pool.setdefault(core, {})
        start = blocks[0]
        pool.pop(start, None)
        while len(pool) >= self.pool_buffers:
            victim_start = next(iter(pool))
            victim = pool.pop(victim_start)
            self.pool_evictions += 1
            for b in victim:
                hier.invalidate_block(core, b, discard_dirty=False)
        pool[start] = blocks
        hier.nic_llc_write_run(core, blocks, kind=RegionKind.RX_BUFFER)


#: policy spec string -> (factory(ddio_ways) -> InjectionPolicy, summary).
#: The single source of truth for ``make_policy`` extensions and the
#: ``python -m repro.scenario list-policies`` listing; the paper's three
#: baselines are listed too so one table shows the whole vocabulary.
POLICIES = {
    "dma": (
        None,  # built directly by repro.nic.ddio.make_policy
        "conventional DMA through DRAM; caches bypassed (paper §III)",
    ),
    "ddio": (
        None,
        "direct cache access into N LLC ways, LRU collateral evictions "
        "(paper §III)",
    ),
    "ideal": (
        None,
        "infinite side cache for network buffers; zero memory traffic "
        "(paper's upper bound)",
    ),
    "occamy": (
        OccamyPolicy,
        "DDIO + preemptive writeback-eviction of oldest RX buffers under "
        "LLC pressure (Occamy-style)",
    ),
    "rdca": (
        RdcaPolicy,
        "direct cache access with a bounded device-managed buffer pool "
        "per core (RDCA-style)",
    ),
}


def zoo_policy(spec: str, ddio_ways: int) -> InjectionPolicy:
    """Build one of the zoo-only policies (occamy/rdca)."""
    factory = POLICIES[spec][0]
    assert factory is not None, spec
    return factory(ddio_ways)


def describe_policies() -> List[str]:
    """One ``name: summary`` line per known policy, zoo and baselines."""
    return [f"{name}: {summary}" for name, (_, summary) in POLICIES.items()]
