"""Steady-state trace-driven simulation of the request loop.

This engine produces the paper's central measurements: the per-request
memory-access breakdown (Figures 1c/2c/5c/7b) and the per-level CPU
access counts that feed the analytic throughput model.

Per serviced request the simulator executes the full data path:

1. the traffic generator tops the core's RX ring back up to its target
   backlog ``D`` (the NIC write-allocates each packet block via the
   injection policy);
2. the CPU reads the packet from the RX buffer;
3. the workload issues its application reads/writes;
4. the CPU writes the response into a TX buffer and posts a Work Queue
   entry; the NIC reads the buffer (and sweeps it, if NIC-driven TX
   sweeping is on);
5. with Sweeper enabled, the CPU relinquishes the consumed RX buffer.

Cores are serviced round-robin, which interleaves their cache footprints
the way concurrent execution would. Statistics are reset after a warmup
long enough to wrap every RX ring twice, so all measurements reflect
steady state.

``service_one`` is the reference implementation of these steps. On the
batch engine, ``run_requests`` instead has the workload encode each
segment's ops (``Workload.encode_segment``, one numpy pass for the KVS
and L3fwd workloads) and runs the whole segment in one
``bc_run_requests`` kernel call, when the simulator's objects allow it
(``_fusable``). The ring, NIC, Sweeper and policy objects stay the
source of truth between calls (DESIGN.md §11, "Fused request loop").
Every injection policy fuses, the zoo's Occamy and RDCA included: their
per-core buffer dicts are always the ring's last ``W`` posted slots,
because rings post in cyclic order, so the kernel carries each as one
window length (``_zoo_windows``).
"""

from __future__ import annotations

import copy
import ctypes
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.cache.hierarchy import AccessLevel
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.soa import SoaCache
from repro.core.api import Sweeper
from repro.engine import native
from repro.engine.batch import BatchHierarchy, build_hierarchy, resolve_engine
from repro.errors import ConfigError, ProtocolError
from repro.mem.layout import AddressSpace, RegionKind
from repro.nic.arrivals import BacklogController, BurstProfile
from repro.nic.ddio import (
    DdioPolicy,
    DmaPolicy,
    IdealDdioPolicy,
    InjectionPolicy,
    make_policy,
)
from repro.nic.qp import NicEngine, QueuePair
from repro.nic.rings import RxRing, TxRing, build_rings
from repro.nic.zoo import OccamyPolicy, RdcaPolicy
from repro.obs import events as obs_events
from repro.obs.timeline import ObsContext
from repro.params import SystemConfig
from repro.sidechannel.observer import ObserverConfig, PrimeProbeObserver
from repro.traffic import MemCategory, TrafficCounter
from repro.workloads.base import Workload
from repro.workloads.xmem import Colocation, XMemWorkload


@dataclass
class TraceConfig:
    """One simulation configuration (a single bar in a paper figure)."""

    system: SystemConfig
    workload: Workload
    policy: str = "ddio"
    sweeper: bool = False
    nic_tx_sweep: bool = False
    #: target RX backlog D; 1 = consume each packet promptly (§IV-B's D)
    queued_depth: int = 1
    warmup_requests: Optional[int] = None
    measure_requests: Optional[int] = None
    seed: int = 42
    #: trace engine: "object" | "batch"; None defers to ``REPRO_ENGINE``.
    #: Both engines produce bit-identical results (the equivalence suite
    #: enforces it), so the engine is provenance, not configuration — it
    #: deliberately stays out of the point-cache fingerprint.
    engine: Optional[str] = None
    #: prime+probe attacker-observer tenant (None = off, the unchanged
    #: hot path). It runs on either engine: its probe sweep is one
    #: ``CacheHierarchy.llc_probe`` call, a single kernel call on the
    #: batch engine (DESIGN.md §12). Unlike ``engine``, the observer IS
    #: configuration: it perturbs the simulation, so it participates in
    #: the point-cache fingerprint.
    observer: Optional[ObserverConfig] = None
    #: seeded bursty-load modulation of the backlog target (None = the
    #: constant ``queued_depth`` target, the unchanged hot path). The
    #: figS* experiments need it: a constant-rate victim posts exactly
    #: one packet per request, making arrivals a deterministic function
    #: of elapsed requests — bursts are what give the observer a
    #: nontrivial arrival signal to infer. Participates in the
    #: point-cache fingerprint like ``observer``.
    burst: Optional[BurstProfile] = None
    #: DDIO way count applied at the warmup->measure boundary (None =
    #: the system-wide ``nic.ddio_ways`` throughout). This is the
    #: measure-phase knob that lets a way-mask sweep share one warmup:
    #: warmup runs with the system's mask, then the mask narrows/widens
    #: to ``range(measure_ddio_ways)`` right after the stats reset — on
    #: the snapshot and no-snapshot paths alike, so restored and
    #: re-simulated points are bit-identical by construction. Requires a
    #: DDIO-family policy (the DMA/ideal policies ignore the mask).
    measure_ddio_ways: Optional[int] = None

    def make_policy(self) -> InjectionPolicy:
        return make_policy(self.policy, self.system.nic.ddio_ways)

    def default_warmup(self) -> int:
        cores = self.system.cpu.num_cores
        ring_wraps = 2 * cores * self.system.nic.rx_buffers_per_core
        llc_fill = 2 * self.system.llc.num_blocks // max(
            self.system.nic.blocks_per_packet, 1
        )
        return max(ring_wraps, llc_fill)

    def default_measure(self) -> int:
        cores = self.system.cpu.num_cores
        return max(2 * cores * self.system.nic.rx_buffers_per_core, 4000)


@dataclass
class TraceResult:
    """Steady-state measurements, normalized per request."""

    requests: int
    traffic: TrafficCounter
    level_counts: Dict[AccessLevel, int]
    cpu_work_cycles: float
    llc_occupancy_by_kind: Dict[RegionKind, int]
    sweep_instructions: int
    nic_sweeps: int
    drops: int = 0
    #: summed CacheStats fields across every cache (field-driven; the
    #: epoch timeline's per-epoch deltas must sum exactly to these)
    cache_totals: Dict[str, int] = field(default_factory=dict)
    #: side-channel leak digest (:func:`repro.sidechannel.leak_summary`)
    #: when an observer ran; None for observer-off points.
    leak: Optional[Dict[str, object]] = None
    #: the collocated X-Mem tenant's accesses and their service levels
    #: (:class:`CollocationSimulator`); 0 and empty otherwise.
    xmem_accesses: int = 0
    xmem_level_counts: Dict[AccessLevel, int] = field(default_factory=dict)

    def per_request(self) -> Dict[MemCategory, float]:
        """Memory accesses per request by category (the figure's bars)."""
        return self.traffic.scaled(self.requests)

    def mem_accesses_per_request(self) -> float:
        return self.traffic.total() / self.requests

    def levels_per_request(self) -> Dict[AccessLevel, float]:
        return {lv: n / self.requests for lv, n in self.level_counts.items()}

    def category_per_request(self, category: MemCategory) -> float:
        return self.traffic.get(category) / self.requests


#: schema version of the warm-state blob; bump on any layout change so
#: stale snapshots degrade to misses instead of bad restores. The blob
#: is also code-salted through its fingerprint path, so this only
#: matters for hand-fed states in tests. Version 2: a pickled
#: ZipfGenerator carries its uniforms, not its CDF and item ids.
#: Version 3: the workload is its ``warm_state()``, which for KVS leaves
#: out the arrays its build fixes from the seed. Version 4: a
#: random-replacement SoA cache carries no ``stamp`` array.
WARM_STATE_VERSION = 4


def _capture_cache(cache) -> Dict[str, object]:
    """Picklable copy of one cache's mutable state (stats excluded —
    they are reset at the warmup->measure boundary anyway). Only an LRU
    cache ever writes a recency stamp; a random one's stamps are all -1,
    so its capture leaves them out."""
    if isinstance(cache, SoaCache):
        state = {
            "cls": "soa",
            "tags": cache.tags.copy(),
            "dirty": cache.dirty.copy(),
            "kind": cache.kind.copy(),
            "tick": int(cache.tick[0]),
            "lcg": int(cache.lcg[0]),
        }
        if not cache._random_replacement:
            state["stamp"] = cache.stamp.copy()
        return state
    return {
        "cls": "object",
        "maps": [dict(m) for m in cache._maps],
        "tags": list(cache._tags),
        "dirty": bytes(cache._dirty),
        "kind": bytes(cache._kind),
        "lcg": cache._lcg,
    }


def _cache_state_matches(cache, st) -> bool:
    try:
        if isinstance(cache, SoaCache):
            return (
                st["cls"] == "soa"
                and len(st["tags"]) == len(cache.tags)
                and ("stamp" in st) != cache._random_replacement
            )
        return (
            st["cls"] == "object"
            and len(st["maps"]) == cache.num_sets
            and len(st["tags"]) == len(cache._tags)
        )
    except (KeyError, TypeError):
        return False


def _restore_cache(cache, st) -> None:
    if isinstance(cache, SoaCache):
        # In place: the batch engine's native context holds raw pointers
        # into these arrays, so the buffers must never be rebound.
        cache.tags[:] = st["tags"]
        cache.dirty[:] = st["dirty"]
        cache.kind[:] = st["kind"]
        cache.stamp[:] = st["stamp"] if "stamp" in st else -1
        cache.tick[0] = st["tick"]
        cache.lcg[0] = st["lcg"]
    else:
        # Copies, not references: the state dict must stay reusable if
        # the caller restores the same in-memory blob into another sim.
        cache._maps = [dict(m) for m in st["maps"]]
        cache._tags = list(st["tags"])
        cache._dirty = bytearray(st["dirty"])
        cache._kind = bytearray(st["kind"])
        cache._lcg = st["lcg"]


#: requests per fused kernel call; bounds the op buffer, not results
_SEGMENT = 2048

#: injection policies the fused loop runs, by kernel POLICY_* code
_POLICY_CODES = {
    DdioPolicy: 0,
    DmaPolicy: 1,
    IdealDdioPolicy: 2,
    OccamyPolicy: 0,
    RdcaPolicy: 0,
}


class _Zoo(NamedTuple):
    """How the fused loop drives one zoo policy: its kernel ZOO_* code
    and the names of its per-core buffer dict, its eviction bound and
    its eviction counter."""

    code: int
    tracked: str
    bound: str
    counter: str


_ZOO = {
    OccamyPolicy: _Zoo(1, "_posted", "protect_buffers", "preempted"),
    RdcaPolicy: _Zoo(2, "_pool", "pool_buffers", "pool_evictions"),
}


def _zoo_windows(sim: "TraceSimulator") -> Optional[List[int]]:
    """Each core's window length W for a zoo policy's buffer dict.

    ``bc_run_requests`` carries a zoo policy's per-core dict as one
    integer, which holds only while the dict is exactly the last W slots
    its core's RX ring posted, in post order, each keyed by its first
    block (what ``_refill_ring`` leaves, posting in cyclic order).
    Returns None when some dict is not, when Occamy's resident count is
    not ``packet_blocks * sum(W)``, or when RDCA's pool bound is below 1.
    """
    policy, rings = sim.policy, sim.rx_rings
    zoo = _ZOO[type(policy)]
    tracked = getattr(policy, zoo.tracked)
    if not set(tracked) <= set(range(len(rings))):
        return None
    windows = []
    for core, ring in enumerate(rings):
        entries = tracked.get(core, {})
        first = ring.head - len(entries)
        if first < 0 or len(entries) > ring.num_entries:
            return None
        for slot, (start, blocks) in enumerate(entries.items(), first):
            expect = ring.slot_blocks(slot)
            if type(blocks) is not range or blocks != expect:
                return None
            if start != expect.start:
                return None
        windows.append(len(entries))
    if type(policy) is OccamyPolicy:
        if policy._resident_blocks != sim._packet_blocks * sum(windows):
            return None
    elif getattr(policy, zoo.bound) < 1:
        return None
    return windows


class _FusedLoop:
    """Ring geometry and cursor buffers for ``bc_run_requests``.

    The Python rings, NIC, Sweeper and zoo policy stay the source of
    truth between calls (the observer, snapshots and the epoch sampler
    read them): each call copies the ring cursors and a zoo policy's
    windows in and back out, then adds the call's transmissions, sweeps,
    zoo evictions and level counts to their counters.
    """

    def __init__(self, sim: "TraceSimulator") -> None:
        cores = len(sim.rx_rings)
        #: rows: RX head, tail, drops, posted; TX next slot
        self.cursors = np.zeros((5, cores), dtype=np.int64)
        self.bases = np.array(
            [
                [r.slot_blocks(0).start for r in sim.rx_rings],
                [t.slot_blocks(0).start for t in sim.tx_rings],
            ],
            dtype=np.int64,
        )
        #: per core: the zoo policy's window length W (see _zoo_windows)
        self.windows = np.zeros(cores, dtype=np.int64)
        #: LOOP_* cells of batchcore.c: transmissions, NIC sweeps,
        #: relinquish calls, clsweeps, lines dropped, zoo evictions, then
        #: AccessLevel
        self.counts = np.zeros(11, dtype=np.int64)
        p_i64 = ctypes.POINTER(ctypes.c_int64)
        c = self.cursors
        self.struct = native.BLoop(
            num_cores=cores,
            packet_blocks=sim._packet_blocks,
            rx_entries=sim.rx_rings[0].num_entries,
            tx_entries=sim.tx_rings[0].num_entries,
            rx_base=self.bases[0].ctypes.data_as(p_i64),
            tx_base=self.bases[1].ctypes.data_as(p_i64),
            rx_head=c[0].ctypes.data_as(p_i64),
            rx_tail=c[1].ctypes.data_as(p_i64),
            rx_drops=c[2].ctypes.data_as(p_i64),
            rx_posted=c[3].ctypes.data_as(p_i64),
            tx_next=c[4].ctypes.data_as(p_i64),
            window=self.windows.ctypes.data_as(p_i64),
            counts=self.counts.ctypes.data_as(p_i64),
        )

    def run(
        self,
        sim: "TraceSimulator",
        start: int,
        count: int,
        depths: Optional[np.ndarray],
        ops: np.ndarray,
    ) -> None:
        """Service requests ``start..start+count-1`` in one kernel call."""
        cfg, rx, tx, policy = sim.cfg, sim.rx_rings, sim.tx_rings, sim.policy
        st = self.struct
        st.policy = _POLICY_CODES[type(policy)]
        zoo = _ZOO.get(type(policy))
        st.zoo = 0
        if zoo is not None:
            windows = _zoo_windows(sim)
            if windows is None:
                raise ProtocolError(
                    f"{policy.name}: buffer dict is not its RX rings' "
                    "last posted slots"
                )
            self.windows[:] = windows
            st.zoo, st.zoo_limit = zoo.code, getattr(policy, zoo.bound)
            if type(policy) is OccamyPolicy:
                capacity = sim.hier.llc.num_sets * len(sim.hier.ddio_way_mask)
                st.zoo_threshold = policy.pressure_fraction * capacity
        st.relinquish = int(cfg.sweeper and sim.sweeper.enabled)
        st.zc_sweep = int(cfg.sweeper)
        st.tx_sweep = int(cfg.sweeper and cfg.nic_tx_sweep)
        self.cursors[:] = [
            [r.head for r in rx],
            [r.tail for r in rx],
            [r.drops for r in rx],
            [r.posted for r in rx],
            [t._next for t in tx],
        ]
        self.counts[:] = 0
        done = sim.hier.run_request_loop(
            st, start, count, depths, sim.backlog.target_depth, ops
        )
        if done < 0:
            raise ProtocolError(
                f"requests {start}..{start + count - 1}: op buffer of "
                f"{ops.size} ints is not {count} well-formed requests"
            )
        heads, tails, drops, posted, nexts = self.cursors.tolist()
        for r, h, t, d, p in zip(rx, heads, tails, drops, posted):
            r.head, r.tail, r.drops, r.posted = h, t, d, p
        for t, n in zip(tx, nexts):
            t._next = n
        sent, nic_swept, calls, clsweeps, dropped, evicted, _, *levels = (
            self.counts.tolist()
        )
        if zoo is not None:
            self._write_back(sim, start, zoo, evicted)
        sim.nic.transmissions += sent
        sim.nic.nic_sweeps += nic_swept
        stats = sim.sweeper.stats
        stats.relinquish_calls += calls
        stats.clsweep_instructions += clsweeps
        stats.lines_dropped += dropped
        level_counts = sim._level_counts
        for level, n in zip(AccessLevel, levels):
            level_counts[level] += n
        if done < count:
            core = (start + done) % len(rx)
            raise ProtocolError(f"core {core}: consume on empty RX ring")

    def _write_back(
        self, sim: "TraceSimulator", start: int, zoo: _Zoo, evicted: int
    ) -> None:
        """Rebuild the zoo policy's dicts from the call's windows: each
        core's last W posted slots, in post order. A core's first post
        adds its dict; those come in request order from ``start``, as
        ``_refill_ring``'s ``setdefault`` adds them."""
        policy, rings = sim.policy, sim.rx_rings
        tracked = getattr(policy, zoo.tracked)
        windows = self.windows.tolist()
        cores = len(rings)
        for i in range(cores):
            core = (start + i) % cores
            if not windows[core]:
                continue
            ring = rings[core]
            entries = tracked.setdefault(core, {})
            entries.clear()
            for slot in range(ring.head - windows[core], ring.head):
                blocks = ring.slot_blocks(slot)
                entries[blocks.start] = blocks
        setattr(policy, zoo.counter, getattr(policy, zoo.counter) + evicted)
        if type(policy) is OccamyPolicy:
            policy._resident_blocks = sim._packet_blocks * sum(windows)


class TraceSimulator:
    """Drives the per-request loop over the cache hierarchy."""

    def __init__(
        self, cfg: TraceConfig, obs: Optional[ObsContext] = None
    ) -> None:
        if cfg.queued_depth < 1:
            raise ConfigError("queued_depth must be >= 1")
        # The workload is built on a private copy: its state lives and
        # dies with this simulator, and the caller's config stays a
        # read-only input (running a spec never changes it).
        cfg = replace(cfg, workload=copy.copy(cfg.workload))
        self.cfg = cfg
        self.obs = obs
        system = cfg.system
        self.space = AddressSpace()
        #: Always False: observer points run on either engine (DESIGN.md
        #: §12). Kept because per-layer tracing (sweepbench/spans.py)
        #: counts object-engine fallback points from it.
        self.observer_engine_fallback = False
        self.hier = build_hierarchy(system, resolve_engine(cfg.engine))
        #: the engine that runs: "object" when the batch kernel is missing
        self.engine = "batch" if isinstance(self.hier, BatchHierarchy) else "object"
        self.policy = cfg.make_policy()
        if isinstance(self.policy, DdioPolicy):
            self.policy.bind(self.hier)
        if cfg.measure_ddio_ways is not None:
            if not isinstance(self.policy, DdioPolicy):
                raise ConfigError(
                    "measure_ddio_ways requires a DDIO-family policy, "
                    f"got {cfg.policy!r}"
                )
            if not 1 <= cfg.measure_ddio_ways <= system.llc.ways:
                raise ConfigError(
                    f"measure_ddio_ways must be in 1..{system.llc.ways}, "
                    f"got {cfg.measure_ddio_ways}"
                )
        #: True when the measured window was forked off a restored
        #: warm-state snapshot instead of a simulated warmup.
        self.warm_restored = False
        self.rx_rings, self.tx_rings = build_rings(
            self.space,
            system.cpu.num_cores,
            system.nic.rx_buffers_per_core,
            system.nic.tx_buffers_per_core,
            system.nic.blocks_per_packet,
        )
        rng = np.random.default_rng(cfg.seed)
        cfg.workload.build(self.space, system.cpu.num_cores, rng=rng)
        self.sweeper = Sweeper(self.hier, enabled=cfg.sweeper)
        self.nic = NicEngine(self.hier, self.policy)
        self.qps = [
            QueuePair(qp_id=c, core=c) for c in range(system.cpu.num_cores)
        ]
        self.backlog = BacklogController(cfg.queued_depth)
        self._level_counts: Dict[AccessLevel, int] = {lv: 0 for lv in AccessLevel}
        self._cpu_work_cycles = 0.0
        self._packet_blocks = system.nic.blocks_per_packet
        self._fused: Optional[_FusedLoop] = None
        # Policies are stateless, so the fixed service level per region
        # kind (ideal-DDIO's side cache) is resolved once up front.
        self._buffer_level: Dict[RegionKind, Optional[AccessLevel]] = {
            kind: self.policy.cpu_buffer_level(kind) for kind in RegionKind
        }
        # The attacker-observer tenant (None = the unchanged hot path).
        # Ground truth is pull-based: the observer reads the cumulative
        # RX-ring posted counters at probe time, so no per-arrival hook
        # touches the victim's fast path.
        self.observer: Optional[PrimeProbeObserver] = None
        if cfg.observer is not None:
            rings = self.rx_rings
            self.observer = PrimeProbeObserver(
                cfg.observer,
                self.hier,
                lambda: sum(r.posted for r in rings),
            )
        # Observability is pull-based: publishing registers collectors
        # that read the raw counters at epoch boundaries; the per-request
        # path is byte-for-byte the unobserved one.
        if obs is not None and obs.registry.enabled:
            self.hier.publish_metrics(obs.registry)
            self.nic.publish_metrics(obs.registry)
            self.sweeper.publish_metrics(obs.registry)
            if self.observer is not None:
                self.observer.publish_metrics(obs.registry)

    # ------------------------------------------------------------------
    # CPU access helpers (ideal-DDIO bypass lives here)
    # ------------------------------------------------------------------

    def _cpu_access(
        self, core: int, block: int, kind: RegionKind, write: bool
    ) -> None:
        level = self._buffer_level[kind]
        if level is None:
            level = self.hier.cpu_access(core, block, kind, write)
        self._level_counts[level] += 1

    def _cpu_access_run(
        self, core: int, start: int, n: int, kind: RegionKind, write: bool
    ) -> None:
        """Batched CPU access over ``n`` contiguous buffer blocks."""
        level = self._buffer_level[kind]
        if level is not None:
            self._level_counts[level] += n
            return
        self.hier.cpu_access_run(core, start, n, kind, write, self._level_counts)

    # ------------------------------------------------------------------
    # request loop
    # ------------------------------------------------------------------

    def _refill_ring(self, core: int) -> None:
        ring = self.rx_rings[core]
        need = self.backlog.refill(ring.backlog)
        if need <= 0:
            return
        policy_rx_write_run = self.policy.rx_write_run
        hier = self.hier
        for _ in range(need):
            slot = ring.post()
            if slot is None:
                return
            policy_rx_write_run(hier, core, ring.slot_blocks(slot))

    def service_one(self, core: int) -> None:
        """Service one request on ``core`` end to end."""
        cfg = self.cfg
        ring = self.rx_rings[core]
        self._refill_ring(core)
        slot = ring.consume()
        rx_blocks = ring.slot_blocks(slot)

        # CPU consumes the packet.
        self._cpu_access_run(
            core,
            rx_blocks.start,
            len(rx_blocks),
            RegionKind.RX_BUFFER,
            write=False,
        )

        # Application work.
        ops = cfg.workload.request(core)
        for block in ops.app_reads:
            self._cpu_access(core, block, RegionKind.APP, write=False)
        for start, n in ops.read_runs:
            self._cpu_access_run(core, start, n, RegionKind.APP, write=False)
        for block in ops.app_writes:
            self._cpu_access(core, block, RegionKind.APP, write=True)
        for start, n in ops.write_runs:
            self._cpu_access_run(core, start, n, RegionKind.APP, write=True)
        self._cpu_work_cycles += cfg.workload.request_cycles(
            ops, self._packet_blocks
        )

        # Transmit path.
        qp = self.qps[core]
        if ops.response_blocks > 0:
            tx_ring = self.tx_rings[core]
            tx_slot = tx_ring.acquire()
            all_blocks = tx_ring.slot_blocks(tx_slot)
            tx_blocks = range(
                all_blocks.start, all_blocks.start + ops.response_blocks
            )
            self._cpu_access_run(
                core,
                all_blocks.start,
                ops.response_blocks,
                RegionKind.TX_BUFFER,
                write=True,
            )
            qp.post_send(
                tx_blocks, sweep_buffer=cfg.sweeper and cfg.nic_tx_sweep
            )
            self.nic.process_one(qp)
        else:
            # Zero-copy receive-to-transmit (§V-D): the RX buffer itself
            # is handed to the NIC; only the NIC may sweep it.
            qp.post_send(rx_blocks, sweep_buffer=cfg.sweeper)
            self.nic.process_one(qp)

        # Relinquish the consumed RX buffer (CPU-driven Sweeper), except
        # in zero-copy mode where the NIC was the last user.
        if cfg.sweeper and ops.response_blocks > 0:
            self.sweeper.relinquish_blocks(core, rx_blocks)

    def run_requests(self, count: int, start: int = 0) -> None:
        """Service ``count`` requests; ``start`` continues the round-robin.

        The epoch sampler runs the measure phase in chunks; threading the
        global request index through keeps the request->core mapping (and
        therefore every result) bit-identical to an unchunked run.

        The observer's sampling hook lives here: probes interleave with
        victim traffic keyed on the absolute request index, so chunked
        runs probe at identical points. The burst profile likewise keys
        its backlog target off the absolute index. With neither feature
        the loop is byte-for-byte the unobserved one.

        When ``_fusable`` allows it, the same requests run as native
        segments instead (``_run_fused``), with identical results.
        """
        if self._fusable():
            self._run_fused(count, start)
            return
        cores = self.cfg.system.cpu.num_cores
        observer = self.observer
        burst = self.cfg.burst
        if (observer is None or not observer.active) and burst is None:
            for i in range(start, start + count):
                self.service_one(i % cores)
            return
        tick = observer.tick if observer is not None and observer.active else None
        depth = burst.depth if burst is not None else None
        backlog = self.backlog
        for i in range(start, start + count):
            if depth is not None:
                backlog.target_depth = depth(i)
            if tick is not None:
                tick(i)
            self.service_one(i % cores)

    # ------------------------------------------------------------------
    # fused request loop (DESIGN.md §11)
    # ------------------------------------------------------------------

    def _fusable(self) -> bool:
        """Whether ``run_requests`` may hand whole segments to the
        kernel's ``bc_run_requests``: the batch engine, this exact
        class, a policy the kernel knows (a zoo policy only while its
        dicts are ring-order windows), and no instance wrapper on a
        method the fused loop would bypass (per-layer tracing wraps
        them, and must see every call)."""
        hier, policy, sweeper = self.hier, self.policy, self.sweeper
        workload = self.cfg.workload
        return (
            isinstance(hier, BatchHierarchy)
            and type(self) is TraceSimulator
            and type(policy) in _POLICY_CODES
            and (type(policy) not in _ZOO or _zoo_windows(self) is not None)
            and (not sweeper.enabled or sweeper.permission_granted)
            and type(workload).request_cycles is Workload.request_cycles
            and "request_cycles" not in vars(workload)
            and "request" not in vars(workload)
            and hier.native_intact()
            and "process_one" not in vars(self.nic)
            and "relinquish_blocks" not in vars(sweeper)
            and "rx_write_run" not in vars(policy)
            and "tx_read_run" not in vars(policy)
        )

    def _run_fused(self, count: int, start: int) -> None:
        """``run_requests`` as kernel calls of at most ``_SEGMENT``
        requests. A segment also ends at the observer's next probe, so
        every probe runs in Python between two calls, exactly where
        the per-request loop would run it."""
        if self._fused is None:
            self._fused = _FusedLoop(self)
        observer = self.observer
        if observer is not None and not observer.active:
            observer = None
        end = start + count
        i = start
        while i < end:
            stop = min(end, i + _SEGMENT)
            if observer is not None:
                observer.tick(i)
                stop = min(stop, observer._next_probe)
            self._run_segment(i, stop)
            i = stop
        burst = self.cfg.burst
        if burst is not None and count > 0:
            self.backlog.target_depth = burst.depth(end - 1)

    def _run_segment(self, start: int, stop: int) -> None:
        """Encode the segment's ops, then run it natively."""
        workload = self.cfg.workload
        ops, touched = workload.encode_segment(
            start, stop, self.cfg.system.cpu.num_cores, self._packet_blocks
        )
        # Workload.request_cycles per request, summed in request order:
        # add.accumulate adds term by term, so the float sum is the
        # per-request loop's, bit for bit (np.sum would pair terms up).
        terms = np.concatenate(
            (
                [self._cpu_work_cycles],
                workload.base_cycles + workload.cycles_per_block * touched,
            )
        )
        self._cpu_work_cycles = float(np.add.accumulate(terms)[-1])
        burst = self.cfg.burst
        depths = None if burst is None else burst.depths(start, stop)
        self._fused.run(self, start, stop - start, depths, ops)

    def _reset_measurements(self) -> None:
        self.hier.traffic.reset()
        for cache in self.hier.all_caches():
            cache.stats.reset()
        self._level_counts = {lv: 0 for lv in AccessLevel}
        self._cpu_work_cycles = 0.0
        self.sweeper.stats.reset()
        self.nic.nic_sweeps = 0

    # ------------------------------------------------------------------
    # warm-state snapshots (DESIGN.md §14)
    # ------------------------------------------------------------------

    def capture_warm_state(self) -> Optional[Dict[str, object]]:
        """Picklable end-of-warmup state, or None when not capturable.

        Everything reset at the warmup->measure boundary (traffic,
        cache/sweeper stats, level counts, CPU cycles, NIC sweep count)
        is deliberately excluded. QueuePair completion queues are too:
        they accumulate one entry per request, nothing ever reads them,
        and carrying them would bloat every snapshot — the restored
        sim's empty CQ is observably identical. Subclasses (collocation,
        dynamic ways) carry extra state this blob does not model, so
        only the base simulator captures.
        """
        if type(self) is not TraceSimulator or self.observer is not None:
            return None
        if any(qp.wq for qp in self.qps):
            return None  # not at a request boundary
        hier = self.hier
        return {
            "version": WARM_STATE_VERSION,
            "engine": self.engine,
            "caches": [
                _capture_cache(c) for c in (*hier.l1s, *hier.l2s, hier.llc)
            ],
            "ddio_way_mask": tuple(hier.ddio_way_mask),
            "core_fill_masks": list(hier._core_fill_masks),
            "rx": [(r.head, r.tail, r.drops, r.posted) for r in self.rx_rings],
            "tx": [t._next for t in self.tx_rings],
            "nic_transmissions": self.nic.transmissions,
            "backlog_target": self.backlog.target_depth,
            "workload": self.cfg.workload.warm_state(),
            "policy": self.policy,
        }

    def restore_warm_state(self, state) -> bool:
        """Adopt a captured warm state; True on success.

        All-or-nothing: every field is validated against this
        simulator's geometry *before* anything is mutated, because a
        partial restore followed by a fallback warmup would corrupt the
        bit-identity contract. The caller owns ``state`` (freshly
        unpickled on the production path); workload/policy internals
        are adopted by reference.
        """
        if type(self) is not TraceSimulator or self.observer is not None:
            return False
        if not isinstance(state, dict):
            return False
        if state.get("version") != WARM_STATE_VERSION:
            return False
        if state.get("engine") != self.engine:
            return False
        hier = self.hier
        caches = (*hier.l1s, *hier.l2s, hier.llc)
        try:
            saved = state["caches"]
            if len(saved) != len(caches):
                return False
            if not all(
                _cache_state_matches(c, s) for c, s in zip(caches, saved)
            ):
                return False
            mask = tuple(state["ddio_way_mask"])
            if any(w < 0 or w >= hier.llc.ways for w in mask):
                return False
            fills = list(state["core_fill_masks"])
            if len(fills) != len(hier._core_fill_masks):
                return False
            rx, tx = state["rx"], state["tx"]
            if len(rx) != len(self.rx_rings) or len(tx) != len(self.tx_rings):
                return False
            workload, policy = state["workload"], state["policy"]
            if type(workload) is not type(self.cfg.workload):
                return False
            if type(policy) is not type(self.policy):
                return False
            transmissions = int(state["nic_transmissions"])
            backlog_target = int(state["backlog_target"])
        except (KeyError, TypeError, ValueError):
            return False
        for cache, st in zip(caches, saved):
            _restore_cache(cache, st)
        hier.ddio_way_mask = mask
        hier._core_fill_masks = [
            None if m is None else tuple(m) for m in fills
        ]
        for ring, (head, tail, drops, posted) in zip(self.rx_rings, rx):
            ring.head, ring.tail = head, tail
            ring.drops, ring.posted = drops, posted
        for ring, nxt in zip(self.tx_rings, tx):
            ring._next = nxt
        self.nic.transmissions = transmissions
        self.backlog.target_depth = backlog_target
        # Adopt the restored internals in place, into this simulator's
        # private workload and the policy object the NIC holds, so every
        # existing reference to them sees the restored state.
        self.cfg.workload.adopt_warm_state(workload)
        self.policy.__dict__.clear()
        self.policy.__dict__.update(policy.__dict__)
        return True

    def _apply_measure_overrides(self) -> None:
        """Measure-phase config deltas, applied right after the stats
        reset on the snapshot and no-snapshot paths alike (bit-identity
        by construction). Currently just the DDIO way mask."""
        ways = self.cfg.measure_ddio_ways
        if ways is not None:
            self.hier.set_ddio_way_mask(range(ways))

    def run(self, warm_state=None, on_warm=None) -> TraceResult:
        """Warm up, measure, and return per-request statistics.

        ``warm_state`` (a :meth:`capture_warm_state` blob, typically
        unpickled by :mod:`repro.engine.snapshot`) replaces the warmup
        when it restores cleanly; a mismatch falls back to a normal
        warmup — the caller observes which via ``self.warm_restored``.
        ``on_warm`` is called with the freshly captured state after a
        simulated warmup (never after a restore); capture/callback
        failures are logged, not raised — snapshots are an optimization
        and must never fail a point.
        """
        cfg = self.cfg
        warmup = (
            cfg.warmup_requests
            if cfg.warmup_requests is not None
            else cfg.default_warmup()
        )
        measure = (
            cfg.measure_requests
            if cfg.measure_requests is not None
            else cfg.default_measure()
        )
        if measure <= 0:
            raise ConfigError("measure_requests must be positive")
        self.warm_restored = (
            warm_state is not None and self.restore_warm_state(warm_state)
        )
        if not self.warm_restored:
            self.run_requests(warmup)
            if on_warm is not None:
                try:
                    state = self.capture_warm_state()
                    if state is not None:
                        on_warm(state)
                except Exception as exc:
                    obs_events.get_event_log().warning(
                        "snapshot.capture_failed",
                        error=f"{type(exc).__name__}: {exc}",
                    )
        self._reset_measurements()
        self._apply_measure_overrides()
        if self.observer is not None:
            # Prime after the stats reset so the attacker observes only
            # the measure phase; the arrival baseline is taken here too.
            self.observer.activate(self.space, start_index=0)
        self._run_measure(measure)
        return TraceResult(
            requests=measure,
            # Snapshot, not the live counter: a reused/continued simulator
            # must not mutate an already-returned result.
            traffic=TrafficCounter(self.hier.traffic.snapshot()),
            level_counts=dict(self._level_counts),
            cpu_work_cycles=self._cpu_work_cycles / measure,
            llc_occupancy_by_kind=self.hier.llc.occupancy_by_kind(),
            sweep_instructions=self.sweeper.stats.clsweep_instructions,
            nic_sweeps=self.nic.nic_sweeps,
            drops=sum(r.drops for r in self.rx_rings),
            cache_totals=self.hier.stats_totals(),
            leak=(
                self.observer.leak_summary(self.engine)
                if self.observer is not None
                else None
            ),
        )

    def _run_measure(self, measure: int) -> None:
        """Measure phase, optionally chunked at epoch boundaries.

        Without an epoch sampler this is one plain ``run_requests`` call
        (the unchanged hot path). With ``REPRO_EPOCH`` the same requests
        run in epoch-sized chunks and the registry is sampled between
        chunks; the final short epoch is always sampled so per-epoch
        counter deltas sum exactly to the end-of-run aggregates.
        """
        obs = self.obs
        if obs is None or not obs.epoch_requests:
            self.run_requests(measure)
            return
        sampler = obs.sampler
        sampler.baseline()
        epoch = obs.epoch_requests
        done = 0
        while done < measure:
            chunk = min(epoch, measure - done)
            self.run_requests(chunk, start=done)
            done += chunk
            sampler.sample(done)


#: X-Mem accesses issued per tick, one burst before each NF request
XMEM_ACCESSES_PER_TICK = 24


class CollocationSimulator(TraceSimulator):
    """L3fwd on the lower half of the cores, X-Mem on the upper half
    (§VI-E).

    ``colocation`` sets the X-Mem dataset and each tenant's LLC fill
    ways, which implement the two partitioning scenarios of Figure 9:
    disjoint partitions (A, B) or overlapping ones (X-Mem over the
    whole LLC). ``run`` adds the X-Mem counts to the NF's result.
    """

    def __init__(
        self,
        cfg: TraceConfig,
        colocation: Colocation,
        obs: Optional[ObsContext] = None,
    ) -> None:
        super().__init__(cfg, obs=obs)
        cores = cfg.system.cpu.num_cores
        self.nf_cores = list(range(cores // 2))
        self.xmem_cores = list(range(cores // 2, cores))
        if not self.nf_cores:
            raise ConfigError("collocation needs at least one NF core")
        self.xmem = XMemWorkload(colocation.xmem)
        self.xmem.build(self.space, self.xmem_cores, rng=np.random.default_rng(29))
        for tenant, ways in (
            (self.xmem_cores, colocation.xmem_ways),
            (self.nf_cores, colocation.nf_ways),
        ):
            if ways is not None:
                for core in tenant:
                    self.hier.set_core_fill_mask(core, ways)
        self._xmem_levels: Dict[AccessLevel, int] = {lv: 0 for lv in AccessLevel}
        self._xmem_total = 0

    def _xmem_tick(self, core: int) -> None:
        blocks, writes = self.xmem.accesses(core, XMEM_ACCESSES_PER_TICK)
        self._xmem_total += self.hier.cpu_access_batch(
            core, blocks, writes, RegionKind.APP, self._xmem_levels
        )

    def run_requests(self, count: int, start: int = 0) -> None:
        """Interleave one X-Mem burst with one NF request per tick.

        X-Mem runs *before* the NF request so that a relinquish at the
        end of one request is immediately followed by the next request's
        NIC refill — matching continuous packet arrival, where the NIC
        (not a collocated tenant) consumes the slots a sweep invalidates.
        """
        n_nf = len(self.nf_cores)
        n_xm = len(self.xmem_cores)
        observer = self.observer
        burst = self.cfg.burst
        if (observer is None or not observer.active) and burst is None:
            for i in range(start, start + count):
                self._xmem_tick(self.xmem_cores[i % n_xm])
                self.service_one(self.nf_cores[i % n_nf])
            return
        tick = observer.tick if observer is not None and observer.active else None
        depth = burst.depth if burst is not None else None
        backlog = self.backlog
        for i in range(start, start + count):
            if depth is not None:
                backlog.target_depth = depth(i)
            if tick is not None:
                tick(i)
            self._xmem_tick(self.xmem_cores[i % n_xm])
            self.service_one(self.nf_cores[i % n_nf])

    def _reset_measurements(self) -> None:
        super()._reset_measurements()
        self._xmem_levels = {lv: 0 for lv in AccessLevel}
        self._xmem_total = 0

    def run(self, warm_state=None, on_warm=None) -> TraceResult:
        result = super().run(warm_state=warm_state, on_warm=on_warm)
        result.xmem_accesses = self._xmem_total
        result.xmem_level_counts = dict(self._xmem_levels)
        return result
