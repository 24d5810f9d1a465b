"""The batch trace engine: struct-of-arrays state, native inner loop.

``REPRO_ENGINE`` selects which hierarchy implementation
:class:`~repro.engine.tracer.TraceSimulator` drives:

* ``object`` (default) — the original dict-based
  :class:`~repro.cache.hierarchy.CacheHierarchy`; the semantic oracle.
* ``batch`` — :class:`BatchHierarchy` below: per-set tag/dirty/kind/LRU
  state in preallocated numpy arrays (:mod:`repro.cache.soa`), mutated
  only by the compiled ``batchcore.c`` kernel. Every hierarchy entry
  point (CPU accesses, ring refills, packet reads, TX writes, sweeps,
  observer primes and probe sweeps) is one kernel call, and
  :meth:`BatchHierarchy.run_request_loop` services whole segments of
  requests in one ``bc_run_requests`` call; the trace simulator decides
  when that is allowed (DESIGN.md §11, "Fused request loop").

Without a C compiler the kernel cannot load, and :func:`build_hierarchy`
runs the object engine instead: it logs one ``engine.fallback`` event,
and the simulator reports ``"object"`` as its engine.

Both engines are bit-identical by contract, and the equivalence suite
holds ``TraceResult`` equal field-for-field across every figure
harness. Because results are identical, the engine deliberately does
**not** participate in the point-cache fingerprint — cached points are
shared across engines.
"""

from __future__ import annotations

import ctypes
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.hierarchy import AccessLevel, CacheHierarchy
from repro.cache.soa import ArrayCounts, SoaCache, array_traffic_counter
from repro.engine import native
from repro.errors import ConfigError, ProtocolError
from repro.mem.layout import RegionKind
from repro.obs import events as obs_events
from repro.params import SystemConfig
from repro.traffic import TrafficCounter

#: engine names accepted by ``REPRO_ENGINE`` / ``TraceConfig.engine``.
ENGINES = ("object", "batch")

#: C return level -> AccessLevel member (index 0 unused).
_LEVELS = (None, AccessLevel.L1, AccessLevel.L2, AccessLevel.LLC, AccessLevel.MEM)


def engine_from_env() -> str:
    """Engine selected by ``REPRO_ENGINE`` (default ``object``)."""
    raw = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if not raw:
        return "object"
    if raw not in ENGINES:
        raise ConfigError(
            f"REPRO_ENGINE must be one of {ENGINES}, got {raw!r}"
        )
    return raw


def resolve_engine(engine: Optional[str] = None) -> str:
    """Validate an explicit engine choice, or fall back to the env."""
    if engine is None:
        return engine_from_env()
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


def build_hierarchy(system: SystemConfig, engine: str) -> CacheHierarchy:
    """The hierarchy implementation behind the ``REPRO_ENGINE`` seam.

    ``"batch"`` falls back to the object engine, with one
    ``engine.fallback`` warning event, when the kernel cannot load.
    """
    if engine == "batch":
        try:
            native.load_kernel()
        except ConfigError as exc:
            obs_events.get_event_log().warning(
                "engine.fallback",
                requested="batch",
                engine="object",
                error=str(exc),
            )
        else:
            return BatchHierarchy(system)
    return CacheHierarchy(system)


def _runs(blocks: Sequence[int]) -> Sequence[Tuple[int, int]]:
    """``blocks`` as (start, n) kernel runs, in order: one run when they
    are contiguous and ascending, else one single-block run each (the
    object engine's run methods are in-order per-block loops, so both
    are bit-identical)."""
    if isinstance(blocks, range) and blocks.step == 1:
        return ((blocks.start, len(blocks)),) if blocks else ()
    n = len(blocks)
    if n:
        first = blocks[0]
        if blocks[-1] - first == n - 1 and all(
            block == first + i for i, block in enumerate(blocks)
        ):
            return ((first, n),)
    return [(block, 1) for block in blocks]


class BatchHierarchy(CacheHierarchy):
    """CacheHierarchy on struct-of-arrays caches, mutated by the kernel.

    Every entry point that changes cache state is one C call on the
    shared arrays; the inherited ``CacheHierarchy`` methods left are the
    read-only ones (introspection, metrics, stats). Constructing one
    raises :class:`ConfigError` when the kernel cannot load.
    """

    CACHE_CLS = SoaCache

    def __init__(
        self,
        config: SystemConfig,
        traffic: Optional[TrafficCounter] = None,
        victim_fill_clean: bool = False,
    ) -> None:
        self._kernel = native.load_kernel()
        if traffic is None:
            traffic, self._traffic_array = array_traffic_counter()
        elif isinstance(traffic.counts, ArrayCounts):
            self._traffic_array = traffic.counts.array
        else:
            raise ConfigError(
                "BatchHierarchy needs an array-backed TrafficCounter "
                "(see repro.cache.soa.array_traffic_counter)"
            )
        super().__init__(
            config, traffic=traffic, victim_fill_clean=victim_fill_clean
        )
        self._build_native_context()

    # ------------------------------------------------------------------
    # native context plumbing
    # ------------------------------------------------------------------

    @property
    def victim_fill_clean(self) -> bool:
        return self._victim_fill_clean

    @victim_fill_clean.setter
    def victim_fill_clean(self, value: bool) -> None:
        self._victim_fill_clean = bool(value)
        ctx = getattr(self, "_ctx", None)
        if ctx is not None:
            ctx.victim_fill_clean = 1 if value else 0

    @staticmethod
    def _bcache(cache: SoaCache) -> "native.BCache":
        p_i64 = ctypes.POINTER(ctypes.c_int64)
        p_u8 = ctypes.POINTER(ctypes.c_uint8)
        return native.BCache(
            num_sets=cache.num_sets,
            ways=cache.ways,
            is_lru=0 if cache._random_replacement else 1,
            tags=cache.tags.ctypes.data_as(p_i64),
            dirty=cache.dirty.ctypes.data_as(p_u8),
            kind=cache.kind.ctypes.data_as(p_u8),
            stamp=cache.stamp.ctypes.data_as(p_i64),
            tick=cache.tick.ctypes.data_as(p_i64),
            lcg=cache.lcg.ctypes.data_as(p_i64),
            stats=cache.stats_array.ctypes.data_as(p_i64),
        )

    def _build_native_context(self) -> None:
        p_i64 = ctypes.POINTER(ctypes.c_int64)
        cores = self.num_cores
        llc_ways = self.llc.ways
        self._l1_structs = (native.BCache * cores)(
            *[self._bcache(c) for c in self.l1s]
        )
        self._l2_structs = (native.BCache * cores)(
            *[self._bcache(c) for c in self.l2s]
        )
        self._llc_struct = (native.BCache * 1)(self._bcache(self.llc))
        self._ddio_mask_array = np.zeros(llc_ways, dtype=np.int64)
        self._ddio_mask_len = np.zeros(1, dtype=np.int64)
        self._core_masks_array = np.zeros(cores * llc_ways, dtype=np.int64)
        self._core_mask_len = np.full(cores, -1, dtype=np.int64)
        self._ctx = native.BHier(
            num_cores=cores,
            victim_fill_clean=1 if self._victim_fill_clean else 0,
            l1=self._l1_structs,
            l2=self._l2_structs,
            llc=self._llc_struct,
            traffic=self._traffic_array.ctypes.data_as(p_i64),
            ddio_mask=self._ddio_mask_array.ctypes.data_as(p_i64),
            ddio_mask_len=self._ddio_mask_len.ctypes.data_as(p_i64),
            core_masks=self._core_masks_array.ctypes.data_as(p_i64),
            core_mask_len=self._core_mask_len.ctypes.data_as(p_i64),
        )
        self._ctx_ref = ctypes.byref(self._ctx)
        self._counts_scratch = (ctypes.c_int64 * 5)()
        self._sync_ddio_mask()
        for core in range(cores):
            self._sync_core_mask(core)

    def _sync_ddio_mask(self) -> None:
        mask = self.ddio_way_mask
        self._ddio_mask_array[: len(mask)] = mask
        self._ddio_mask_len[0] = len(mask)

    def _sync_core_mask(self, core: int) -> None:
        mask = self._core_fill_masks[core]
        if mask is None:
            self._core_mask_len[core] = -1
            return
        base = core * self.llc.ways
        self._core_masks_array[base : base + len(mask)] = mask
        self._core_mask_len[core] = len(mask)

    def set_ddio_way_mask(self, ways: Sequence[int]) -> None:
        super().set_ddio_way_mask(ways)
        self._sync_ddio_mask()

    def set_core_fill_mask(
        self, core: int, ways: Optional[Sequence[int]]
    ) -> None:
        super().set_core_fill_mask(core, ways)
        self._sync_core_mask(core)

    def native_intact(self) -> bool:
        """True while no instance attribute shadows a method (per-layer
        tracing wraps entry points on the instance, and the fused loop
        would bypass such a wrapper)."""
        cls = type(self)
        return not any(callable(getattr(cls, name, None)) for name in vars(self))

    def run_request_loop(
        self,
        loop: "native.BLoop",
        start: int,
        count: int,
        depths: Optional[np.ndarray],
        depth: int,
        ops: np.ndarray,
    ) -> int:
        """Service ``count`` requests in one ``bc_run_requests`` call;
        returns how many were serviced, or -1 when ``ops`` does not
        decode to exactly ``count`` requests (see ``batchcore.c``)."""
        p_i64 = ctypes.POINTER(ctypes.c_int64)
        ops = np.ascontiguousarray(ops, np.int64)
        if depths is not None:
            depths = np.ascontiguousarray(depths, np.int64)
            if len(depths) < count:
                raise ProtocolError(f"{len(depths)} depths for {count} requests")
        return self._kernel.bc_run_requests(
            self._ctx_ref,
            ctypes.byref(loop),
            start,
            count,
            None if depths is None else depths.ctypes.data_as(p_i64),
            depth,
            ops.ctypes.data_as(p_i64),
            ops.size,
        )

    # ------------------------------------------------------------------
    # kernel entry points (same contracts as the CacheHierarchy methods)
    # ------------------------------------------------------------------

    def cpu_access(
        self, core: int, block: int, kind: RegionKind, write: bool
    ) -> AccessLevel:
        level = self._kernel.bc_cpu_access(
            self._ctx_ref, core, block, kind, 1 if write else 0
        )
        return _LEVELS[level]

    def _flush_counts(self, level_counts: dict) -> int:
        counts = self._counts_scratch
        total = 0
        for level in (1, 2, 3, 4):
            n = counts[level]
            if n:
                level_counts[_LEVELS[level]] += n
                total += n
                counts[level] = 0
        return total

    def cpu_access_run(
        self,
        core: int,
        start: int,
        n: int,
        kind: RegionKind,
        write: bool,
        level_counts: dict,
    ) -> None:
        self._kernel.bc_cpu_access_run(
            self._ctx_ref,
            core,
            start,
            n,
            kind,
            1 if write else 0,
            self._counts_scratch,
        )
        self._flush_counts(level_counts)

    def cpu_access_batch(
        self, core: int, blocks, writes, kind: RegionKind, level_counts: dict
    ) -> int:
        blocks64 = np.ascontiguousarray(blocks, dtype=np.int64)
        writes8 = np.ascontiguousarray(writes, dtype=np.uint8)
        self._kernel.bc_cpu_access_batch(
            self._ctx_ref,
            core,
            blocks64.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            writes8.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            len(blocks64),
            kind,
            self._counts_scratch,
        )
        return self._flush_counts(level_counts)

    def nic_llc_write(
        self, core_hint: int, block: int, kind: RegionKind = RegionKind.RX_BUFFER
    ) -> None:
        self._kernel.bc_nic_llc_write_run(self._ctx_ref, core_hint, block, 1, kind)

    def nic_llc_write_run(
        self,
        core_hint: int,
        blocks: Sequence[int],
        kind: RegionKind = RegionKind.RX_BUFFER,
    ) -> None:
        for start, n in _runs(blocks):
            self._kernel.bc_nic_llc_write_run(
                self._ctx_ref, core_hint, start, n, kind
            )

    def nic_probe_read(self, core_hint: int, block: int) -> bool:
        return not self._kernel.bc_nic_probe_read_run(
            self._ctx_ref, core_hint, block, 1
        )

    def nic_probe_read_run(self, core_hint: int, blocks: Sequence[int]) -> None:
        for start, n in _runs(blocks):
            self._kernel.bc_nic_probe_read_run(self._ctx_ref, core_hint, start, n)

    def sweep_block(self, core_hint: int, block: int) -> int:
        return self._kernel.bc_sweep_run(self._ctx_ref, core_hint, block, 1)

    def sweep_run(self, core_hint: int, blocks: Sequence[int]) -> int:
        dropped = 0
        for start, n in _runs(blocks):
            dropped += self._kernel.bc_sweep_run(self._ctx_ref, core_hint, start, n)
        return dropped

    def invalidate_block(
        self, core_hint: int, block: int, discard_dirty: bool
    ) -> bool:
        return bool(
            self._kernel.bc_invalidate_block(
                self._ctx_ref, core_hint, block, 1 if discard_dirty else 0
            )
        )

    def dma_rx_write_run(self, core_hint: int, blocks: Sequence[int]) -> None:
        for start, n in _runs(blocks):
            self._kernel.bc_dma_rx_write_run(self._ctx_ref, core_hint, start, n)

    def dma_tx_read_run(self, core_hint: int, blocks: Sequence[int]) -> None:
        for start, n in _runs(blocks):
            self._kernel.bc_dma_tx_read_run(self._ctx_ref, core_hint, start, n)

    def llc_prime(self, blocks: Sequence[int], ways: Sequence[int]) -> None:
        p_i64 = ctypes.POINTER(ctypes.c_int64)
        blocks64 = np.ascontiguousarray(blocks, dtype=np.int64)
        ways64 = np.ascontiguousarray(ways, dtype=np.int64)
        if (
            self._kernel.bc_llc_prime(
                self._ctx_ref,
                blocks64.ctypes.data_as(p_i64),
                len(blocks64),
                ways64.ctypes.data_as(p_i64),
                len(ways64),
            )
            < 0
        ):
            raise ConfigError(f"{self.llc.name}: empty way mask for insert")

    def llc_probe(
        self, blocks: Sequence[int], ways: Sequence[int]
    ) -> List[int]:
        p_i64 = ctypes.POINTER(ctypes.c_int64)
        blocks64 = np.ascontiguousarray(blocks, dtype=np.int64)
        ways64 = np.ascontiguousarray(ways, dtype=np.int64)
        missed = np.empty(len(blocks64), dtype=np.int64)
        n = self._kernel.bc_llc_probe(
            self._ctx_ref,
            blocks64.ctypes.data_as(p_i64),
            len(blocks64),
            ways64.ctypes.data_as(p_i64),
            len(ways64),
            missed.ctypes.data_as(p_i64),
        )
        if n < 0:
            raise ConfigError(f"{self.llc.name}: empty way mask for insert")
        return missed[:n].tolist()
