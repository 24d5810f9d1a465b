"""The batch trace engine: struct-of-arrays state, native inner loop.

``REPRO_ENGINE`` selects which hierarchy implementation
:class:`~repro.engine.tracer.TraceSimulator` drives:

* ``object`` (default) — the original dict-based
  :class:`~repro.cache.hierarchy.CacheHierarchy`; the semantic oracle.
* ``batch`` — :class:`BatchHierarchy` below: per-set tag/dirty/kind/LRU
  state in preallocated numpy arrays (:mod:`repro.cache.soa`), with the
  whole per-request access cascade (ring refills, packet reads, workload
  runs, TX writes, sweeps, observer probe sweeps) resolved by the
  compiled ``batchcore.c`` kernel in a handful of batched calls instead
  of ~100 per-block dict probes. With the kernel loaded,
  :meth:`BatchHierarchy.run_request_loop` also services whole segments
  of requests in one ``bc_run_requests`` call; the trace simulator
  decides when that is allowed (DESIGN.md §11, "Fused request loop").
  Without a C compiler the same arrays are driven by the
  pure-Python/numpy methods of :class:`~repro.cache.soa.SoaCache`
  (``REPRO_BATCH_BACKEND`` pins a backend explicitly).

Both engines are bit-identical by contract: ``BatchHierarchy`` inherits
every cascade rule from ``CacheHierarchy`` (only the cache storage and
the hot batched entry points differ), and the equivalence suite holds
``TraceResult`` equal field-for-field across every figure harness.
Because results are identical, the engine deliberately does **not**
participate in the point-cache fingerprint — cached points are shared
across engines.
"""

from __future__ import annotations

import ctypes
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.hierarchy import AccessLevel, CacheHierarchy
from repro.cache.soa import ArrayCounts, SoaCache, array_traffic_counter
from repro.engine import native
from repro.errors import ConfigError
from repro.mem.layout import RegionKind
from repro.params import SystemConfig
from repro.traffic import TrafficCounter

#: engine names accepted by ``REPRO_ENGINE`` / ``TraceConfig.engine``.
ENGINES = ("object", "batch")

#: C return level -> AccessLevel member (index 0 unused).
_LEVELS = (None, AccessLevel.L1, AccessLevel.L2, AccessLevel.LLC, AccessLevel.MEM)

#: entry points rebound to ``_<name>_native`` when the kernel loads
_NATIVE_METHODS = (
    "cpu_access",
    "cpu_access_run",
    "cpu_access_batch",
    "nic_llc_write_run",
    "nic_probe_read_run",
    "sweep_run",
    "invalidate_block",
    "dma_rx_write_run",
    "dma_tx_read_run",
    "llc_probe",
)


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
    """The hierarchy implementation behind the ``REPRO_ENGINE`` seam."""
    if engine == "batch":
        return BatchHierarchy(system)
    return CacheHierarchy(system)


def _run_bounds(blocks) -> Optional[Tuple[int, int]]:
    """(start, n) when ``blocks`` is a contiguous ascending run."""
    if isinstance(blocks, range):
        if blocks.step == 1:
            return blocks.start, len(blocks)
        return None
    n = len(blocks)
    if n == 0:
        return None
    first = blocks[0]
    if blocks[-1] - first != n - 1:
        return None
    for i, block in enumerate(blocks):
        if block != first + i:
            return None
    return first, n


class BatchHierarchy(CacheHierarchy):
    """CacheHierarchy on struct-of-arrays caches with a native hot path.

    The slow paths (scalar probes, introspection, metrics) are the
    inherited ``CacheHierarchy`` methods running over
    :class:`~repro.cache.soa.SoaCache`; when the native kernel is
    available the batched entry points are rebound to single C calls
    that mutate the same arrays.
    """

    CACHE_CLS = SoaCache

    def __init__(
        self,
        config: SystemConfig,
        traffic: Optional[TrafficCounter] = None,
        victim_fill_clean: bool = False,
    ) -> None:
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
        self._kernel = native.load_kernel()
        self.backend = "native" if self._kernel is not None else "python"
        if self._kernel is not None:
            self._build_native_context()
            self._bind_native()

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
        if self._kernel is not None:
            self._sync_ddio_mask()

    def set_core_fill_mask(
        self, core: int, ways: Optional[Sequence[int]]
    ) -> None:
        super().set_core_fill_mask(core, ways)
        if self._kernel is not None:
            self._sync_core_mask(core)

    def _bind_native(self) -> None:
        """Shadow the batched entry points with single C calls."""
        for name in _NATIVE_METHODS:
            setattr(self, name, getattr(self, f"_{name}_native"))

    def native_intact(self) -> bool:
        """True while every entry point ``_bind_native`` bound is still
        the native method, i.e. nothing wrapped one on the instance."""
        if self._kernel is None:
            return False
        cls, bound = type(self), self.__dict__
        return all(
            getattr(bound.get(name), "__func__", None)
            is getattr(cls, f"_{name}_native")
            for name in _NATIVE_METHODS
        )

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
        returns how many were serviced (see ``batchcore.c``)."""
        p_i64 = ctypes.POINTER(ctypes.c_int64)
        return self._kernel.bc_run_requests(
            self._ctx_ref,
            ctypes.byref(loop),
            start,
            count,
            None if depths is None else depths.ctypes.data_as(p_i64),
            depth,
            ops.ctypes.data_as(p_i64),
        )

    # ------------------------------------------------------------------
    # native entry points (same contracts as the CacheHierarchy methods)
    # ------------------------------------------------------------------

    def _cpu_access_native(
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

    def _cpu_access_run_native(
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

    def _cpu_access_batch_native(
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

    def _nic_llc_write_run_native(
        self,
        core_hint: int,
        blocks: Sequence[int],
        kind: RegionKind = RegionKind.RX_BUFFER,
    ) -> None:
        bounds = _run_bounds(blocks)
        if bounds is None:
            CacheHierarchy.nic_llc_write_run(self, core_hint, blocks, kind)
            return
        self._kernel.bc_nic_llc_write_run(
            self._ctx_ref, core_hint, bounds[0], bounds[1], kind
        )

    def _nic_probe_read_run_native(
        self, core_hint: int, blocks: Sequence[int]
    ) -> None:
        bounds = _run_bounds(blocks)
        if bounds is None:
            CacheHierarchy.nic_probe_read_run(self, core_hint, blocks)
            return
        self._kernel.bc_nic_probe_read_run(
            self._ctx_ref, core_hint, bounds[0], bounds[1]
        )

    def _sweep_run_native(self, core_hint: int, blocks: Sequence[int]) -> int:
        bounds = _run_bounds(blocks)
        if bounds is None:
            return CacheHierarchy.sweep_run(self, core_hint, blocks)
        return self._kernel.bc_sweep_run(
            self._ctx_ref, core_hint, bounds[0], bounds[1]
        )

    def _invalidate_block_native(
        self, core_hint: int, block: int, discard_dirty: bool
    ) -> bool:
        return bool(
            self._kernel.bc_invalidate_block(
                self._ctx_ref, core_hint, block, 1 if discard_dirty else 0
            )
        )

    def _dma_rx_write_run_native(
        self, core_hint: int, blocks: Sequence[int]
    ) -> None:
        bounds = _run_bounds(blocks)
        if bounds is None:
            CacheHierarchy.dma_rx_write_run(self, core_hint, blocks)
            return
        self._kernel.bc_dma_rx_write_run(
            self._ctx_ref, core_hint, bounds[0], bounds[1]
        )

    def _dma_tx_read_run_native(
        self, core_hint: int, blocks: Sequence[int]
    ) -> None:
        bounds = _run_bounds(blocks)
        if bounds is None:
            CacheHierarchy.dma_tx_read_run(self, core_hint, blocks)
            return
        self._kernel.bc_dma_tx_read_run(
            self._ctx_ref, core_hint, bounds[0], bounds[1]
        )

    def _llc_probe_native(
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
