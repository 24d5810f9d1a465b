"""Struct-of-arrays cache state for the batch engine.

:class:`SoaCache` holds the state of one
:class:`~repro.cache.set_assoc.SetAssociativeCache` in preallocated
numpy arrays instead of per-set dicts:

* ``tags``  — int64[num_sets * ways], block address or -1 when invalid;
* ``dirty`` / ``kind`` — uint8 per slot;
* ``stamp`` — int64 per slot, a monotonically increasing recency stamp
  (LRU caches only; see below);
* ``stats`` — int64[7], one cell per :class:`CacheStats` field;
* ``tick`` / ``lcg`` — int64[1] scalars for the recency clock and the
  random-replacement LCG.

Because every byte of state is a flat C-layout array, the batch
engine's C kernel (``repro/engine/batchcore.c``, loaded by
:mod:`repro.engine.native`) mutates it directly through ctypes
pointers. The kernel is the only writer: this module defines the
layout, the read-only queries (occupancy, residency, metrics) and the
stats and traffic views. The dict-based ``SetAssociativeCache`` is the
oracle the kernel is held to.

LRU-equivalence contract
------------------------

The object engine keeps per-set recency as dict insertion order (oldest
first). Here recency is the per-slot ``stamp``: every recency touch
assigns ``tick`` and increments it, so valid stamps are unique and the
dict's "first key" is exactly the valid slot with the minimum stamp.
An invalid slot's stamp is -1 (here and wherever the kernel invalidates
a slot), so one argmin over the stamps, ties to the first way in way
(no mask) or mask order, takes the first invalid way before any valid
one, matching ``tags.index``/mask iteration in the object
implementation. The random-replacement LCG is the same 32-bit recurrence
stepped in the same places, so victim draws agree draw-for-draw.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.stats import CacheStats
from repro.errors import ConfigError
from repro.mem.layout import RegionKind
from repro.params import CacheParams
from repro.traffic import MemCategory, TrafficCounter

#: CacheStats field order; defines the stats array layout for the C side.
STAT_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(CacheStats)
)


class SoaCacheStats:
    """Array-backed view with the :class:`CacheStats` interface.

    The kernel bumps cells of the underlying int64 array; the dataclass-compatible surface (field attributes,
    ``as_dict``, ``reset``, rate properties) is what the observability
    layer and ``stats_totals`` consume.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array

    def as_dict(self) -> dict:
        return {
            name: int(value) for name, value in zip(STAT_FIELDS, self.array)
        }

    def reset(self) -> None:
        self.array[:] = 0

    @property
    def accesses(self) -> int:
        return int(self.array[0] + self.array[1])

    @property
    def hit_rate(self) -> float:
        accesses = self.accesses
        if accesses == 0:
            return 0.0
        return int(self.array[0]) / accesses

    @property
    def miss_rate(self) -> float:
        accesses = self.accesses
        if accesses == 0:
            return 0.0
        return int(self.array[1]) / accesses

    @property
    def evictions(self) -> int:
        return int(self.array[3] + self.array[4])


def _stat_property(index: int) -> property:
    def _get(self: SoaCacheStats) -> int:
        return int(self.array[index])

    def _set(self: SoaCacheStats, value: int) -> None:
        self.array[index] = value

    return property(_get, _set)


for _index, _name in enumerate(STAT_FIELDS):
    setattr(SoaCacheStats, _name, _stat_property(_index))
del _index, _name


class ArrayCounts:
    """Mapping view over an int64[len(MemCategory)] traffic array.

    Implements exactly the dict operations :class:`TrafficCounter`
    performs on ``counts`` (index get/set, iteration in category order,
    ``items``/``values``/``keys``/``get``), so a ``TrafficCounter``
    constructed around it behaves identically to the dict-backed one
    while the native kernel bumps the array directly.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array

    def __getitem__(self, category) -> int:
        return int(self.array[category])

    def __setitem__(self, category, value) -> None:
        self.array[category] = value

    def __iter__(self):
        return iter(MemCategory)

    def __len__(self) -> int:
        return len(MemCategory)

    def __contains__(self, category) -> bool:
        return category in MemCategory.__members__.values()

    def __eq__(self, other) -> bool:
        if isinstance(other, ArrayCounts):
            return bool(np.array_equal(self.array, other.array))
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def keys(self):
        return tuple(MemCategory)

    def values(self):
        return [int(v) for v in self.array]

    def items(self):
        return [(c, int(self.array[c])) for c in MemCategory]

    def get(self, category, default=0):
        return int(self.array[category])


def array_traffic_counter() -> Tuple[TrafficCounter, np.ndarray]:
    """A TrafficCounter whose counts live in a native-visible array."""
    array = np.zeros(len(MemCategory), dtype=np.int64)
    return TrafficCounter(counts=ArrayCounts(array)), array


class SoaCache:
    """Set-associative cache state on struct-of-arrays (LRU or random).

    Answers the same queries as :class:`SetAssociativeCache`; its
    state is written only by the batch kernel (see the module docstring
    for the recency-stamp equivalence argument).
    """

    def __init__(
        self, params: CacheParams, name: str = "cache", seed: int = 0x5EED
    ) -> None:
        self.params = params
        self.name = name
        self.num_sets = params.num_sets
        self.ways = params.ways
        n = self.num_sets * self.ways
        self._random_replacement = params.replacement == "random"
        self.tags = np.full(n, -1, dtype=np.int64)
        self.dirty = np.zeros(n, dtype=np.uint8)
        self.kind = np.zeros(n, dtype=np.uint8)
        self.stamp = np.full(n, -1, dtype=np.int64)
        self.tick = np.zeros(1, dtype=np.int64)
        self.lcg = np.zeros(1, dtype=np.int64)
        self.lcg[0] = (seed * 2654435761) & 0xFFFFFFFF or 1
        self.stats_array = np.zeros(len(STAT_FIELDS), dtype=np.int64)
        self.stats = SoaCacheStats(self.stats_array)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def set_index(self, block: int) -> int:
        return block % self.num_sets

    def _slot_of(self, block: int) -> int:
        """Flat slot index of a resident block, or -1."""
        base = (block % self.num_sets) * self.ways
        for slot in range(base, base + self.ways):
            if self.tags[slot] == block:
                return slot
        return -1

    def contains(self, block: int) -> bool:
        return self._slot_of(block) >= 0

    def is_dirty(self, block: int) -> bool:
        slot = self._slot_of(block)
        if slot < 0:
            raise ConfigError(f"{self.name}: block {block} not present")
        return bool(self.dirty[slot])

    def kind_of(self, block: int) -> RegionKind:
        return RegionKind(self.kind_raw_of(block))

    def kind_raw_of(self, block: int) -> int:
        slot = self._slot_of(block)
        if slot < 0:
            raise ConfigError(f"{self.name}: block {block} not present")
        return int(self.kind[slot])

    def way_of(self, block: int) -> Optional[int]:
        slot = self._slot_of(block)
        if slot < 0:
            return None
        return slot % self.ways

    def occupancy(self) -> int:
        return int(np.count_nonzero(self.tags != -1))

    def occupancy_by_kind(self) -> Dict[RegionKind, int]:
        out = {k: 0 for k in RegionKind}
        valid = self.tags != -1
        for kind in RegionKind:
            out[kind] = int(np.count_nonzero(valid & (self.kind == kind)))
        return out

    def occupancy_in_ways(self, ways: Sequence[int]) -> int:
        valid = (self.tags != -1).reshape(self.num_sets, self.ways)
        return int(valid[:, list(ways)].sum())

    def occupancy_by_way(self) -> List[int]:
        """Valid lines per way index (length ``self.ways``)."""
        valid = (self.tags != -1).reshape(self.num_sets, self.ways)
        return [int(n) for n in valid.sum(axis=0)]

    def resident_blocks(self) -> List[int]:
        return self.tags[self.tags != -1].tolist()

    def publish_metrics(self, registry) -> None:
        """Same pull collectors as :class:`SetAssociativeCache`."""
        events = registry.counter(
            "cache_events_total",
            "Per-cache event counters (hits, misses, evictions, sweeps)",
            labels=("cache", "event"),
        )
        hit_rate = registry.gauge(
            "cache_hit_rate",
            "Cumulative hit rate since the last stats reset",
            labels=("cache",),
        )

        def collect(_registry, cache=self) -> None:
            stats = cache.stats
            for event, value in stats.as_dict().items():
                events.labels(cache=cache.name, event=event).set_total(value)
            hit_rate.labels(cache=cache.name).set(stats.hit_rate)

        registry.register_collector(collect)
