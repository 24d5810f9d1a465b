"""MICA-shaped key-value store workload.

Models the memory behaviour of the paper's MICA KVS port (appendix):
2.4 M key-value pairs, 1 M hash buckets, a 256 MB circular log, zipf-0.99
key popularity, and a write-heavy 5/95 GET/SET mix. Item size (512 B or
1 KB) determines both the log footprint touched per operation and —
matched by the experiment configs — the network packet size.

Per request:

* one bucket probe (a 64 B read in the bucket array, hash-distributed);
* GET — read the item's blocks from its current log position; the
  response carries the item (``response_blocks`` = item blocks);
* SET — write the item's blocks. By default values are fixed-size and
  updated *in place* at the key's current log position (the HERD/MICA
  fast path for same-size values), so zipf-hot items stay cache-resident
  and only the cold tail reaches memory — this matches the app-side
  memory traffic the paper's Figure 1b bandwidth/throughput ratios imply
  (~10 blocks/request). ``update_in_place=False`` switches to log-head
  appends (streaming writes) for ablation. The response is a one-block
  ack.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.mem.layout import AddressSpace, RegionKind
from repro.params import CACHE_BLOCK_BYTES, MiB
from repro.workloads.base import RequestOps, Workload
from repro.workloads.zipf import ZipfGenerator


@dataclass(frozen=True)
class KvsParams:
    """MICA-style store provisioning (paper appendix defaults)."""

    num_keys: int = 2_400_000
    num_buckets: int = 1_000_000
    log_bytes: int = 256 * MiB
    item_bytes: int = 1024
    get_fraction: float = 0.05
    zipf_skew: float = 0.99
    update_in_place: bool = True

    def __post_init__(self) -> None:
        if self.num_keys <= 0 or self.num_buckets <= 0:
            raise ConfigError("key and bucket counts must be positive")
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ConfigError("get_fraction must be in [0, 1]")
        if self.item_bytes <= 0 or self.log_bytes <= 0:
            raise ConfigError("item and log sizes must be positive")
        if self.item_blocks > self.log_blocks:
            raise ConfigError("log cannot hold a single item")

    @property
    def item_blocks(self) -> int:
        return (self.item_bytes + CACHE_BLOCK_BYTES - 1) // CACHE_BLOCK_BYTES

    @property
    def log_blocks(self) -> int:
        return self.log_bytes // CACHE_BLOCK_BYTES

    def scaled(self, factor: float) -> "KvsParams":
        """Shrink the dataset with the machine (see SystemConfig.scaled)."""
        if not 0.0 < factor <= 1.0:
            raise ConfigError("scale factor must be in (0, 1]")
        if factor == 1.0:
            return self
        return replace(
            self,
            num_keys=max(1024, round(self.num_keys * factor)),
            num_buckets=max(256, round(self.num_buckets * factor)),
            log_bytes=max(MiB, round(self.log_bytes * factor)),
        )


class KvsWorkload(Workload):
    """Request generator reproducing MICA's memory traffic shape."""

    name = "KVS"
    base_cycles = 350.0
    cycles_per_block = 8.0

    def __init__(self, params: Optional[KvsParams] = None) -> None:
        self.params = params if params is not None else KvsParams()
        self._built = False
        self._log_head = 0
        self.gets = 0
        self.sets = 0

    def build(
        self,
        space: AddressSpace,
        num_cores: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        p = self.params
        rng = rng if rng is not None else np.random.default_rng(11)
        self._rng = rng
        self._buckets = space.allocate(
            "kvs_buckets", p.num_buckets * CACHE_BLOCK_BYTES, RegionKind.APP
        )
        self._log = space.allocate("kvs_log", p.log_bytes, RegionKind.APP)
        self._zipf = ZipfGenerator(p.num_keys, p.zipf_skew, rng=rng)
        # Populate: every key gets an initial log position, as if the
        # store was warmed by inserting all keys once.
        slots = p.log_blocks // p.item_blocks
        if slots <= 0:
            raise ConfigError("log cannot hold a single item")
        positions = rng.integers(0, slots, size=p.num_keys, dtype=np.int64)
        self._key_offset = positions * p.item_blocks
        # Key -> bucket mapping: a fixed random hash.
        self._key_bucket = rng.integers(
            0, p.num_buckets, size=p.num_keys, dtype=np.int64
        )
        self._log_head = 0
        self._op_batch = np.empty(0)
        self._op_pos = 0
        self._built = True

    def warm_state(self) -> "KvsWorkload":
        """A shallow copy without the arrays :meth:`build` fixes from the
        seed: the zipf key permutation, the key-to-bucket hash and, in
        update-in-place mode, the key offsets (appends move keys, so
        append mode keeps them). They are most of a snapshot's bytes."""
        warm = copy.copy(self)
        if self._built:
            # A plain attribute copy: copy.copy would run the zipf's
            # __setstate__, which allocates a batch of converted ids.
            warm._zipf = object.__new__(ZipfGenerator)
            warm._zipf.__dict__.update(self._zipf.__dict__, _perm=None)
            warm._key_bucket = None
            if self.params.update_in_place:
                warm._key_offset = None
        return warm

    def adopt_warm_state(self, warm: "KvsWorkload") -> None:
        perm, buckets, offsets = self._zipf._perm, self._key_bucket, self._key_offset
        super().adopt_warm_state(warm)
        self._zipf._perm, self._key_bucket = perm, buckets
        if self._key_offset is None:  # update-in-place mode
            self._key_offset = offsets

    def _refill_ops(self) -> None:
        self._op_batch = self._rng.random(8192)
        self._op_pos = 0

    def _next_is_get(self) -> bool:
        if self._op_pos >= len(self._op_batch):
            self._refill_ops()
        is_get = bool(self._op_batch[self._op_pos] < self.params.get_fraction)
        self._op_pos += 1
        return is_get

    def _draw(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Keys and GET flags of the next ``count`` requests, drawn from
        the same batches, refilled at the same requests, as ``count``
        calls to :meth:`request` would draw them."""
        zipf, get_fraction = self._zipf, self.params.get_fraction
        keys: List[np.ndarray] = []
        gets: List[np.ndarray] = []
        while count > 0:
            left = len(self._op_batch) - self._op_pos
            # A request draws its key before its GET/SET flag, so the
            # request that refills the flags takes its key first (and
            # refills the keys first if they ran out too), on its own.
            run = zipf.sample_run(min(count, left) if left else 1)
            if not left:
                self._refill_ops()
            n = len(run)
            keys.append(run)
            gets.append(self._op_batch[self._op_pos : self._op_pos + n] < get_fraction)
            self._op_pos += n
            count -= n
        return np.concatenate(keys), np.concatenate(gets)

    def _append_to_log(self, key: int) -> int:
        """Advance the circular log head by one item; returns its base block."""
        p = self.params
        if self._log_head + p.item_blocks > p.log_blocks:
            self._log_head = 0
        start = self._log_head
        self._log_head += p.item_blocks
        self._key_offset[key] = start
        return self._log.start_block + start

    def request(self, core: int) -> RequestOps:
        if not self._built:
            raise ConfigError("KvsWorkload.build() was never called")
        p = self.params
        key = self._zipf.sample()
        bucket_block = self._buckets.start_block + int(self._key_bucket[key])
        # Item blocks are contiguous, so they travel as (start, n) runs
        # and take the engines' batched access path.
        if self._next_is_get():
            self.gets += 1
            base = self._log.start_block + int(self._key_offset[key])
            return RequestOps(
                app_reads=[bucket_block],
                read_runs=[(base, p.item_blocks)],
                response_blocks=p.item_blocks,
            )
        self.sets += 1
        if p.update_in_place:
            base = self._log.start_block + int(self._key_offset[key])
        else:
            base = self._append_to_log(key)
        return RequestOps(
            app_reads=[bucket_block],
            write_runs=[(base, p.item_blocks)],
            response_blocks=1,
        )

    def encode_segment(
        self, start: int, stop: int, cores: int, packet_blocks: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One numpy pass over the segment (see ``Workload``). Every
        request encodes to the row ``[1, g, 0, 1-g, response, bucket,
        base, item_blocks]``: the bucket read, then the item as a read
        run (GET, ``g = 1``) or a write run (SET). Appends move keys in
        request order, so append mode keeps the per-request encoder."""
        p = self.params
        if not p.update_in_place:
            return super().encode_segment(start, stop, cores, packet_blocks)
        if not self._built:
            raise ConfigError("KvsWorkload.build() was never called")
        keys, is_get = self._draw(stop - start)
        gets = int(np.count_nonzero(is_get))
        self.gets += gets
        self.sets += len(keys) - gets
        g = is_get.astype(np.int64)
        response = np.where(is_get, p.item_blocks, 1)
        rows = np.empty((len(keys), 8), np.int64)
        rows[:, 0] = 1
        rows[:, 1] = g
        rows[:, 2] = 0
        rows[:, 3] = 1 - g
        rows[:, 4] = response
        rows[:, 5] = self._buckets.start_block + self._key_bucket[keys]
        rows[:, 6] = self._log.start_block + self._key_offset[keys]
        rows[:, 7] = p.item_blocks
        return rows.ravel(), response + (1 + p.item_blocks + packet_blocks)
