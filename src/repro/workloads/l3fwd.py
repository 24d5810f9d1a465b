"""L3 forwarder network function workload.

Models the paper's DPDK-derived L3fwd port: per packet, the CPU reads
the packet, probes the forwarding table, and transmits the (copied)
packet. Two table provisioning points from the appendix:

* ``num_rules=16384`` — the table barely fits the private L2, used in
  §IV-B/§VI-C to increase cache pressure;
* ``num_rules=128`` — L1-resident, used in §VI-E so that all LLC and
  memory pressure from the NF is due to packet RX/TX alone.

The default TX path copies the packet (``zero_copy=False``), matching
the paper's evaluated configuration; ``zero_copy=True`` models the
receive-to-transmit NF pattern of §V-D, where the RX buffer itself is
handed to the NIC and only the NIC-driven sweep applies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.mem.layout import AddressSpace, RegionKind
from repro.params import CACHE_BLOCK_BYTES
from repro.workloads.base import RequestOps, Workload


@dataclass(frozen=True)
class L3fwdParams:
    """Forwarding-table provisioning."""

    num_rules: int = 16384
    rule_bytes: int = 64
    lookups_per_packet: int = 2
    packet_blocks: int = 16
    zero_copy: bool = False

    def __post_init__(self) -> None:
        if self.num_rules <= 0 or self.lookups_per_packet <= 0:
            raise ConfigError("rules and lookups must be positive")
        if self.packet_blocks <= 0:
            raise ConfigError("packet_blocks must be positive")

    @property
    def table_bytes(self) -> int:
        blocks = -(-self.num_rules * self.rule_bytes // CACHE_BLOCK_BYTES)
        return blocks * CACHE_BLOCK_BYTES

    def l1_resident(self) -> "L3fwdParams":
        """The §VI-E variant whose dataset fits in the L1 cache."""
        return replace(self, num_rules=128, lookups_per_packet=1)


class L3fwdWorkload(Workload):
    """Per-packet forwarding with a shared rule table."""

    name = "L3FWD"
    # Calibrated against Figure 2a's ~45 Mrps ceiling on 24 cores: the
    # Scale-Out-NUMA-ported forwarder spends ~1.7k cycles per packet on
    # protocol handling, header rewrite, and the packet copy.
    base_cycles = 700.0
    cycles_per_block = 10.0

    def __init__(self, params: Optional[L3fwdParams] = None) -> None:
        self.params = params if params is not None else L3fwdParams()
        self._built = False

    def build(
        self,
        space: AddressSpace,
        num_cores: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        p = self.params
        self._rng = rng if rng is not None else np.random.default_rng(13)
        self._table = space.allocate("l3fwd_table", p.table_bytes, RegionKind.APP)
        self._table_blocks = self._table.num_blocks
        self._lookup_batch = np.empty(0, dtype=np.int64)
        self._pos = 0
        self._built = True

    def _refill_lookups(self) -> None:
        self._lookup_batch = self._rng.integers(
            0, self._table_blocks, size=8192, dtype=np.int64
        )
        self._pos = 0

    def _next_lookup_block(self) -> int:
        if self._pos >= len(self._lookup_batch):
            self._refill_lookups()
        block = self._table.start_block + int(self._lookup_batch[self._pos])
        self._pos += 1
        return block

    def request(self, core: int) -> RequestOps:
        if not self._built:
            raise ConfigError("L3fwdWorkload.build() was never called")
        p = self.params
        reads = [self._next_lookup_block() for _ in range(p.lookups_per_packet)]
        # Zero-copy NFs transmit the RX buffer itself: no TX copy blocks.
        response = 0 if p.zero_copy else p.packet_blocks
        return RequestOps(app_reads=reads, response_blocks=response)

    def encode_segment(
        self, start: int, stop: int, cores: int, packet_blocks: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One numpy pass over the segment (see ``Workload``). Every
        request encodes to the row ``[L, 0, 0, 0, response, r1..rL]``
        of its ``L = lookups_per_packet`` table reads."""
        if not self._built:
            raise ConfigError("L3fwdWorkload.build() was never called")
        p = self.params
        count, lookups = stop - start, p.lookups_per_packet
        need = count * lookups
        parts: List[np.ndarray] = []
        while need > 0:
            if self._pos >= len(self._lookup_batch):
                self._refill_lookups()
            part = self._lookup_batch[self._pos : self._pos + need]
            self._pos += len(part)
            need -= len(part)
            parts.append(part)
        response = 0 if p.zero_copy else p.packet_blocks
        rows = np.zeros((count, 5 + lookups), np.int64)
        rows[:, 0] = lookups
        rows[:, 4] = response
        rows[:, 5:] = (self._table.start_block + np.concatenate(parts)).reshape(
            count, lookups
        )
        touched = np.full(count, lookups + packet_blocks + response, np.int64)
        return rows.ravel(), touched
