"""X-Mem: the memory-intensive collocated tenant of §VI-E.

Each X-Mem process performs random accesses to a private 2 MB dataset —
larger than the aggregate private L1+L2 capacity, so its working set
lives in the LLC (or memory, once DDIO squeezes it out). The paper
reports X-Mem performance as IPC normalized to a reference
configuration; we derive IPC from the average access cost the cache
simulation measures (see ``repro.engine.analytic.xmem_ipc``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.mem.layout import AddressSpace, Region, RegionKind
from repro.params import CACHE_BLOCK_BYTES, MiB


@dataclass(frozen=True)
class XMemParams:
    """Per-process dataset provisioning."""

    dataset_bytes: int = 2 * MiB
    write_fraction: float = 0.3
    #: non-memory instructions executed per memory access
    instructions_per_access: float = 4.0

    def __post_init__(self) -> None:
        if self.dataset_bytes <= 0:
            raise ConfigError("dataset size must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write_fraction must be in [0, 1]")

    @property
    def dataset_blocks(self) -> int:
        return self.dataset_bytes // CACHE_BLOCK_BYTES


@dataclass(frozen=True)
class Colocation:
    """The X-Mem tenant that shares a point's LLC with its NF (§VI-E).

    X-Mem runs on the upper half of the cores, the NF on the lower half.
    ``xmem_ways`` and ``nf_ways`` confine each tenant's LLC fills to a
    way subset (Figure 9a's disjoint partitions); None leaves a tenant
    the whole LLC (Figure 9b's overlap).
    """

    xmem: XMemParams = XMemParams()
    xmem_ways: Optional[Tuple[int, ...]] = None
    nf_ways: Optional[Tuple[int, ...]] = None


class XMemWorkload:
    """Random-access tenant; one private dataset per participating core."""

    name = "XMEM"

    def __init__(self, params: Optional[XMemParams] = None) -> None:
        self.params = params if params is not None else XMemParams()
        self._regions: List[Region] = []
        self._built = False

    def build(
        self,
        space: AddressSpace,
        cores: List[int],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Allocate one private dataset per core in ``cores``."""
        self._rng = rng if rng is not None else np.random.default_rng(17)
        self._cores = list(cores)
        self._regions = [
            space.allocate(
                f"xmem_dataset[{core}]",
                self.params.dataset_bytes,
                RegionKind.APP,
                owner_core=core,
            )
            for core in self._cores
        ]
        self._by_core = dict(zip(self._cores, self._regions))
        self._built = True

    def accesses(self, core: int, count: int) -> "tuple[np.ndarray, np.ndarray]":
        """``count`` random (block, is_write) accesses for one core."""
        if not self._built:
            raise ConfigError("XMemWorkload.build() was never called")
        region = self._by_core.get(core)
        if region is None:
            raise ConfigError(f"core {core} does not run X-Mem")
        offsets = self._rng.integers(
            0, region.num_blocks, size=count, dtype=np.int64
        )
        blocks = region.start_block + offsets
        writes = self._rng.random(count) < self.params.write_fraction
        return blocks, writes
