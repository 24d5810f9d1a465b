"""Workload protocol shared by the trace and event engines.

A workload contributes three things to the per-request loop the engines
execute (NIC RX write → CPU packet read → application work → TX write →
NIC TX read → optional relinquish):

* its *application* memory accesses (block addresses, reads and writes);
* how many TX blocks the response occupies;
* its base CPU work in cycles (everything that is not a memory access),
  used by the analytic service-time model.

:meth:`Workload.request` generates one request's ops and is the
reference generator. :meth:`Workload.encode_segment` generates a whole
segment of requests in the batch engine's fused-loop encoding; its
default calls ``request`` once per request, and the KVS and L3fwd
workloads override it with one numpy pass that leaves the workload in
the state those calls would (DESIGN.md §11, "Fused request loop").
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.mem.layout import AddressSpace


@dataclass
class RequestOps:
    """Application-side operations of one request.

    Scattered accesses go in ``app_reads``/``app_writes``; contiguous
    spans (e.g. a KVS item's blocks) go in ``read_runs``/``write_runs``
    as ``(start_block, num_blocks)`` pairs so the engines can use their
    batched access paths. Semantically a run is identical to listing its
    blocks individually, in ascending order, after the scattered list.
    """

    app_reads: List[int] = field(default_factory=list)
    app_writes: List[int] = field(default_factory=list)
    response_blocks: int = 1
    read_runs: List[Tuple[int, int]] = field(default_factory=list)
    write_runs: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def num_app_accesses(self) -> int:
        return (
            len(self.app_reads)
            + len(self.app_writes)
            + sum(n for _, n in self.read_runs)
            + sum(n for _, n in self.write_runs)
        )

    def all_read_blocks(self) -> List[int]:
        """Every read block, runs expanded (introspection/tests)."""
        out = list(self.app_reads)
        for start, n in self.read_runs:
            out.extend(range(start, start + n))
        return out

    def all_write_blocks(self) -> List[int]:
        """Every written block, runs expanded (introspection/tests)."""
        out = list(self.app_writes)
        for start, n in self.write_runs:
            out.extend(range(start, start + n))
        return out


class Workload(abc.ABC):
    """A request-driven networked application."""

    #: label used in reports
    name: str = "workload"
    #: CPU cycles of pure compute per request (no memory accesses)
    base_cycles: float = 200.0
    #: extra CPU cycles per block the request touches (copy/parse work)
    cycles_per_block: float = 6.0

    @abc.abstractmethod
    def build(
        self,
        space: AddressSpace,
        num_cores: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Allocate this workload's regions and initialize its state."""

    @abc.abstractmethod
    def request(self, core: int) -> RequestOps:
        """Generate the application accesses of the next request."""

    def encode_segment(
        self, start: int, stop: int, cores: int, packet_blocks: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ops of requests ``start..stop-1`` (``start < stop``) for
        ``bc_run_requests``.

        Request ``i`` runs on core ``i % cores``. Returns the flat int64
        op buffer the kernel decodes and each request's touched-block
        count (``touched`` of :meth:`request_cycles`). Per request the
        buffer holds a header ``[n_reads, n_read_runs, n_writes,
        n_write_runs, response_blocks]``, then the read blocks, the
        ``(start, n)`` read runs, the write blocks and the write runs.

        This default calls :meth:`request` once per request. An override
        must return the same arrays and leave the workload in the state
        those calls would leave it in: every random draw made, and
        nothing drawn ahead of the segment. A subclass that overrides
        ``request`` must therefore override this method too.
        """
        encoded: List[int] = []
        touched: List[int] = []
        put = encoded.extend
        request = self.request
        for i in range(start, stop):
            ops = request(i % cores)
            reads, read_runs = ops.app_reads, ops.read_runs
            writes, write_runs = ops.app_writes, ops.write_runs
            response = ops.response_blocks
            put((len(reads), len(read_runs), len(writes), len(write_runs), response))
            put(reads)
            n = len(reads) + len(writes) + packet_blocks + response
            for run_start, run_n in read_runs:
                put((run_start, run_n))
                n += run_n
            put(writes)
            for run_start, run_n in write_runs:
                put((run_start, run_n))
                n += run_n
            touched.append(n)
        return np.array(encoded, np.int64), np.array(touched, np.int64)

    def warm_state(self) -> "Workload":
        """This built workload as a warm-state snapshot stores it
        (DESIGN.md §14): the workload itself, unless an override leaves
        out state that :meth:`build` fixes from the seed alone."""
        return self

    def adopt_warm_state(self, warm: "Workload") -> None:
        """Take over ``warm``, a snapshot's :meth:`warm_state` of a
        workload built as this one was, in place, so every reference to
        this workload sees the restored state. An override grafts back
        what its ``warm_state`` left out, from this workload's build."""
        self.__dict__.clear()
        self.__dict__.update(warm.__dict__)

    def cache_key(self) -> str:
        """Deterministic identity for persistent result caching.

        Must cover everything that influences the access stream of a
        freshly built instance. The default covers the class plus its
        ``params`` dataclass; subclasses with extra constructor state
        must extend it.
        """
        return f"{type(self).__name__}({getattr(self, 'params', None)!r})"

    def extra_delay_us(self) -> float:
        """Occasional extra service delay (spiky workloads override)."""
        return 0.0

    def request_cycles(self, ops: RequestOps, packet_blocks: int) -> float:
        """Non-memory CPU work for one request, in cycles."""
        touched = ops.num_app_accesses + packet_blocks + ops.response_blocks
        return self.base_cycles + self.cycles_per_block * touched
