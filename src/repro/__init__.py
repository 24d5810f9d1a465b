"""Sweeper (MICRO 2022) reproduction library.

Reproduces "Patching up Network Data Leaks with Sweeper" (Vemmou, Cho,
Daglis): a trace-driven cache/DDIO/DRAM simulator, the Sweeper
relinquish/clsweep mechanism, the paper's workloads (MICA-shaped KVS,
L3 forwarder, X-Mem), and experiment harnesses regenerating every figure
of the evaluation.

Quickstart::

    from repro import (
        SystemConfig, TraceConfig, TraceSimulator,
        KvsWorkload, KvsParams, ServiceProfile, solve_peak_throughput,
    )

    system = SystemConfig().with_nic(ddio_ways=2, rx_buffers_per_core=1024)
    cfg = TraceConfig(system=system, workload=KvsWorkload(), sweeper=True)
    trace = TraceSimulator(cfg).run()
    peak = solve_peak_throughput(ServiceProfile.from_trace(trace), system)
    print(trace.per_request(), peak.throughput_mrps)
"""

from repro.params import (
    CACHE_BLOCK_BYTES,
    CacheParams,
    CpuParams,
    MemoryParams,
    NicParams,
    SystemConfig,
    TABLE1,
)
from repro.traffic import MemCategory, TrafficCounter
from repro.mem.layout import AddressSpace, Region, RegionKind
from repro.mem.dram import DramModel, DramSampler
from repro.cache.hierarchy import AccessLevel, CacheHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.api import Sweeper, SweepStats
from repro.core.pageguard import OsPageManager, ZeroingMethod
from repro.nic.ddio import DdioPolicy, DmaPolicy, IdealDdioPolicy, make_policy
from repro.nic.rings import RxRing, TxRing
from repro.nic.qp import NicEngine, QueuePair, WorkQueueEntry
from repro.workloads.kvs import KvsParams, KvsWorkload
from repro.workloads.l3fwd import L3fwdParams, L3fwdWorkload
from repro.workloads.xmem import Colocation, XMemParams, XMemWorkload
from repro.workloads.spiky import SpikyKvsWorkload
from repro.engine.tracer import (
    CollocationSimulator,
    TraceConfig,
    TraceResult,
    TraceSimulator,
)
from repro.engine.analytic import (
    PerfPoint,
    ServiceProfile,
    perf_at_load,
    solve_peak_throughput,
    xmem_ipc,
)
from repro.engine.events import DropSimResult, FiniteRingSimulator
from repro.engine.dynamic import DynamicWaysSimulator
from repro.nic.dynamic import DynamicDdioController, DynamicWaysConfig
from repro.stack.dataplane import Dataplane, DataplaneConfig
from repro.stack.mbuf import Mbuf, MbufState
from repro.stack.mempool import Mempool

__version__ = "1.0.0"

__all__ = [
    "AccessLevel",
    "AddressSpace",
    "CACHE_BLOCK_BYTES",
    "CacheHierarchy",
    "CacheParams",
    "Colocation",
    "CollocationSimulator",
    "CpuParams",
    "DdioPolicy",
    "DmaPolicy",
    "DramModel",
    "DramSampler",
    "Dataplane",
    "DataplaneConfig",
    "DropSimResult",
    "DynamicDdioController",
    "DynamicWaysConfig",
    "DynamicWaysSimulator",
    "Mbuf",
    "MbufState",
    "Mempool",
    "FiniteRingSimulator",
    "IdealDdioPolicy",
    "KvsParams",
    "KvsWorkload",
    "L3fwdParams",
    "L3fwdWorkload",
    "MemCategory",
    "MemoryParams",
    "NicEngine",
    "NicParams",
    "OsPageManager",
    "PerfPoint",
    "QueuePair",
    "Region",
    "RegionKind",
    "RxRing",
    "ServiceProfile",
    "SetAssociativeCache",
    "SpikyKvsWorkload",
    "Sweeper",
    "SweepStats",
    "SystemConfig",
    "TABLE1",
    "TraceConfig",
    "TraceResult",
    "TraceSimulator",
    "TrafficCounter",
    "TxRing",
    "WorkQueueEntry",
    "XMemParams",
    "XMemWorkload",
    "ZeroingMethod",
    "make_policy",
    "perf_at_load",
    "solve_peak_throughput",
    "xmem_ipc",
]
