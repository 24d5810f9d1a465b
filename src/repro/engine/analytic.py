"""Analytic throughput model: trace statistics → peak sustainable Mrps.

The paper measures "the peak network bandwidth the CPU can effectively
handle in each system configuration". In this reproduction that peak is
the fixed point of a closed service loop:

* a request's service time is its base CPU work plus the latency of its
  cache/memory accesses (with a memory-level-parallelism divisor per
  level standing in for the out-of-order core);
* memory latency depends on DRAM utilization via the load-latency curve;
* DRAM utilization depends on throughput times the per-request memory
  traffic measured by the trace engine.

Higher per-request memory traffic therefore lowers peak throughput twice
over — more time waiting on memory *and* hotter memory — which is
exactly the paper's leak-interference mechanism. Throughput is capped at
95% core utilization, standing in for the paper's generous p99 SLO of
100x the average service time, and at the DRAM stability limit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict

from repro.cache.hierarchy import AccessLevel
from repro.engine.tracer import TraceResult
from repro.errors import ConfigError
from repro.mem.dram import MAX_STABLE_UTILIZATION, DramModel
from repro.params import CACHE_BLOCK_BYTES, SystemConfig
from repro.traffic import MemCategory

#: Core-utilization cap standing in for the paper's p99 latency SLO.
CORE_UTILIZATION_CAP = 0.95


@dataclass(frozen=True)
class ServiceProfile:
    """Per-request averages extracted from a steady-state trace."""

    l1_accesses: float
    l2_accesses: float
    llc_accesses: float
    mem_reads: float
    mem_blocks_total: float
    cpu_work_cycles: float

    @classmethod
    def from_trace(cls, trace: TraceResult) -> "ServiceProfile":
        levels = trace.levels_per_request()
        return cls(
            l1_accesses=levels.get(AccessLevel.L1, 0.0),
            l2_accesses=levels.get(AccessLevel.L2, 0.0),
            llc_accesses=levels.get(AccessLevel.LLC, 0.0),
            mem_reads=levels.get(AccessLevel.MEM, 0.0),
            mem_blocks_total=trace.mem_accesses_per_request(),
            cpu_work_cycles=trace.cpu_work_cycles,
        )

    def with_extra_cycles(self, cycles: float) -> "ServiceProfile":
        return dataclasses.replace(
            self, cpu_work_cycles=self.cpu_work_cycles + cycles
        )


@dataclass(frozen=True)
class PerfPoint:
    """Performance at one operating point."""

    throughput_mrps: float
    mem_bandwidth_gbps: float
    mem_utilization: float
    mem_latency_cycles: float
    mem_p99_latency_cycles: float
    service_cycles: float
    core_limited: bool

    def service_us(self, system: SystemConfig) -> float:
        """Mean request service time in microseconds."""
        return self.service_cycles / system.cpu.cycles_per_us

    def network_gbps(self, packet_bytes: int) -> float:
        """Ingress network bandwidth implied by the throughput."""
        return self.throughput_mrps * packet_bytes * 8.0 / 1000.0


def bandwidth_gbps(profile: ServiceProfile, throughput_mrps: float) -> float:
    """DRAM bandwidth demand at a given request throughput."""
    bytes_per_request = profile.mem_blocks_total * CACHE_BLOCK_BYTES
    return throughput_mrps * bytes_per_request / 1000.0


def service_cycles(
    profile: ServiceProfile, system: SystemConfig, mem_latency_cycles: float
) -> float:
    """Mean request service time at a given loaded memory latency.

    LLC hits pay a fraction (``llc_load_coupling``) of the DRAM queueing
    delay on top of the nominal LLC latency — the shared fill/writeback
    machinery couples LLC service to memory pressure.
    """
    cpu = system.cpu
    queueing = max(
        mem_latency_cycles - system.memory.idle_latency_cycles, 0.0
    )
    llc_latency = (
        system.llc.latency_cycles
        + system.nic.noc_latency_cycles
        + cpu.llc_load_coupling * queueing
    )
    return (
        profile.cpu_work_cycles
        + profile.l2_accesses * system.l2.latency_cycles / cpu.mlp_l2
        + profile.llc_accesses * llc_latency / cpu.mlp_llc
        + profile.mem_reads * mem_latency_cycles / cpu.mlp_mem
    )


def _capacity_mrps(
    profile: ServiceProfile, system: SystemConfig, throughput_mrps: float
) -> float:
    """Throughput the cores could sustain given the load at ``X``."""
    dram = DramModel(system.memory, system.cpu.freq_ghz)
    latency = dram.avg_latency_cycles(bandwidth_gbps(profile, throughput_mrps))
    cycles = service_cycles(profile, system, latency)
    per_core_mrps = system.cpu.cycles_per_us / cycles
    return CORE_UTILIZATION_CAP * system.cpu.num_cores * per_core_mrps


def perf_at_load(
    profile: ServiceProfile, system: SystemConfig, throughput_mrps: float
) -> PerfPoint:
    """Evaluate the model at an externally chosen throughput."""
    if throughput_mrps < 0:
        raise ConfigError("throughput must be non-negative")
    dram = DramModel(system.memory, system.cpu.freq_ghz)
    bw = bandwidth_gbps(profile, throughput_mrps)
    latency = dram.avg_latency_cycles(bw)
    return PerfPoint(
        throughput_mrps=throughput_mrps,
        mem_bandwidth_gbps=bw,
        mem_utilization=dram.utilization(bw),
        mem_latency_cycles=latency,
        mem_p99_latency_cycles=dram.p99_latency_cycles(bw),
        service_cycles=service_cycles(profile, system, latency),
        core_limited=False,
    )


def solve_peak_throughput(
    profile: ServiceProfile, system: SystemConfig, tol: float = 1e-6
) -> PerfPoint:
    """Peak sustainable throughput: fixed point of the service loop.

    Capacity decreases monotonically with offered load (memory only gets
    slower), so the fixed point is unique and bisection on
    ``capacity(X) - X`` converges. The DRAM stability limit bounds the
    search when traffic per request is high enough to saturate memory.
    """
    dram = DramModel(system.memory, system.cpu.freq_ghz)
    bytes_per_request = profile.mem_blocks_total * CACHE_BLOCK_BYTES
    if bytes_per_request > 0:
        x_bw_limit = (
            MAX_STABLE_UTILIZATION
            * dram.usable_bandwidth_gbps
            * 1000.0
            / bytes_per_request
        )
    else:
        x_bw_limit = float("inf")

    x_core = _capacity_mrps(profile, system, 0.0)
    hi = min(x_core, x_bw_limit)
    if _capacity_mrps(profile, system, hi) >= hi:
        # Cores saturate before memory does.
        point = perf_at_load(profile, system, hi)
        return dataclasses.replace(point, core_limited=True)

    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _capacity_mrps(profile, system, mid) >= mid:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(hi, 1.0):
            break
    return perf_at_load(profile, system, lo)


@dataclass(frozen=True)
class CollocatedPerf:
    """Joint operating point of a network tenant and an X-Mem tenant."""

    nf_throughput_mrps: float
    xmem_ipc: float
    mem_bandwidth_gbps: float
    mem_latency_cycles: float

    @property
    def throughput_mrps(self) -> float:
        """The NF's throughput: what a collocated point's row reports."""
        return self.nf_throughput_mrps


def solve_collocated(
    nf_profile: ServiceProfile,
    xmem_level_rates: Dict[AccessLevel, float],
    xmem_blocks_per_access: float,
    system: SystemConfig,
    nf_cores: int,
    xmem_cores: int,
    instructions_per_access: float = 4.0,
    iterations: int = 100,
) -> CollocatedPerf:
    """Fixed point for the §VI-E collocation scenario.

    Both tenants share the memory channels: the NF's peak throughput and
    X-Mem's access rate each depend on the loaded memory latency, which
    depends on their combined bandwidth. Damped iteration converges
    because both demands fall monotonically as latency rises.

    ``nf_profile`` must describe only the NF's traffic (blocks/request),
    and ``xmem_blocks_per_access`` only X-Mem's — the collocation trace
    separates them by traffic category.
    """
    if nf_cores <= 0 or xmem_cores <= 0:
        raise ConfigError("collocation needs both tenants")
    dram = DramModel(system.memory, system.cpu.freq_ghz)
    latency = float(system.memory.idle_latency_cycles)
    bw_limit = MAX_STABLE_UTILIZATION * dram.usable_bandwidth_gbps
    nf_x = 0.0
    xm_rate = 0.0

    def demand(nf, xm) -> float:
        return (
            nf * nf_profile.mem_blocks_total * CACHE_BLOCK_BYTES
            + xm * xmem_blocks_per_access * CACHE_BLOCK_BYTES
        ) / 1000.0

    for _ in range(iterations):
        cycles = service_cycles(nf_profile, system, latency)
        nf_target = (
            CORE_UTILIZATION_CAP * nf_cores * system.cpu.cycles_per_us / cycles
        )
        ipc = xmem_ipc(
            xmem_level_rates,
            system,
            latency,
            instructions_per_access=instructions_per_access,
        )
        accesses_per_cycle = ipc / (instructions_per_access + 1.0)
        xm_target = xmem_cores * accesses_per_cycle * system.cpu.cycles_per_us
        # Memory stability constraint: when the tenants' combined demand
        # would overrun the channels, both are rationed proportionally —
        # the writeback/refill machinery stalls each in proportion to
        # the bandwidth it consumes. This is how consumed-buffer
        # evictions throttle an otherwise core-bound NF (§VI-E).
        bw_target = demand(nf_target, xm_target)
        if bw_target > bw_limit:
            ration = bw_limit / bw_target
            nf_target *= ration
            xm_target *= ration
        nf_x = 0.5 * (nf_x + nf_target)
        xm_rate = 0.5 * (xm_rate + xm_target)
        latency = dram.avg_latency_cycles(min(demand(nf_x, xm_rate), bw_limit))
    bw = demand(nf_x, xm_rate)
    # Effective IPC follows from the achieved (possibly rationed) access
    # rate: xm_rate accesses/us complete instructions_per_access + 1
    # instructions each across xmem_cores cores.
    effective_ipc = (
        xm_rate
        * (instructions_per_access + 1.0)
        / (xmem_cores * system.cpu.cycles_per_us)
    )
    return CollocatedPerf(
        nf_throughput_mrps=nf_x,
        xmem_ipc=effective_ipc,
        mem_bandwidth_gbps=bw,
        mem_latency_cycles=latency,
    )


def solve_collocated_trace(
    trace: TraceResult, system: SystemConfig
) -> CollocatedPerf:
    """:func:`solve_collocated` for a ``CollocationSimulator`` trace.

    The trace counts both tenants. X-Mem's traffic is the app reads and
    evictions, so the NF's memory blocks per request are the rest; the
    NF runs on the lower half of the cores and X-Mem on the upper half.
    """
    cores = system.cpu.num_cores
    per_req = trace.per_request()
    app = per_req[MemCategory.CPU_OTHER_RD] + per_req[MemCategory.OTHER_EVCT]
    nf_profile = dataclasses.replace(
        ServiceProfile.from_trace(trace),
        mem_blocks_total=trace.mem_accesses_per_request() - app,
    )
    return solve_collocated(
        nf_profile,
        trace.xmem_level_counts,
        app * trace.requests / max(trace.xmem_accesses, 1),
        system,
        nf_cores=cores // 2,
        xmem_cores=cores - cores // 2,
    )


def xmem_ipc(
    level_rates: Dict[AccessLevel, float],
    system: SystemConfig,
    mem_latency_cycles: float,
    instructions_per_access: float = 4.0,
    alu_ipc: float = 2.0,
    access_mlp: float = 1.6,
) -> float:
    """Instructions-per-cycle of an X-Mem tenant given its hit profile.

    ``level_rates`` are per-access fractions serviced at each level (from
    the collocation trace). Random dependent accesses overlap little, so
    a small MLP divisor applies. Absolute IPC is not meaningful — Figure
    9 normalizes — but the relative ordering tracks AMAT faithfully.
    """
    total = sum(level_rates.values())
    if total <= 0:
        raise ConfigError("level_rates must describe at least one access")
    rates = {lv: r / total for lv, r in level_rates.items()}
    queueing = max(
        mem_latency_cycles - system.memory.idle_latency_cycles, 0.0
    )
    amat = (
        rates.get(AccessLevel.L1, 0.0) * system.l1.latency_cycles
        + rates.get(AccessLevel.L2, 0.0) * system.l2.latency_cycles
        + rates.get(AccessLevel.LLC, 0.0)
        * (
            system.llc.latency_cycles
            + system.nic.noc_latency_cycles
            + system.cpu.llc_load_coupling * queueing
        )
        + rates.get(AccessLevel.MEM, 0.0) * mem_latency_cycles
    )
    cycles_per_iteration = instructions_per_access / alu_ipc + amat / access_mlp
    return (instructions_per_access + 1.0) / cycles_per_iteration
