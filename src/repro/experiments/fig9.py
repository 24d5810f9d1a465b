"""Figure 9: collocation of a network-intensive and a memory-intensive
tenant (§VI-E).

L3fwd (L1-resident dataset, 2048 RX buffers/core, 1 KB packets) runs on
half the cores; X-Mem (2 MB private dataset per process) on the other
half. Two partitioning scenarios:

* 9a — disjoint LLC partitions (A, B) with A + B = 12: DDIO confined to
  the A ways, X-Mem fills confined to the B ways;
* 9b — overlapping: X-Mem may use the whole LLC while DDIO ways sweep
  2..12.

Each point reports L3fwd throughput and X-Mem IPC from the collocated
fixed point; the rendered series are normalized the way the paper plots
them ((4,8)+Sweeper for 9a; 6-way/2-way Sweeper for 9b).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

from repro.engine.analytic import (
    CollocatedPerf,
    ServiceProfile,
    solve_collocated,
)
from repro.engine.parallel import PointSpec, run_points
from repro.experiments.common import (
    ExperimentSettings,
    FigureResult,
    PointResult,
    kvs_system,
    l3fwd_workload,
    point_spec,
)
from repro.traffic import MemCategory
from repro.workloads.xmem import Colocation

PARTITIONS_9A = ((2, 10), (4, 8), (6, 6), (8, 4), (10, 2))
OVERLAP_WAYS_9B = (2, 4, 6, 8, 10, 12)
PACKET_BYTES = 1024
RX_BUFFERS = 2048
LLC_WAYS = 12


@dataclass
class CollocationPoint:
    """One collocated configuration's joint performance."""

    label: str
    ddio_ways: int
    xmem_ways: Optional[int]
    sweeper: bool
    perf: CollocatedPerf
    nf_blocks_per_request: float
    xmem_blocks_per_access: float


def clamp(settings: ExperimentSettings) -> ExperimentSettings:
    """Collocation needs at least one core per tenant: clamp the scale
    so the shrunken machine still has two cores."""
    return dataclasses.replace(settings, scale=max(settings.scale, 2.01 / 24))


def collocated_spec(
    settings: ExperimentSettings, ddio_ways: int, sweeper: bool, partitioned: bool
) -> PointSpec:
    """One collocated point: DDIO gets ``ddio_ways`` ways and X-Mem the
    rest (9a), or X-Mem shares the whole LLC (9b)."""
    colocation = Colocation()
    if partitioned:
        colocation = Colocation(
            xmem_ways=tuple(range(ddio_ways, LLC_WAYS)),
            nf_ways=tuple(range(ddio_ways)),
        )
    xmem_ways = LLC_WAYS - ddio_ways if partitioned else "overlap"
    return point_spec(
        f"DDIO {ddio_ways} ways / X-Mem {xmem_ways} ways"
        + (" + Sweeper" if sweeper else ""),
        kvs_system(settings.scale, RX_BUFFERS, ddio_ways, PACKET_BYTES),
        l3fwd_workload(PACKET_BYTES, l1_resident=True),
        "ddio",
        sweeper=sweeper,
        settings=settings,
        colocation=colocation,
    )


def specs(settings: ExperimentSettings) -> List[PointSpec]:
    """The 22 collocated points: 9a's partitions, then 9b's overlaps."""
    settings = clamp(settings)
    return [
        collocated_spec(settings, a, sweeper, partitioned=True)
        for a, _b in PARTITIONS_9A
        for sweeper in (False, True)
    ] + [
        collocated_spec(settings, ways, sweeper, partitioned=False)
        for ways in OVERLAP_WAYS_9B
        for sweeper in (False, True)
    ]


def collocated_point(spec: PointSpec, result: PointResult) -> CollocationPoint:
    """Solve the joint NF + X-Mem operating point of a simulated spec."""
    cores = spec.system.cpu.num_cores
    trace = result.trace
    per_req = trace.per_request()
    app = per_req[MemCategory.CPU_OTHER_RD] + per_req[MemCategory.OTHER_EVCT]
    nf_blocks = trace.mem_accesses_per_request() - app
    nf_profile = dataclasses.replace(
        ServiceProfile.from_trace(trace), mem_blocks_total=nf_blocks
    )
    xmem_blocks = app * trace.requests / max(trace.xmem_accesses, 1)
    perf = solve_collocated(
        nf_profile,
        trace.xmem_level_counts,
        xmem_blocks,
        spec.system,
        nf_cores=cores // 2,
        xmem_cores=cores - cores // 2,
    )
    xmem_ways = spec.colocation.xmem_ways
    return CollocationPoint(
        label=spec.label,
        ddio_ways=spec.system.nic.ddio_ways,
        xmem_ways=None if xmem_ways is None else len(xmem_ways),
        sweeper=spec.sweeper,
        perf=perf,
        nf_blocks_per_request=nf_blocks,
        xmem_blocks_per_access=xmem_blocks,
    )


def run(
    scale: Optional[float] = None,
    settings: Optional[ExperimentSettings] = None,
) -> FigureResult:
    settings = settings or ExperimentSettings.from_env()
    if scale is not None:
        settings = ExperimentSettings(scale, settings.measure_multiplier)
    settings = clamp(settings)
    result = FigureResult(
        figure="Figure 9",
        title="Collocated L3fwd + X-Mem performance",
        scale=settings.scale,
    )
    spec_list = specs(settings)
    partitioned, overlapping = {}, {}
    for spec, point in zip(spec_list, run_points(spec_list, run_label="fig9")):
        p = collocated_point(spec, point)
        panel = overlapping if p.xmem_ways is None else partitioned
        panel[(p.ddio_ways, p.sweeper)] = p
    result.series["partitioned"] = partitioned
    result.series["overlapping"] = overlapping

    ref_a = partitioned[(4, True)]
    frontier = {
        (a, sw): (
            p.perf.nf_throughput_mrps / ref_a.perf.nf_throughput_mrps,
            p.perf.xmem_ipc / ref_a.perf.xmem_ipc,
        )
        for (a, sw), p in partitioned.items()
    }
    result.series["frontier_normalized"] = frontier

    gains_nf = []
    gains_xm = []
    for a, _b in PARTITIONS_9A:
        base = partitioned[(a, False)]
        sw = partitioned[(a, True)]
        gains_nf.append(sw.perf.nf_throughput_mrps / base.perf.nf_throughput_mrps)
        gains_xm.append(sw.perf.xmem_ipc / base.perf.xmem_ipc)
    result.notes.append(
        "9a partitions: Sweeper boosts L3fwd by "
        f"{min(gains_nf):.2f}x-{max(gains_nf):.2f}x and X-Mem IPC by "
        f"{min(gains_xm):.2f}x-{max(gains_xm):.2f}x "
        "(paper at (4,8): 1.5x and 1.14x)."
    )
    xm_overlap = [
        overlapping[(w, True)].perf.xmem_ipc
        / overlapping[(w, False)].perf.xmem_ipc
        for w in OVERLAP_WAYS_9B
    ]
    result.notes.append(
        "9b overlapping: Sweeper boosts X-Mem IPC by "
        f"{min(xm_overlap):.2f}x-{max(xm_overlap):.2f}x (paper: 1.18x-1.42x); "
        "with Sweeper, L3fwd throughput is insensitive to DDIO way count."
    )
    return result


if __name__ == "__main__":  # pragma: no cover - thin CLI shim
    import sys

    from repro.experiments.__main__ import main

    sys.exit(main(["fig9", *sys.argv[1:]]))
