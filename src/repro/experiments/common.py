"""Shared plumbing for the per-figure experiment harnesses.

An experiment is a grid of :class:`PointResult`-producing simulation
points. Each point runs the trace engine for the steady-state breakdown
and the analytic solver for peak throughput, exactly the two quantities
every figure of the paper plots.

``ExperimentSettings.from_env`` lets benchmark runs choose fidelity:
``REPRO_SCALE`` (machine scale factor, default ``DEFAULT_SCALE`` — a
2-3 core slice of the 24-core server with all capacity ratios
preserved) and ``REPRO_MEASURE`` (a multiplier on measured request
counts). ``DEFAULT_SCALE`` here is the single source of truth; the
benchmark conftest imports it.

Grid execution goes through :mod:`repro.engine.parallel`: ``run_point``
builds a picklable :class:`~repro.engine.parallel.PointSpec` and runs it
through the persistent point cache; figure modules build whole spec
lists and fan them out with ``run_points`` (``REPRO_WORKERS`` controls
the process count).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.analytic import (
    PerfPoint,
    ServiceProfile,
    solve_peak_throughput,
)
from repro.engine.parallel import PointSpec, run_cached_spec, run_points
from repro.engine.tracer import TraceConfig, TraceResult, TraceSimulator
from repro.errors import ConfigError
from repro.params import SystemConfig
from repro.report.tables import Table, format_breakdown
from repro.traffic import MemCategory
from repro.workloads.kvs import KvsParams, KvsWorkload
from repro.workloads.l3fwd import L3fwdParams, L3fwdWorkload

DEFAULT_SCALE = 0.1

#: version of the JSON result schema shared by ``--json`` and the
#: ``repro.serve`` API (``GET /jobs/<id>/result``).
RESULT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentSettings:
    """Fidelity knobs for an experiment run."""

    scale: float = DEFAULT_SCALE
    measure_multiplier: float = 1.0

    @classmethod
    def from_env(cls) -> "ExperimentSettings":
        scale = float(os.environ.get("REPRO_SCALE", DEFAULT_SCALE))
        measure = float(os.environ.get("REPRO_MEASURE", 1.0))
        return cls(scale=scale, measure_multiplier=measure)

    def measure_requests(self, cfg: TraceConfig) -> int:
        return max(500, int(cfg.default_measure() * self.measure_multiplier))


@dataclass
class PointResult:
    """One simulated configuration (one bar of a paper figure)."""

    label: str
    system: SystemConfig
    trace: TraceResult
    profile: ServiceProfile
    perf: PerfPoint
    #: wall-clock seconds the trace simulation took (0.0 for legacy pickles)
    sim_seconds: float = 0.0
    #: True when this result was served from the persistent point cache
    from_cache: bool = False
    #: manifest-relative path of this point's epoch timeline JSONL, when
    #: the point was freshly simulated under REPRO_EPOCH (else None)
    timeline_file: Optional[str] = None
    #: cluster worker that simulated the point (stamped by the
    #: coordinator; None for local / cached results). Provenance only —
    #: deliberately excluded from point_row so served rows stay
    #: byte-identical regardless of which host simulated them.
    worker_id: Optional[str] = None
    #: manifest-relative path of this point's prime+probe JSONL, when
    #: the point ran an observer and was freshly simulated (else None)
    probe_file: Optional[str] = None
    #: True when the measured window was forked off a restored
    #: warm-state snapshot (REPRO_SNAPSHOTS, DESIGN.md §14). Provenance
    #: only — excluded from point_row like worker_id, because restored
    #: and re-simulated points are bit-identical by contract.
    warm_restored: bool = False

    @property
    def throughput_mrps(self) -> float:
        return self.perf.throughput_mrps

    @property
    def mem_bandwidth_gbps(self) -> float:
        return self.perf.mem_bandwidth_gbps

    @property
    def breakdown(self) -> Dict[MemCategory, float]:
        return self.trace.per_request()

    def full_scale_mrps(self, scale: float) -> float:
        """Throughput extrapolated to the unscaled 24-core machine."""
        if scale <= 0:
            raise ConfigError("scale must be positive")
        return self.throughput_mrps / scale


@dataclass
class FigureResult:
    """All points of one figure plus rendering/notes."""

    figure: str
    title: str
    points: List[PointResult] = field(default_factory=list)
    series: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    scale: float = DEFAULT_SCALE

    def point(self, label: str) -> PointResult:
        for p in self.points:
            if p.label == label:
                return p
        raise ConfigError(f"{self.figure}: no point labelled {label!r}")

    def labels(self) -> List[str]:
        return [p.label for p in self.points]

    def render(self) -> str:
        table = Table(
            [
                "Configuration",
                "Mrps (full-scale)",
                "Mem BW (GB/s)",
                "Mem acc/req",
                "sim time (s)",
            ],
            title=f"{self.figure}: {self.title} (machine scale={self.scale})",
        )
        for p in self.points:
            table.add_row(
                p.label,
                p.full_scale_mrps(self.scale),
                p.mem_bandwidth_gbps / self.scale,
                p.trace.mem_accesses_per_request(),
                p.sim_seconds,
            )
        lines = [table.render(), ""]
        lines.append("Per-request memory access breakdown:")
        for p in self.points:
            lines.append(f"  {p.label:32s} {format_breakdown(p.breakdown)}")
        if self.notes:
            lines.append("")
            lines.extend(f"NOTE: {n}" for n in self.notes)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def to_dict(self) -> Dict[str, object]:
        """The shared JSON result schema (CLI ``--json`` and the serve API)."""
        return figure_result_to_dict(self)


def point_row(point: PointResult, scale: float) -> Dict[str, object]:
    """One JSON-ready result row; the unit of the shared result schema.

    Every value is a plain float/str/bool computed deterministically from
    the point, so two identical simulations serialize byte-identically.
    The ``leak`` key appears only for observer points, so rows of every
    pre-existing experiment stay byte-identical too.
    """
    row: Dict[str, object] = {
        "label": point.label,
        "throughput_mrps": point.throughput_mrps,
        "full_scale_mrps": point.full_scale_mrps(scale),
        "mem_bandwidth_gbps": point.mem_bandwidth_gbps,
        "full_scale_mem_bandwidth_gbps": point.mem_bandwidth_gbps / scale,
        "mem_accesses_per_request": point.trace.mem_accesses_per_request(),
        "breakdown": {
            category.name: value
            for category, value in sorted(
                point.breakdown.items(), key=lambda kv: int(kv[0])
            )
        },
        "sim_seconds": point.sim_seconds,
        "from_cache": point.from_cache,
    }
    if point.trace.leak is not None:
        row["leak"] = point.trace.leak
    return row


def _jsonable(value: object) -> bool:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return all(
            isinstance(k, str) and _jsonable(v) for k, v in value.items()
        )
    return False


def figure_result_to_dict(result: FigureResult) -> Dict[str, object]:
    """Serialize a :class:`FigureResult` to the shared result schema.

    ``series`` entries that are not plain JSON values (numpy arrays,
    latency-curve objects) are dropped rather than stringified — the
    schema promises machine-readable values only.
    """
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "figure": result.figure,
        "title": result.title,
        "scale": result.scale,
        "rows": [point_row(p, result.scale) for p in result.points],
        "series": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in result.series.items()
            if _jsonable(v)
        },
        "notes": list(result.notes),
    }


def point_spec(
    label: str,
    system: SystemConfig,
    workload,
    policy: str,
    sweeper: bool = False,
    queued_depth: int = 1,
    settings: Optional[ExperimentSettings] = None,
    nic_tx_sweep: bool = False,
    seed: int = 42,
    observer=None,
    burst=None,
    measure_requests: Optional[int] = None,
    measure_ddio_ways: Optional[int] = None,
    colocation=None,
) -> PointSpec:
    """Describe one grid point as a picklable, cacheable spec.

    The settings' measure-request count is resolved here so the spec is
    self-contained (and so fidelity knobs participate in the cache
    fingerprint). An explicit ``measure_requests`` overrides the
    settings-derived count (the figS* observers need more probes than
    the default measure window provides). ``measure_ddio_ways`` narrows
    or widens the DDIO way mask at the warmup->measure boundary only —
    the knob that lets a way-mask sweep share one warmup snapshot
    (DESIGN.md §14). ``colocation`` adds the X-Mem tenant of Figure 9.
    """
    settings = settings if settings is not None else ExperimentSettings()
    if measure_requests is None:
        cfg = TraceConfig(
            system=system,
            workload=workload,
            policy=policy,
            sweeper=sweeper,
            nic_tx_sweep=nic_tx_sweep,
            queued_depth=queued_depth,
            seed=seed,
        )
        measure_requests = settings.measure_requests(cfg)
    return PointSpec(
        label=label,
        system=system,
        workload=workload,
        policy=policy,
        sweeper=sweeper,
        nic_tx_sweep=nic_tx_sweep,
        queued_depth=queued_depth,
        seed=seed,
        measure_requests=measure_requests,
        observer=observer,
        burst=burst,
        measure_ddio_ways=measure_ddio_ways,
        colocation=colocation,
    )


def run_point(
    label: str,
    system: SystemConfig,
    workload,
    policy: str,
    sweeper: bool = False,
    queued_depth: int = 1,
    settings: Optional[ExperimentSettings] = None,
    nic_tx_sweep: bool = False,
    seed: int = 42,
) -> PointResult:
    """Trace one configuration and solve its peak operating point."""
    return run_cached_spec(
        point_spec(
            label,
            system,
            workload,
            policy,
            sweeper=sweeper,
            queued_depth=queued_depth,
            settings=settings,
            nic_tx_sweep=nic_tx_sweep,
            seed=seed,
        )
    )


def kvs_workload(scale: float, item_bytes: int) -> KvsWorkload:
    """The paper's MICA configuration, shrunk with the machine."""
    return KvsWorkload(KvsParams(item_bytes=item_bytes).scaled(scale))


def l3fwd_workload(packet_bytes: int, l1_resident: bool = False) -> L3fwdWorkload:
    params = L3fwdParams(packet_blocks=(packet_bytes + 63) // 64)
    if l1_resident:
        params = params.l1_resident()
    return L3fwdWorkload(params)


def kvs_system(
    scale: float,
    rx_buffers: int,
    ddio_ways: int,
    packet_bytes: int,
    num_channels: int = 4,
) -> SystemConfig:
    """Table I machine at ``scale`` with the experiment's NIC knobs."""
    return (
        SystemConfig()
        .scaled(scale)
        .with_nic(
            ddio_ways=ddio_ways,
            rx_buffers_per_core=rx_buffers,
            packet_bytes=packet_bytes,
        )
        .with_memory(num_channels=num_channels)
    )


def policy_label(policy: str, ways: int, sweeper: bool) -> str:
    if policy == "dma":
        return "DMA + Sweeper" if sweeper else "DMA"
    if policy == "ideal":
        return "Ideal DDIO + Sweeper" if sweeper else "Ideal DDIO"
    stem = {"ddio": "DDIO", "occamy": "Occamy", "rdca": "RDCA"}.get(policy)
    if stem is None:
        raise ConfigError(f"no label for policy {policy!r}")
    name = f"{stem} {ways} Ways"
    return f"{name} + Sweeper" if sweeper else name
