"""Simulation engines: trace-driven cache layer, analytic solver, events."""

from repro.engine.tracer import CollocationResult, TraceConfig, TraceResult, TraceSimulator
from repro.engine.analytic import (
    PerfPoint,
    ServiceProfile,
    perf_at_load,
    solve_peak_throughput,
    xmem_ipc,
)
from repro.engine.events import DropSimResult, FiniteRingSimulator
from repro.engine.dynamic import DynamicWaysSimulator
from repro.engine.provenance import result_identity

__all__ = [
    "CollocationResult",
    "DropSimResult",
    "DynamicWaysSimulator",
    "FiniteRingSimulator",
    "PerfPoint",
    "ServiceProfile",
    "TraceConfig",
    "TraceResult",
    "TraceSimulator",
    "perf_at_load",
    "result_identity",
    "solve_peak_throughput",
    "xmem_ipc",
]
