"""Microbenchmark of the simulator's hot paths (insert / cpu_access).

Measures raw operation throughput of the set-associative cache and the
hierarchy cascade, plus one end-to-end trace point, and archives the
numbers to ``results/hotpath_micro.txt`` so speedups/regressions are
visible across commits. The thresholds only guard against catastrophic
regressions — absolute ops/sec are machine-dependent.
"""

from __future__ import annotations

import time

from repro.cache.hierarchy import AccessLevel, CacheHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.experiments.common import (
    ExperimentSettings,
    kvs_system,
    kvs_workload,
    point_spec,
)
from repro.engine.parallel import run_spec
from repro.mem.layout import RegionKind
from repro.params import CacheParams, SystemConfig

from benchmarks.conftest import emit


def _ops_per_sec(fn, n: int) -> float:
    start = time.perf_counter()
    fn(n)
    return n / (time.perf_counter() - start)


def _bench_insert(cache: SetAssociativeCache, blocks: int):
    def body(n: int) -> None:
        insert = cache.insert
        kind = int(RegionKind.APP)
        for i in range(n):
            insert(i % blocks, True, kind)

    return body


def _bench_access(cache: SetAssociativeCache, blocks: int):
    def body(n: int) -> None:
        access = cache.access
        for i in range(n):
            access(i % blocks)

    return body


def _bench_cpu_access(hier: CacheHierarchy, blocks: int):
    def body(n: int) -> None:
        cpu_access = hier.cpu_access
        kind = RegionKind.APP
        for i in range(n):
            cpu_access(0, i % blocks, kind, False)

    return body


def _bench_cpu_access_run(hier: CacheHierarchy, blocks: int, run: int = 16):
    def body(n: int) -> None:
        counts = {lv: 0 for lv in AccessLevel}
        cpu_access_run = hier.cpu_access_run
        kind = RegionKind.APP
        for i in range(n // run):
            cpu_access_run(0, (i * run) % blocks, run, kind, False, counts)

    return body


def test_hotpath_micro(results_dir):
    params = CacheParams(size_bytes=12 * 64 * 1024, ways=12, latency_cycles=10)
    lru = SetAssociativeCache(params)
    rnd = SetAssociativeCache(
        CacheParams(
            size_bytes=12 * 64 * 1024, ways=12, latency_cycles=10, replacement="random"
        )
    )
    hier = CacheHierarchy(SystemConfig().scaled(0.1))
    # Working set ~4x the cache so steady state mixes hits and evictions.
    blocks = 4 * params.num_blocks

    n = 200_000
    rows = [
        ("insert (LRU)", _ops_per_sec(_bench_insert(lru, blocks), n)),
        ("insert (random)", _ops_per_sec(_bench_insert(rnd, blocks), n)),
        ("access (LRU)", _ops_per_sec(_bench_access(lru, blocks), n)),
        ("cpu_access (3-level)", _ops_per_sec(_bench_cpu_access(hier, blocks), n)),
        (
            "cpu_access_run (3-level)",
            _ops_per_sec(_bench_cpu_access_run(hier, blocks), n),
        ),
    ]

    # One end-to-end point at the profiling reference configuration
    # (REPRO_SCALE=0.1): the ISSUE's >=2x speedup target is over this.
    settings = ExperimentSettings(scale=0.1, measure_multiplier=1.0)
    spec = point_spec(
        "end-to-end point",
        kvs_system(0.1, 1024, 2, 1024),
        kvs_workload(0.1, 1024),
        "ddio",
        settings=settings,
    )
    point = run_spec(spec)
    rows.append(("end-to-end point (s)", point.sim_seconds))

    lines = ["hot-path microbenchmark (ops/sec unless noted)"]
    lines += [f"  {name:28s} {value:>14,.0f}" for name, value in rows[:-1]]
    lines.append(f"  {rows[-1][0]:28s} {rows[-1][1]:>14.3f}")
    emit(results_dir, "hotpath_micro", "\n".join(lines))

    # Catastrophic-regression guards only (generous: CI machines vary).
    assert dict(rows)["insert (LRU)"] > 100_000
    assert dict(rows)["cpu_access (3-level)"] > 50_000
    assert point.sim_seconds < 60.0
