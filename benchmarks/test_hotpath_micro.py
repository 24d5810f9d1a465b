"""Microbenchmark of the simulator's hot paths (insert / cpu_access).

Measures raw operation throughput of the set-associative cache and the
hierarchy cascade, plus one end-to-end trace point, and archives the
numbers to ``results/hotpath_micro.txt`` so speedups/regressions are
visible across commits. The thresholds only guard against catastrophic
regressions — absolute ops/sec are machine-dependent.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cache.hierarchy import AccessLevel, CacheHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.engine import native
from repro.engine.batch import BatchHierarchy
from repro.experiments.common import (
    ExperimentSettings,
    kvs_system,
    kvs_workload,
    point_spec,
)
from repro.engine.parallel import run_spec
from repro.engine.tracer import TraceSimulator
from repro.errors import ConfigError
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


def _bench_point(engine: str):
    """Simulate the reference end-to-end point under one engine."""
    settings = ExperimentSettings(scale=0.1, measure_multiplier=1.0)
    spec = point_spec(
        "engine bench",
        kvs_system(0.1, 1024, 2, 1024),
        kvs_workload(0.1, 1024),
        "ddio",
        settings=settings,
    )
    prev = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = engine
    try:
        return run_spec(spec)
    finally:
        if prev is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = prev


def test_batch_engine_speedup(results_dir):
    """Object vs batch engine on the reference point -> BENCH_pr6.json.

    The committed JSON is the PR's perf receipt: per-engine wall time,
    the measured speedup, and per-op rates for the batched hierarchy
    entry points. Asserted thresholds are again catastrophic-regression
    guards only; the real numbers live in the artifact. Without a C
    compiler there is no batch engine to measure, so the test skips.
    """
    try:
        native.load_kernel()
    except ConfigError as exc:
        pytest.skip(f"batch kernel unavailable: {exc}")
    # batched hierarchy ops/sec (the vectorized seam the engine adds)
    batch_hier = BatchHierarchy(SystemConfig().scaled(0.1))
    blocks = 4 * batch_hier.llc.params.num_blocks
    rows = [
        (
            "cpu_access (batch)",
            _ops_per_sec(_bench_cpu_access(batch_hier, blocks), 200_000),
        ),
        (
            "cpu_access_run (batch)",
            _ops_per_sec(_bench_cpu_access_run(batch_hier, blocks), 200_000),
        ),
    ]

    obj = _bench_point("object")
    bat = _bench_point("batch")
    speedup = obj.sim_seconds / bat.sim_seconds
    # equal results are the contract that lets us compare wall time only
    assert bat.throughput_mrps == obj.throughput_mrps
    assert bat.trace.cache_totals == obj.trace.cache_totals

    payload = {
        "benchmark": "hotpath_micro/engine",
        "point": "kvs_system(0.1, 1024, 2, 1024) @ scale 0.1",
        "object_seconds": round(obj.sim_seconds, 4),
        "batch_seconds": round(bat.sim_seconds, 4),
        "speedup": round(speedup, 2),
        "ops_per_sec": {name: round(value) for name, value in rows},
    }
    (results_dir / "BENCH_pr6.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    lines = ["batch engine vs object engine (reference point)"]
    lines += [f"  {name:28s} {value:>14,.0f}" for name, value in rows]
    lines.append(f"  {'object (s)':28s} {obj.sim_seconds:>14.3f}")
    lines.append(f"  {'batch (s)':28s} {bat.sim_seconds:>14.3f}")
    lines.append(f"  {'speedup':28s} {speedup:>14.2f}x")
    emit(results_dir, "hotpath_engine", "\n".join(lines))

    # The target is >=5x; the guard is looser so slow shared CI
    # machines don't flap, while a real regression still fails.
    assert speedup > 2.0


def test_policy_zoo_bench(results_dir, monkeypatch):
    """Per-policy timings of the zoo's headline point -> BENCH_pr8.json.

    One reference point (the deep-backlog end of the policy-zoo
    scenario: D=16 on the MICA-style workload) simulated under every
    injection policy, cache bypassed so every wall time is a real
    simulation. The committed JSON is the scenario subsystem's perf
    receipt: the zoo policies must not make the hot path meaningfully
    slower than plain DDIO, and their traffic must differ from it.
    """
    from repro.scenario.points import POLICY_SPECS, build_point

    settings = ExperimentSettings(scale=0.1, measure_multiplier=1.0)

    def bench(policy):
        spec = build_point(
            {
                "label": f"zoo bench {policy}",
                "buffers": 1024,
                "ways": 2,
                "packet_bytes": 1024,
                "policy": policy,
                "queued_depth": 16,
            },
            default_scale=settings.scale,
        )
        prev = os.environ.get("REPRO_NO_CACHE")
        os.environ["REPRO_NO_CACHE"] = "1"
        try:
            return run_spec(spec)
        finally:
            if prev is None:
                os.environ.pop("REPRO_NO_CACHE", None)
            else:
                os.environ["REPRO_NO_CACHE"] = prev

    points = {policy: bench(policy) for policy in POLICY_SPECS}
    ddio = points["ddio"]
    # The zoo policies always take the per-request loop; on the batch
    # engine plain DDIO takes the fused native loop. The slowdown guard
    # below compares policies on the same loop, so it also times DDIO
    # with the fused loop turned off.
    with monkeypatch.context() as m:
        m.setattr(TraceSimulator, "_fusable", lambda self: False)
        ddio_loop = bench("ddio")
    assert ddio_loop.trace.cache_totals == ddio.trace.cache_totals
    payload = {
        "benchmark": "hotpath_micro/policy_zoo",
        "point": "kvs 1024B, 1024 buffers, 2 ways, D=16 @ scale 0.1",
        "policies": {
            policy: {
                "sim_seconds": round(p.sim_seconds, 4),
                "mem_accesses_per_request": round(
                    p.trace.mem_accesses_per_request(), 4
                ),
                "vs_ddio_seconds": round(
                    p.sim_seconds / ddio.sim_seconds, 2
                ),
            }
            for policy, p in points.items()
        },
    }
    (results_dir / "BENCH_pr8.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    lines = ["policy zoo: headline point per policy (D=16, no cache)"]
    for policy, p in points.items():
        lines.append(
            f"  {policy:28s} {p.sim_seconds:>10.3f}s "
            f"{p.trace.mem_accesses_per_request():>8.2f} mem/req"
        )
    emit(results_dir, "hotpath_policy_zoo", "\n".join(lines))

    # The zoo members must actually change behaviour vs plain DDIO...
    for policy in ("occamy", "rdca"):
        assert (
            points[policy].trace.mem_accesses_per_request()
            != ddio.trace.mem_accesses_per_request()
        ), policy
        # ...without catastrophically slowing the hot path (their
        # bookkeeping is O(1) per buffer by design).
        assert points[policy].sim_seconds < 5.0 * max(
            ddio_loop.sim_seconds, 0.1
        ), policy


def test_observer_overhead(results_dir):
    """Observer-off vs observer-on wall time -> BENCH_pr7.json.

    Both runs pin the same engine, the object engine, so the ratio
    isolates the prime+probe tenant's cost (per-request tick + periodic
    probes) and stays comparable with earlier receipts. Observer points
    run on the batch engine too (DESIGN.md §12).
    """
    from repro.experiments.figS1 import OBSERVER, burst_profile

    settings = ExperimentSettings(scale=0.1, measure_multiplier=1.0)

    def bench(observer, burst):
        spec = point_spec(
            "observer bench",
            kvs_system(0.1, 1024, 2, 1024),
            kvs_workload(0.1, 1024),
            "ddio",
            settings=settings,
            observer=observer,
            burst=burst,
        )
        prev = os.environ.get("REPRO_ENGINE")
        os.environ["REPRO_ENGINE"] = "object"
        try:
            return run_spec(spec)
        finally:
            if prev is None:
                os.environ.pop("REPRO_ENGINE", None)
            else:
                os.environ["REPRO_ENGINE"] = prev

    off = bench(None, None)
    on = bench(OBSERVER, burst_profile(1))
    overhead = on.sim_seconds / off.sim_seconds
    assert off.trace.leak is None
    assert on.trace.leak is not None and on.trace.leak["probes"] > 0

    payload = {
        "benchmark": "hotpath_micro/observer",
        "point": "kvs_system(0.1, 1024, 2, 1024) @ scale 0.1, object engine",
        "observer": repr(OBSERVER),
        "burst": repr(burst_profile(1)),
        "observer_off_seconds": round(off.sim_seconds, 4),
        "observer_on_seconds": round(on.sim_seconds, 4),
        "overhead": round(overhead, 2),
        "probes": on.trace.leak["probes"],
        "mi_bits": round(on.trace.leak["mi_bits"], 4),
    }
    (results_dir / "BENCH_pr7.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    lines = ["prime+probe observer overhead (reference point, object engine)"]
    lines.append(f"  {'observer off (s)':28s} {off.sim_seconds:>14.3f}")
    lines.append(f"  {'observer on (s)':28s} {on.sim_seconds:>14.3f}")
    lines.append(f"  {'overhead':28s} {overhead:>14.2f}x")
    lines.append(f"  {'probes':28s} {on.trace.leak['probes']:>14d}")
    emit(results_dir, "hotpath_observer", "\n".join(lines))

    # Catastrophic-regression guard: the tick is a cheap integer check
    # per request plus a probe sweep every OBSERVER.period requests.
    assert overhead < 3.0


def test_snapshot_sweep_bench(results_dir, tmp_path, monkeypatch):
    """Warm-state snapshots on a way-mask sweep -> BENCH_pr9.json.

    A fig5-style sweep of 8 points that differ only in the measured
    window's DDIO way mask (``measure_ddio_ways``) shares one warmup
    fingerprint, so with snapshots on the warmup is simulated once and
    the other 7 points fork off the restored state. The committed JSON
    is the snapshot subsystem's perf receipt: sweep wall time with
    snapshots off vs on, the restored count from the run manifest, and
    the bit-identity of every row against the snapshots-off baseline.
    """
    from repro.engine.parallel import last_run_dir, run_points
    from repro.experiments.common import point_row
    from repro.obs.manifest import RunManifest

    settings = ExperimentSettings(scale=0.1, measure_multiplier=0.5)
    masks = list(range(1, 9))

    def sweep_specs():
        # Fresh specs per run: simulators mutate workload state in place.
        return [
            point_spec(
                f"mask-{ways}",
                kvs_system(0.1, 1024, 2, 1024),
                kvs_workload(0.1, 1024),
                "ddio",
                settings=settings,
                measure_ddio_ways=ways,
            )
            for ways in masks
        ]

    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)

    def sweep(snapshots: bool, workers: int = 1, tag: str = ""):
        monkeypatch.setenv(
            "REPRO_CACHE_DIR",
            str(tmp_path / f"cache-{'on' if snapshots else 'off'}{tag}"),
        )
        monkeypatch.setenv("REPRO_SNAPSHOTS", "1" if snapshots else "0")
        start = time.perf_counter()
        points = run_points(
            sweep_specs(), max_workers=workers, run_label="snapshot-bench"
        )
        wall = time.perf_counter() - start
        manifest = RunManifest.load(last_run_dir() / "manifest.json")
        restored = sum(p.warm_restored for p in manifest.points)
        return points, wall, restored, manifest.engine

    off_points, off_seconds, off_restored, engine = sweep(snapshots=False)
    on_points, on_seconds, on_restored, _ = sweep(snapshots=True)
    par_points, _, par_restored, _ = sweep(
        snapshots=True, workers=2, tag="-w2"
    )

    # The whole contract: restoring a warm snapshot must not change a
    # single bit of any row relative to re-simulating the warmup.
    def strip(result):
        row = point_row(result, settings.scale)
        row.pop("sim_seconds")
        row.pop("from_cache")
        return row

    assert off_restored == 0
    assert on_restored == len(masks) - 1, on_restored
    # Across workers the leader is gated to finish first, so the
    # followers all restore too — and must stay bit-identical.
    assert par_restored == len(masks) - 1, par_restored
    for off, on, par in zip(off_points, on_points, par_points):
        assert strip(off) == strip(on), off.label
        assert strip(off) == strip(par), off.label

    speedup = off_seconds / on_seconds
    payload = {
        "benchmark": "hotpath_micro/snapshot_sweep",
        "point": "kvs 1024B, 1024 buffers, 2 ways @ scale 0.1, "
        "measure_ddio_ways 1..8",
        "engine": engine,
        "sweep_points": len(masks),
        "snapshots_off_seconds": round(off_seconds, 4),
        "snapshots_on_seconds": round(on_seconds, 4),
        "speedup": round(speedup, 2),
        "warm_restored_serial": on_restored,
        "warm_restored_workers2": par_restored,
        "rows_bit_identical": True,
    }
    (results_dir / "BENCH_pr9.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    lines = ["warm-state snapshots: 8-point way-mask sweep"]
    lines.append(f"  {'snapshots off (s)':28s} {off_seconds:>14.3f}")
    lines.append(f"  {'snapshots on (s)':28s} {on_seconds:>14.3f}")
    lines.append(f"  {'speedup':28s} {speedup:>14.2f}x")
    lines.append(f"  {'restored':28s} {on_restored:>14d}")
    emit(results_dir, "hotpath_snapshot", "\n".join(lines))

    # Catastrophic-regression guard only: warmup is ~60% of each point
    # at this scale, so the amortized sweep should be well under the
    # baseline even on noisy shared CI machines.
    assert on_seconds < off_seconds
