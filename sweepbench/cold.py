"""cold_sweep: a user's first serial batch-engine run over grid points.

One process, ``run_points([spec], max_workers=1)`` per point, the batch
engine, and the default point-cache/snapshot settings in a cache
directory that is fresh for the run, so every lookup misses and the
cache and snapshot layers only write. The points are a seeded draw
from the union of the grids, stratified by reference cost: rounds of
ten non-observer points and one prime+probe observer point, which the
observer forces onto the object engine. The run's size is whole rounds (``seconds / ROUND_S``, at
least one), never a cut inside a round: an observer point costs about
twenty ordinary ones, so cutting by time would make the share of
observer points, and with it every rate, depend on where the clock ran
out.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    GRID_SCALE,
    Calibrator,
    at_reference,
    dir_bytes,
    fresh_run_dir,
    metric,
    percentile,
    remove_tree,
    restore_env,
    use_program_env,
)
from points import load_digests, row_digest, stratified, union_points

#: expected wall seconds of one round on the reference host
ROUND_S = 12.5
NORMAL_PER_ROUND = 10


def schedule(seed: int, rounds: int, tiny: bool = False) -> List[Tuple[str, object]]:
    """The seeded point list; ``tiny`` is three non-observer points."""
    points = union_points(GRID_SCALE)
    normal = [p for p in points if p[1].observer is None]
    observer = [p for p in points if p[1].observer is not None]
    rng = random.Random(seed)
    if tiny:
        return stratified(normal, 3, rng)
    normal = stratified(normal, rounds * NORMAL_PER_ROUND, rng)
    observer = stratified(observer, rounds, rng)
    out = []
    for r in range(rounds):
        out += normal[r * NORMAL_PER_ROUND:(r + 1) * NORMAL_PER_ROUND]
        out.append(observer[r])
    return out


def expected_requests(spec, restored: bool) -> int:
    """Requests a fresh simulation of ``spec`` runs, from its config."""
    from repro.engine.tracer import TraceConfig

    cfg = TraceConfig(system=spec.system, workload=spec.workload, policy=spec.policy)
    warmup = spec.warmup_requests if spec.warmup_requests is not None else cfg.default_warmup()
    measure = spec.measure_requests if spec.measure_requests is not None else cfg.default_measure()
    return (0 if restored else warmup) + measure


def setup_child(seed: int, rounds: int, tiny: bool) -> None:
    """What a run does before its first point (timed from a parent)."""
    from repro.engine import native
    from repro.engine.parallel import run_points  # noqa: F401
    from repro.experiments.common import point_row  # noqa: F401

    native.load_kernel()
    schedule(seed, rounds, tiny)


def run(seed: int, seconds: int, trace: bool, tiny: bool) -> Dict:
    rounds = max(1, round(seconds / ROUND_S))
    run_dir = fresh_run_dir("cold")
    saved = use_program_env(run_dir)
    try:
        return _run(run_dir, seed, rounds, trace, tiny)
    finally:
        restore_env(saved)
        remove_tree(run_dir)


def row_ok(name: str, row: Dict, digests: Dict[str, str]) -> bool:
    """A cold row must be freshly simulated and match its digest."""
    return digests.get(name) == row_digest(row) and not row["from_cache"]


def _one_point(spec, name: str, digests: Dict[str, str]):
    from repro.engine.parallel import run_points
    from repro.experiments.common import point_row

    t0 = time.perf_counter()
    result = run_points([spec], max_workers=1, run_label="sweepbench-cold")[0]
    dt = time.perf_counter() - t0
    return dt, result, row_ok(name, point_row(result, GRID_SCALE), digests)


def _run(run_dir: Path, seed: int, rounds: int, trace: bool, tiny: bool) -> Dict:
    from repro.engine import native

    native.load_kernel()
    points = schedule(seed, rounds, tiny)
    digests = load_digests()
    cal = Calibrator()
    spans = None
    if trace:
        from spans import Spans, traced_engine

        spans = Spans()
        ctx = traced_engine(spans)
    else:
        from contextlib import nullcontext

        ctx = nullcontext()

    times, sims, requests, mismatches = [], [], 0, []
    window = 0.0
    with ctx:
        for name, spec in points:
            cal.sample()
            dt, result, ok = _one_point(spec, name, digests)
            window += dt
            times.append(dt)
            sims.append(result.sim_seconds)
            requests += expected_requests(spec, result.warm_restored)
            if not ok:
                mismatches.append(name)
    cal.sample()
    scale = cal.scale()
    failed = len(mismatches)
    raw = {
        "op_s_p50": percentile(times, 50),
        "rows_per_s": len(points) / window,
        "sim_kreq_per_s": requests / window / 1000.0,
    }
    calibrated = at_reference(raw, scale)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": "cold_sweep",
        "points": [n for n, _ in points],
        "ops": len(points),
        "mismatched_rows": mismatches,
        "raw": raw,
        "calibrated": calibrated,
        "calibration": cal.record(),
        "scale": scale,
        "op_s": times,
    }
    metrics = {
        "op_s_p50": metric(calibrated["op_s_p50"], "s"),
        "rows_per_s": metric(calibrated["rows_per_s"], "rows/s"),
        "sim_kreq_per_s": metric(calibrated["sim_kreq_per_s"], "kreq/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    if trace:
        layer, problems = _layers(spans, points, times, sims, requests, run_dir, cal)
        metrics = layer
        record["trace_problems"] = problems
        failed += len(problems)
    return {
        "attempted": len(points),
        "failed": failed,
        "metrics": metrics,
        "record": record,
        "scale": scale,
    }


def _layers(spans, points, times, sims, requests, run_dir, cal):
    """Per-layer metrics of a traced run, and any wiring problems."""
    s, c, n = spans.self_s, spans.calls, spans.items
    npts = c["engine.tracer.init"]
    per = lambda v: v / max(npts, 1)  # noqa: E731
    snap_bytes = dir_bytes(run_dir / "cache", "*.snap")
    problems = []
    loop_requests = n["engine.tracer.warmup"] + n["engine.tracer.measure"]
    for what, got in (
        ("workloads.request calls", c["workloads.request"]),
        ("nic.tx calls", c["nic.tx"]),
        ("run_requests requests", loop_requests),
    ):
        if got != requests:
            problems.append(f"{what} {got} != sim.requests {requests}")
    if npts != len(points) or c["engine.point"] != len(points):
        problems.append(f"traced points {npts}/{c['engine.point']} != {len(points)}")
    named = [
        "engine.tracer.init", "engine.tracer.loop", "cache.access", "nic.rx_write",
        "nic.tx", "workloads.request", "core.relinquish", "sidechannel.observer",
        "engine.analytic.solve", "engine.snapshot.capture", "engine.snapshot.store",
    ]
    point_s = spans.incl_s["engine.point"]
    coverage = sum(s[k] for k in named) / point_s if point_s else 0.0
    if coverage < 0.9:
        problems.append(f"named spans cover {coverage:.3f} < 0.9 of point time")
    overhead = _overhead_ratio(points, times)
    m = {
        "engine.tracer.init_s": metric(per(s["engine.tracer.init"]), "s/point"),
        "engine.tracer.warmup_s": metric(per(spans.incl_s["engine.tracer.warmup"]), "s/point"),
        "engine.tracer.measure_s": metric(per(spans.incl_s["engine.tracer.measure"]), "s/point"),
        "engine.tracer.loop_self_s": metric(per(s["engine.tracer.loop"]), "s/point"),
        "cache.access_s": metric(per(s["cache.access"]), "s/point"),
        "cache.access_blocks": metric(n["cache.access"], "count"),
        "nic.rx_write_s": metric(per(s["nic.rx_write"]), "s/point"),
        "nic.rx_write_blocks": metric(n["nic.rx_write"], "count"),
        "nic.tx_s": metric(per(s["nic.tx"]), "s/point"),
        "workloads.request_s": metric(per(s["workloads.request"]), "s/point"),
        "core.relinquish_s": metric(per(s["core.relinquish"]), "s/point"),
        "core.swept_blocks": metric(n["core.relinquish"], "count"),
        "sidechannel.observer_s": metric(per(s["sidechannel.observer"]), "s/point"),
        "engine.object_fallback_points": metric(n["engine.object_fallback"], "count"),
        "engine.analytic.solve_s": metric(per(s["engine.analytic.solve"]), "s/point"),
        "engine.snapshot.capture_s": metric(per(s["engine.snapshot.capture"]), "s/point"),
        "engine.snapshot.store_s": metric(per(s["engine.snapshot.store"]), "s/point"),
        "engine.snapshot.bytes_written": metric(snap_bytes, "bytes"),
        "engine.pointcache.store_s": metric(per(s["engine.pointcache.store"]), "s/point"),
        "obs.manifest.write_s": metric(per(s["obs.manifest.write"]), "s/point"),
        "engine.parallel.overhead_s": metric(per(sum(times) - sum(sims)), "s/point"),
        "sim.requests": metric(requests, "count"),
        "sim.points": metric(npts, "count"),
        "trace.coverage": metric(coverage, "ratio"),
        "host.calib_s": metric(statistics.median(cal.samples), "s"),
        "trace.overhead_ratio": metric(overhead, "ratio"),
    }
    return m, problems


def _overhead_ratio(points, traced_times) -> float:
    """Traced over untraced time of the first three non-observer points,
    re-simulated untraced from a fresh cache, minus one."""
    from repro.engine.parallel import run_points

    picks = [i for i, (_, spec) in enumerate(points) if spec.observer is None][:3]
    run_dir = fresh_run_dir("cold-untraced")
    saved = use_program_env(run_dir)
    try:
        untraced = 0.0
        for i in picks:
            t0 = time.perf_counter()
            run_points([points[i][1]], max_workers=1, run_label="sweepbench-cold")
            untraced += time.perf_counter() - t0
    finally:
        restore_env(saved)
        remove_tree(run_dir)
    return sum(traced_times[i] for i in picks) / untraced - 1.0
