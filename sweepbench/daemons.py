"""cluster_fanout: a closed-loop client of the cluster daemon.

The program runs as users start it: ``python -m repro.serve --backend
cluster`` and two ``python -m repro.cluster.worker --capacity 1``, in a
fresh cache and runs directory, driven from this process by two client
threads that each keep one job outstanding. Each job is 16 small points
with job-unique seeds, so nothing is ever cached. A job's latency is
``finished_unix - created_unix`` from its snapshot, i.e. the daemon's
own clock, so the client's poll interval cannot quantise it. A seeded
sample of the rows is simulated again locally with ``run_spec`` after
the timed window and must match.

Every few seconds the client stops issuing jobs; once none is
outstanding it times the calibration kernel, keeping only samples
during which no daemon or worker process used CPU. The workers then sit
in their idle poll (0.5 s by default) until they next ask for a lease,
so the first job of each client thread after a pause waits for that
poll. Such jobs are kept in the record but left out of ``op_s_p50``,
and the time until each worker's first lease after a pause counts as
idle, not as part of the timed window.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

from common import (
    HERE,
    BenchError,
    Calibrator,
    Proc,
    at_reference,
    descendants,
    free_port,
    fresh_run_dir,
    mean,
    metric,
    peak_rss_mb,
    percentile,
    program_env,
    remove_tree,
)

#: seconds of load between two calibration pauses; a job takes ~2.5 s,
#: so most jobs of a cycle are steady ones, not the two after a pause
PAUSE_EVERY_S = 6.0
#: calibration samples taken at each pause
PAUSE_SAMPLES = 3
#: client poll interval for job state (latency comes from the daemon)
POLL_S = 0.02
#: longest wait for a worker's first lease after a pause
FIRST_LEASE_TIMEOUT_S = 3.0
#: point shape: small, cold, one fixed mix per job
CLUSTER_POINT = {"scale": 0.01, "buffers": 64, "packet_bytes": 2048, "measure": 0.1, "ways": 2}
CLUSTER_MIX = [
    {"workload": w, "policy": p, "sweeper": s}
    for w in ("kvs", "l3fwd")
    for p in ("ddio", "dma", "ideal", "occamy")
    for s in (False, True)
]
#: rows re-simulated locally after the window
CLUSTER_CHECKS = 8


def same_row(a: Dict, b: Dict) -> bool:
    """Rows equal byte for byte, apart from the cache-provenance flag."""
    strip = lambda r: json.dumps({k: v for k, v in r.items() if k != "from_cache"}, sort_keys=True)  # noqa: E731
    return strip(a) == strip(b)


def row_sane(row: Dict, label: str) -> bool:
    numbers = [row["throughput_mrps"], row["mem_bandwidth_gbps"], *row["breakdown"].values()]
    return row["label"] == label and all(
        isinstance(v, (int, float)) and math.isfinite(v) and v >= 0 for v in numbers
    )


class System:
    """One booted cluster daemon and its two workers."""

    def __init__(self, run_dir: Path, traced: bool) -> None:
        from repro.cluster.worker import ClusterClient

        self.run_dir = run_dir
        self.env = program_env(run_dir)
        self.url = f"http://127.0.0.1:{free_port()}"
        self.client = ClusterClient(self.url, timeout=60)
        self.trace_flag = run_dir / "trace-on"
        args = [sys.executable, "-m", "repro.serve", "--port", self.url.rsplit(":", 1)[1],
                "--backend", "cluster", "--workers", "2"]
        self.daemon = Proc(args, self.env, run_dir / "daemon.log")
        self.workers: List[Proc] = []
        try:
            self._wait(lambda: self.client.healthz()["ok"], "daemon boot")
            for i in range(2):
                cmd = ["-m", "repro.cluster.worker"]
                env = dict(self.env)
                if traced:
                    cmd = [str(HERE / "traced_worker.py")]
                    env["SWEEPBENCH_TRACE_FLAG"] = str(self.trace_flag)
                    env["SWEEPBENCH_TRACE_OUT"] = str(run_dir / f"worker{i}.json")
                self.workers.append(Proc(
                    [sys.executable, *cmd, "--coordinator", self.url,
                     "--capacity", "1", "--name", f"w{i}"],
                    env, run_dir / f"worker{i}.log",
                ))
            self._wait(lambda: len(self.client.workers()) == 2, "worker registration")
        except BaseException:
            self.stop()
            raise

    def _wait(self, ready, what: str, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.daemon.alive():
                raise BenchError(f"daemon exited during {what}: see {self.daemon.log}")
            try:
                if ready():
                    return
            except Exception:  # noqa: BLE001 - not up yet
                pass
            time.sleep(0.02)
        raise BenchError(f"timed out waiting for {what}")

    def pids(self) -> List[int]:
        out = descendants(self.daemon.pid)
        for w in self.workers:
            out += descendants(w.pid)
        return out

    def leases(self) -> Dict[str, int]:
        """Leases granted so far, per worker."""
        return {w["worker_id"]: w["leases_granted"] for w in self.client.workers()}

    def first_lease_gap(self, before: Dict[str, int], since: float) -> float:
        """Mean seconds from ``since`` until each worker took a lease
        beyond its count in ``before``: the share of the workers' time
        their idle poll cost after a pause."""
        gaps: Dict[str, float] = {}
        while len(gaps) < len(before):
            elapsed = time.perf_counter() - since
            if elapsed > FIRST_LEASE_TIMEOUT_S:
                break
            for wid, n in self.leases().items():
                if wid not in gaps and n > before.get(wid, n):
                    gaps[wid] = time.perf_counter() - since
            time.sleep(0.005)
        elapsed = time.perf_counter() - since
        return mean(gaps.get(wid, elapsed) for wid in before)

    def stop(self) -> None:
        for proc in [*self.workers, self.daemon]:
            proc.stop()


def _job(client, payload: Dict, submitted=None, timeout: float = 120.0) -> Dict:
    """Submit, wait, fetch: the snapshot, result and client timings.
    ``submitted`` (an Event) is set once the daemon has the job."""
    t0 = time.perf_counter()
    snap = client.submit(payload)
    submit_s = time.perf_counter() - t0
    if submitted is not None:
        submitted.set()
    deadline = time.monotonic() + timeout
    while snap["state"] not in ("done", "failed", "cancelled"):
        if time.monotonic() > deadline:
            raise BenchError(f"job {snap['id']} timed out")
        time.sleep(POLL_S)
        snap = client.job(snap["id"])
    out = {"snap": snap, "submit_s": submit_s, "result": None}
    if snap["state"] == "done":
        t0 = time.perf_counter()
        body = client._request("GET", f"/jobs/{snap['id']}/result", raw=True)
        out["result_s"] = time.perf_counter() - t0
        out["result_bytes"] = len(body)
        out["result"] = json.loads(body)
    return out


class Workload:
    """Job generation and row checks."""

    def __init__(self, seed: int, tiny: bool) -> None:
        from repro.scenario.points import build_point

        self.seed = seed
        self.tiny = tiny
        self.build_point = build_point
        self.lock = threading.Lock()
        self.specs: Dict[str, object] = {}
        self.counter = 0

    def priming_payload(self) -> Dict:
        return self._payload(random.Random(-self.seed), 2)

    def next_payload(self, rng: random.Random) -> Dict:
        return self._payload(rng, 4 if self.tiny else len(CLUSTER_MIX))

    def _payload(self, rng: random.Random, n: int) -> Dict:
        points = []
        with self.lock:
            for mix in CLUSTER_MIX[:n]:
                self.counter += 1
                entry = dict(CLUSTER_POINT, **mix, seed=self.seed * 1_000_003 + self.counter)
                entry["label"] = f"{mix['workload']}/{mix['policy']}/{mix['sweeper']}/{entry['seed']}"
                self.specs[entry["label"]] = self.build_point(entry, entry["scale"])
                points.append(entry)
        rng.shuffle(points)
        return {"points": points, "scale": CLUSTER_POINT["scale"]}

    def check(self, payload: Dict, result: Dict) -> List[str]:
        """Names of the points whose rows fail the output check: every
        row must be sane, fresh (never from the cache) and in order."""
        rows = result["rows"]
        labels = [p["label"] for p in payload["points"]]
        if len(rows) != len(labels):
            return labels
        return [l for l, row in zip(labels, rows) if row["from_cache"] or not row_sane(row, l)]


def _prime(system: System, wl: Workload) -> None:
    payload = wl.priming_payload()
    out = _job(system.client, payload)
    if out["result"] is None:
        raise BenchError(f"priming job {out['snap']['state']}: {out['snap'].get('error')}")
    bad = wl.check(payload, out["result"])
    if bad:
        raise BenchError(f"priming rows failed their check: {bad}")


def _setup(wl: Workload, traced: bool, samples: int, setup_cal: Calibrator):
    """Boot ``samples`` times, keep the last system; times each boot.

    Calibration samples for the set-up times are taken right before
    each boot, while no program process exists."""
    times = []
    for i in range(samples):
        for _ in range(2):
            setup_cal.sample()
        run_dir = fresh_run_dir("cluster")
        t0 = time.perf_counter()
        system = System(run_dir, traced)
        try:
            _prime(system, wl)
        except BaseException:
            system.stop()
            remove_tree(run_dir)
            raise
        times.append(time.perf_counter() - t0)
        if i < samples - 1:
            system.stop()
            remove_tree(run_dir)
    return system, times


def run(seed: int, seconds: int, trace: bool, tiny: bool,
        setup_cal: Calibrator, setup_samples: int) -> Dict:
    wl = Workload(seed, tiny)
    system, setup_times = _setup(wl, trace, 1 if trace else setup_samples, setup_cal)
    try:
        return _drive(system, wl, seed, seconds, trace, tiny, setup_times)
    finally:
        system.stop()
        remove_tree(system.run_dir)


class _Loop:
    """Two closed-loop client threads with calibration pauses."""

    def __init__(self, system: System, wl: Workload, seed: int, outstanding: int) -> None:
        self.system, self.wl = system, wl
        self.cond = threading.Condition()
        self.paused = False
        self.stopping = False
        self.idle = 0
        self.jobs: List[Dict] = []
        self.failures: List[str] = []
        #: (start, end) daemon-clock intervals during which tracing was on
        self.traced: List[List[float]] = []
        #: set once the first thread's job after a pause is submitted
        self.lead_submitted = threading.Event()
        self.threads = [
            threading.Thread(target=self._client, args=(i, random.Random(seed * 7919 + i)), daemon=True)
            for i in range(outstanding)
        ]

    def start(self) -> float:
        """Start the clients; seconds the workers' poll kept them idle."""
        before = self.system.leases()
        t0 = time.perf_counter()
        for t in self.threads:
            t.start()
        return self.system.first_lease_gap(before, t0)

    def _gate(self):
        """Wait out a pause: ``(go, waited)``, ``go`` False once stopping."""
        waited = False
        with self.cond:
            while self.paused and not self.stopping:
                waited = True
                self.idle += 1
                self.cond.notify_all()
                self.cond.wait()
                self.idle -= 1
            return not self.stopping, waited

    def _client(self, index: int, rng: random.Random) -> None:
        from repro.serve.client import ServeError

        client = type(self.system.client)(self.system.url, timeout=60)
        after_pause = True  # the workers sit in their poll at the start too
        while True:
            go, waited = self._gate()
            if not go:
                break
            after_pause = after_pause or waited
            payload = self.wl.next_payload(rng)
            if after_pause and index > 0:
                # Jobs submitted together interleave their points, and
                # the jobs after them then wait for a varying remainder
                # for several turns; one after the other, the threads
                # fall straight into their steady alternation.
                self.lead_submitted.wait(timeout=30)
            try:
                out = _job(client, payload, self.lead_submitted if index == 0 else None)
            except ServeError as exc:
                with self.cond:
                    self.failures.append(f"HTTP {exc.status}: {exc.payload}")
                time.sleep(0.1)
                continue
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                with self.cond:
                    self.failures.append(f"{type(exc).__name__}: {exc}")
                continue
            created = out["snap"]["created_unix"]
            out["traced"] = any(a <= created < b for a, b in self.traced)
            out["after_pause"], after_pause = after_pause, False
            if out["result"] is None:
                out["bad"] = [p["label"] for p in payload["points"]]
            else:
                out["bad"] = self.wl.check(payload, out["result"])
            with self.cond:
                self.jobs.append(out)

    def pause(self, cal: Calibrator) -> float:
        """Quiesce the client, take calibration samples and resume;
        seconds spent idle, up to each worker's first lease after."""
        with self.cond:
            self.paused = True
            while self.idle < sum(t.is_alive() for t in self.threads):
                self.cond.wait(timeout=1.0)
        t0 = time.perf_counter()
        pids = self.system.pids()
        for _ in range(PAUSE_SAMPLES):
            cal.sample(pids)
        before = self.system.leases()
        self.lead_submitted.clear()
        resumed = time.perf_counter()
        with self.cond:
            self.paused = False
            self.cond.notify_all()
        return resumed - t0 + self.system.first_lease_gap(before, resumed)

    def stop(self) -> None:
        with self.cond:
            self.stopping = True
            self.cond.notify_all()
        for t in self.threads:
            t.join(timeout=150)


def _drive(system, wl, seed, seconds, trace, tiny, setup_times) -> Dict:
    cal = Calibrator(paired=True)
    try:
        return _measure(cal, system, wl, seed, seconds, trace, tiny, setup_times)
    finally:
        cal.close()


def _measure(cal, system, wl, seed, seconds, trace, tiny, setup_times) -> Dict:
    loop = _Loop(system, wl, seed, outstanding=2)
    t_start = time.perf_counter()
    t_start_unix = time.time()
    idle = loop.start()
    next_pause = time.perf_counter() + PAUSE_EVERY_S
    while time.perf_counter() - t_start < seconds:
        now = time.perf_counter()
        if now >= next_pause:
            idle += loop.pause(cal)
            if trace:
                # Tracing alternates on and off from one pause to the
                # next, so traced and untraced jobs share the host's
                # drift and trace.overhead_ratio compares like with like.
                if loop.traced and loop.traced[-1][1] == math.inf:
                    system.trace_flag.unlink()
                    loop.traced[-1][1] = time.time()
                else:
                    system.trace_flag.touch()
                    loop.traced.append([time.time(), math.inf])
            next_pause = time.perf_counter() + PAUSE_EVERY_S
        time.sleep(0.01)
    t_stop_unix = time.time()
    window = time.perf_counter() - t_start - idle
    loop.stop()
    pids = system.pids()
    for _ in range(3):
        cal.sample(pids)
    scale = cal.scale()
    metrics_text = system.client.metrics()
    rss = peak_rss_mb(pids)
    jobs = loop.jobs
    done = [j for j in jobs if j["result"] is not None]
    failed = len(loop.failures) + sum(1 for j in jobs if j["bad"])
    latency = lambda j: j["snap"]["finished_unix"] - j["snap"]["created_unix"]  # noqa: E731
    lat = [latency(j) for j in done]
    steady = [latency(j) for j in done if not j["after_pause"]] or lat
    if not lat:
        raise BenchError(f"no job completed: {loop.failures[:3]}")
    manifests = _manifests(system.run_dir / "runs", done)
    rows, requests = _in_window(system, wl, done, manifests, t_start_unix, t_stop_unix)
    checks = _local_checks(wl, done, seed, 2 if tiny else CLUSTER_CHECKS)
    failed += len(checks)
    raw = {
        "op_s_p50": percentile(steady, 50),
        "rows_per_s": rows / window,
        "sim_kreq_per_s": requests / window / 1000.0,
    }
    extra = {}
    if len(steady) >= 100:
        # the highest percentile with at least ten jobs beyond it
        raw["op_s_p90"] = percentile(steady, 90)
    calibrated = at_reference(raw, scale)
    if "op_s_p90" in calibrated:
        extra["op_s_p90"] = metric(calibrated["op_s_p90"], "s")
    attempted = len(jobs) + len(loop.failures)
    record = {
        "workload": "cluster_fanout",
        "ops": attempted,
        "failures": loop.failures[:20],
        "bad_rows": [b for j in jobs for b in j["bad"]][:20],
        "local_check_failures": checks,
        "raw": raw,
        "calibrated": calibrated,
        "calibration": cal.record(),
        "scale": scale,
        "window_s": window,
        "idle_s": idle,
        "window_rows": rows,
        "setup_s": setup_times,
        "op_s": lat,
        "op_s_after_pause": [latency(j) for j in done if j["after_pause"]],
        # (created, finished) by the daemon's clock, from the window start
        "jobs_unix": [[j["snap"]["created_unix"] - t_start_unix,
                       j["snap"]["finished_unix"] - t_start_unix, j["after_pause"]] for j in done],
        "extra_metrics": extra,
    }
    metrics = {
        "op_s_p50": metric(calibrated["op_s_p50"], "s"),
        "rows_per_s": metric(calibrated["rows_per_s"], "rows/s"),
        "sim_kreq_per_s": metric(calibrated["sim_kreq_per_s"], "kreq/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    if trace:
        metrics = _layers(wl, system, done, manifests, metrics_text, window, cal)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "record": record, "scale": scale}


def _manifests(runs_dir: Path, done: List[Dict]) -> List[Dict]:
    out = []
    for job in done:
        path = runs_dir / str(job["snap"]["run_id"]) / "manifest.json"
        data = json.loads(path.read_text())
        data["_bytes"] = path.stat().st_size
        out.append(data)
    return out


def _requests(wl: Workload, point: Dict) -> int:
    """Requests simulated for one manifest point record; cache hits and
    restored warmups count zero."""
    from repro.engine.tracer import TraceConfig

    if point["from_cache"] or point["status"] != "done":
        return 0
    spec = wl.specs[point["label"]]
    cfg = TraceConfig(system=spec.system, workload=spec.workload, policy=spec.policy)
    total = point["measure_requests"] or cfg.default_measure()
    if not point["warm_restored"]:
        total += point["warmup_requests"] or cfg.default_warmup()
    return total


def _in_window(system, wl, done, manifests, t0: float, t1: float):
    """Rows and simulated requests of the points of completed jobs that
    finished inside the timed window, by the daemon's clock.

    Counting points where they finish, not whole jobs where they end,
    keeps a job that straddles the end of the window from making the
    rates depend on where the clock ran out.
    """
    rows = requests = 0
    for job, manifest in zip(done, manifests):
        per_label = {p["label"]: _requests(wl, p) for p in manifest["points"]}
        events = system.client.events(job["snap"]["id"])["events"]
        for ev in events:
            if ev["event"] == "point.finish" and t0 <= ev["ts"] <= t1:
                rows += 1
                requests += per_label[ev["label"]]
    return rows, requests


def _local_checks(wl: Workload, done: List[Dict], seed: int, n: int) -> List[str]:
    """Re-simulate a seeded sample of served rows in this process."""
    from repro.engine.parallel import run_spec
    from repro.experiments.common import point_row

    pairs = [(row, j) for j in done for row in j["result"]["rows"]]
    sample = random.Random(seed).sample(pairs, min(n, len(pairs)))
    bad = []
    for row, _ in sample:
        spec = wl.specs[row["label"]]
        local = point_row(run_spec(spec), CLUSTER_POINT["scale"])
        local["sim_seconds"] = row["sim_seconds"]
        if not same_row(local, row):
            bad.append(row["label"])
    return bad


def _layers(wl, system, done, manifests, m, window, cal) -> Dict:
    """Per-layer metrics of a traced run.

    Every point is cold, so the point-cache hit and snapshot restore
    ratios are 0 by design, and the load times are those of the entries
    and warm states the workers wrote. trace.overhead_ratio compares
    jobs created while tracing was on with the others, leaving out the
    jobs that waited for the workers' poll after a pause.
    """
    import statistics

    steady = [j for j in done if not j["after_pause"]] or done
    traced = [j for j in steady if j["traced"]] or steady
    untraced = [j for j in steady if not j["traced"]] or steady
    lat = lambda js: percentile([j["snap"]["finished_unix"] - j["snap"]["created_unix"] for j in js], 50)  # noqa: E731
    snaps = [j["snap"] for j in traced]
    sim_points = [p for mf in manifests for p in mf["points"] if not p["from_cache"]]
    points = {src: m.get(f'serve_points_total{{source="{src}"}}', 0.0) for src in ("cache", "simulated", "dedup")}
    total_points = sum(points.values()) or 1.0
    restored = sum(1 for p in sim_points if p["warm_restored"])
    # a sample of this run's point-cache entries and warm states
    sample = [wl.specs[p["label"]] for p in sim_points[:16]]
    out = {
        "serve.submit_s": metric(mean(j["submit_s"] for j in traced), "s/job"),
        "serve.queue_wait_s": metric(mean(s["started_unix"] - s["created_unix"] for s in snaps), "s/job"),
        "serve.run_s": metric(mean(s["finished_unix"] - s["started_unix"] for s in snaps), "s/job"),
        "serve.result_s": metric(mean(j["result_s"] for j in traced), "s/job"),
        "serve.result_bytes": metric(mean(j["result_bytes"] for j in traced), "bytes/job"),
        "serve.rejected": metric(m.get("serve_jobs_rejected_total", 0.0), "count"),
        "serve.points_cache": metric(points["cache"], "count"),
        "serve.points_simulated": metric(points["simulated"], "count"),
        "serve.points_dedup": metric(points["dedup"], "count"),
        "engine.pointcache.hit_ratio": metric(points["cache"] / total_points, "ratio"),
        "engine.pointcache.load_s": metric(_pointcache_load_s(sample, system), "s/point"),
        "engine.snapshot.restore_ratio": metric(restored / max(len(sim_points), 1), "ratio"),
        "engine.snapshot.load_s": metric(_snapshot_load_s(sample, system), "s/point"),
        "engine.tracer.measure_s": metric(mean(p["sim_seconds"] for p in sim_points), "s/point"),
        "obs.manifest.bytes": metric(mean(mf["_bytes"] for mf in manifests), "bytes/job"),
        "host.calib_s": metric(statistics.median(cal.samples), "s"),
        "trace.overhead_ratio": metric(lat(traced) / lat(untraced) - 1.0, "ratio"),
    }
    rtt = _worker_rtts(system)
    leases = m.get("cluster_leases_granted_total", 0.0)
    sim_s = sum(p["sim_seconds"] for p in sim_points)
    out.update({
        "cluster.lease_rtt_s": metric(mean(rtt["lease"]), "s/lease"),
        "cluster.complete_rtt_s": metric(mean(rtt["complete"]), "s/lease"),
        "cluster.payload_bytes": metric(mean(rtt["payload_bytes"]), "bytes/lease"),
        "cluster.leases": metric(leases, "count"),
        "cluster.points_per_lease": metric(
            m.get("cluster_points_remote_total", 0.0) / max(leases, 1.0), "points/lease"),
        "cluster.overhead_share": metric(1.0 - sim_s / (2 * window), "ratio"),
        "cluster.lease_expired": metric(m.get("cluster_lease_expired_total", 0.0), "count"),
        "cluster.speculative_leases": metric(m.get("cluster_speculative_leases_total", 0.0), "count"),
        "cluster.speculative_wasted": metric(m.get("cluster_speculative_wasted_total", 0.0), "count"),
    })
    return out


@contextmanager
def _daemon_cache(system: System) -> Iterator[None]:
    """Point this process's cache lookups at the daemon's cache dir."""
    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = system.env["REPRO_CACHE_DIR"]
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved


def _pointcache_load_s(specs: List, system: System) -> float:
    """Mean time of ``pointcache.load`` on the entries of ``specs``."""
    from repro.engine import pointcache

    with _daemon_cache(system):
        times = []
        for spec in specs:
            fp = pointcache.fingerprint(spec)
            t0 = time.perf_counter()
            hit = pointcache.load(fp, require_attrs=pointcache.RESULT_ATTRS)
            times.append(time.perf_counter() - t0)
            if hit is None:
                raise BenchError(f"point {spec.label!r} missing from the point cache")
        return mean(times)


def _snapshot_load_s(specs: List, system: System) -> float:
    """Mean time of ``snapshot.load_state`` on the warm states of ``specs``."""
    from repro.engine import snapshot

    with _daemon_cache(system):
        times = []
        for spec in specs:
            t0 = time.perf_counter()
            state = snapshot.load_state(snapshot.warmup_fingerprint(spec), "batch")
            times.append(time.perf_counter() - t0)
            if state is None:
                raise BenchError(f"warm state of {spec.label!r} missing")
        return mean(times)


def _worker_rtts(system: System) -> Dict[str, List[float]]:
    """Lease/complete timings the traced workers wrote at exit."""
    for w in system.workers:
        w.stop()
    out = {"lease": [], "complete": [], "payload_bytes": []}
    for i in range(len(system.workers)):
        path = system.run_dir / f"worker{i}.json"
        if not path.exists():
            raise BenchError(f"traced worker {i} wrote no timings")
        data = json.loads(path.read_text())
        for k in out:
            out[k] += data[k]
    return out
