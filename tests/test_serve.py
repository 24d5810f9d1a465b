"""Tests for the ``repro.serve`` subsystem.

Three layers:

* scheduler unit tests with an injectable ``simulate`` stub — priority
  order, admission control, cancellation, cross-job in-flight dedup;
* HTTP API tests against a live server on an ephemeral port —
  validation errors, job lifecycle, events cursor, 429/409/404;
* the end-to-end acceptance test: a ``fig1`` job served over HTTP is
  byte-identical to the same specs run through ``run_points`` locally,
  and an identical re-submission completes without re-simulating
  (asserted via the cache/dedup counters on ``/metrics``).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import pointcache
from repro.engine.parallel import run_points
from repro.errors import ConfigError
from repro.experiments import SPEC_BUILDERS
from repro.experiments.common import (
    RESULT_SCHEMA_VERSION,
    ExperimentSettings,
    kvs_system,
    kvs_workload,
    point_row,
    point_spec,
)
from repro.obs.manifest import RunManifest, runs_dir
from repro.obs.validate import validate_run_dir
from repro.serve import (
    JobScheduler,
    QueueFull,
    ServeClient,
    ServeError,
    UnknownJob,
    create_server,
    parse_job_request,
)
from repro.serve.jobs import BadRequest, JobRequest, TERMINAL_STATES

SCALE = 0.05
SETTINGS = ExperimentSettings(scale=SCALE, measure_multiplier=0.1)


def one_spec(seed: int, label: str = ""):
    return point_spec(
        label or f"s{seed}",
        kvs_system(SCALE, 64, 2, 512),
        kvs_workload(0.02, 512),
        "ddio",
        settings=SETTINGS,
        seed=seed,
    )


def one_request(name: str, seed: int, priority: int = 0, label: str = "") -> JobRequest:
    return JobRequest(name, [one_spec(seed, label)], SCALE, priority=priority)


class FakeResult:
    """The minimal result surface the scheduler touches."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.sim_seconds = 0.0
        self.from_cache = False
        self.timeline_file = None


def wait_terminal(jobs, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    for job in jobs:
        while job.state not in TERMINAL_STATES:
            assert time.monotonic() < deadline, f"{job.id} stuck {job.state}"
            time.sleep(0.005)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pointcache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path / "pointcache"


@pytest.fixture()
def sched_env(monkeypatch):
    """Scheduler unit tests: no cache, no manifests, stub results."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_NO_MANIFEST", "1")


class TestScheduler:
    def test_priority_order_fifo_within_priority(self, sched_env):
        calls = []

        def simulate(spec, run_dir):
            calls.append(spec.seed)
            return FakeResult(spec.label)

        s = JobScheduler(workers=1, max_concurrent_jobs=1, simulate=simulate)
        jobs = [
            s.submit(one_request("low", 1, priority=0)),
            s.submit(one_request("high", 2, priority=5)),
            s.submit(one_request("high2", 3, priority=5)),
        ]
        s.start()
        wait_terminal(jobs)
        s.stop()
        assert calls == [2, 3, 1]
        assert all(j.state == "done" for j in jobs)

    def test_admission_control_queue_full(self, sched_env):
        s = JobScheduler(workers=1, queue_limit=2)  # never started: all queue
        s.submit(one_request("a", 1))
        s.submit(one_request("b", 2))
        with pytest.raises(QueueFull):
            s.submit(one_request("c", 3))
        assert "serve_jobs_rejected_total 1" in s.registry.render_text()
        s.stop()

    def test_cancel_mid_queue_never_runs(self, sched_env):
        calls = []

        def simulate(spec, run_dir):
            calls.append(spec.seed)
            return FakeResult(spec.label)

        s = JobScheduler(workers=1, max_concurrent_jobs=1, simulate=simulate)
        kept = s.submit(one_request("kept", 1))
        doomed = s.submit(one_request("doomed", 2))
        s.cancel(doomed.id)
        assert doomed.state == "cancelled"
        s.start()
        wait_terminal([kept])
        s.stop()
        assert calls == [1]
        events = [e["event"] for e in doomed.events_since(0)[0]]
        assert events == ["job.submitted", "job.finished"]

    def test_cancel_unknown_job(self, sched_env):
        s = JobScheduler(workers=1)
        with pytest.raises(UnknownJob):
            s.cancel("job-missing")
        s.stop()

    def test_inflight_dedup_simulates_once(self, sched_env):
        release = threading.Event()
        calls = []

        def simulate(spec, run_dir):
            calls.append(spec.seed)
            release.wait(timeout=10)
            return FakeResult(spec.label)

        s = JobScheduler(workers=1, max_concurrent_jobs=2, simulate=simulate)
        # Same seed => same fingerprint (labels differ; label is excluded).
        ja = s.submit(one_request("a", 7, label="A"))
        jb = s.submit(one_request("b", 7, label="B"))
        s.start()
        deadline = time.monotonic() + 10
        while not (ja.state == "running" and jb.state == "running"):
            assert time.monotonic() < deadline, "jobs did not start"
            time.sleep(0.005)
        time.sleep(0.2)  # let the second job attach to the in-flight future
        release.set()
        wait_terminal([ja, jb])
        s.stop()
        assert calls == [7]  # exactly one simulation for both jobs
        assert ja.simulated_points + jb.simulated_points == 1
        assert ja.deduped_points + jb.deduped_points == 1
        assert ja.results[0].label == "A"
        assert jb.results[0].label == "B"
        attached = ja if ja.deduped_points else jb
        assert attached.results[0].from_cache
        text = s.registry.render_text()
        assert 'serve_points_total{source="dedup"} 1' in text
        assert 'serve_points_total{source="simulated"} 1' in text

    def test_cache_hit_resets_provenance_in_manifest(self, cache_dir):
        spec = one_spec(3, "hit")
        stored = FakeResult("from-another-run")
        stored.warm_restored = True
        stored.probe_file = "/elsewhere/probes.npz"
        stored.timeline_file = "timelines/elsewhere.jsonl"
        stored.worker_id = "w-elsewhere"
        pointcache.store(pointcache.fingerprint(spec), stored)

        def simulate(spec, run_dir):
            raise AssertionError("a cache hit must not simulate")

        s = JobScheduler(workers=1, simulate=simulate)
        job = s.submit(JobRequest("hit", [spec], SCALE))
        s.start()
        wait_terminal([job])
        s.stop()
        assert job.state == "done" and job.cached_points == 1
        point = job_manifest(job).points[0]
        assert point.label == "hit"
        assert point.from_cache is True
        # Nothing was restored this run, and the other run's files and
        # worker are not this run's provenance.
        assert point.warm_restored is False
        assert point.probe_file is None
        assert point.timeline_file is None
        assert point.worker_id is None

    def test_parse_job_request_validation(self):
        with pytest.raises(BadRequest):
            parse_job_request([])
        with pytest.raises(BadRequest):
            parse_job_request({})  # neither experiment nor points
        with pytest.raises(BadRequest):
            parse_job_request({"experiment": "fig1", "points": []})
        with pytest.raises(BadRequest):
            parse_job_request({"experiment": "nope"})
        with pytest.raises(BadRequest):
            parse_job_request({"points": []})
        with pytest.raises(BadRequest):
            parse_job_request({"experiment": "fig1", "scale": 2.0})
        with pytest.raises(BadRequest):
            parse_job_request({"experiment": "fig1", "priority": "high"})
        with pytest.raises(BadRequest):
            parse_job_request(
                {"points": [{"label": "x"}, {"label": "x"}]}
            )  # duplicate labels
        with pytest.raises(BadRequest):
            parse_job_request({"points": [{"policy": "magic"}]})
        request = parse_job_request(
            {"experiment": "fig1", "scale": 0.05, "measure": 0.1, "priority": 3}
        )
        assert request.name == "fig1"
        assert request.priority == 3
        assert len(request.specs) == len(SPEC_BUILDERS["fig1"](SETTINGS))

    def test_unknown_point_keys_rejected(self):
        with pytest.raises(BadRequest) as err:
            parse_job_request(
                {"points": [{"label": "x", "swepper": True, "waz": 4}]}
            )
        message = str(err.value)
        assert "swepper" in message and "waz" in message
        assert "allowed" in message  # the 400 teaches the valid keys

    def test_unservable_experiments_rejected_with_reason(self):
        for name in ("fig9", "table1"):
            with pytest.raises(BadRequest) as err:
                parse_job_request({"experiment": name})
            assert "not servable" in str(err.value)


@pytest.fixture()
def recovery_env(monkeypatch):
    """Fault-tolerance tests: manifests ON, cache off, instant retries."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "0")


def job_manifest(job):
    """Load + schema-validate the manifest a served job left behind."""
    assert job.run_id, "job finished without a run_id"
    run_dir = runs_dir() / job.run_id
    manifest = RunManifest.load(run_dir / "manifest.json")
    validate_run_dir(run_dir)
    return manifest


class TestFaultTolerance:
    def test_concurrent_cancels_decrement_once(self, sched_env):
        # Regression: racing cancels of one queued job used to each
        # decrement _queued (driving serve_queue_depth negative and
        # leaking admission slots) and double-count the finish metric.
        s = JobScheduler(workers=1)  # never started: jobs stay queued
        s.submit(one_request("bystander", 1))
        doomed = s.submit(one_request("doomed", 2))
        barrier = threading.Barrier(8)

        def attack():
            barrier.wait()
            s.cancel(doomed.id)

        threads = [threading.Thread(target=attack) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert doomed.state == "cancelled"
        assert s._queued == 1  # exactly the bystander
        text = s.registry.render_text()
        assert 'serve_jobs_finished_total{state="cancelled"} 1' in text
        assert "serve_queue_depth 1" in text
        events = [e["event"] for e in doomed.events_since(0)[0]]
        assert events.count("job.finished") == 1
        s.stop()

    def test_transient_failure_retried_to_done(self, recovery_env):
        calls = []

        def simulate(spec, run_dir):
            calls.append(spec.seed)
            if len(calls) == 1:
                raise RuntimeError("transient glitch")
            return FakeResult(spec.label)

        s = JobScheduler(workers=1, simulate=simulate)
        job = s.submit(one_request("a", 1))
        s.start()
        wait_terminal([job])
        s.stop()
        assert job.state == "done"
        assert job.retried_points == 1
        assert len(calls) == 2
        events = [e["event"] for e in job.events_since(0)[0]]
        assert "point.retry" in events
        manifest = job_manifest(job)
        assert manifest.status == "done"
        assert manifest.points[0].status == "done"
        assert manifest.points[0].attempts == 2
        assert "serve_point_retries_total 1" in s.registry.render_text()

    def test_exhausted_retries_fail_job_with_manifest(
        self, recovery_env, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RETRIES", "0")

        def simulate(spec, run_dir):
            raise RuntimeError("hard failure")

        s = JobScheduler(workers=1, simulate=simulate)
        job = s.submit(one_request("a", 1))
        s.start()
        wait_terminal([job])
        s.stop()
        assert job.state == "failed"
        assert "hard failure" in job.error
        manifest = job_manifest(job)
        assert manifest.status == "failed"
        assert manifest.points[0].status == "failed"
        assert "hard failure" in manifest.points[0].error
        assert manifest.points[0].attempts == 1

    def test_cancel_mid_run_finalizes_manifest(self, recovery_env):
        entered = threading.Event()
        release = threading.Event()

        def simulate(spec, run_dir):
            entered.set()
            release.wait(timeout=10)
            return FakeResult(spec.label)

        s = JobScheduler(workers=1, simulate=simulate)
        job = s.submit(
            JobRequest("a", [one_spec(1, "p1"), one_spec(2, "p2")], SCALE)
        )
        s.start()
        assert entered.wait(5)
        s.cancel(job.id)
        release.set()
        wait_terminal([job])
        s.stop()
        assert job.state == "cancelled"
        manifest = job_manifest(job)
        assert manifest.status == "cancelled"
        # The in-flight point finished its boundary; the rest never ran.
        assert [p.status for p in manifest.points] == ["done", "skipped"]

    def test_drain_stops_at_point_boundary(self, recovery_env):
        entered = threading.Event()
        release = threading.Event()

        def simulate(spec, run_dir):
            if spec.label == "p1":
                entered.set()
                release.wait(timeout=10)
            return FakeResult(spec.label)

        s = JobScheduler(workers=1, max_concurrent_jobs=1, simulate=simulate)
        running = s.submit(
            JobRequest("a", [one_spec(1, "p1"), one_spec(2, "p2")], SCALE)
        )
        queued = s.submit(one_request("b", 3))
        s.start()
        assert entered.wait(5)
        s.drain()
        assert s.draining
        release.set()
        wait_terminal([running])
        assert s.wait_idle(timeout=10)
        # The running job stopped at the next point boundary...
        assert running.state == "cancelled"
        assert "drained" in running.error
        manifest = job_manifest(running)
        assert manifest.status == "partial"
        assert [p.status for p in manifest.points] == ["done", "skipped"]
        # ...and the queued job was never launched.
        assert queued.state == "queued"
        s.stop()

    def test_point_timeout_abandons_straggler(self, recovery_env, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_TIMEOUT_S", "0.25")
        monkeypatch.setenv("REPRO_RETRIES", "3")
        calls = []

        def simulate(spec, run_dir):
            calls.append(spec.seed)
            if len(calls) == 1:
                time.sleep(1.2)  # straggler: several timeout windows
            return FakeResult(spec.label)

        s = JobScheduler(workers=1, simulate=simulate)
        job = s.submit(one_request("a", 1))
        s.start()
        wait_terminal([job])
        s.stop()
        assert job.state == "done"
        assert job.retried_points >= 1
        manifest = job_manifest(job)
        assert manifest.status == "done"
        assert manifest.points[0].attempts >= 2
        assert len(calls) == 1  # the straggler's own result resolved it


@pytest.fixture()
def make_server(cache_dir):
    """Factory for live servers on ephemeral ports; torn down afterwards."""
    created = []

    def factory(start: bool = True, **scheduler_kwargs):
        scheduler = JobScheduler(workers=1, **scheduler_kwargs)
        server = create_server(port=0, scheduler=scheduler)
        if start:
            scheduler.start()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        created.append((server, scheduler))
        host, port = server.server_address[:2]
        client = ServeClient(f"http://{host}:{port}")
        client.scheduler = scheduler  # for drain/fault tests
        return client

    yield factory
    for server, scheduler in created:
        server.shutdown()
        server.server_close()
        scheduler.stop(wait=False)


class TestServeHTTP:
    def test_healthz_metrics_and_validation(self, make_server):
        client = make_server()
        health = client.healthz()
        assert health["ok"] is True
        assert health["workers"] == 1
        assert set(health["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled"
        }
        assert "# TYPE serve_queue_depth gauge" in client.metrics_text()
        assert client.jobs() == []
        for bad in ({}, {"experiment": "nope"}, {"points": []}):
            with pytest.raises(ServeError) as err:
                client.submit(bad)
            assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.job("job-missing")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.cancel("job-missing")
        assert err.value.status == 404

    def test_unknown_point_key_is_400(self, make_server):
        client = make_server(start=False)
        with pytest.raises(ServeError) as err:
            client.submit_points([{"label": "x", "seed": 1, "swepper": True}])
        assert err.value.status == 400
        assert "swepper" in err.value.payload["error"]

    def test_unservable_experiment_is_400(self, make_server):
        client = make_server(start=False)
        with pytest.raises(ServeError) as err:
            client.submit({"experiment": "fig9"})
        assert err.value.status == 400
        assert "not servable" in err.value.payload["error"]

    def test_healthz_reports_draining(self, make_server):
        client = make_server()
        assert client.healthz()["status"] == "ok"
        client.scheduler.drain()
        health = client.healthz()
        assert health["status"] == "draining"
        assert health["ok"] is True  # still serving reads

    def test_queue_full_is_429(self, make_server):
        client = make_server(start=False, queue_limit=2)
        client.submit_points([{"label": "a", "seed": 1}])
        client.submit_points([{"label": "b", "seed": 2}])
        with pytest.raises(ServeError) as err:
            client.submit_points([{"label": "c", "seed": 3}])
        assert err.value.status == 429

    def test_result_409_then_cancel_and_events(self, make_server):
        client = make_server(start=False)  # job stays queued
        job = client.submit_points([{"label": "x", "seed": 1}])
        assert job["state"] == "queued"
        with pytest.raises(ServeError) as err:
            client.result(job["id"])
        assert err.value.status == 409
        assert err.value.payload["state"] == "queued"
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        page = client.events(job["id"])
        names = [e["event"] for e in page["events"]]
        assert names == ["job.submitted", "job.finished"]
        assert page["events"][-1]["state"] == "cancelled"
        # Cursor-based polling: nothing new past the cursor.
        again = client.events(job["id"], cursor=page["cursor"])
        assert again["events"] == []
        assert again["cursor"] == page["cursor"]
        with pytest.raises(ServeError) as err:
            client.events(job["id"], cursor=-1)
        assert err.value.status == 400


class TestServeClientTransport:
    """Connection-refused retry + the REPRO_SERVE_TIMEOUT_S knob."""

    class _FakeResponse:
        def __enter__(self):
            return self

        def __exit__(self, *_exc):
            return False

        def read(self):
            return b'{"ok": true}'

    def test_timeout_env_knob(self, monkeypatch):
        assert ServeClient("http://x").timeout == 30.0
        monkeypatch.setenv("REPRO_SERVE_TIMEOUT_S", "7.5")
        assert ServeClient("http://x").timeout == 7.5
        assert ServeClient("http://x", timeout=2.0).timeout == 2.0
        monkeypatch.setenv("REPRO_SERVE_TIMEOUT_S", "soon")
        with pytest.raises(ConfigError):
            ServeClient("http://x")
        monkeypatch.setenv("REPRO_SERVE_TIMEOUT_S", "0")
        with pytest.raises(ConfigError):
            ServeClient("http://x")

    def test_connection_refused_retried_with_backoff(self, monkeypatch):
        calls = {"n": 0}

        def fake_urlopen(request, timeout=None):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise urllib.error.URLError(
                    ConnectionRefusedError(111, "refused")
                )
            return self._FakeResponse()

        sleeps = []
        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
        client = ServeClient("http://127.0.0.1:1", connect_backoff_s=0.1)
        assert client.healthz() == {"ok": True}
        assert calls["n"] == 3
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_connection_refused_retries_bounded(self, monkeypatch):
        calls = {"n": 0}

        def fake_urlopen(request, timeout=None):
            calls["n"] += 1
            raise urllib.error.URLError(ConnectionRefusedError(111, "refused"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServeClient(
            "http://127.0.0.1:1", connect_retries=2, connect_backoff_s=0.0
        )
        with pytest.raises(urllib.error.URLError):
            client.healthz()
        assert calls["n"] == 3  # initial attempt + 2 retries

    def test_other_transport_errors_not_retried(self, monkeypatch):
        calls = {"n": 0}

        def fake_urlopen(request, timeout=None):
            calls["n"] += 1
            raise urllib.error.URLError(OSError("no route to host"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServeClient("http://127.0.0.1:1")
        with pytest.raises(urllib.error.URLError):
            client.healthz()
        assert calls["n"] == 1

    def test_http_errors_not_retried(self, make_server):
        # A reachable server returning 4xx must surface immediately as
        # ServeError (HTTPError is never a connection problem).
        client = make_server(start=False)
        before = time.monotonic()
        with pytest.raises(ServeError) as err:
            client.job("job-missing")
        assert err.value.status == 404
        assert time.monotonic() - before < 2.0  # no backoff loop


class TestServeEndToEnd:
    def test_fig1_bit_identical_then_cached_resubmit(
        self, make_server, monkeypatch
    ):
        scale, measure = 0.05, 0.05
        settings = ExperimentSettings(scale=scale, measure_multiplier=measure)
        specs = SPEC_BUILDERS["fig1"](settings)

        # Local reference run: pure simulation, nothing cached.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        local = run_points(specs, max_workers=1)
        monkeypatch.delenv("REPRO_NO_CACHE")
        local_rows = [point_row(p, scale) for p in local]

        client = make_server()
        job = client.submit_experiment("fig1", scale=scale, measure=measure)
        snapshot = client.wait(job["id"], timeout=600)
        assert snapshot["state"] == "done"
        assert snapshot["simulated_points"] == len(specs)
        assert snapshot["done_points"] == len(specs)

        result = client.result(job["id"])
        assert result["schema"] == RESULT_SCHEMA_VERSION
        assert result["figure"] == "fig1"
        assert result["scale"] == scale

        def strip(row):  # wall-clock timing is the only legitimate delta
            return {k: v for k, v in row.items() if k != "sim_seconds"}

        assert json.dumps(
            [strip(r) for r in result["rows"]], sort_keys=True
        ) == json.dumps([strip(r) for r in local_rows], sort_keys=True)
        assert all(not r["from_cache"] for r in result["rows"])

        # The served job wrote a normal, valid run manifest.
        assert snapshot["run_id"]
        run_dir = runs_dir() / snapshot["run_id"]
        assert (run_dir / "manifest.json").is_file()
        validate_run_dir(run_dir)

        # Re-submitting the identical job must not re-simulate: every
        # point arrives via the point cache (or in-flight dedup), which
        # the /metrics counters prove.
        before = client.metrics()
        job2 = client.submit_experiment("fig1", scale=scale, measure=measure)
        snapshot2 = client.wait(job2["id"], timeout=120)
        assert snapshot2["state"] == "done"
        assert snapshot2["simulated_points"] == 0
        assert snapshot2["cached_points"] + snapshot2["deduped_points"] == len(specs)
        after = client.metrics()
        simulated = 'serve_points_total{source="simulated"}'
        cache_or_dedup = (
            after.get('serve_points_total{source="cache"}', 0)
            + after.get('serve_points_total{source="dedup"}', 0)
        )
        assert after[simulated] == before[simulated] == len(specs)
        assert cache_or_dedup >= len(specs)
        assert after['serve_jobs_finished_total{state="done"}'] == 2
        rows2 = client.result(job2["id"])["rows"]
        assert json.dumps(
            [strip(r) for r in rows2], sort_keys=True
        ) == json.dumps(
            [strip({**r, "from_cache": True}) for r in local_rows],
            sort_keys=True,
        )


class TestJsonCli:
    def test_json_flag_emits_shared_schema(self, capsys):
        from repro.experiments.__main__ import main as experiments_main

        assert experiments_main(["table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == RESULT_SCHEMA_VERSION
        assert payload["rows"] == []  # table1 is analytic-only
        assert payload["title"]
        # Same top-level keys as GET /jobs/<id>/result.
        assert set(payload) == {
            "schema", "figure", "title", "scale", "rows", "series", "notes"
        }

    def test_result_dict_requires_done(self):
        from repro.serve.jobs import Job

        job = Job(one_request("a", 1))
        with pytest.raises(ConfigError):
            job.result_dict()
