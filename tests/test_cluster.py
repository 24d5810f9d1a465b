"""Tests for the ``repro.cluster`` distributed worker fleet.

Four layers:

* protocol units — payload transport, message validation, env knobs;
* coordinator units — register / lease / heartbeat / complete / fail /
  expire driven directly, with futures observed from the scheduler's
  side of the seam;
* agent tests over :class:`LocalTransport` — the pull loop, ``--once``,
  drain-release, failure reporting, re-registration;
* integration — ``JobScheduler(backend="cluster")`` end to
  end, including the lease-expiry acceptance test (a worker leases
  points and goes silent; the points requeue, a healthy worker
  finishes, and the result is bit-identical to ``run_points``) and a
  subprocess e2e that kills a real worker with an injected
  ``worker_crash`` fault over real HTTP.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster import protocol
from repro.cluster.coordinator import (
    ClusterCoordinator,
    LeaseExpired,
    WorkerLeaseError,
    WorkerPointError,
)
from repro.cluster.worker import ClusterClient, LocalTransport, WorkerAgent
from repro.engine import faults, pointcache
from repro.engine.parallel import run_points
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentSettings,
    kvs_system,
    kvs_workload,
    point_row,
    point_spec,
)
from repro.obs.manifest import RunManifest, runs_dir
from repro.obs.validate import validate_run_dir
from repro.serve import JobScheduler, ServeError, create_server
from repro.serve.jobs import JobRequest, TERMINAL_STATES

SCALE = 0.05
SETTINGS = ExperimentSettings(scale=SCALE, measure_multiplier=0.1)
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def one_spec(seed: int, label: str = ""):
    return point_spec(
        label or f"s{seed}",
        kvs_system(SCALE, 64, 2, 512),
        kvs_workload(0.02, 512),
        "ddio",
        settings=SETTINGS,
        seed=seed,
    )


class FakeResult:
    """The minimal result surface the cluster path touches (picklable)."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.sim_seconds = 0.0
        self.from_cache = False
        self.timeline_file = None
        self.worker_id = None


def wait_terminal(jobs, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    for job in jobs:
        while job.state not in TERMINAL_STATES:
            assert time.monotonic() < deadline, f"{job.id} stuck {job.state}"
            time.sleep(0.005)


def job_manifest(job):
    assert job.run_id, "job finished without a run_id"
    run_dir = runs_dir() / job.run_id
    manifest = RunManifest.load(run_dir / "manifest.json")
    validate_run_dir(run_dir)
    return manifest


def register(coord: ClusterCoordinator, capacity: int = 1, name=None) -> str:
    reply = coord.register(
        protocol.register_request(
            code_salt=pointcache.code_salt(),
            capacity=capacity,
            host="testhost",
            pid=1234,
            name=name,
        )
    )
    return reply["worker_id"]


def spawn_worker(url: str, *args: str, env_extra=None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_NO_CACHE"] = "1"
    env.update(env_extra or {})
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cluster.worker",
            "--coordinator",
            url,
            "--capacity",
            "1",
            *args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


# ----------------------------------------------------------------------
# protocol units
# ----------------------------------------------------------------------


class TestProtocol:
    def test_payload_round_trip(self):
        spec = one_spec(1, "p1")
        decoded = protocol.decode_payload(protocol.encode_payload(spec))
        assert decoded.label == "p1"
        assert pointcache.fingerprint(decoded) == pointcache.fingerprint(spec)

    def test_mangled_payload_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="undecodable"):
            protocol.decode_payload("not!base64@pickle")

    def test_version_envelope(self):
        with pytest.raises(protocol.ProtocolError, match="JSON object"):
            protocol.check_version([1, 2])
        with pytest.raises(protocol.ProtocolError, match="unsupported"):
            protocol.check_version({"protocol": 99})
        body = {"protocol": protocol.PROTOCOL_VERSION, "x": 1}
        assert protocol.check_version(body) is body

    def test_message_field_validation(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.worker_id_of({"worker_id": ""})
        with pytest.raises(protocol.ProtocolError):
            protocol.string_list({"lease_ids": [1]}, "lease_ids")
        assert protocol.string_list({}, "released") == []

    def test_builders_carry_version(self):
        messages = [
            protocol.register_request("salt", 2, "h", 1, name="w"),
            protocol.lease_request("w-1", 2),
            protocol.heartbeat_request("w-1", ["l-1"]),
            protocol.complete_request("w-1", "l-1", []),
            protocol.fail_request("w-1", "l-1", "boom"),
        ]
        for message in messages:
            assert message["protocol"] == protocol.PROTOCOL_VERSION

    def test_env_knobs(self, monkeypatch):
        assert protocol.lease_ttl_s() == protocol.DEFAULT_LEASE_TTL_S
        monkeypatch.setenv("REPRO_CLUSTER_LEASE_TTL_S", "3.0")
        assert protocol.lease_ttl_s() == 3.0
        monkeypatch.setenv("REPRO_CLUSTER_BATCH", "7")
        assert protocol.batch_size() == 7

    def test_env_knob_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_LEASE_TTL_S", "zero")
        with pytest.raises(ConfigError):
            protocol.lease_ttl_s()
        monkeypatch.setenv("REPRO_CLUSTER_LEASE_TTL_S", "-1")
        with pytest.raises(ConfigError):
            protocol.lease_ttl_s()
        monkeypatch.setenv("REPRO_CLUSTER_BATCH", "0")
        with pytest.raises(ConfigError):
            protocol.batch_size()
        monkeypatch.setenv("REPRO_CLUSTER_BATCH", "many")
        with pytest.raises(ConfigError):
            protocol.batch_size()


# ----------------------------------------------------------------------
# coordinator units (monitor thread never started; expiry driven by hand)
# ----------------------------------------------------------------------


class TestCoordinator:
    def test_register_pushes_fleet_config(self):
        coord = ClusterCoordinator(lease_ttl=9.0, batch=2)
        reply = coord.register(
            protocol.register_request(
                pointcache.code_salt(), 4, "h", 7, name="w0"
            )
        )
        assert reply["worker_id"].startswith("w-")
        assert reply["lease_ttl_s"] == 9.0
        assert reply["heartbeat_s"] == 3.0  # a third of the TTL
        assert reply["batch"] == 2
        assert reply["poll_s"] == protocol.POLL_S
        snapshot = coord.workers_snapshot()[0]
        assert snapshot["name"] == "w0"
        assert snapshot["capacity"] == 4
        assert snapshot["state"] == "idle"

    def test_register_salt_mismatch_rejected(self):
        coord = ClusterCoordinator()
        with pytest.raises(protocol.SaltMismatch, match="different source"):
            coord.register(
                protocol.register_request("not-the-salt", 1, "h", 1)
            )

    def test_unknown_worker_rejected(self):
        coord = ClusterCoordinator()
        with pytest.raises(protocol.UnknownWorker):
            coord.lease(protocol.lease_request("w-missing", 1))

    def test_lease_empty_queue(self):
        coord = ClusterCoordinator()
        wid = register(coord)
        grant = coord.lease(protocol.lease_request(wid, 1))
        assert grant["lease_id"] is None
        assert grant["points"] == []
        assert grant["draining"] is False

    def test_lease_and_complete_resolve_futures(self):
        coord = ClusterCoordinator(lease_ttl=30.0, batch=2)
        specs = [one_spec(i, f"p{i}") for i in (1, 2, 3)]
        futures = [coord.submit(spec, None) for spec in specs]
        assert coord.pending_count() == 3
        wid = register(coord, capacity=8)
        grant = coord.lease(protocol.lease_request(wid, 8))
        assert len(grant["points"]) == 2  # batch-bounded
        assert coord.pending_count() == 1
        assert futures[0].running() and futures[1].running()
        results = [
            {
                "fingerprint": p["fingerprint"],
                "payload": protocol.encode_payload(FakeResult(p["label"])),
            }
            for p in grant["points"]
        ]
        reply = coord.complete(
            protocol.complete_request(wid, grant["lease_id"], results)
        )
        assert reply["accepted"] is True
        assert reply["resolved"] == 2
        assert reply["late"] == 0
        for future, spec in zip(futures[:2], specs[:2]):
            result = future.result(timeout=1)
            assert result.label == spec.label
            assert result.worker_id == wid  # provenance stamped on upload
        assert not futures[2].done()
        snapshot = coord.workers_snapshot()[0]
        assert snapshot["points_done"] == 2
        assert snapshot["state"] == "idle"
        text = coord.registry.render_text()
        assert "cluster_points_remote_total 2" in text
        assert "cluster_leases_granted_total 1" in text

    def test_point_failure_charges_future(self):
        coord = ClusterCoordinator(lease_ttl=30.0, batch=4)
        future = coord.submit(one_spec(1, "p1"), None)
        wid = register(coord)
        grant = coord.lease(protocol.lease_request(wid, 4))
        coord.complete(
            protocol.complete_request(
                wid,
                grant["lease_id"],
                [],
                failures=[
                    {
                        "fingerprint": grant["points"][0]["fingerprint"],
                        "error": "RuntimeError: boom",
                    }
                ],
            )
        )
        with pytest.raises(WorkerPointError, match="boom") as err:
            future.result(timeout=1)
        assert wid in str(err.value)
        assert (
            "cluster_point_failures_total 1" in coord.registry.render_text()
        )

    def test_fail_aborts_whole_lease(self):
        coord = ClusterCoordinator(lease_ttl=30.0, batch=4)
        futures = [coord.submit(one_spec(i, f"p{i}"), None) for i in (1, 2)]
        wid = register(coord)
        grant = coord.lease(protocol.lease_request(wid, 4))
        reply = coord.fail(
            protocol.fail_request(wid, grant["lease_id"], "pool collapsed")
        )
        assert reply["failed"] == 2
        for future in futures:
            with pytest.raises(WorkerLeaseError, match="pool collapsed"):
                future.result(timeout=1)

    def test_drain_release_requeues_uncharged(self):
        coord = ClusterCoordinator(lease_ttl=30.0, batch=4)
        specs = [one_spec(i, f"p{i}") for i in (1, 2)]
        futures = [coord.submit(spec, None) for spec in specs]
        wid = register(coord)
        grant = coord.lease(protocol.lease_request(wid, 4))
        fps = [p["fingerprint"] for p in grant["points"]]
        reply = coord.complete(
            protocol.complete_request(
                wid, grant["lease_id"], [], released=fps
            )
        )
        assert reply["accepted"] is True and reply["resolved"] == 0
        assert coord.pending_count() == 2
        assert not any(f.done() for f in futures)
        # A second worker re-leases the same (already-claimed) entries —
        # set_running_or_notify_cancel must not be called twice.
        wid2 = register(coord)
        grant2 = coord.lease(protocol.lease_request(wid2, 4))
        assert sorted(p["fingerprint"] for p in grant2["points"]) == sorted(fps)
        assert (
            "cluster_points_released_total 2" in coord.registry.render_text()
        )

    def test_heartbeat_renews_deadline(self):
        coord = ClusterCoordinator(lease_ttl=30.0, batch=4)
        coord.submit(one_spec(1, "p1"), None)
        wid = register(coord)
        grant = coord.lease(protocol.lease_request(wid, 4))
        lease_id = grant["lease_id"]
        coord._leases[lease_id].deadline_unix = 1.0  # long overdue
        reply = coord.heartbeat(protocol.heartbeat_request(wid, [lease_id]))
        assert reply["renewed"] == [lease_id]
        assert coord.expire_stale() == 0  # renewal moved the deadline out

    def test_expiry_charges_lease_expired_and_late_upload_caches(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pointcache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        coord = ClusterCoordinator(lease_ttl=30.0, batch=4)
        future = coord.submit(one_spec(1, "p1"), None)
        wid = register(coord)
        grant = coord.lease(protocol.lease_request(wid, 4))
        assert coord.expire_stale(now=time.time() + 31) == 1
        with pytest.raises(LeaseExpired, match="presumed dead"):
            future.result(timeout=1)
        assert coord.workers_snapshot()[0]["state"] == "lost"
        # The worker was only slow, not dead: its next heartbeat revives
        # liveness but reports the lease as gone...
        reply = coord.heartbeat(
            protocol.heartbeat_request(wid, [grant["lease_id"]])
        )
        assert reply["expired"] == [grant["lease_id"]]
        assert coord.workers_snapshot()[0]["state"] == "idle"
        # ...and its late upload still lands in the point cache, so the
        # scheduler's retry becomes a cache hit instead of a re-run.
        fp = grant["points"][0]["fingerprint"]
        reply = coord.complete(
            protocol.complete_request(
                wid,
                grant["lease_id"],
                [
                    {
                        "fingerprint": fp,
                        "payload": protocol.encode_payload(FakeResult("p1")),
                    }
                ],
            )
        )
        assert reply["accepted"] is False
        assert reply["late"] == 1
        assert pointcache.load(fp) is not None
        text = coord.registry.render_text()
        assert "cluster_lease_expired_total 1" in text
        assert "cluster_late_results_total 1" in text

    def test_upload_for_done_future_is_cached_not_raised(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pointcache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        coord = ClusterCoordinator(lease_ttl=30.0, batch=4)
        future = coord.submit(one_spec(1, "p1"), None)
        wid = register(coord)
        grant = coord.lease(protocol.lease_request(wid, 4))
        assert future.running()
        # A leased future is running, so Future.cancel() refuses it:
        # finish it out of band instead, as a second resolver would.
        future.set_result(FakeResult("elsewhere"))
        fp = grant["points"][0]["fingerprint"]
        reply = coord.complete(
            protocol.complete_request(
                wid,
                grant["lease_id"],
                [
                    {
                        "fingerprint": fp,
                        "payload": protocol.encode_payload(FakeResult("p1")),
                    }
                ],
            )
        )
        assert reply["accepted"] is True
        assert (reply["resolved"], reply["late"]) == (0, 1)
        assert future.result(timeout=1).label == "elsewhere"
        cached = pointcache.load(fp)
        assert cached is not None and cached.worker_id == wid
        text = coord.registry.render_text()
        assert "cluster_late_results_total 1" in text
        assert "cluster_points_remote_total 0" in text

    def test_stats_and_worker_gauges(self):
        coord = ClusterCoordinator(lease_ttl=30.0, batch=4)
        coord.submit(one_spec(1, "p1"), None)
        for i in (2, 3):
            coord.submit(one_spec(i, f"a{i}"), None, tenant="alice")
        coord.submit(one_spec(4, "b4"), None, tenant="bob")
        register(coord)
        stats = coord.stats()
        assert stats["pending_points"] == 4
        assert stats["active_leases"] == 0
        assert stats["workers"] == 1
        assert stats["draining"] is False
        assert stats["policy"] == "priority"
        assert stats["pending_by_tenant"] == {
            "default": 1,
            "alice": 2,
            "bob": 1,
        }
        text = coord.registry.render_text()  # runs the pull collector
        assert "cluster_pending_points 4" in text
        assert 'cluster_tenant_pending_points{tenant="alice"} 2' in text
        assert 'cluster_tenant_pending_points{tenant="bob"} 1' in text
        assert 'cluster_workers{state="idle"} 1' in text
        assert 'cluster_workers{state="lost"} 0' in text


# ----------------------------------------------------------------------
# worker agent over LocalTransport
# ----------------------------------------------------------------------


class TestWorkerAgent:
    def test_once_mode_processes_one_lease(self):
        coord = ClusterCoordinator(lease_ttl=30.0, batch=4)
        specs = [one_spec(i, f"p{i}") for i in (1, 2)]
        futures = [coord.submit(spec, None) for spec in specs]
        agent = WorkerAgent(
            LocalTransport(coord),
            capacity=2,  # lease size = min(batch, capacity)
            once=True,
            name="once",
            simulate=lambda spec: FakeResult(spec.label),
        )
        assert agent.run() == 0
        assert agent.leases_done == 1
        assert agent.points_done == 2
        assert [f.result(timeout=1).label for f in futures] == ["p1", "p2"]
        assert coord.workers_snapshot()[0]["name"] == "once"

    def test_capacity_validation(self):
        with pytest.raises(protocol.ProtocolError, match=">= 1"):
            WorkerAgent(LocalTransport(ClusterCoordinator()), capacity=0)

    def test_simulation_error_reported_per_point(self):
        coord = ClusterCoordinator(lease_ttl=30.0, batch=4)
        good = coord.submit(one_spec(1, "good"), None)
        bad = coord.submit(one_spec(2, "bad"), None)

        def simulate(spec):
            if spec.label == "bad":
                raise RuntimeError("sim exploded")
            return FakeResult(spec.label)

        agent = WorkerAgent(
            LocalTransport(coord), capacity=2, once=True, simulate=simulate
        )
        assert agent.run() == 0
        assert good.result(timeout=1).label == "good"
        with pytest.raises(WorkerPointError, match="sim exploded"):
            bad.result(timeout=1)
        assert agent.points_done == 1
        assert agent.points_failed == 1

    def test_draining_coordinator_stops_idle_agent(self):
        coord = ClusterCoordinator()
        coord.drain()
        agent = WorkerAgent(
            LocalTransport(coord),
            capacity=1,
            simulate=lambda spec: FakeResult(spec.label),
        )
        assert agent.run() == 0  # empty draining grant -> clean exit
        assert agent.leases_done == 0

    def test_agent_drain_releases_unstarted_points(self):
        coord = ClusterCoordinator(lease_ttl=30.0, batch=4)
        specs = [one_spec(i, f"p{i}") for i in (1, 2, 3)]
        futures = [coord.submit(spec, None) for spec in specs]
        agent_box = {}

        def simulate(spec):
            agent_box["agent"].drain()  # SIGTERM mid-lease
            return FakeResult(spec.label)

        agent = WorkerAgent(
            LocalTransport(coord), capacity=3, simulate=simulate
        )
        agent_box["agent"] = agent
        assert agent.run() == 0
        # First point finished its boundary; the rest were released and
        # requeued with their original futures, uncharged.
        assert futures[0].result(timeout=1).label == "p1"
        assert not futures[1].done() and not futures[2].done()
        assert coord.pending_count() == 2
        assert agent.points_done == 1

    def test_fingerprint_mismatch_aborts_lease(self):
        coord = ClusterCoordinator(lease_ttl=30.0, batch=4)
        future = coord.submit(one_spec(1, "p1"), None)
        agent = WorkerAgent(
            LocalTransport(coord),
            capacity=1,
            simulate=lambda spec: FakeResult(spec.label),
        )
        agent._register()
        grant = coord.lease(protocol.lease_request(agent.worker_id, 4))
        points = grant["points"]
        points[0]["fingerprint"] = "deadbeef" * 8
        agent._run_lease(grant["lease_id"], points)
        with pytest.raises(WorkerLeaseError, match="fingerprint mismatch"):
            future.result(timeout=1)

    def test_reregisters_on_unknown_worker(self):
        coord = ClusterCoordinator()
        agent = WorkerAgent(
            LocalTransport(coord),
            capacity=1,
            simulate=lambda spec: FakeResult(spec.label),
        )
        agent._register()
        old = agent.worker_id
        # Coordinator restarted and forgot us: the transport error
        # handler re-registers under a fresh id and retries.
        assert agent._handle_transport_error(
            "lease", protocol.UnknownWorker(old)
        )
        assert agent.worker_id != old
        assert len(coord.workers_snapshot()) == 2


class TestCoordinatorConcurrency:
    def test_concurrent_submit_lease_complete_loses_nothing(self):
        """Submitters, leasing workers and a metrics scraper share the
        coordinator's one lock; every point must be granted exactly
        once and resolve with its own result."""
        coord = ClusterCoordinator(lease_ttl=30.0, batch=1, policy="wfq")
        specs = [one_spec(100 + i, f"c{i}") for i in range(96)]
        chunks = [specs[i::4] for i in range(4)]
        submitted = [[] for _ in chunks]
        # Two threads per worker id, so per-worker counters are
        # contended too.
        wids = [register(coord, capacity=3) for _ in range(4)] * 2
        stop = threading.Event()
        errors = []

        def recording(target):
            def run(*args):
                try:
                    target(*args)
                except BaseException as exc:  # reported by the assert below
                    errors.append(exc)
                    raise

            return run

        def submitter(index):
            tenant = "alice" if index % 2 else "bob"
            for spec in chunks[index]:
                submitted[index].append(
                    (spec.label, coord.submit(spec, None, tenant=tenant))
                )

        def worker(wid):
            while not stop.is_set():
                grant = coord.lease(protocol.lease_request(wid, 1))
                if not grant["points"]:
                    time.sleep(0.001)
                    continue
                coord.heartbeat(
                    protocol.heartbeat_request(wid, [grant["lease_id"]])
                )
                coord.complete(
                    protocol.complete_request(
                        wid,
                        grant["lease_id"],
                        [
                            {
                                "fingerprint": p["fingerprint"],
                                "payload": protocol.encode_payload(
                                    FakeResult(p["label"])
                                ),
                            }
                            for p in grant["points"]
                        ],
                    )
                )

        def scraper():
            while not stop.is_set():
                coord.registry.render_text()
                coord.stats()
                coord.expire_stale()

        submitters = [
            threading.Thread(target=recording(submitter), args=(i,))
            for i in range(len(chunks))
        ]
        others = [
            threading.Thread(target=recording(worker), args=(w,))
            for w in wids
        ]
        others.append(threading.Thread(target=recording(scraper)))
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in submitters + others:
                thread.start()
            for thread in submitters:
                thread.join(timeout=30)
            futures = [pair for chunk in submitted for pair in chunk]
            assert len(futures) == len(specs)
            for label, future in futures:
                assert future.result(timeout=30).label == label
        finally:
            stop.set()
            for thread in others:
                thread.join(timeout=10)
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in submitters + others)
        assert errors == []
        stats = coord.stats()
        assert (stats["pending_points"], stats["active_leases"]) == (0, 0)
        fleet = coord.workers_snapshot()
        assert sum(w["points_done"] for w in fleet) == len(specs)
        text = coord.registry.render_text()
        assert f"cluster_points_remote_total {len(specs)}" in text
        assert "cluster_late_results_total 0" in text


# ----------------------------------------------------------------------
# scheduler integration (cluster backend)
# ----------------------------------------------------------------------


@pytest.fixture()
def cluster_env(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_NO_MANIFEST", "1")


class TestSchedulerBackends:
    def test_backend_validation(self):
        for bogus in ("bogus", "hybrid"):
            with pytest.raises(ConfigError, match="backend"):
                JobScheduler(workers=1, backend=bogus)
        s = JobScheduler(workers=1, backend="local")
        assert s.coordinator is None
        s.stop()

    def test_cluster_backend_serves_via_agent(self, cluster_env):
        s = JobScheduler(workers=1, backend="cluster")
        job = s.submit(
            JobRequest("a", [one_spec(1, "p1"), one_spec(2, "p2")], SCALE)
        )
        s.start()
        agent = WorkerAgent(
            LocalTransport(s.coordinator),
            capacity=1,
            name="local-agent",
            simulate=lambda spec: FakeResult(spec.label),
        )
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        wait_terminal([job])
        agent.drain()
        thread.join(timeout=5)
        s.stop()
        assert job.state == "done"
        assert [r.label for r in job.results] == ["p1", "p2"]
        assert all(r.worker_id == agent.worker_id for r in job.results)
        text = s.registry.render_text()
        assert "cluster_points_remote_total 2" in text
        assert 'serve_points_total{source="simulated"} 2' in text

    def test_one_cache_write_per_cluster_point(self, tmp_path, monkeypatch):
        """The daemon that owns the run reads and writes the point
        cache; a worker running the real engine only simulates: one
        store per simulated point, and no load on the worker's side."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pointcache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        stores, loads = [], []
        real_store, real_load = pointcache.store, pointcache.load

        def store(fp, value):
            stores.append(fp)
            real_store(fp, value)

        def load(fp, *args, **kwargs):
            loads.append(threading.current_thread().name)
            return real_load(fp, *args, **kwargs)

        monkeypatch.setattr(pointcache, "store", store)
        monkeypatch.setattr(pointcache, "load", load)
        specs = [one_spec(1, "p1"), one_spec(2, "p2")]
        s = JobScheduler(workers=1, backend="cluster")
        job = s.submit(JobRequest("one-store", specs, SCALE))
        s.start()
        agent = WorkerAgent(LocalTransport(s.coordinator), capacity=1)
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        wait_terminal([job], timeout=120)
        agent.drain()
        thread.join(timeout=5)
        s.stop()
        assert job.state == "done" and job.simulated_points == 2
        assert sorted(stores) == sorted(pointcache.fingerprint(p) for p in specs)
        # One lookup per point, each on the daemon's job thread.
        assert len(loads) == 2
        assert all(name == f"serve-{job.id}" for name in loads)

    def test_lease_expiry_requeues_and_charges_attempt(self, monkeypatch):
        """The acceptance flow, in-process: a worker leases a point and
        goes silent; the lease expires, the scheduler charges an attempt
        and requeues, and a healthy worker finishes the job. The
        manifest records attempts=2 with the healthy worker's id."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "0")
        monkeypatch.setenv("REPRO_CLUSTER_LEASE_TTL_S", "0.3")
        s = JobScheduler(workers=1, backend="cluster")
        job = s.submit(JobRequest("expiry", [one_spec(1, "p1")], SCALE))
        s.start()
        coord = s.coordinator
        deadline = time.monotonic() + 5
        while coord.pending_count() < 1:
            assert time.monotonic() < deadline, "point never enqueued"
            time.sleep(0.005)
        # The doomed worker grabs the lease and is never heard from again.
        doomed = register(coord, capacity=4, name="doomed")
        grant = coord.lease(protocol.lease_request(doomed, 4))
        assert len(grant["points"]) == 1
        agent = WorkerAgent(
            LocalTransport(coord),
            capacity=1,
            name="healthy",
            simulate=lambda spec: FakeResult(spec.label),
        )
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        wait_terminal([job])
        agent.drain()
        thread.join(timeout=5)
        s.stop()
        assert job.state == "done"
        assert job.retried_points == 1
        manifest = job_manifest(job)
        assert manifest.status == "done"
        assert manifest.points[0].attempts == 2
        assert manifest.points[0].worker_id == agent.worker_id
        assert manifest.points[0].worker_id != doomed
        states = {
            w["name"]: w["state"] for w in coord.workers_snapshot()
        }
        assert states["doomed"] == "lost"
        text = s.registry.render_text()
        assert "cluster_lease_expired_total 1" in text
        assert "serve_point_retries_total 1" in text


# ----------------------------------------------------------------------
# HTTP layer + subprocess workers
# ----------------------------------------------------------------------


@pytest.fixture()
def make_cluster_server(cluster_env):
    created = []

    def factory(backend: str = "cluster"):
        scheduler = JobScheduler(workers=1, backend=backend)
        server = create_server(port=0, scheduler=scheduler)
        scheduler.start()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        created.append((server, scheduler))
        host, port = server.server_address[:2]
        return ClusterClient(f"http://{host}:{port}"), scheduler

    yield factory
    for server, scheduler in created:
        server.shutdown()
        server.server_close()
        scheduler.stop(wait=False)


class TestClusterHTTP:
    def test_workers_endpoint_requires_cluster_backend(
        self, make_cluster_server
    ):
        client, _scheduler = make_cluster_server(backend="local")
        with pytest.raises(ServeError) as err:
            client.workers()
        assert err.value.status == 404
        assert "backend" in err.value.payload["error"]

    def test_register_lease_over_http_with_error_mapping(
        self, make_cluster_server
    ):
        client, scheduler = make_cluster_server()
        # 400: bad protocol version; 409: salt mismatch; 404: unknown id.
        with pytest.raises(ServeError) as err:
            client.register({"protocol": 99})
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.register(
                protocol.register_request("wrong-salt", 1, "h", 1)
            )
        assert err.value.status == 409
        with pytest.raises(ServeError) as err:
            client.lease(protocol.lease_request("w-missing", 1))
        assert err.value.status == 404
        reply = client.register(
            protocol.register_request(
                pointcache.code_salt(), 1, "h", 1, name="http-w"
            )
        )
        assert reply["protocol"] == protocol.PROTOCOL_VERSION
        grant = client.lease(protocol.lease_request(reply["worker_id"], 1))
        assert grant["lease_id"] is None  # empty queue
        listing = client._request("GET", "/workers")
        assert listing["backend"] == "cluster"
        assert [w["name"] for w in listing["workers"]] == ["http-w"]
        health = client.healthz()
        assert health["backend"] == "cluster"
        assert health["cluster"]["workers"] == 1

    def test_timeline_cli_lists_fleet(
        self, make_cluster_server, capsys, tmp_path
    ):
        from repro.report.timeline import main as timeline_main

        client, _scheduler = make_cluster_server()
        reply = client.register(
            protocol.register_request(
                pointcache.code_salt(), 1, "h", 1, name="cli-w"
            )
        )
        assert (
            timeline_main(
                [
                    "--list",
                    "--runs-dir",
                    str(tmp_path / "empty"),
                    "--coordinator",
                    client.base_url,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "no runs under" in out  # --list section still printed
        assert "cluster at" in out
        assert reply["worker_id"] in out
        assert "name=cli-w" in out

    def test_worker_subprocess_once(self, make_cluster_server):
        client, scheduler = make_cluster_server()
        job = scheduler.submit(JobRequest("once", [one_spec(5, "p5")], SCALE))
        proc = spawn_worker(client.base_url, "--once", "--name", "sub-once")
        try:
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        wait_terminal([job], timeout=10)
        assert job.state == "done"
        assert job.results[0].label == "p5"
        assert job.results[0].worker_id  # stamped by the coordinator


class TestClusterEndToEnd:
    def test_worker_crash_recovers_bit_identical(self, monkeypatch):
        """Acceptance: submit to a coordinator, let a worker crash
        mid-lease (injected ``worker_crash``), and the job still
        finishes bit-identical to a single-process ``run_points`` — the
        kill visible as an expired lease + retry in metrics and in the
        manifest."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "0")
        monkeypatch.setenv("REPRO_CLUSTER_LEASE_TTL_S", "1.0")
        specs = [one_spec(1, "p1"), one_spec(2, "p2")]
        local_rows = [
            point_row(p, SCALE) for p in run_points(specs, max_workers=1)
        ]

        scheduler = JobScheduler(workers=1, backend="cluster")
        server = create_server(port=0, scheduler=scheduler)
        scheduler.start()
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        client = ClusterClient(url)
        procs = []
        try:
            job = scheduler.submit(JobRequest("crash-e2e", specs, SCALE))
            doomed = spawn_worker(
                url,
                "--name",
                "doomed",
                env_extra={"REPRO_FAULT_SPEC": "worker_crash@point=0"},
            )
            procs.append(doomed)
            # The injected fault hard-kills the worker at its first
            # simulation start — mid-lease, heartbeats stop.
            assert doomed.wait(timeout=60) == faults.CRASH_EXIT_CODE
            deadline = time.monotonic() + 30
            while (
                client.metrics().get("cluster_lease_expired_total", 0) < 1
            ):
                assert time.monotonic() < deadline, "lease never expired"
                time.sleep(0.1)
            healthy = spawn_worker(url, "--name", "healthy")
            procs.append(healthy)
            wait_terminal([job], timeout=120)
            assert job.state == "done", job.error

            def strip(row):
                return {k: v for k, v in row.items() if k != "sim_seconds"}

            rows = [point_row(p, SCALE) for p in job.results]
            assert [strip(r) for r in rows] == [
                strip(r) for r in local_rows
            ]
            manifest = job_manifest(job)
            # The doomed worker (capacity 1) leased exactly p1 and died
            # on it: one charged attempt, requeued, re-run by healthy.
            attempts = {p.label: p.attempts for p in manifest.points}
            assert attempts == {"p1": 2, "p2": 1}
            fleet = {w["name"]: w for w in client.workers()}
            assert fleet["doomed"]["state"] == "lost"
            assert {p.worker_id for p in manifest.points} == {
                fleet["healthy"]["worker_id"]
            }
            # SIGTERM drains the healthy worker cleanly.
            healthy.send_signal(signal.SIGTERM)
            assert healthy.wait(timeout=30) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
            server.shutdown()
            server.server_close()
            scheduler.stop(wait=False)
