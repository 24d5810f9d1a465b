"""Tests for the ``repro.sched`` fair-scheduling subsystem.

Six layers:

* policy units — fifo / priority / wfq pop order and WFQ service
  shares within 10% of configured weights;
* tenant units — ``REPRO_TENANTS`` parsing, quota defaulting, the
  token bucket against a fake clock;
* metrics guard — ``guarded_labels`` folding client-controlled tenant
  names into ``_overflow`` (then the null instrument) at the registry's
  cardinality cap instead of crashing;
* scheduler admission — per-tenant quota / rate 429s carrying the
  tenant, its limit, and current usage;
* cluster grants — the coordinator leases points in WFQ
  virtual-finish-time order;
* engine seam — ``run_points`` on 2 workers stays bit-identical to the
  serial path, and a served job records its tenant in the run manifest
  and ``timeline --list``.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import protocol
from repro.cluster.coordinator import ClusterCoordinator
from repro.engine import pointcache, result_identity
from repro.engine.parallel import run_points
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentSettings,
    kvs_system,
    kvs_workload,
    point_spec,
)
from repro.obs.manifest import RunManifest, runs_dir
from repro.obs.metrics import NULL_INSTRUMENT, MetricsRegistry
from repro.report.timeline import list_runs
from repro.sched import (
    DEFAULT_POLICY,
    TenantTable,
    TokenBucket,
    guarded_labels,
    make_policy,
    sched_policy,
    validate_tenant,
)
from repro.sched.tenants import OVERFLOW_TENANT
from repro.serve.jobs import TERMINAL_STATES, JobRequest, parse_job_request
from repro.serve.scheduler import JobScheduler, QuotaExceeded, RateLimited

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


def register(coord: ClusterCoordinator, capacity: int = 8) -> str:
    reply = coord.register(
        protocol.register_request(
            code_salt=pointcache.code_salt(),
            capacity=capacity,
            host="testhost",
            pid=1234,
        )
    )
    return reply["worker_id"]


# -- policy units ---------------------------------------------------------


class TestPolicies:
    def test_fifo_ignores_priority_and_tenant(self):
        q = make_policy("fifo")
        q.push("a", tenant="t1", priority=0)
        q.push("b", tenant="t2", priority=9)
        q.push("c", tenant="t1", priority=-5)
        assert [q.pop(), q.pop(), q.pop()] == ["a", "b", "c"]
        assert q.pop() is None

    def test_priority_heap_is_default_and_orders_by_priority(self):
        assert DEFAULT_POLICY == "priority"
        q = make_policy("priority")
        q.push("low", priority=0)
        q.push("high", priority=5)
        q.push("low2", priority=0)
        assert [q.pop(), q.pop(), q.pop()] == ["high", "low", "low2"]

    def test_wfq_shares_match_weights_within_ten_percent(self):
        tenants = TenantTable.from_env()
        tenants.configs["alice"] = tenants.get("alice").__class__(
            "alice", weight=3.0
        )
        q = make_policy("wfq", tenants)
        # Both tenants fully backlogged: 120 unit-cost items each.
        for i in range(120):
            q.push(("alice", i), tenant="alice")
            q.push(("bob", i), tenant="bob")
        served = {"alice": 0, "bob": 0}
        for _ in range(80):  # while both stay backlogged
            tenant, _i = q.pop()
            served[tenant] += 1
        share = served["alice"] / 80
        assert abs(share - 0.75) <= 0.10 * 0.75, served

    def test_wfq_idle_tenant_cannot_bank_credit(self):
        q = make_policy("wfq")
        # bob works alone for a while; alice was idle, not saving up.
        for i in range(10):
            q.push(("bob", i), tenant="bob")
        for _ in range(10):
            q.pop()
        for i in range(6):
            q.push(("alice", i), tenant="alice")
            q.push(("bob", 100 + i), tenant="bob")
        first_six = [q.pop()[0] for _ in range(6)]
        # Equal weights from here on: alice must not get a catch-up
        # burst; service alternates.
        assert first_six.count("alice") == 3

    def test_policy_selection_and_validation(self, monkeypatch):
        assert sched_policy() == DEFAULT_POLICY
        monkeypatch.setenv("REPRO_SCHED_POLICY", "wfq")
        assert sched_policy() == "wfq"
        assert make_policy().name == "wfq"
        monkeypatch.setenv("REPRO_SCHED_POLICY", "sjf")
        with pytest.raises(ConfigError):
            sched_policy()
        with pytest.raises(ConfigError):
            make_policy("lifo")

    def test_tenants_queued_introspection(self):
        q = make_policy("priority")
        q.push("a", tenant="alice")
        q.push("b", tenant="alice")
        q.push("c", tenant="bob")
        assert q.tenants_queued() == {"alice": 2, "bob": 1}


# -- tenant units ---------------------------------------------------------


class TestTenants:
    def test_from_env_parses_knobs(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TENANTS",
            "alice:weight=3,quota=16,rate=10;bob:weight=1;carol:burst=2,rate=0.5",
        )
        table = TenantTable.from_env(default_quota=64)
        alice = table.get("alice")
        assert (alice.weight, alice.quota, alice.rate) == (3.0, 16, 10.0)
        assert table.weight("bob") == 1.0
        assert table.get("bob").quota == 64  # default_quota fills in
        carol = table.get("carol")
        assert (carol.rate, carol.burst) == (0.5, 2)
        # Unlisted tenants default rather than being rejected.
        assert table.get("mallory").weight == 1.0
        assert table.get("mallory").quota == 64
        assert table.names() == ["alice", "bob", "carol"]

    @pytest.mark.parametrize(
        "raw",
        [
            "alice:weight=0",
            "alice:quota=0",
            "alice:rate=-1",
            "alice:burst=0",
            "alice:speed=9",
            "alice:weight",
            "alice;alice",
            "bad name:weight=1",
        ],
    )
    def test_from_env_rejects_malformed(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TENANTS", raw)
        with pytest.raises(ConfigError):
            TenantTable.from_env()

    def test_validate_tenant(self):
        assert validate_tenant("team-a.prod_1") == "team-a.prod_1"
        for bad in ("", "-lead", "a" * 65, "sp ace", None, 7):
            with pytest.raises(ConfigError):
                validate_tenant(bad)

    def test_token_bucket_fake_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: now[0])
        assert bucket.allow() and bucket.allow()
        assert not bucket.allow()  # burst drained, no time passed
        now[0] = 0.5  # one token refilled at 2/s
        assert bucket.allow()
        assert not bucket.allow()
        now[0] = 10.0  # refill caps at burst, not rate * elapsed
        assert bucket.allow() and bucket.allow()
        assert not bucket.allow()

    def test_token_bucket_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0)


# -- cardinality guard ----------------------------------------------------


class TestGuardedLabels:
    def test_degrades_to_overflow_then_null(self):
        registry = MetricsRegistry(max_label_sets=2)
        family = registry.counter(
            "serve_tenant_test_total", "per-tenant test", labels=("tenant",)
        )
        guarded_labels(family, tenant="alice").inc()
        # Second slot goes to the overflow bucket; later tenants fold in.
        guarded_labels(family, tenant="bob").inc()
        guarded_labels(family, tenant="carol").inc()
        text = registry.render_text()
        assert 'tenant="alice"' in text
        assert f'tenant="{OVERFLOW_TENANT}"' in text
        assert 'tenant="bob"' not in text and 'tenant="carol"' not in text
        # Totals survive the fold: alice=1, _overflow=2.
        samples = family.samples()
        assert sum(samples.values()) == 3

    def test_null_instrument_when_cap_exhausted_by_others(self):
        registry = MetricsRegistry(max_label_sets=1)
        family = registry.gauge(
            "serve_tenant_test_gauge", "per-tenant test", labels=("tenant",)
        )
        family.labels(tenant="alice").set(1)
        # Cap is full of a non-overflow value: even _overflow cannot be
        # created, and the caller gets the shared no-op instrument.
        got = guarded_labels(family, tenant="bob")
        assert got is NULL_INSTRUMENT
        got.set(5)  # must not raise
        assert registry.render_text()  # rendering still works


# -- scheduler admission --------------------------------------------------


class TestAdmission:
    def _scheduler(self, **kwargs):
        # Never started: jobs stay queued, which is exactly what the
        # admission tests need.
        return JobScheduler(workers=1, registry=MetricsRegistry(), **kwargs)

    def request(self, name, tenant, n=1):
        return JobRequest(
            name=name,
            specs=[one_spec(i, f"{name}-{i}") for i in range(n)],
            scale=SCALE,
            tenant=tenant,
        )

    def test_quota_rejection_names_tenant_and_usage(self, monkeypatch):
        monkeypatch.setenv("REPRO_TENANTS", "alice:quota=2")
        sched = self._scheduler(tenants=TenantTable.from_env())
        sched.submit(self.request("j1", "alice"))
        sched.submit(self.request("j2", "alice"))
        with pytest.raises(QuotaExceeded) as err:
            sched.submit(self.request("j3", "alice"))
        assert (err.value.tenant, err.value.quota, err.value.usage) == (
            "alice", 2, 2,
        )
        assert "alice" in str(err.value) and "2/2" in str(err.value)
        # Another tenant is not collateral damage of alice's backlog.
        job = sched.submit(self.request("j4", "bob"))
        assert job.state == "queued"
        stats = sched.tenant_stats()
        assert stats["alice"]["queued"] == 2
        assert stats["bob"]["queued"] == 1
        text = sched.registry.render_text()
        assert (
            'serve_tenant_jobs_rejected_total{reason="quota",tenant="alice"} 1'
            in text
        )

    def test_per_tenant_quota_defaults_to_queue_limit(self):
        sched = self._scheduler(queue_limit=1)
        sched.submit(self.request("j1", "alice"))
        with pytest.raises(QuotaExceeded):
            sched.submit(self.request("j2", "alice"))
        # The bound is per tenant now, not the old global 429.
        assert sched.submit(self.request("j3", "bob")).state == "queued"

    def test_rate_limit_rejection(self, monkeypatch):
        monkeypatch.setenv("REPRO_TENANTS", "alice:rate=0.001,burst=1")
        sched = self._scheduler(tenants=TenantTable.from_env())
        sched.submit(self.request("j1", "alice"))
        with pytest.raises(RateLimited) as err:
            sched.submit(self.request("j2", "alice"))
        assert err.value.tenant == "alice"
        assert err.value.rate == 0.001
        assert "rate limited" in str(err.value)

    def test_parse_job_request_tenant(self):
        payload = {
            "name": "n",
            "scale": SCALE,
            "points": [{"label": "p", "policy": "ddio"}],
            "tenant": "alice",
        }
        assert parse_job_request(payload).tenant == "alice"
        del payload["tenant"]
        assert parse_job_request(payload).tenant == "default"
        payload["tenant"] = "no spaces"
        from repro.serve.jobs import BadRequest

        with pytest.raises(BadRequest):
            parse_job_request(payload)


# -- cluster grants ------------------------------------------------------


class TestCoordinatorPolicy:
    def test_wfq_grants_follow_virtual_finish_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_TENANTS", "alice:weight=3;bob:weight=1")
        coord = ClusterCoordinator(
            registry=MetricsRegistry(),
            lease_ttl=30.0,
            batch=1,
            policy="wfq",
            tenants=TenantTable.from_env(),
        )
        # bob arrives first. All pushes precede any pop, so virtual
        # finish times are alice k/3 and bob k; ties go to arrival.
        for i in range(4):
            coord.submit(one_spec(10 + i, f"b{i}"), None, tenant="bob")
        for i in range(4):
            coord.submit(one_spec(20 + i, f"a{i}"), None, tenant="alice")
        wid = register(coord)
        granted = []
        for _ in range(8):
            grant = coord.lease(protocol.lease_request(wid, 8))
            assert len(grant["points"]) == 1  # batch=1
            granted.append(grant["points"][0]["label"])
        # vft: a0 1/3, a1 2/3, b0 1 (arrived before a2), a2 1, a3 4/3,
        # b1 2, b2 3, b3 4.
        assert granted == ["a0", "a1", "b0", "a2", "a3", "b1", "b2", "b3"]
        assert coord.lease(protocol.lease_request(wid, 8))["points"] == []


class TestShardedCoordinator:
    def test_stats_aggregate_across_shards(self):
        """Per-tenant pending counts add up to the coordinator's total,
        in stats() and in the pulled tenant gauge (one WFQ queue)."""
        coord = ClusterCoordinator(
            registry=MetricsRegistry(), lease_ttl=30.0, batch=4, policy="wfq"
        )
        for i in range(6):
            coord.submit(one_spec(i, f"t{i}"), None, tenant="alice")
        coord.submit(one_spec(99, "b0"), None, tenant="bob")
        stats = coord.stats()
        assert stats["policy"] == "wfq"
        assert stats["pending_points"] == 7
        assert stats["pending_by_tenant"] == {"alice": 6, "bob": 1}
        assert sum(stats["pending_by_tenant"].values()) == 7
        text = coord.registry.render_text()
        assert 'cluster_tenant_pending_points{tenant="alice"} 6' in text
        assert 'cluster_tenant_pending_points{tenant="bob"} 1' in text


# -- engine seam ----------------------------------------------------------


class TestEngineSeam:
    def test_policy_dispatch_bit_identical_and_manifest_tenant(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pointcache"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        specs = [one_spec(i, f"seam{i}") for i in range(4)]
        serial = run_points(specs, max_workers=1)
        parallel = run_points(specs, max_workers=2, run_label="sched-seam")
        assert [result_identity(r) for r in serial] == [
            result_identity(r) for r in parallel
        ]
        # The serial run simulated into an empty cache; the parallel run
        # then hit it for every point.
        assert all(r.from_cache is False for r in serial)
        assert all(r.from_cache is True for r in parallel)
        # A served job records its submitting tenant in the manifest and
        # in the run listing.
        sched = JobScheduler(workers=1, registry=MetricsRegistry())
        job = sched.submit(
            JobRequest("sched-seam", specs, SCALE, tenant="alice")
        )
        sched.start()
        deadline = time.monotonic() + 60
        while job.state not in TERMINAL_STATES:
            assert time.monotonic() < deadline, f"job stuck {job.state}"
            time.sleep(0.01)
        sched.stop()
        assert job.state == "done"
        manifest = RunManifest.load(runs_dir() / job.run_id / "manifest.json")
        assert manifest.tenant == "alice"
        listing = list_runs(runs_dir())
        assert "tenant=alice" in listing
