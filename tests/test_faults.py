"""Tests for the fault-tolerance layer (DESIGN.md §9).

Four layers:

* the ``REPRO_FAULT_SPEC`` grammar and the fire-once claim semantics of
  :mod:`repro.engine.faults` (process-local and cross-process);
* engine recovery — serial and process-pool ``run_points`` surviving
  injected point errors, worker crashes, and stragglers, with the
  recovered results bit-identical to a fault-free run and the run
  manifest recording status/attempts/errors on every exit path;
* point-cache corruption handling — truncated, wrong-class, and
  unreadable entries all behave as misses;
* manifest schema v2 — status validation, v1 compatibility, and the
  orphan-run detection of ``python -m repro.obs.validate``.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.engine import faults, pointcache
from repro.engine.parallel import (
    PointFailure,
    PointPool,
    backoff_delay,
    last_run_dir,
    point_timeout_s,
    retry_backoff_s,
    retry_limit,
    run_attempts,
    run_points,
)
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentSettings,
    kvs_system,
    kvs_workload,
    point_spec,
)
from repro.obs.manifest import PointRecord, RunManifest, validate_manifest
from repro.obs.validate import main as validate_main
from repro.obs.validate import validate_run_dir

SCALE = 0.05
SETTINGS = ExperimentSettings(scale=SCALE, measure_multiplier=0.1)


def tiny_spec(label="p", seed=42):
    return point_spec(
        label,
        kvs_system(SCALE, 64, 2, 512),
        kvs_workload(0.02, 512),
        "ddio",
        settings=SETTINGS,
        seed=seed,
    )


class MiniResult:
    """Minimal picklable stand-in for a PointResult."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.from_cache = False
        self.sim_seconds = 0.0
        self.timeline_file = None


def fault_runner(spec):
    """Module-level (picklable) runner that only exercises the hooks."""
    faults.on_point_start(spec.label)
    return MiniResult(spec.label)


def timed_runner(spec):
    """``fault_runner`` that records how long its injected faults took."""
    t0 = time.monotonic()
    result = fault_runner(spec)
    result.slept = time.monotonic() - t0
    return result


def drive_pool(
    specs, results, attempts, errors, retries, timeout,
    runner=fault_runner, **hooks,
):
    """``runner`` on a 2-process pool through the attempt loop."""
    pool = PointPool(2)
    try:
        run_attempts(
            specs,
            lambda i: ("simulated", pool.submit(runner, specs[i])),
            results, attempts, errors,
            retries=retries, backoff=0.0, timeout=timeout, capacity=2,
            **hooks,
        )
    finally:
        pool.shutdown()


@pytest.fixture(autouse=True)
def _fresh_fault_state():
    faults.reset()
    yield
    faults.reset()


def assert_identical(a, b):
    assert a.label == b.label
    assert a.trace.traffic.counts == b.trace.traffic.counts
    assert a.trace.level_counts == b.trace.level_counts
    assert a.trace.requests == b.trace.requests
    assert a.perf.throughput_mrps == b.perf.throughput_mrps
    assert a.perf.mem_bandwidth_gbps == b.perf.mem_bandwidth_gbps


class TestSpecGrammar:
    def test_full_grammar(self):
        parsed = faults.parse_spec(
            "worker_crash@point=3,point_error@label=hot,"
            "slow_point@label=a:b:1.5s,cache_corrupt@fp=ab12,"
            "cache_corrupt@fp="
        )
        assert [f.kind for f in parsed] == [
            "worker_crash", "point_error", "slow_point",
            "cache_corrupt", "cache_corrupt",
        ]
        assert parsed[0].selector == "point" and parsed[0].value == "3"
        # label values may contain ':'; only the last segment is duration
        assert parsed[2].value == "a:b" and parsed[2].seconds == 1.5
        assert parsed[3].value == "ab12"
        assert parsed[4].value == ""  # empty prefix matches any fp
        assert [f.index for f in parsed] == [0, 1, 2, 3, 4]

    def test_duration_suffix_optional(self):
        assert faults.parse_spec("slow_point@label=x:2")[0].seconds == 2.0
        assert faults.parse_spec("slow_point@label=x:0.25s")[0].seconds == 0.25

    @pytest.mark.parametrize(
        "bad",
        [
            "explode@point=1",  # unknown kind
            "point_error",  # no selector
            "point_error@label",  # no value
            "point_error@fp=ab",  # fp only valid for cache_corrupt
            "cache_corrupt@label=x",  # cache_corrupt needs fp
            "point_error@point=-1",
            "point_error@point=x",
            "point_error@label=",  # empty label
            "slow_point@label=x",  # missing duration
            "slow_point@label=x:abc",
            "slow_point@label=x:-1s",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            faults.parse_spec(bad)

    def test_empty_and_blank_directives_ignored(self):
        assert faults.parse_spec("") == []
        assert faults.parse_spec(" , ,") == []

    def test_active_faults_recaches_on_env_change(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "point_error@label=a")
        assert faults.active_faults()[0].value == "a"
        monkeypatch.setenv("REPRO_FAULT_SPEC", "point_error@label=b")
        assert faults.active_faults()[0].value == "b"
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        assert faults.active_faults() == []


class TestClaims:
    def test_fault_fires_once_process_local(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "point_error@label=x")
        with pytest.raises(faults.FaultInjected):
            faults.on_point_start("x")
        faults.on_point_start("x")  # spent: the retry must not re-hit it
        faults.on_point_start("other")

    def test_claims_persist_in_state_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path))
        monkeypatch.setenv("REPRO_FAULT_SPEC", "point_error@label=x")
        with pytest.raises(faults.FaultInjected):
            faults.on_point_start("x")
        assert (tmp_path / "claim-0").exists()
        # A "different process" (fresh local state) still sees it spent.
        faults.reset()
        faults.on_point_start("x")

    def test_point_selector_counts_simulation_starts(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "point_error@point=2")
        faults.on_point_start("a")
        faults.on_point_start("b")
        with pytest.raises(faults.FaultInjected):
            faults.on_point_start("c")

    def test_worker_crash_degrades_in_process(self, monkeypatch):
        # In the test process (no multiprocessing parent) worker_crash
        # must raise instead of os._exit-ing the interpreter.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "worker_crash@label=x")
        with pytest.raises(faults.FaultInjected):
            faults.on_point_start("x")


class TestRetryKnobs:
    def test_defaults(self, monkeypatch):
        for var in (
            "REPRO_RETRIES", "REPRO_RETRY_BACKOFF_S", "REPRO_POINT_TIMEOUT_S"
        ):
            monkeypatch.delenv(var, raising=False)
        assert retry_limit() == 2
        assert retry_backoff_s() == pytest.approx(0.1)
        assert point_timeout_s() is None

    def test_parsing_and_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "0")
        monkeypatch.setenv("REPRO_POINT_TIMEOUT_S", "1.5")
        assert retry_limit() == 5
        assert retry_backoff_s() == 0.0
        assert point_timeout_s() == 1.5
        for var, bad in (
            ("REPRO_RETRIES", "x"),
            ("REPRO_RETRIES", "-1"),
            ("REPRO_RETRY_BACKOFF_S", "nan?"),
            ("REPRO_RETRY_BACKOFF_S", "-0.5"),
            ("REPRO_POINT_TIMEOUT_S", "0"),
            ("REPRO_POINT_TIMEOUT_S", "x"),
        ):
            monkeypatch.setenv(var, bad)
            with pytest.raises(ConfigError):
                (retry_limit, retry_backoff_s, point_timeout_s)[
                    ("REPRO_RETRIES", "REPRO_RETRY_BACKOFF_S",
                     "REPRO_POINT_TIMEOUT_S").index(var)
                ]()
            monkeypatch.delenv(var)

    def test_backoff_doubles(self):
        assert backoff_delay(0.1, 1) == pytest.approx(0.1)
        assert backoff_delay(0.1, 2) == pytest.approx(0.2)
        assert backoff_delay(0.1, 3) == pytest.approx(0.4)


@pytest.fixture()
def recovery_env(monkeypatch, tmp_path):
    """Fast retries, no cache, cross-process claim state."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "0")
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
    monkeypatch.delenv("REPRO_RETRIES", raising=False)
    monkeypatch.delenv("REPRO_POINT_TIMEOUT_S", raising=False)
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)


def _load_manifest():
    run_dir = last_run_dir()
    assert run_dir is not None
    manifest = RunManifest.load(run_dir / "manifest.json")
    validate_run_dir(run_dir)  # every outcome must stay schema-valid
    return manifest


class TestSerialRecovery:
    def test_point_error_retried_bit_identical(self, recovery_env, monkeypatch):
        spec = tiny_spec()
        baseline = run_points([spec], max_workers=1)[0]
        monkeypatch.setenv("REPRO_FAULT_SPEC", "point_error@point=0")
        faults.reset()
        recovered = run_points([spec], max_workers=1)[0]
        assert_identical(baseline, recovered)
        manifest = _load_manifest()
        assert manifest.status == "done"
        assert manifest.points[0].status == "done"
        assert manifest.points[0].attempts == 2

    def test_in_process_worker_crash_degrades_to_retry(
        self, recovery_env, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "worker_crash@point=0")
        faults.reset()
        results = run_points([tiny_spec()], max_workers=1)
        assert results[0].label == "p"
        assert _load_manifest().points[0].attempts == 2

    def test_exhausted_retries_fail_with_manifest(
        self, recovery_env, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_FAULT_SPEC", "point_error@point=0")
        faults.reset()
        with pytest.raises(PointFailure) as err:
            run_points([tiny_spec()], max_workers=1)
        assert 0 in err.value.errors
        assert "FaultInjected" in err.value.errors[0]
        manifest = _load_manifest()
        assert manifest.status == "failed"
        assert manifest.points[0].status == "failed"
        assert "FaultInjected" in manifest.points[0].error
        assert manifest.points[0].attempts == 1


class TestParallelRecovery:
    def test_worker_crash_recovers_bit_identical(self, recovery_env, monkeypatch):
        specs = [tiny_spec(label="a", seed=1), tiny_spec(label="b", seed=2)]
        baseline = run_points(specs, max_workers=1)
        monkeypatch.setenv("REPRO_FAULT_SPEC", "worker_crash@point=1")
        faults.reset()
        recovered = run_points(specs, max_workers=2)
        for want, got in zip(baseline, recovered):
            assert_identical(want, got)
        manifest = _load_manifest()
        assert manifest.status == "done"
        assert all(p.status == "done" for p in manifest.points)
        assert any(p.attempts > 1 for p in manifest.points)

    def test_straggler_timeout_reschedules(self, recovery_env, monkeypatch):
        # Direct run_attempts drive with a no-op runner: fast and exact.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "slow_point@label=slow:3s")
        faults.reset()
        specs = [tiny_spec(label="slow", seed=1), tiny_spec(label="ok", seed=2)]
        results, attempts, errors = [None, None], [0, 0], {}
        drive_pool(
            specs, results, attempts, errors, retries=3, timeout=0.5
        )
        assert errors == {}
        assert [r.label for r in results] == ["slow", "ok"]
        assert attempts[0] >= 2  # the straggler attempt was abandoned

    def test_abandoned_straggler_that_finishes_first_resolves(
        self, recovery_env, monkeypatch
    ):
        # Both attempts run, one per process: the first sleeps 1 s and is
        # abandoned at 0.7 s; its retry sleeps 4 s. The straggler's
        # result resolves the point, once, without waiting for the retry.
        monkeypatch.setenv(
            "REPRO_FAULT_SPEC", "slow_point@point=0:1s,slow_point@point=1:4s"
        )
        faults.reset()
        results, attempts, errors, done = [None], [0], {}, []
        t0 = time.monotonic()
        drive_pool(
            [tiny_spec(label="slow")], results, attempts, errors,
            retries=3, timeout=0.7, runner=timed_runner,
            on_done=lambda i, source, result: done.append((i, source)),
        )
        assert errors == {}
        assert done == [(0, "simulated")]
        assert attempts[0] >= 2
        assert 0.9 < results[0].slept < 3.0  # the straggler's own result
        assert time.monotonic() - t0 < 3.5

    def test_stragglers_race_their_retries_on_one_thread(self):
        # Every point's first attempt straggles past the timeout on a
        # 1-worker pool; its retry queues behind it and must be
        # cancelled when the straggler returns. A lost race between the
        # straggler's callback and acquire shows up as a second run.
        started = []

        def runner(label):
            if label not in started:
                started.append(label)
                time.sleep(0.15)
            else:
                started.append(label)
            return MiniResult(label)

        labels = [f"p{i}" for i in range(6)]
        results, attempts, errors, done = [None] * 6, [0] * 6, {}, []
        pool = PointPool(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            loop = threading.Thread(
                target=run_attempts,
                args=(
                    labels,
                    lambda i: ("simulated", pool.submit(runner, labels[i])),
                    results, attempts, errors,
                ),
                kwargs=dict(
                    retries=3, backoff=0.0, timeout=0.05, capacity=1,
                    on_done=lambda i, source, result: done.append(i),
                ),
            )
            loop.start()
            loop.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert not loop.is_alive()
        assert errors == {}
        assert sorted(done) == list(range(6))
        assert sorted(started) == labels  # one run per point
        assert [r.label for r in results] == labels

    def test_pool_crash_with_stub_runner(self, recovery_env, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "worker_crash@label=victim")
        faults.reset()
        specs = [
            tiny_spec(label="victim", seed=1),
            tiny_spec(label="ok", seed=2),
            tiny_spec(label="ok2", seed=3),
        ]
        results, attempts, errors = [None] * 3, [0] * 3, {}
        drive_pool(
            specs, results, attempts, errors, retries=2, timeout=None
        )
        assert errors == {}
        assert [r.label for r in results] == ["victim", "ok", "ok2"]
        assert attempts[0] >= 2


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pointcache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path / "pointcache"


class TestCacheCorruption:
    def test_truncated_pickle_is_miss(self, cache_dir):
        fp = "f" * 16
        pointcache.store(fp, MiniResult("x"))
        path = pointcache._entry_path(fp)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert pointcache.load(fp) is None

    def test_wrong_class_pickle_is_miss_on_result_path(self, cache_dir):
        fp = "a" * 16
        pointcache.store(fp, {"not": "a result"})
        # Generic load stays generic (the GC tooling stores raw blobs)…
        assert pointcache.load(fp) == {"not": "a result"}
        # …but the simulation path duck-types and treats it as a miss.
        assert pointcache.load(fp, require_attrs=pointcache.RESULT_ATTRS) is None

    def test_unreadable_entry_is_miss(self, cache_dir, monkeypatch):
        fp = "b" * 16
        pointcache.store(fp, MiniResult("x"))
        monkeypatch.setattr(
            pointcache.pickle,
            "load",
            lambda f: (_ for _ in ()).throw(PermissionError("denied")),
        )
        assert pointcache.load(fp) is None

    @pytest.mark.parametrize(
        "exc",
        [IndexError, KeyError, ValueError, TypeError, MemoryError, ImportError],
    )
    def test_exotic_unpickle_errors_are_misses(self, cache_dir, monkeypatch, exc):
        # pickle.load of a corrupt stream can raise well beyond
        # UnpicklingError; every member of the catch set must be a miss.
        fp = "c" * 16
        pointcache.store(fp, MiniResult("x"))
        monkeypatch.setattr(
            pointcache.pickle,
            "load",
            lambda f: (_ for _ in ()).throw(exc("boom")),
        )
        assert pointcache.load(fp) is None

    def test_cache_corrupt_fault_truncates_entry(self, cache_dir, monkeypatch):
        fp = "d" * 16
        pointcache.store(fp, MiniResult("x"))
        monkeypatch.setenv("REPRO_FAULT_SPEC", f"cache_corrupt@fp={fp[:8]}")
        faults.reset()
        assert pointcache.load(fp) is None  # corrupted just before the read
        pointcache.store(fp, MiniResult("x"))  # re-simulation overwrites
        assert pointcache.load(fp).label == "x"  # fault spent: clean hit


def _v1_point() -> dict:
    return {
        "label": "p",
        "fingerprint": "f" * 16,
        "system": "sys",
        "workload": "wl",
        "policy": "ddio",
        "sweeper": False,
        "nic_tx_sweep": False,
        "queued_depth": 1,
        "seed": 42,
        "warmup_requests": None,
        "measure_requests": None,
        "from_cache": False,
        "sim_seconds": 0.1,
        "timeline_file": None,
    }


class TestManifestSchemaV2:
    def test_v1_manifest_still_loads(self):
        manifest = RunManifest.from_dict(
            {
                "run_id": "r",
                "schema": 1,
                "code_salt": "salt",
                "points": [_v1_point()],
            }
        )
        assert manifest.status == "done"
        assert manifest.points[0].status == "done"
        assert manifest.points[0].attempts == 1
        validate_manifest(manifest)

    def test_bad_statuses_rejected(self):
        manifest = RunManifest.create("x", 1)
        manifest.code_salt = "salt"
        manifest.status = "exploded"
        with pytest.raises(ConfigError):
            validate_manifest(manifest)
        manifest.status = "done"
        manifest.points = [PointRecord(**_v1_point())]
        manifest.points[0].status = "skipped"
        with pytest.raises(ConfigError):  # done run can't hold skipped points
            validate_manifest(manifest)
        manifest.status = "partial"
        validate_manifest(manifest)
        manifest.points[0].status = "failed"
        with pytest.raises(ConfigError):  # failed point needs an error
            validate_manifest(manifest)
        manifest.points[0].error = "boom"
        validate_manifest(manifest)
        manifest.points[0].attempts = 0
        with pytest.raises(ConfigError):
            validate_manifest(manifest)


class TestValidateOrphans:
    def test_orphan_run_dir_fails_validation(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        good = runs / "run-good"
        good.mkdir(parents=True)
        manifest = RunManifest.create("good", 1)
        manifest.code_salt = "salt"
        manifest.write(good / "manifest.json")
        orphan = runs / "run-orphan" / "timelines"
        orphan.mkdir(parents=True)
        (orphan / "p.jsonl").write_text("{}\n")
        assert validate_main([str(runs)]) == 1
        assert "orphaned run" in capsys.readouterr().err
        # Finalizing the orphan's manifest makes the tree valid again.
        manifest2 = RunManifest.create("fixed", 1)
        manifest2.code_salt = "salt"
        manifest2.status = "partial"
        manifest2.write(runs / "run-orphan" / "manifest.json")
        assert validate_main([str(runs)]) == 0
        assert "status=partial" in capsys.readouterr().out
