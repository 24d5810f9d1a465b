"""Tests for warm-state snapshots (DESIGN.md §14) + pointcache fixes.

The core contract under test: a point whose measured window was forked
off a restored snapshot is bit-identical to one that re-simulated its
warmup, under both engines, serially and across workers. The satellite
pointcache bugfixes (in-generation ``.tmp`` GC, non-strict
``REPRO_CACHE_MAX_MB`` on the store path, prune racing a cache hit)
are covered here too.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import pickle
import time

import pytest

from repro.engine import pointcache, result_identity, snapshot
from repro.engine.parallel import (
    PointSpec,
    last_run_dir,
    run_cached_spec,
    run_points,
    run_spec,
)
from repro.engine.tracer import TraceConfig, TraceSimulator
from repro.errors import ConfigError
from repro.experiments import fig5, fig9
from repro.experiments.common import (
    ExperimentSettings,
    kvs_system,
    kvs_workload,
    l3fwd_workload,
    point_spec,
)
from repro.nic.arrivals import BurstProfile
from repro.obs.manifest import runs_dir
from repro.serve import JobScheduler
from repro.serve.jobs import TERMINAL_STATES, JobRequest
from repro.sidechannel.observer import ObserverConfig
from repro.workloads.kvs import KvsParams, KvsWorkload
from repro.workloads.spiky import SpikyKvsWorkload
from repro.workloads.zipf import ZipfGenerator
from tests.conftest import make_tiny_kvs, make_tiny_system, needs_kernel

SCALE = 0.05
SETTINGS = ExperimentSettings(scale=SCALE, measure_multiplier=0.1)


def sweep_spec(label="p", measure_ways=None, seed=42, **overrides) -> PointSpec:
    """One point of a way-mask sweep: warmup shared, measure mask varies."""
    spec = point_spec(
        label,
        kvs_system(SCALE, 64, 4, 512),
        kvs_workload(0.02, 512),
        "ddio",
        settings=SETTINGS,
        seed=seed,
        measure_ddio_ways=measure_ways,
    )
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pointcache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SNAPSHOTS", raising=False)
    snapshot.reset_counters()
    return tmp_path / "pointcache"


def strict_row(result):
    """Every simulated field, without the provenance that legitimately
    varies run to run."""
    return result_identity(result)


def assert_bit_identical(a, b):
    assert strict_row(a) == strict_row(b)
    assert a.trace.traffic.counts == b.trace.traffic.counts
    assert a.trace.level_counts == b.trace.level_counts
    assert a.trace.cache_totals == b.trace.cache_totals
    assert a.trace.llc_occupancy_by_kind == b.trace.llc_occupancy_by_kind
    assert a.trace.drops == b.trace.drops
    assert a.trace.nic_sweeps == b.trace.nic_sweeps
    assert a.trace.cpu_work_cycles == b.trace.cpu_work_cycles


class TestWarmupFingerprint:
    def test_measure_knobs_share_fingerprint(self):
        base = sweep_spec()
        same_warmup = [
            sweep_spec(measure_ways=2),
            sweep_spec(measure_ways=4),
            sweep_spec(measure_requests=999),
            sweep_spec(label="other-label"),
        ]
        base_wfp = snapshot.warmup_fingerprint(base)
        for variant in same_warmup:
            assert snapshot.warmup_fingerprint(variant) == base_wfp
        # ... while the *point* fingerprints still split on those knobs
        # (except the label, which is presentation-only).
        point_fps = {
            pointcache.fingerprint(v) for v in (base, *same_warmup[:3])
        }
        assert len(point_fps) == 4

    def test_warmup_fields_split_fingerprint(self):
        base = sweep_spec()
        variants = [
            sweep_spec(seed=43),
            sweep_spec(sweeper=True),
            sweep_spec(nic_tx_sweep=True),
            sweep_spec(queued_depth=2),
            sweep_spec(warmup_requests=10),
            sweep_spec(burst=BurstProfile(low=1, high=9, window=16, seed=5)),
            point_spec(  # warmup-relevant: system-wide DDIO ways
                "p",
                kvs_system(SCALE, 64, 2, 512),
                kvs_workload(0.02, 512),
                "ddio",
                settings=SETTINGS,
            ),
            point_spec(  # different workload params
                "p",
                kvs_system(SCALE, 64, 4, 512),
                kvs_workload(0.02, 256),
                "ddio",
                settings=SETTINGS,
            ),
            point_spec(  # different policy
                "p",
                kvs_system(SCALE, 64, 4, 512),
                kvs_workload(0.02, 512),
                "dma",
                settings=SETTINGS,
            ),
        ]
        base_wfp = snapshot.warmup_fingerprint(base)
        wfps = [snapshot.warmup_fingerprint(v) for v in variants]
        assert all(wfp != base_wfp for wfp in wfps)
        assert len(set(wfps)) == len(wfps)

    def test_warmup_key_fields_all_appear_in_cache_key(self):
        # The point identity must subsume the warmup identity: a field
        # that splits warmup fingerprints must split point fingerprints
        # too, or two different simulations could share a cached result.
        base = sweep_spec()
        for variant in (
            sweep_spec(seed=43),
            sweep_spec(sweeper=True),
            sweep_spec(warmup_requests=10),
            sweep_spec(burst=BurstProfile(low=1, high=9, window=16, seed=5)),
        ):
            assert variant.warmup_key() != base.warmup_key()
            assert variant.cache_key() != base.cache_key()

    def test_warmup_groups_lead_with_first_index(
        self, cache_dir, monkeypatch
    ):
        specs = [
            sweep_spec("lone", seed=99),
            sweep_spec("a", measure_ways=2),
            sweep_spec("b", measure_ways=3),
            sweep_spec("c", measure_ways=4),
        ]
        groups = snapshot.warmup_groups(specs)
        assert list(groups.values()) == [[1, 2, 3]]
        # Reversed: the group's first index leads, the lone spec stays
        # out of every group.
        assert list(snapshot.warmup_groups(specs[::-1]).values()) == [[0, 1, 2]]
        # Snapshots off -> no grouping.
        monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
        assert snapshot.warmup_groups(specs) == {}


@pytest.mark.parametrize("engine", ["object", "batch"])
class TestBitIdentity:
    def _baseline(self, specs, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
        baseline = [run_spec(s) for s in specs]
        monkeypatch.delenv("REPRO_SNAPSHOTS")
        assert all(not r.warm_restored for r in baseline)
        return baseline

    def test_serial_sweep_restores_bit_identically(
        self, cache_dir, monkeypatch, engine
    ):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        specs = [
            sweep_spec(f"ways {w}", measure_ways=w) for w in (2, 3, 4)
        ]
        baseline = self._baseline(specs, monkeypatch)
        results = run_points(specs, max_workers=1)
        assert [r.warm_restored for r in results] == [False, True, True]
        assert snapshot.counters["restored"] == 2
        assert snapshot.counters["captured"] == 1
        assert snapshot.counters["fallbacks"] == 0
        assert len(list(cache_dir.rglob("*.snap"))) == 1
        for fresh, restored in zip(baseline, results):
            assert_bit_identical(fresh, restored)

    def test_second_run_restores_after_measure_edit(
        self, cache_dir, monkeypatch, engine
    ):
        # The incremental-sweep story: re-running after a measure-only
        # edit misses the point cache but restores the warmup snapshot.
        monkeypatch.setenv("REPRO_ENGINE", engine)
        run_cached_spec(sweep_spec(measure_ways=2))
        edited = sweep_spec(measure_ways=2, measure_requests=600)
        result = run_cached_spec(edited)
        assert not result.from_cache
        assert result.warm_restored
        monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
        assert_bit_identical(run_spec(edited), result)

    def test_burst_points_restore_exactly(self, cache_dir, monkeypatch, engine):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        burst = BurstProfile(low=1, high=6, window=16, seed=5)
        specs = [
            sweep_spec("b1", burst=burst),
            sweep_spec("b2", burst=burst, measure_requests=600),
        ]
        baseline = self._baseline(specs, monkeypatch)
        results = run_points(specs, max_workers=1)
        assert results[1].warm_restored
        for fresh, restored in zip(baseline, results):
            assert_bit_identical(fresh, restored)

    @pytest.mark.parametrize("workload", ["kvs-append", "spiky-kvs", "l3fwd"])
    def test_every_workload_restores_bit_identically(
        self, cache_dir, monkeypatch, engine, workload
    ):
        # In-place KVS is the sweeps above. A KVS snapshot leaves out the
        # arrays its build fixes from the seed (append mode keeps the key
        # offsets, which its SETs move); the restoring simulator grafts
        # its own back in.
        params = KvsParams(item_bytes=512).scaled(0.02)
        built = {
            "kvs-append": lambda: KvsWorkload(
                dataclasses.replace(params, update_in_place=False)
            ),
            "spiky-kvs": lambda: SpikyKvsWorkload(params),
            "l3fwd": lambda: l3fwd_workload(512),
        }[workload]
        monkeypatch.setenv("REPRO_ENGINE", engine)
        specs = [
            sweep_spec(
                f"ways {w}",
                measure_ways=w,
                workload=built(),
                warmup_requests=1000,
                measure_requests=1000,
            )
            for w in (2, 3)
        ]
        baseline = self._baseline(specs, monkeypatch)
        results = run_points(specs, max_workers=1)
        assert [r.warm_restored for r in results] == [False, True]
        for fresh, restored in zip(baseline, results):
            assert_bit_identical(fresh, restored)


def test_kvs_snapshot_leaves_out_seed_fixed_arrays(cache_dir):
    """The first scale-0.05 fig5 point's snapshot holds no key
    permutation, bucket hash or (in-place) key offsets: 4.3 MB with
    them, about 1.4 MB without."""
    (spec, *_) = fig5.specs(SETTINGS)
    assert spec.workload.params.update_in_place
    run_spec(spec)
    (snap,) = list(cache_dir.rglob("*.snap"))
    assert snap.stat().st_size < 1_600_000
    workload = pickle.loads(snap.read_bytes())["workload"]
    assert workload._zipf._perm is None
    assert workload._key_bucket is None and workload._key_offset is None


@needs_kernel
@pytest.mark.parametrize("replacement", ["random", "lru"])
def test_stamps_captured_for_lru_caches_only(replacement):
    """Only an LRU cache writes recency stamps, so a random cache's
    capture leaves its stamp array (all -1) out, and restored ≡ full
    warmup holds either way. An LRU cache's state without its stamps
    does not restore."""
    def sim():
        system = make_tiny_system(
            llc_replacement=replacement, private_replacement=replacement
        )
        return TraceSimulator(
            TraceConfig(
                system=system,
                workload=make_tiny_kvs(),
                sweeper=True,
                warmup_requests=300,
                measure_requests=300,
                engine="batch",
            )
        )

    states = []
    full = sim().run(on_warm=lambda state: states.append(pickle.dumps(state)))
    (blob,) = states
    caches = pickle.loads(blob)["caches"]
    assert len(caches) == 5
    assert all(("stamp" in c) == (replacement == "lru") for c in caches)
    restored_sim = sim()
    restored = restored_sim.run(warm_state=pickle.loads(blob))
    assert restored_sim.warm_restored
    assert result_identity(restored) == result_identity(full)
    if replacement == "lru":
        unstamped = pickle.loads(blob)
        del unstamped["caches"][-1]["stamp"]
        assert not sim().restore_warm_state(unstamped)


class TestParallelRestores:
    def test_workers_share_one_warmup(self, cache_dir, monkeypatch, tmp_path):
        specs = [
            sweep_spec(f"ways {w}", measure_ways=w) for w in (2, 3, 4)
        ]
        monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
        baseline = [run_spec(s) for s in specs]
        monkeypatch.delenv("REPRO_SNAPSHOTS")
        results = run_points(specs, max_workers=2)
        # Followers were gated on the leader, so both restored — the
        # counters live in the worker processes, so assert through the
        # manifest instead.
        manifest = json.loads(
            (last_run_dir() / "manifest.json").read_text()
        )
        restored = [p["warm_restored"] for p in manifest["points"]]
        assert restored == [False, True, True]
        wfps = {p["warmup_fingerprint"] for p in manifest["points"]}
        assert len(wfps) == 1 and None not in wfps
        for fresh, restored_result in zip(baseline, results):
            assert_bit_identical(fresh, restored_result)
        # The daemon gates followers the same way (fresh cache, so
        # every point simulates and no snapshot exists yet).
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "served"))
        scheduler = JobScheduler(workers=2)
        job = scheduler.submit(JobRequest("warm", specs, SCALE))
        scheduler.start()
        deadline = time.monotonic() + 120
        while job.state not in TERMINAL_STATES:
            assert time.monotonic() < deadline, f"job stuck {job.state}"
            time.sleep(0.01)
        scheduler.stop()
        assert job.state == "done", job.error
        manifest = json.loads(
            (runs_dir() / job.run_id / "manifest.json").read_text()
        )
        restored = [p["warm_restored"] for p in manifest["points"]]
        assert restored == [False, True, True]
        for fresh, served in zip(baseline, job.results):
            assert_bit_identical(fresh, served)


class TestObserverCarveOut:
    def test_observer_points_opt_out(self, cache_dir, monkeypatch):
        spec = sweep_spec(
            observer=ObserverConfig(sets=4, period=8),
            measure_requests=600,
        )
        assert not snapshot.eligible(spec)
        result = run_spec(spec)
        assert not result.warm_restored
        assert list(cache_dir.rglob("*.snap")) == []
        # And an observer point never *consumes* a sibling's snapshot:
        # running the observer-less sibling first stores one, the
        # observer spec keys off a different (None) fingerprint path.
        run_spec(sweep_spec(measure_requests=600))
        assert len(list(cache_dir.rglob("*.snap"))) == 1
        again = run_spec(spec)
        assert not again.warm_restored
        assert_bit_identical(result, again)


class TestCollocationCarveOut:
    def test_collocated_points_skip_snapshot_bookkeeping(
        self, cache_dir, monkeypatch
    ):
        """A collocated point never captures or restores, so it neither
        looks a snapshot up, nor records a warmup fingerprint, nor holds
        a sibling back as a warmup group."""
        spec = dataclasses.replace(
            fig9.collocated_spec(fig9.clamp(SETTINGS), 4, False, partitioned=True),
            warmup_requests=200,
            measure_requests=300,
        )
        longer = dataclasses.replace(spec, label="longer", measure_requests=400)
        assert not snapshot.eligible(spec)
        assert snapshot.warmup_groups([spec, longer]) == {}
        loads = []
        monkeypatch.setattr(
            snapshot, "load_state", lambda *args: loads.append(args)
        )
        run_spec(spec)
        run_points([longer], max_workers=1)
        assert loads == []
        assert list(cache_dir.rglob("*.snap")) == []
        manifest = json.loads((last_run_dir() / "manifest.json").read_text())
        assert [p["warmup_fingerprint"] for p in manifest["points"]] == [None]


@pytest.mark.parametrize("engine", ["object", "batch"])
class TestSpecIsReadOnly:
    """A simulator builds its workload on a private copy, so running a
    spec leaves it as it was and keeps nothing alive after the run."""

    SHORT = dict(warmup_requests=400, measure_requests=300)

    def test_run_leaves_spec_unchanged(self, cache_dir, monkeypatch, engine):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        specs = [
            sweep_spec("a", measure_ways=2, **self.SHORT),
            sweep_spec("b", measure_ways=3, **self.SHORT),
        ]
        before = [pickle.dumps(s) for s in specs]
        results = [run_spec(s) for s in specs]
        assert [r.warm_restored for r in results] == [False, True]
        assert [pickle.dumps(s) for s in specs] == before

    def test_same_spec_object_runs_twice_identically(
        self, cache_dir, monkeypatch, engine
    ):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
        spec = sweep_spec(measure_ways=2, **self.SHORT)
        first, second = run_spec(spec), run_spec(spec)
        assert result_identity(first) == result_identity(second)

    def test_no_workload_outlives_its_run(self, cache_dir, monkeypatch, engine):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        specs = [
            sweep_spec("a", measure_ways=2, **self.SHORT),
            sweep_spec("b", measure_ways=3, **self.SHORT),  # restores a's warmup
            sweep_spec("c", measure_ways=2, seed=43, **self.SHORT),
        ]
        gc.collect()
        before = {id(o) for o in gc.get_objects() if isinstance(o, ZipfGenerator)}
        results = run_points(specs, max_workers=1)
        assert [r.warm_restored for r in results] == [False, True, False]
        gc.collect()
        alive = [
            o
            for o in gc.get_objects()
            if isinstance(o, ZipfGenerator) and id(o) not in before
        ]
        assert alive == []
        assert len(specs) == 3  # the specs are still held


class TestSnapshotDurability:
    def test_crash_during_write_leaves_complete_or_miss(
        self, cache_dir, monkeypatch
    ):
        wfp = snapshot.warmup_fingerprint(sweep_spec())
        state = {"version": 1, "payload": b"x" * 1024}

        real_replace = os.replace

        def crash(src, dst):
            raise OSError("simulated crash mid-rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            snapshot.store_state(wfp, "object", state)
        monkeypatch.setattr(os, "replace", real_replace)
        # Reader sees a miss, never a partial file under the final name.
        assert snapshot.load_state(wfp, "object") is None
        assert list(cache_dir.rglob("*.snap")) == []
        assert list(cache_dir.rglob("*.tmp")) == []  # temp cleaned up

    def test_truncated_snapshot_falls_back_then_heals(
        self, cache_dir, monkeypatch
    ):
        leader = sweep_spec(measure_ways=2)
        follower = sweep_spec(measure_ways=3)
        monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
        fresh = run_spec(follower)
        monkeypatch.delenv("REPRO_SNAPSHOTS")
        run_spec(leader)
        (snap,) = list(cache_dir.rglob("*.snap"))
        snap.write_bytes(snap.read_bytes()[: snap.stat().st_size // 2])
        healed = run_spec(follower)
        # The truncated blob is a miss -> normal warmup (bit-identical)
        # and a fresh capture overwrites the damage.
        assert not healed.warm_restored
        assert_bit_identical(fresh, healed)
        third = run_spec(sweep_spec(measure_ways=4))
        assert third.warm_restored

    def test_restore_validation_is_all_or_nothing(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "object")
        spec = sweep_spec()
        run_spec(spec)  # stores a snapshot
        wfp = snapshot.warmup_fingerprint(spec)
        state = snapshot.load_state(wfp, "object")
        assert state is not None

        def fresh_sim():
            return TraceSimulator(
                TraceConfig(
                    system=spec.system,
                    workload=pickle.loads(pickle.dumps(spec.workload)),
                    policy=spec.policy,
                    seed=spec.seed,
                    engine="object",
                )
            )

        assert fresh_sim().restore_warm_state(
            pickle.loads(pickle.dumps(state))
        )
        for tamper in (
            {"version": 999},
            {"engine": "batch"},
            {"rx": []},
            {"caches": []},
            {"ddio_way_mask": (0, 99)},
            {"workload": object()},
        ):
            bad = dict(pickle.loads(pickle.dumps(state)))
            bad.update(tamper)
            sim = fresh_sim()
            before = sim.hier.llc.occupancy()
            assert not sim.restore_warm_state(bad)
            assert sim.hier.llc.occupancy() == before  # nothing mutated

    def test_measure_ddio_ways_validated_at_construction(self):
        with pytest.raises(ConfigError):
            TraceSimulator(
                TraceConfig(
                    system=kvs_system(SCALE, 64, 4, 512),
                    workload=kvs_workload(0.02, 512),
                    policy="dma",  # not DDIO-family
                    measure_ddio_ways=2,
                )
            )
        with pytest.raises(ConfigError):
            TraceSimulator(
                TraceConfig(
                    system=kvs_system(SCALE, 64, 4, 512),
                    workload=kvs_workload(0.02, 512),
                    policy="ddio",
                    measure_ddio_ways=99,  # > LLC associativity
                )
            )


class TestPointcacheFixes:
    def test_gc_collects_in_generation_tmp_orphans(self, cache_dir):
        # Regression: store()'s mkstemp leaves crash orphans *inside*
        # the generation dir; gc() used to sweep only the cache root.
        pointcache.store("a" * 8, b"x" * 100)
        gen = pointcache.generation_dir()
        old_orphan = gen / "dead-writer.tmp"
        old_orphan.write_bytes(b"x" * 50)
        os.utime(old_orphan, (100, 100))
        snap_dir = gen / snapshot.SNAP_SUBDIR
        snap_dir.mkdir()
        old_snap_orphan = snap_dir / "dead-snap-writer.tmp"
        old_snap_orphan.write_bytes(b"x" * 50)
        os.utime(old_snap_orphan, (100, 100))
        live_writer = gen / "live-writer.tmp"
        live_writer.write_bytes(b"x" * 50)  # fresh mtime: maybe mid-dump

        report = pointcache.gc()
        assert report["removed_stray_files"] == 2
        assert not old_orphan.exists()
        assert not old_snap_orphan.exists()
        assert live_writer.exists()  # age guard: never race a live writer
        assert pointcache.load("a" * 8) is not None

    def test_tmp_and_snap_bytes_in_size_accounting(self, cache_dir):
        pointcache.store("a" * 8, b"x" * 100)
        gen = pointcache.generation_dir()
        (gen / "orphan.tmp").write_bytes(b"x" * 500)
        snapshot.store_state("f" * 8, "object", {"version": 1, "blob": b"y"})
        stats = pointcache.stats()
        assert stats["tmp_bytes"] == 500
        assert stats["total_entries"] == 2  # the pickle + the snapshot
        assert stats["total_bytes"] >= 500
        current = pointcache.code_salt()[: pointcache.GENERATION_CHARS]
        assert stats["generations"][current]["entries"] == 2

    def test_snapshots_pruned_lru_with_entries(self, cache_dir, monkeypatch):
        snapshot.store_state("a" * 8, "object", {"version": 1, "b": b"x" * 2000})
        path = snapshot.snapshot_path("a" * 8, "object")
        os.utime(path, (100, 100))
        pointcache.store("b" * 8, b"x" * 2000)
        os.utime(pointcache._entry_path("b" * 8), (200, 200))
        removed = pointcache.prune(3000)
        assert removed == [path]  # oldest (the snapshot) evicted first

    def test_malformed_max_mb_degrades_on_store_path(
        self, cache_dir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "not-a-number")
        with pytest.raises(ConfigError):
            pointcache.cache_max_bytes()
        assert pointcache.cache_max_bytes(strict=False) is None
        # A fully simulated point must not be lost to the bad knob.
        pointcache.store("a" * 8, b"x" * 10)
        assert pointcache.load("a" * 8) is not None

    def test_malformed_max_mb_fails_run_points_at_startup(
        self, cache_dir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "-3")
        with pytest.raises(ConfigError):
            run_points([sweep_spec()], max_workers=1)

    def test_prune_skips_entries_touched_since_scan(
        self, cache_dir, monkeypatch
    ):
        pointcache.store("a" * 8, b"x" * 2000)
        pointcache.store("b" * 8, b"x" * 2000)
        a = pointcache._entry_path("a" * 8)
        b = pointcache._entry_path("b" * 8)
        os.utime(a, (100, 100))
        os.utime(b, (200, 200))
        # Simulate a cache hit landing mid-prune: the scan saw a as the
        # LRU victim, but a load refreshed it before the unlink.
        stale_view = [(a, 100.0, 2000), (b, 200.0, 2000)]
        monkeypatch.setattr(pointcache, "_entries", lambda: stale_view)
        os.utime(a)  # the concurrent hit
        removed = pointcache.prune(3000)
        assert removed == [b]  # b is now the true LRU entry
        assert a.exists()
