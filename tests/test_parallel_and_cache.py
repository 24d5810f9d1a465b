"""Tests for the parallel grid runner and the persistent point cache."""

from __future__ import annotations

import pytest

from repro.engine import pointcache, result_identity
from repro.engine.parallel import (
    PointSpec,
    default_workers,
    run_cached_spec,
    run_points,
)
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentSettings,
    kvs_system,
    kvs_workload,
    point_spec,
)
from repro.workloads.xmem import Colocation

from tests.conftest import make_tiny_l3fwd, make_tiny_system

SCALE = 0.05
SETTINGS = ExperimentSettings(scale=SCALE, measure_multiplier=0.1)


def tiny_spec(label="p", ways=2, sweeper=False, seed=42, **overrides) -> PointSpec:
    spec = point_spec(
        label,
        kvs_system(SCALE, 64, ways, 512),
        kvs_workload(0.02, 512),
        "ddio",
        sweeper=sweeper,
        settings=SETTINGS,
        seed=seed,
    )
    if overrides:
        import dataclasses

        spec = dataclasses.replace(spec, **overrides)
    return spec


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pointcache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path / "pointcache"


def assert_identical(a, b):
    assert a.label == b.label
    assert a.trace.traffic.counts == b.trace.traffic.counts
    assert a.trace.level_counts == b.trace.level_counts
    assert a.trace.requests == b.trace.requests
    assert a.perf.throughput_mrps == b.perf.throughput_mrps
    assert a.perf.mem_bandwidth_gbps == b.perf.mem_bandwidth_gbps


class TestParallelRunner:
    def test_serial_and_parallel_identical(self, monkeypatch, cache_dir):
        # Bypass the cache so both paths genuinely simulate.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        specs = [
            tiny_spec(label=f"{w}/{s}", ways=w, sweeper=s)
            for w, s in ((2, False), (2, True))
        ] + [
            PointSpec(  # an NF + X-Mem point (Figure 9's kind)
                label="colocated",
                system=make_tiny_system(num_cores=4),
                workload=make_tiny_l3fwd(),
                sweeper=True,
                warmup_requests=128,
                measure_requests=256,
                colocation=Colocation(xmem_ways=(0, 1, 2)),
            )
        ]
        serial = run_points(specs, max_workers=1)
        parallel = run_points(specs, max_workers=2)
        assert [p.label for p in parallel] == [s.label for s in specs]
        for a, b in zip(serial, parallel):
            assert_identical(a, b)
        assert serial[-1].trace.xmem_accesses > 0
        # Every simulated field, also against REPRO_EPOCH-chunked runs.
        monkeypatch.setenv("REPRO_EPOCH", "64")
        chunked = run_points(specs, max_workers=1)
        identity = [result_identity(r) for r in serial]
        assert [result_identity(r) for r in parallel] == identity
        assert [result_identity(r) for r in chunked] == identity

    def test_same_seed_same_result_serial(self, monkeypatch, cache_dir):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        a = run_cached_spec(tiny_spec(seed=7))
        b = run_cached_spec(tiny_spec(seed=7))
        assert_identical(a, b)

    def test_empty_spec_list(self):
        assert run_points([]) == []

    def test_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ConfigError):
            default_workers()
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        with pytest.raises(ConfigError):
            default_workers()


class TestPointCache:
    def test_hit_equals_fresh_simulation(self, cache_dir):
        fresh = run_cached_spec(tiny_spec())
        assert not fresh.from_cache
        hit = run_cached_spec(tiny_spec())
        assert hit.from_cache
        assert_identical(fresh, hit)
        assert hit.sim_seconds == fresh.sim_seconds

    def test_hit_restamps_label(self, cache_dir):
        run_cached_spec(tiny_spec(label="first"))
        hit = run_cached_spec(tiny_spec(label="second"))
        assert hit.from_cache
        assert hit.label == "second"

    def test_no_cache_env_bypasses(self, monkeypatch, cache_dir):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        first = run_cached_spec(tiny_spec())
        second = run_cached_spec(tiny_spec())
        assert not first.from_cache
        assert not second.from_cache
        assert not cache_dir.exists()

    def test_fingerprint_covers_every_field(self):
        base = tiny_spec()
        variants = [
            tiny_spec(ways=4),
            tiny_spec(sweeper=True),
            tiny_spec(seed=43),
            tiny_spec(nic_tx_sweep=True),
            tiny_spec(queued_depth=2),
            tiny_spec(warmup_requests=10),
            tiny_spec(measure_requests=999),
            point_spec(
                "p",
                kvs_system(SCALE, 128, 2, 512),  # different rx buffers
                kvs_workload(0.02, 512),
                "ddio",
                settings=SETTINGS,
            ),
            point_spec(
                "p",
                kvs_system(SCALE, 64, 2, 512),
                kvs_workload(0.02, 256),  # different workload params
                "ddio",
                settings=SETTINGS,
            ),
            point_spec(
                "p",
                kvs_system(SCALE, 64, 2, 512),
                kvs_workload(0.02, 512),
                "dma",  # different policy
                settings=SETTINGS,
            ),
        ]
        base_fp = pointcache.fingerprint(base)
        fps = [pointcache.fingerprint(v) for v in variants]
        assert all(fp != base_fp for fp in fps)
        assert len(set(fps)) == len(fps)

    def test_label_not_in_fingerprint(self):
        assert pointcache.fingerprint(tiny_spec(label="a")) == (
            pointcache.fingerprint(tiny_spec(label="b"))
        )

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        run_cached_spec(tiny_spec())
        entries = list(cache_dir.rglob("*.pkl"))
        assert len(entries) == 1
        entries[0].write_bytes(b"not a pickle")
        again = run_cached_spec(tiny_spec())
        assert not again.from_cache


class TestPointCacheGC:
    @staticmethod
    def _put(fp: str, size: int, mtime: float):
        import os

        pointcache.store(fp, b"x" * size)
        path = pointcache._entry_path(fp)
        os.utime(path, (mtime, mtime))
        return path

    def test_cache_max_bytes_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert pointcache.cache_max_bytes() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "2")
        assert pointcache.cache_max_bytes() == 2 * 1024 * 1024
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "abc")
        with pytest.raises(ConfigError):
            pointcache.cache_max_bytes()
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0")
        with pytest.raises(ConfigError):
            pointcache.cache_max_bytes()

    def test_store_prunes_oldest_first(self, cache_dir, monkeypatch):
        a = self._put("a" * 8, 2000, 100)
        b = self._put("b" * 8, 2000, 200)
        # Bound fits two entries but not three (5000 B; each ~2 KB).
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", str(5000 / (1024 * 1024)))
        c = self._put("c" * 8, 2000, 300)
        assert not a.exists()  # oldest mtime evicted
        assert b.exists() and c.exists()

    def test_load_refreshes_mtime_lru(self, cache_dir, monkeypatch):
        a = self._put("a" * 8, 2000, 100)
        b = self._put("b" * 8, 2000, 200)
        assert pointcache.load("a" * 8) is not None  # touch: now newest
        assert a.stat().st_mtime > 200
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", str(5000 / (1024 * 1024)))
        c = self._put("c" * 8, 2000, 300)
        assert not b.exists()  # b became the LRU entry, not a
        assert a.exists() and c.exists()

    def test_stats_and_gc_remove_orphans(self, cache_dir):
        self._put("a" * 8, 100, 100)
        orphan = pointcache.cache_dir() / ("0" * pointcache.GENERATION_CHARS)
        orphan.mkdir(parents=True)
        (orphan / "old.pkl").write_bytes(b"x")
        (pointcache.cache_dir() / "stray.pkl").write_bytes(b"x")
        (pointcache.cache_dir() / "writer.tmp").write_bytes(b"x")

        stats = pointcache.stats()
        current = pointcache.code_salt()[: pointcache.GENERATION_CHARS]
        assert stats["total_entries"] == 3  # a + old.pkl + stray.pkl
        assert stats["generations"][current]["current"] is True
        assert stats["generations"][orphan.name]["current"] is False

        report = pointcache.gc()
        assert report["removed_generations"] == [orphan.name]
        assert report["removed_stray_files"] == 2  # stray.pkl + writer.tmp
        assert report["pruned_entries"] == 0
        assert not orphan.exists()
        assert pointcache.load("a" * 8) is not None  # current entry survives

    def test_cli_stats_and_gc(self, cache_dir, capsys):
        import json

        self._put("a" * 8, 100, 100)
        assert pointcache._main(["--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["total_entries"] == 1
        assert stats["cache_dir"] == str(cache_dir)
        # A ~1-byte bound prunes everything.
        assert pointcache._main(["--gc", "--max-mb", "0.000001"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pruned_entries"] == 1
        assert list(cache_dir.rglob("*.pkl")) == []
