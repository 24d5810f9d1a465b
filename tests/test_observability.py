"""Tests for the observability layer (repro.obs) and its engine wiring.

Covers the metrics registry contracts (cardinality cap, disabled-mode
no-ops, histogram bucketing), the fields-derived CacheStats reset, the
atomic event log, the epoch sampler's exact-consistency contract with
end-of-run aggregates, manifest round-trips, run_points provenance, and
the ISSUE acceptance test: a REPRO_EPOCH-enabled fig1 run whose summed
per-epoch dirty-eviction deltas equal the end-of-run aggregate.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache.stats import CacheStats
from repro.engine.parallel import PointSpec, last_run_dir, run_points, run_spec
from repro.engine.tracer import TraceConfig, TraceSimulator
from repro.errors import ConfigError
from repro.obs.events import EventLog, from_env as eventlog_from_env
from repro.obs.manifest import (
    PointRecord,
    RunManifest,
    manifests_enabled,
    runs_dir,
    validate_manifest,
)
from repro.obs.metrics import (
    NULL_INSTRUMENT,
    MetricsRegistry,
    sample_name,
)
from repro.obs.timeline import (
    EpochSampler,
    ObsContext,
    epoch_from_env,
    load_jsonl,
    validate_timeline,
    write_jsonl,
)
from tests.conftest import make_tiny_kvs, make_tiny_system

DIRTY_KEY_PREFIX = "cache_events_total"


def _summed_dirty_deltas(records) -> float:
    total = 0.0
    for rec in records:
        for key, value in rec["deltas"].items():
            if key.startswith(DIRTY_KEY_PREFIX) and 'event="evictions_dirty"' in key:
                total += value
    return total


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_inc_and_reject_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ConfigError):
            c.inc(-1)

    def test_sample_name_sorts_labels(self):
        assert sample_name("m", {"b": "2", "a": "1"}) == 'm{a="1",b="2"}'
        assert sample_name("m") == "m"

    def test_labelled_children_memoized(self):
        reg = MetricsRegistry()
        fam = reg.counter("events_total", labels=("kind",))
        a1 = fam.labels(kind="a")
        a2 = fam.labels(kind="a")
        assert a1 is a2
        a1.inc(3)
        assert reg.collect() == {'events_total{kind="a"}': 3.0}

    def test_label_cardinality_cap(self):
        reg = MetricsRegistry(max_label_sets=4)
        fam = reg.counter("events_total", labels=("kind",))
        for i in range(4):
            fam.labels(kind=str(i))
        with pytest.raises(ConfigError, match="cardinality"):
            fam.labels(kind="overflow")

    def test_wrong_label_names_rejected(self):
        reg = MetricsRegistry()
        fam = reg.counter("events_total", labels=("kind",))
        with pytest.raises(ConfigError):
            fam.labels(wrong="x")
        with pytest.raises(ConfigError):
            reg.counter("bare").labels(kind="x")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ConfigError, match="already registered"):
            reg.gauge("m")

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("requests_total", labels=("kind",))
        assert c is NULL_INSTRUMENT
        assert c.labels(kind="anything") is NULL_INSTRUMENT
        # every mutation is a silent no-op
        c.inc()
        c.set(5)
        c.observe(1.0)
        calls = []
        reg.register_collector(lambda r: calls.append(r))
        assert reg.collect() == {}
        assert calls == []  # collectors dropped, never invoked

    def test_histogram_bucketing(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 7.0, 100.0):
            h.observe(v)
        # cumulative per bound: <=1: 2, <=5: 3, <=10: 4, +Inf: 5
        assert h.bucket_counts() == {"1.0": 2, "5.0": 3, "10.0": 4, "+Inf": 5}
        assert h.count == 5
        assert h.sum == pytest.approx(111.5)
        samples = reg.collect()
        assert samples['latency_bucket{le="5.0"}'] == 3.0
        assert samples["latency_count"] == 5.0
        assert samples["latency_sum"] == pytest.approx(111.5)

    def test_histogram_text_exposition_order(self):
        # A lexicographic sort would emit +Inf first and "10.0" before
        # "5.0"; the text format requires ascending cumulative buckets
        # ending at the explicit +Inf, then _count and _sum.
        reg = MetricsRegistry()
        h = reg.histogram("latency", "per-op wall", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 3.0, 7.0, 100.0):
            h.observe(v)
        text = reg.render_text()
        lines = [l for l in text.splitlines() if l.startswith("latency")]
        assert lines == [
            'latency_bucket{le="1.0"} 1',
            'latency_bucket{le="5.0"} 2',
            'latency_bucket{le="10.0"} 3',
            'latency_bucket{le="+Inf"} 4',
            "latency_count 4",
            "latency_sum 110.5",
        ]
        assert text.index("# TYPE latency histogram") < text.index(
            'latency_bucket{le="1.0"}'
        )
        # buckets are cumulative, so the series is monotone
        counts = [float(l.rsplit(" ", 1)[1]) for l in lines[:4]]
        assert counts == sorted(counts)

    def test_labelled_histogram_exposition_groups_leaves(self):
        reg = MetricsRegistry()
        h = reg.histogram("op_seconds", labels=("op",), buckets=(1.0, 10.0))
        h.labels(op="read").observe(0.5)
        h.labels(op="write").observe(5.0)
        text = reg.render_text()
        lines = [l for l in text.splitlines() if l.startswith("op_seconds")]
        assert lines == [
            'op_seconds_bucket{le="1.0",op="read"} 1',
            'op_seconds_bucket{le="10.0",op="read"} 1',
            'op_seconds_bucket{le="+Inf",op="read"} 1',
            'op_seconds_count{op="read"} 1',
            'op_seconds_sum{op="read"} 0.5',
            'op_seconds_bucket{le="1.0",op="write"} 0',
            'op_seconds_bucket{le="10.0",op="write"} 1',
            'op_seconds_bucket{le="+Inf",op="write"} 1',
            'op_seconds_count{op="write"} 1',
            'op_seconds_sum{op="write"} 5',
        ]

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.histogram("h", buckets=(5.0, 1.0))

    def test_collector_runs_on_collect(self):
        reg = MetricsRegistry()
        raw = {"n": 0}
        c = reg.counter("raw_total")
        reg.register_collector(lambda r: c.set_total(raw["n"]))
        raw["n"] = 7
        assert reg.collect()["raw_total"] == 7.0
        raw["n"] = 9
        assert reg.collect()["raw_total"] == 9.0

    def test_reset_preserves_registrations(self):
        reg = MetricsRegistry()
        c = reg.counter("m")
        c.inc(3)
        reg.reset()
        assert reg.collect()["m"] == 0.0
        assert reg.counter("m") is c


# ----------------------------------------------------------------------
# CacheStats fields-derived reset (satellite a)
# ----------------------------------------------------------------------


def test_cache_stats_reset_covers_every_field():
    import dataclasses

    stats = CacheStats()
    for i, f in enumerate(dataclasses.fields(stats), start=1):
        setattr(stats, f.name, i)
    stats.reset()
    assert all(v == 0 for v in stats.as_dict().values())
    # as_dict tracks the field list too
    assert set(stats.as_dict()) == {f.name for f in dataclasses.fields(stats)}


# ----------------------------------------------------------------------
# event log
# ----------------------------------------------------------------------


class TestEventLog:
    def test_text_mode_single_atomic_line(self):
        buf = io.StringIO()
        log = EventLog(mode="text", stream=buf)
        log.info("point.finish", label="a b", done="1/2")
        out = buf.getvalue()
        assert out.count("\n") == 1
        assert "point.finish" in out and 'label="a b"' in out

    def test_text_mode_multiline_block_prefixed(self):
        buf = io.StringIO()
        log = EventLog(mode="text", stream=buf)
        log.emit("profile", label="p1", text="line1\nline2")
        lines = buf.getvalue().splitlines()
        assert lines[1] == "[p1] line1"
        assert lines[2] == "[p1] line2"

    def test_json_mode_fields(self):
        buf = io.StringIO()
        log = EventLog(mode="json", stream=buf)
        log.info("run.start", points=3)
        rec = json.loads(buf.getvalue())
        assert rec["event"] == "run.start"
        assert rec["points"] == 3
        assert rec["level"] == "info"
        assert "ts" in rec

    def test_disabled_silent_but_force_emits(self):
        buf = io.StringIO()
        log = EventLog(mode=None, stream=buf)
        log.info("quiet")
        assert buf.getvalue() == ""
        log.emit("profile", force=True, text="hot spots")
        assert "hot spots" in buf.getvalue()

    def test_level_filtering(self):
        buf = io.StringIO()
        log = EventLog(mode="text", level="warning", stream=buf)
        log.info("dropped")
        log.warning("kept")
        assert "dropped" not in buf.getvalue()
        assert "kept" in buf.getvalue()
        assert not log.would_emit("debug")
        assert log.would_emit("error")

    def test_from_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "yaml")
        with pytest.raises(ConfigError):
            eventlog_from_env()
        monkeypatch.setenv("REPRO_LOG", "json")
        monkeypatch.setenv("REPRO_LOG_LEVEL", "loud")
        with pytest.raises(ConfigError):
            eventlog_from_env()
        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        assert eventlog_from_env().mode == "json"
        monkeypatch.setenv("REPRO_LOG", "off")
        assert eventlog_from_env().mode is None


# ----------------------------------------------------------------------
# epoch sampler + engine wiring
# ----------------------------------------------------------------------


def _tiny_cfg(**overrides) -> TraceConfig:
    kwargs = dict(
        system=make_tiny_system(),
        workload=make_tiny_kvs(),
        policy="ddio",
        sweeper=False,
        measure_requests=600,
    )
    kwargs.update(overrides)
    return TraceConfig(**kwargs)


def test_epoch_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_EPOCH", raising=False)
    assert epoch_from_env() is None
    monkeypatch.setenv("REPRO_EPOCH", "250")
    assert epoch_from_env() == 250
    monkeypatch.setenv("REPRO_EPOCH", "0")
    with pytest.raises(ConfigError):
        epoch_from_env()
    monkeypatch.setenv("REPRO_EPOCH", "soon")
    with pytest.raises(ConfigError):
        epoch_from_env()


def test_epoch_deltas_sum_to_aggregates():
    obs = ObsContext(epoch_requests=150)  # 600 measured -> 4 epochs
    trace = TraceSimulator(_tiny_cfg(), obs=obs).run()
    records = obs.timeline
    validate_timeline(records)
    assert len(records) == 4
    assert records[-1]["requests"] == 600
    assert _summed_dirty_deltas(records) == trace.cache_totals["evictions_dirty"]


def test_final_partial_epoch_sampled():
    obs = ObsContext(epoch_requests=250)  # 600 -> epochs at 250, 500, 600
    trace = TraceSimulator(_tiny_cfg(), obs=obs).run()
    assert [r["requests"] for r in obs.timeline] == [250, 500, 600]
    assert _summed_dirty_deltas(obs.timeline) == trace.cache_totals[
        "evictions_dirty"
    ]


def test_observed_run_bit_identical_to_plain_run():
    plain = TraceSimulator(_tiny_cfg()).run()
    observed = TraceSimulator(
        _tiny_cfg(), obs=ObsContext(epoch_requests=97)
    ).run()
    assert plain.traffic.snapshot() == observed.traffic.snapshot()
    assert plain.cache_totals == observed.cache_totals


def test_sampler_baseline_excludes_warmup():
    reg = MetricsRegistry()
    c = reg.counter("warm_total")
    c.inc(100)  # "warmup" activity
    sampler = EpochSampler(reg)
    sampler.baseline()
    c.inc(5)
    rec = sampler.sample(requests=10)
    assert rec["deltas"]["warm_total"] == 5.0
    assert sampler.summed_deltas("warm_total") == 5.0


def test_timeline_cli_runs_as_main_without_double_import(tmp_path):
    """``python -m repro.report.timeline`` must not find the module
    already imported by its package (a RuntimeWarning, made fatal)."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::RuntimeWarning",
            "-m",
            "repro.report.timeline",
            "--list",
            "--runs-dir",
            str(tmp_path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "no runs under" in proc.stdout


def test_timeline_jsonl_round_trip(tmp_path):
    obs = ObsContext(epoch_requests=200)
    TraceSimulator(_tiny_cfg(), obs=obs).run()
    path = tmp_path / "tl.jsonl"
    write_jsonl(path, obs.timeline)
    loaded = load_jsonl(path)
    validate_timeline(loaded)
    assert loaded == json.loads(json.dumps(obs.timeline))


def test_validate_timeline_rejects_bad_records():
    with pytest.raises(ConfigError):
        validate_timeline([])
    with pytest.raises(ConfigError):
        validate_timeline([{"schema": 99, "epoch": 0, "requests": 1,
                            "metrics": {}, "deltas": {}}])
    with pytest.raises(ConfigError):  # wrong epoch index
        validate_timeline([{"schema": 1, "epoch": 3, "requests": 1,
                            "metrics": {}, "deltas": {}}])


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------


def _sample_manifest() -> RunManifest:
    manifest = RunManifest.create(run_label="unit", workers=2)
    manifest.code_salt = "deadbeef"
    manifest.wall_seconds = 1.5
    manifest.sim_seconds_total = 2.5
    manifest.points = [
        PointRecord(
            label="p0",
            fingerprint="fp0",
            system="SystemConfig(...)",
            workload="kvs|...",
            policy="ddio",
            sweeper=False,
            nic_tx_sweep=False,
            queued_depth=1,
            seed=42,
            warmup_requests=None,
            measure_requests=600,
            from_cache=False,
            sim_seconds=1.0,
            timeline_file="timelines/p0.jsonl",
        )
    ]
    return manifest


class TestManifest:
    def test_round_trip_preserves_config(self, tmp_path):
        manifest = _sample_manifest()
        path = tmp_path / "runs" / manifest.run_id / "manifest.json"
        manifest.write(path)
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()
        validate_manifest(loaded)

    def test_schema_mismatch_rejected(self, tmp_path):
        manifest = _sample_manifest()
        data = manifest.to_dict()
        data["schema"] = 99
        with pytest.raises(ConfigError, match="schema"):
            RunManifest.from_dict(data)

    def test_duplicate_labels_rejected(self):
        manifest = _sample_manifest()
        manifest.points.append(manifest.points[0])
        with pytest.raises(ConfigError, match="duplicate"):
            validate_manifest(manifest)

    def test_env_knobs(self, monkeypatch, tmp_path):
        assert manifests_enabled()
        monkeypatch.setenv("REPRO_NO_MANIFEST", "1")
        assert not manifests_enabled()
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "elsewhere"))
        assert runs_dir() == tmp_path / "elsewhere"


# ----------------------------------------------------------------------
# run_points provenance + timelines
# ----------------------------------------------------------------------


def _tiny_spec(label: str, **overrides) -> PointSpec:
    kwargs = dict(
        label=label,
        system=make_tiny_system(),
        workload=make_tiny_kvs(),
        policy="ddio",
        measure_requests=600,
    )
    kwargs.update(overrides)
    return PointSpec(**kwargs)


def test_run_points_manifest_and_cache_provenance(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_EPOCH", "200")
    specs = [_tiny_spec("a"), _tiny_spec("b", sweeper=True)]

    run_points(specs, max_workers=1, run_label="prov")
    first_dir = last_run_dir()
    first = RunManifest.load(first_dir / "manifest.json")
    validate_manifest(first)
    assert first.run_label == "prov"
    assert first.workers == 1
    assert [p.from_cache for p in first.points] == [False, False]
    for p in first.points:
        assert p.timeline_file is not None
        records = load_jsonl(first_dir / p.timeline_file)
        validate_timeline(records)
    assert first.env.get("REPRO_EPOCH") == "200"

    # identical grid again: all points served from cache, no timelines
    run_points(specs, max_workers=1, run_label="prov")
    second_dir = last_run_dir()
    assert second_dir != first_dir
    second = RunManifest.load(second_dir / "manifest.json")
    assert [p.from_cache for p in second.points] == [True, True]
    assert all(p.timeline_file is None for p in second.points)
    assert second.cached_points == 2
    # fingerprints identify the same simulations across runs
    assert [p.fingerprint for p in first.points] == [
        p.fingerprint for p in second.points
    ]


def test_run_spec_result_carries_timeline_only_with_run_dir(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_EPOCH", "300")
    result = run_spec(_tiny_spec("solo"))
    assert result.timeline_file is None  # no run_dir to write into
    result = run_spec(_tiny_spec("solo"), run_dir=str(tmp_path))
    assert result.timeline_file is not None
    validate_timeline(load_jsonl(tmp_path / result.timeline_file))


def test_no_manifest_knob(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.setenv("REPRO_NO_MANIFEST", "1")
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    before = last_run_dir()
    run_points([_tiny_spec("x")], max_workers=1, run_label="nomanifest")
    assert last_run_dir() == before
    assert not (runs_dir()).exists()


# ----------------------------------------------------------------------
# acceptance: fig1 with REPRO_EPOCH — timelines match aggregates exactly
# ----------------------------------------------------------------------


def test_fig1_epoch_timelines_match_aggregates(tmp_path, monkeypatch):
    """ISSUE acceptance: summed per-epoch dirty-eviction deltas of every
    fig1 timeline equal that point's end-of-run aggregate, exactly."""
    from repro.experiments import fig1

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_EPOCH", "300")
    monkeypatch.setenv("REPRO_MEASURE", "0.1")  # floor of 500 req/point

    result = fig1.run(scale=0.1)
    run_dir = last_run_dir()
    assert run_dir is not None
    manifest = RunManifest.load(run_dir / "manifest.json")
    validate_manifest(manifest)
    assert len(manifest.points) == len(result.points)

    checked = 0
    for record in manifest.points:
        assert record.timeline_file is not None  # fresh cache -> all simulated
        records = load_jsonl(run_dir / record.timeline_file)
        validate_timeline(records)
        point = result.point(record.label)
        aggregate = point.trace.cache_totals["evictions_dirty"]
        assert _summed_dirty_deltas(records) == aggregate
        checked += 1
    assert checked == len(result.points)


class TestLogFile:
    """REPRO_LOG_FILE: durable event history for daemons."""

    def test_log_file_enables_text_mode(self, tmp_path, monkeypatch):
        path = tmp_path / "events.log"
        monkeypatch.delenv("REPRO_LOG", raising=False)
        monkeypatch.setenv("REPRO_LOG_FILE", str(path))
        log = eventlog_from_env()
        assert log.enabled and log.mode == "text"
        log.info("serve.start", port=1)
        log.close()
        text = path.read_text()
        assert text.count("\n") == 1  # one event, one atomic line
        assert "serve.start" in text and "port=1" in text

    def test_log_file_appends_across_opens(self, tmp_path, monkeypatch):
        path = tmp_path / "events.log"
        monkeypatch.setenv("REPRO_LOG", "json")
        monkeypatch.setenv("REPRO_LOG_FILE", str(path))
        for n in (1, 2):
            log = eventlog_from_env()
            log.info("run.start", n=n)
            log.close()
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert [r["n"] for r in records] == [1, 2]
        assert all(r["event"] == "run.start" for r in records)

    def test_explicit_off_beats_log_file(self, tmp_path, monkeypatch):
        path = tmp_path / "events.log"
        monkeypatch.setenv("REPRO_LOG", "off")
        monkeypatch.setenv("REPRO_LOG_FILE", str(path))
        log = eventlog_from_env()
        assert not log.enabled
        log.info("quiet")
        log.close()
        assert path.read_text() == ""

    def test_get_event_log_rebuilds_and_closes_on_env_change(
        self, tmp_path, monkeypatch
    ):
        from repro.obs.events import get_event_log

        path = tmp_path / "events.log"
        monkeypatch.setenv("REPRO_LOG_FILE", str(path))
        first = get_event_log()
        first.info("point.finish", label="a")
        monkeypatch.delenv("REPRO_LOG_FILE")
        second = get_event_log()
        assert second is not first
        assert first.stream.closed  # rebuilt log closed the owned stream
        assert "point.finish" in path.read_text()
