"""Side-channel observability pack: observer, burst, probes, figS*.

Four contracts under test:

1. **Seed bit-identity** — with no observer and no burst configured, the
   simulator is byte-for-byte the pre-observer code: golden digests of a
   fig1 spec and the fig9 collocation run, captured from the seed tree
   before the observer hook existed, must still match exactly.
2. **Observer determinism** — with a fixed probe seed, serial runs,
   ``REPRO_WORKERS>1`` runs, and ``REPRO_EPOCH`` chunked runs all
   produce identical probe timelines, leak summaries, and result rows.
3. **Engine seam** — observer points run on the batch engine with no
   fallback, bit-identical to an explicit object run (leak summary
   aside from its ``engine`` field, probe records, trace digest); a
   re-prime discards its LLC victim on both engines; a burst profile
   alone runs under the batch engine bit-identically.
4. **Leak physics** — on the tiny machine the figS1 ordering holds:
   DMA pins MI near zero, DDIO maximizes it, DDIO+Sweeper lands below
   DDIO (and preserves more attacker lines).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.engine.batch import BatchHierarchy, build_hierarchy
from repro.engine.parallel import (
    PointSpec,
    last_run_dir,
    run_cached_spec,
    run_points,
)
from repro.engine.pointcache import fingerprint
from repro.engine.tracer import (
    CollocationSimulator,
    TraceConfig,
    TraceSimulator,
)
from repro.errors import ConfigError
from repro.experiments import figS1, figS2
from repro.experiments.common import ExperimentSettings, point_row
from repro.experiments import fig1
from repro.mem.layout import RegionKind
from repro.nic.arrivals import BurstProfile
from repro.obs import events as obs_events
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import validate_probe_record, validate_probe_timeline
from repro.obs.validate import validate_run_dir
from repro.serve.jobs import BadRequest, parse_job_request
from repro.sidechannel import (
    ObserverConfig,
    binned_mutual_information,
    hit_rate_trace,
    per_set_eviction_counts,
)
from repro.workloads.xmem import Colocation
from tests.conftest import (
    make_tiny_kvs,
    make_tiny_l3fwd,
    make_tiny_system,
    needs_kernel,
)

#: tiny-machine observer/burst used throughout (64-set LLC, 2 DDIO ways).
TINY_OBSERVER = ObserverConfig(sets=8, period=8, probe_seed=23, mi_bins=4)
TINY_BURST = BurstProfile(low=1, high=9, window=16, seed=5)


def tiny_cfg(
    policy: str = "ddio",
    sweeper: bool = False,
    engine: str = "object",
    observer: ObserverConfig = TINY_OBSERVER,
    burst: BurstProfile = TINY_BURST,
    measure: int = 512,
) -> TraceConfig:
    return TraceConfig(
        system=make_tiny_system(),
        workload=make_tiny_kvs(),
        policy=policy,
        sweeper=sweeper,
        warmup_requests=128,
        measure_requests=measure,
        engine=engine,
        observer=observer,
        burst=burst,
    )


def tiny_spec(
    label: str, sweeper: bool = False, measure: int = 384
) -> PointSpec:
    return PointSpec(
        label=label,
        system=make_tiny_system(),
        workload=make_tiny_kvs(),
        policy="ddio",
        sweeper=sweeper,
        warmup_requests=128,
        measure_requests=measure,
        observer=TINY_OBSERVER,
        burst=TINY_BURST,
    )


# ----------------------------------------------------------------------
# 1. observer-off runs are bit-identical to the seed
# ----------------------------------------------------------------------

# Golden digests captured from the seed tree (before the observer hook
# existed in run_requests): fig1's first spec and the fig9 collocation
# run. Any drift here means the observer seam perturbed the hot path.
GOLDEN_FIG1 = {
    "cache_totals": {
        "evictions_clean": 4539, "evictions_dirty": 3336, "hits": 4880,
        "insertions": 15771, "invalidations": 992, "misses": 23171,
        "sweeps": 0,
    },
    "cpu_work": 629.5,
    "levels": {"L1": 573, "L2": 971, "LLC": 0, "MEM": 7400},
    "occ": {"APP": 0, "RX_BUFFER": 0, "TX_BUFFER": 0},
    "traffic": {
        "CPU_OTHER_RD": 2808, "CPU_RX_RD": 4096, "CPU_TX_RDWR": 496,
        "NIC_RX_WR": 4096, "NIC_TX_RD": 496, "OTHER_EVCT": 0,
        "RX_EVCT": 0, "TX_EVCT": 496,
    },
}
GOLDEN_FIG9 = {
    "cache_totals": {
        "evictions_clean": 9282, "evictions_dirty": 5687, "hits": 4378,
        "insertions": 18212, "invalidations": 3077, "misses": 21806,
        "sweeps": 3072,
    },
    "levels": {"L1": 762, "L2": 436, "LLC": 1024, "MEM": 338},
    "sweeps": 1024,
    "traffic": {
        "CPU_OTHER_RD": 6420, "CPU_RX_RD": 0, "CPU_TX_RDWR": 0,
        "NIC_RX_WR": 0, "NIC_TX_RD": 0, "OTHER_EVCT": 1791,
        "RX_EVCT": 0, "TX_EVCT": 0,
    },
    "xmem_accesses": 6144,
    "xmem_levels": {"L1": 15, "L2": 32, "LLC": 15, "MEM": 6082},
}


def _trace_digest(t) -> dict:
    return {
        "traffic": {
            c.name: n
            for c, n in sorted(
                t.traffic.counts.items(), key=lambda kv: int(kv[0])
            )
        },
        "levels": {lv.name: n for lv, n in t.level_counts.items()},
        "cache_totals": t.cache_totals,
    }


def test_fig1_observer_off_bit_identical_to_seed():
    spec = fig1.specs(ExperimentSettings(scale=0.05))[0]
    cfg = TraceConfig(
        system=spec.system,
        workload=spec.workload,
        policy=spec.policy,
        sweeper=spec.sweeper,
        nic_tx_sweep=spec.nic_tx_sweep,
        queued_depth=spec.queued_depth,
        seed=spec.seed,
        warmup_requests=192,
        measure_requests=256,
        engine="object",
    )
    t = TraceSimulator(cfg).run()
    digest = _trace_digest(t)
    digest["occ"] = {k.name: v for k, v in t.llc_occupancy_by_kind.items()}
    digest["cpu_work"] = t.cpu_work_cycles
    assert digest == GOLDEN_FIG1
    assert t.leak is None


def test_fig9_observer_off_bit_identical_to_seed():
    cfg = TraceConfig(
        system=make_tiny_system(num_cores=4),
        workload=make_tiny_l3fwd(),
        sweeper=True,
        warmup_requests=128,
        measure_requests=256,
        engine="object",
    )
    sim = CollocationSimulator(cfg, Colocation(xmem_ways=(0, 1, 2)))
    c = sim.run()
    digest = _trace_digest(c)
    digest["sweeps"] = c.sweep_instructions
    digest["xmem_accesses"] = c.xmem_accesses
    digest["xmem_levels"] = {
        lv.name: n for lv, n in c.xmem_level_counts.items()
    }
    assert digest == GOLDEN_FIG9


def test_observer_off_cache_key_keeps_legacy_format():
    spec = tiny_spec("k")
    plain = PointSpec(
        label="k",
        system=spec.system,
        workload=spec.workload,
        policy=spec.policy,
        warmup_requests=128,
        measure_requests=384,
    )
    key = plain.cache_key()
    assert "observer=" not in key and "burst=" not in key
    assert "colocation=" not in key
    observed = spec.cache_key()
    assert observed.startswith(key)
    assert "observer=ObserverConfig(" in observed
    assert "burst=BurstProfile(" in observed
    assert fingerprint(plain) != fingerprint(spec)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sets": 0},
        {"period": 0},
        {"jitter": 8, "period": 8},
        {"jitter": -1},
        {"mi_bins": 1},
        {"ways": ()},
        {"ways": (0, -1)},
    ],
)
def test_observer_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigError):
        ObserverConfig(**kwargs)


def test_observer_config_coerces_ways_to_tuple():
    assert ObserverConfig(ways=[1, 2]).ways == (1, 2)


def test_observer_ways_beyond_llc_associativity_raise():
    cfg = tiny_cfg(observer=ObserverConfig(sets=4, ways=(15,)), measure=64)
    with pytest.raises(ConfigError):
        TraceSimulator(cfg).run()


@pytest.mark.parametrize(
    "kwargs",
    [{"low": 0}, {"low": 5, "high": 4}, {"window": 0}],
)
def test_burst_profile_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigError):
        BurstProfile(**kwargs)


def test_burst_depth_is_a_pure_function_of_the_index():
    a = BurstProfile(low=2, high=10, window=8, seed=3)
    b = BurstProfile(low=2, high=10, window=8, seed=3)
    forward = [a.depth(i) for i in range(256)]
    backward = [b.depth(i) for i in reversed(range(256))]
    assert forward == list(reversed(backward))
    assert set(forward) == {2, 10}  # both phases occur
    for w in range(0, 256, 8):  # constant within a window
        assert len({x for x in forward[w : w + 8]}) == 1


@pytest.mark.parametrize("seed", [0, 3, 5, -7, 2**40])
def test_burst_depths_match_depth(seed):
    """The fused loop's vector ``depths`` is ``depth`` per index, also
    where the hash's products exceed 64 bits."""
    for window in (1, 12, 24):
        profile = BurstProfile(low=2, high=30, window=window, seed=seed)
        for start in (0, 12_345, 2**40 + 7, 2**62 - 3000):
            got = profile.depths(start, start + 3000)
            assert got.dtype == np.int64
            assert got.tolist() == [profile.depth(i) for i in range(start, start + 3000)]


# ----------------------------------------------------------------------
# probe records and validators
# ----------------------------------------------------------------------


def test_probe_timeline_validates_and_accounts_every_line():
    sim = TraceSimulator(tiny_cfg())
    t = sim.run()
    records = sim.observer.records
    assert len(records) == 512 // TINY_OBSERVER.period
    validate_probe_timeline(records)
    lines = TINY_OBSERVER.sets * len(sim.observer.probe_ways)
    for r in records:
        assert r["hits"] + r["misses"] == lines
    assert t.leak["probes"] == len(records)
    assert t.leak["hits"] == sum(r["hits"] for r in records)
    assert t.leak["probe_ways"] == [0, 1]  # tracked the DDIO mask
    assert t.leak["engine"] == "object"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.update(schema=99),
        lambda r: r.update(misses="3"),
        lambda r: r.update(hits=-1),
        lambda r: r.update(set_misses={"x": 1}),
        lambda r: r.update(set_misses={"5": 0}),
        lambda r: r.update(set_misses={"5": r["misses"] + 1}),
    ],
)
def test_probe_record_validator_rejects_corruption(mutate):
    record = {
        "schema": 1, "probe": 0, "request": 7, "interval": 8,
        "arrivals": 8, "hits": 13, "misses": 3, "set_misses": {"5": 3},
    }
    validate_probe_record(record)
    mutate(record)
    with pytest.raises(ConfigError):
        validate_probe_record(record)


def test_probe_timeline_validator_rejects_bad_ordering():
    def rec(probe, request):
        return {
            "schema": 1, "probe": probe, "request": request, "interval": 8,
            "arrivals": 0, "hits": 16, "misses": 0, "set_misses": {},
        }

    with pytest.raises(ConfigError):
        validate_probe_timeline([])
    with pytest.raises(ConfigError):  # non-sequential probe index
        validate_probe_timeline([rec(0, 7), rec(2, 15)])
    with pytest.raises(ConfigError):  # request not strictly increasing
        validate_probe_timeline([rec(0, 7), rec(1, 7)])


def test_analysis_helpers():
    records = [
        {"hits": 3, "misses": 1, "set_misses": {"4": 1}},
        {"hits": 0, "misses": 4, "set_misses": {"4": 2, "11": 2}},
        {"hits": 4, "misses": 0, "set_misses": {}},
    ]
    assert hit_rate_trace(records) == [0.75, 0.0, 1.0]
    assert per_set_eviction_counts(records) == {"4": 3, "11": 2}
    # perfectly dependent variables carry log2(range) bits; constants none
    xs = [0, 1, 2, 3] * 8
    assert binned_mutual_information(xs, xs, 4) == pytest.approx(2.0)
    assert binned_mutual_information(xs, [5] * len(xs), 4) == 0.0
    assert binned_mutual_information([], [], 4) == 0.0


# ----------------------------------------------------------------------
# 2. observer-on determinism: serial / workers / epoch chunking
# ----------------------------------------------------------------------


def _run_grid(monkeypatch, tmp_path, tag, workers, epoch=None):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / tag))
    if epoch is None:
        monkeypatch.delenv("REPRO_EPOCH", raising=False)
    else:
        monkeypatch.setenv("REPRO_EPOCH", str(epoch))
    specs = [tiny_spec("plain"), tiny_spec("swept", sweeper=True)]
    results = run_points(specs, max_workers=workers, run_label=tag)
    run_dir = last_run_dir()
    probes = {}
    for r in results:
        assert r.probe_file is not None
        probes[r.label] = (run_dir / r.probe_file).read_text()
    rows = [point_row(r, 0.05) for r in results]
    for row in rows:
        row.pop("sim_seconds")  # wall-clock, the one nondeterministic key
    return rows, probes


def test_observer_deterministic_across_execution_modes(
    monkeypatch, tmp_path
):
    serial = _run_grid(monkeypatch, tmp_path, "serial", workers=1)
    parallel = _run_grid(monkeypatch, tmp_path, "parallel", workers=2)
    chunked = _run_grid(
        monkeypatch, tmp_path, "chunked", workers=1, epoch=64
    )
    assert serial == parallel
    assert serial == chunked
    rows = serial[0]
    assert rows[0]["leak"]["probes"] == 384 // TINY_OBSERVER.period
    # identical runs serialize byte-identically
    assert json.dumps(serial[0], sort_keys=True) == json.dumps(
        parallel[0], sort_keys=True
    )


def test_probe_seed_selects_different_monitored_sets():
    sims = []
    for seed in (23, 24):
        sim = TraceSimulator(
            tiny_cfg(
                observer=ObserverConfig(sets=8, period=8, probe_seed=seed)
            )
        )
        sim.run()
        sims.append(sim)
    assert sims[0].observer.monitored_sets != sims[1].observer.monitored_sets


def test_jittered_schedule_stays_deterministic():
    cfg = ObserverConfig(sets=8, period=8, jitter=3, probe_seed=23)
    runs = []
    for _ in range(2):
        sim = TraceSimulator(tiny_cfg(observer=cfg))
        sim.run()
        runs.append(sim.observer.records)
    assert runs[0] == runs[1]
    intervals = {r["interval"] for r in runs[0]}
    assert len(intervals) > 1  # the jitter actually moved probes
    assert all(5 <= r["interval"] <= 11 for r in runs[0])


# ----------------------------------------------------------------------
# 3. engine seam: observer and burst points run on either engine
# ----------------------------------------------------------------------


def _without_engine(leak: dict) -> dict:
    return {k: v for k, v in leak.items() if k != "engine"}


@needs_kernel
def test_observer_runs_on_batch_engine_with_identical_results(
    monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_LOG", "json")
    monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
    batch = TraceSimulator(tiny_cfg(engine="batch"))
    assert batch.engine == "batch"
    assert isinstance(batch.hier, BatchHierarchy)
    assert not batch.observer_engine_fallback
    explicit = TraceSimulator(tiny_cfg(engine="object"))
    a, b = batch.run(), explicit.run()
    # a marker proves the event log is captured before asserting absence
    obs_events.get_event_log().info("test.marker")
    events = [
        json.loads(line)["event"]
        for line in capsys.readouterr().err.splitlines()
        if line.startswith("{")
    ]
    assert events[-1] == "test.marker"
    assert "observer.engine_fallback" not in events
    assert (a.leak["engine"], b.leak["engine"]) == ("batch", "object")
    assert _without_engine(a.leak) == _without_engine(b.leak)
    assert _trace_digest(a) == _trace_digest(b)
    assert batch.observer.records == explicit.observer.records


@pytest.mark.parametrize("engine", ["object", "batch"])
def test_reprime_discards_dirty_victim_without_traffic(engine):
    """A re-prime's LLC victim is dropped: no writeback charge and no
    L1/L2 back-invalidation (DESIGN.md §12), on both engines."""
    system = make_tiny_system()
    hier = build_hierarchy(system, engine)
    victim = 5
    hier.nic_llc_write_run(0, [victim])  # dirty RX line in the LLC
    hier.cpu_access(0, victim, RegionKind.RX_BUFFER, False)
    assert hier.llc.is_dirty(victim)
    assert hier.l1s[0].contains(victim) and hier.l2s[0].contains(victim)
    traffic = hier.traffic.snapshot()
    dirty_evictions = hier.llc.stats.evictions_dirty
    attacker = victim + 1000 * hier.llc.num_sets  # same set, never resident
    missed = hier.llc_probe([attacker], (hier.llc.way_of(victim),))
    assert missed == [attacker]
    assert hier.llc.contains(attacker) and not hier.llc.contains(victim)
    assert hier.llc.stats.evictions_dirty == dirty_evictions + 1
    assert hier.traffic.snapshot() == traffic
    assert hier.l1s[0].contains(victim) and hier.l2s[0].contains(victim)


@needs_kernel
def test_burst_alone_runs_under_batch_engine(monkeypatch):
    def run(engine):
        sim = TraceSimulator(
            tiny_cfg(engine=engine, observer=None, burst=TINY_BURST)
        )
        if engine == "batch":
            assert isinstance(sim.hier, BatchHierarchy)
            assert not sim.observer_engine_fallback
        return sim.run()

    a, b = run("object"), run("batch")
    assert _trace_digest(a) == _trace_digest(b)
    assert a.leak is None and b.leak is None


# ----------------------------------------------------------------------
# 4. leak physics: the figS1 ordering on the tiny machine
# ----------------------------------------------------------------------


def test_mi_ordering_dma_below_sweeper_below_ddio():
    leaks = {}
    for name, policy, sweeper in (
        ("dma", "dma", False),
        ("ddio", "ddio", False),
        ("swept", "ddio", True),
    ):
        leaks[name] = TraceSimulator(
            tiny_cfg(policy=policy, sweeper=sweeper, measure=1024)
        ).run().leak
    assert leaks["dma"]["mi_bits"] < leaks["swept"]["mi_bits"]
    assert leaks["swept"]["mi_bits"] < leaks["ddio"]["mi_bits"]
    # Sweeper preserves more attacker lines than plain DDIO
    assert leaks["swept"]["hit_rate"] > leaks["ddio"]["hit_rate"]
    assert leaks["dma"]["hit_rate"] > 0.9


# ----------------------------------------------------------------------
# provenance: probe files, manifests, caching, metrics
# ----------------------------------------------------------------------


@needs_kernel
def test_run_manifest_records_observer_provenance(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.setenv("REPRO_ENGINE", "batch")
    (result,) = run_points(
        [tiny_spec("observed")], max_workers=1, run_label="probe"
    )
    run_dir = last_run_dir()
    timelines, probes = validate_run_dir(run_dir)
    assert probes == 1
    manifest = RunManifest.load(run_dir / "manifest.json")
    # the manifest's engine is the one the observer point really ran on
    assert manifest.engine == result.trace.leak["engine"] == "batch"
    (point,) = manifest.points
    assert point.probe_file.startswith("probes/")
    assert point.observer.startswith("ObserverConfig(")
    assert point.probe_seed == TINY_OBSERVER.probe_seed
    assert point.burst.startswith("BurstProfile(")
    loaded = json.loads((run_dir / point.probe_file).read_text().splitlines()[0])
    validate_probe_record(loaded)


def test_cached_observer_point_keeps_leak_but_drops_probe_file(
    monkeypatch, tmp_path
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pointcache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    spec = tiny_spec("cached")
    first = run_cached_spec(spec, run_dir=str(tmp_path / "r1"))
    assert not first.from_cache
    assert first.probe_file is not None
    second = run_cached_spec(spec, run_dir=None)
    assert second.from_cache
    assert second.probe_file is None
    assert second.trace.leak == first.trace.leak


@needs_kernel
def test_occupancy_by_way_matches_across_cache_impls():
    """Per-way occupancy after masked primes (LRU LLC, overlapping
    block lists so some primes refresh a resident line) agrees between
    the object and batch hierarchies."""
    system = make_tiny_system(llc_replacement="lru")
    oracle, batch = CacheHierarchy(system), build_hierarchy(system, "batch")
    assert isinstance(batch, BatchHierarchy)
    sets = system.llc.num_sets
    for step, ways in enumerate(((0, 2), (5, 1, 7), (3,), (2, 0))):
        blocks = list(range(step * sets // 2, step * sets // 2 + 2 * sets))
        oracle.llc_prime(blocks, ways)
        batch.llc_prime(blocks, ways)
    a, b = oracle.llc.occupancy_by_way(), batch.llc.occupancy_by_way()
    assert a == b
    assert len(a) == system.llc.ways
    assert len(set(a)) > 2  # the masks made the ways differ
    assert sum(a) == len(oracle.llc.resident_blocks())
    assert oracle.llc.stats.as_dict() == batch.llc.stats.as_dict()


def test_llc_way_occupancy_gauge_published():
    system = make_tiny_system()
    hier = CacheHierarchy(system)
    reg = MetricsRegistry()
    hier.publish_metrics(reg)
    hier.nic_llc_write_run(0, range(0, 40))
    samples = reg.collect()
    per_way = [
        samples[f'llc_way_occupancy_blocks{{way="{w}"}}']
        for w in range(system.llc.ways)
    ]
    assert sum(per_way) == len(hier.llc.resident_blocks())
    # NIC fills are confined to the DDIO ways
    for w in range(system.llc.ways):
        if w not in hier.ddio_way_mask:
            assert per_way[w] == 0


def test_observer_metrics_published_through_registry():
    reg = MetricsRegistry()
    sim = TraceSimulator(tiny_cfg(measure=128))
    sim.observer.publish_metrics(reg)
    sim.run()
    samples = reg.collect()
    assert samples["observer_probes_total"] == len(sim.observer.records)
    assert samples["observer_probe_hits_total"] == sim.observer.total_hits
    assert samples["observer_probe_misses_total"] == sim.observer.total_misses
    assert samples["observer_monitored_sets"] == TINY_OBSERVER.sets


# ----------------------------------------------------------------------
# serve layer: figS* by name, observer knobs on explicit points
# ----------------------------------------------------------------------


def test_serve_builds_figS_experiments_by_name():
    for name, n_points in (("figS1", 9), ("figS2", 6)):
        request = parse_job_request(
            {"experiment": name, "scale": 0.05, "measure": 0.1}
        )
        assert len(request.specs) == n_points
        assert all(s.observer is not None for s in request.specs)
        assert all(s.burst is not None for s in request.specs)


def test_serve_point_accepts_observer_and_burst_knobs():
    request = parse_job_request(
        {
            "points": [
                {
                    "workload": "kvs",
                    "scale": 0.05,
                    "policy": "ddio",
                    "sweeper": True,
                    "observer": {
                        "sets": 4, "ways": [0, 1], "period": 16,
                        "probe_seed": 3,
                    },
                    "burst": {"low": 1, "high": 5, "window": 8},
                }
            ]
        }
    )
    (spec,) = request.specs
    assert spec.observer == ObserverConfig(
        sets=4, ways=(0, 1), period=16, probe_seed=3
    )
    assert spec.burst == BurstProfile(low=1, high=5, window=8)


def test_serve_unknown_observer_knob_is_400_naming_the_vocabulary():
    with pytest.raises(BadRequest) as err:
        parse_job_request(
            {"points": [{"observer": {"setz": 4}}]}
        )
    message = str(err.value)
    assert "'setz'" in message
    for knob in ("sets", "ways", "period", "jitter", "probe_seed", "mi_bins"):
        assert knob in message


@pytest.mark.parametrize(
    "entry,needle",
    [
        ({"observer": {"sets": 0}}, "invalid observer config"),
        ({"observer": {"ways": [0, "x"]}}, "list of integers"),
        ({"observer": 7}, "must be an object"),
        ({"burst": {"lo": 1}}, "unknown burst key(s): 'lo'"),
        ({"burst": {"low": 0}}, "invalid burst profile"),
        ({"burst": {"seed": 1.5}}, "must be an integer"),
    ],
)
def test_serve_rejects_malformed_observer_and_burst(entry, needle):
    with pytest.raises(BadRequest) as err:
        parse_job_request({"points": [entry]})
    assert needle in str(err.value)


# ----------------------------------------------------------------------
# figS* spec shape
# ----------------------------------------------------------------------


def test_figS_specs_pin_the_observer_scale():
    fast = ExperimentSettings(scale=0.3, measure_multiplier=0.01)
    slow = ExperimentSettings(scale=0.05, measure_multiplier=0.01)
    for module in (figS1, figS2):
        a, b = module.specs(fast), module.specs(slow)
        assert [s.cache_key() for s in a] == [s.cache_key() for s in b]
        labels = [s.label for s in a]
        assert len(labels) == len(set(labels))
        for spec in a:
            assert spec.measure_requests == 4000  # the probe-count floor
            assert spec.observer == figS1.OBSERVER
            assert spec.burst is not None
