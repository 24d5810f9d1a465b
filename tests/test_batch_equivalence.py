"""Differential equivalence: batch engine vs the object-engine oracle.

The batch engine (``repro.engine.batch``) promises *bit-identical*
results to the dict-based object engine: its C kernel
(``batchcore.c``) is the only code that mutates its struct-of-arrays
state. This suite enforces that contract at four granularities:

1. **Hierarchy fuzz** — seeded random ops (single-block and batched
   accesses, NIC writes/probes, sweeps, DMA, primes and prime+probe
   sweeps, contiguous and scattered block lists, mask changes) against
   ``CacheHierarchy`` vs ``BatchHierarchy``, for both LLC replacement
   policies, asserting identical return values, stats and line state.
2. **Harness equivalence** — every figure harness's first and last spec
   run end to end under both engines (the figS* observer points
   included), plus ``REPRO_EPOCH`` chunked runs and the
   ``CollocationSimulator``, comparing every ``TraceResult`` field.
3. **Fused request loop** — configs no figure grid reaches, run on the
   object engine, the kernel's fused loop (``bc_run_requests``) and the
   batch per-request loop, comparing results and loop state.
4. **No-compiler fallback** — when the kernel cannot load, the batch
   engine runs as the object engine and says so.
"""

from __future__ import annotations

import importlib
import json
import pickle
import random

import numpy as np
import pytest

from repro.cache.hierarchy import AccessLevel, CacheHierarchy
from repro.engine import native, result_identity
from repro.engine.batch import BatchHierarchy, build_hierarchy
from repro.engine.parallel import run_spec
from repro.engine.tracer import (
    CollocationSimulator,
    _FusedLoop,
    TraceConfig,
    TraceSimulator,
)
from repro.errors import ConfigError, ProtocolError
from repro.experiments.common import (
    ExperimentSettings,
    kvs_system,
    kvs_workload,
    point_spec,
)
from repro.mem.layout import RegionKind
from repro.nic.arrivals import BurstProfile
from repro.obs.timeline import ObsContext
from repro.sidechannel.observer import ObserverConfig
from repro.workloads.xmem import Colocation
from tests.conftest import (
    KERNEL,
    make_tiny_kvs,
    make_tiny_l3fwd,
    make_tiny_system,
    needs_kernel,
)


def _final_state(cache):
    blocks = sorted(cache.resident_blocks())
    return [
        (b, cache.is_dirty(b), cache.kind_raw_of(b), cache.way_of(b))
        for b in blocks
    ]


# ---------------------------------------------------------------------------
# 1. hierarchy-level fuzz
# ---------------------------------------------------------------------------


def _block_list(rng, blocks: int):
    """A contiguous run (as a range) or a scattered list (unordered,
    possibly repeating) of 1-8 blocks."""
    n = rng.randrange(1, 9)
    if rng.random() < 0.5:
        start = rng.randrange(blocks)
        return range(start, start + n)
    return [rng.randrange(blocks) for _ in range(n)]


#: make_tiny_system arguments per fuzzed geometry. Besides both LLC
#: policies: random-replacement L1/L2, a set count that is not a power
#: of two (the modulo indexing the full-scale LLC's 49,152 sets takes),
#: and 1- and 2-way caches, where a scan has one or two ways to pick.
FUZZ_SYSTEMS = {
    "random": dict(llc_replacement="random"),
    "lru": dict(llc_replacement="lru"),
    "random-private-48-sets": dict(private_replacement="random", llc_sets=48),
    "lru-48-sets": dict(llc_replacement="lru", llc_sets=48),
    "narrow-lru": dict(
        llc_replacement="lru", l1_ways=1, l2_ways=2, llc_ways=2, ddio_ways=1
    ),
    "narrow-random": dict(
        private_replacement="random",
        l1_ways=1,
        l2_ways=2,
        llc_ways=2,
        llc_sets=48,
        ddio_ways=1,
    ),
}


def _assert_batch_state_sound(oracle, batch, where: str) -> None:
    """The batch side's stamp invariant, and its LCGs in step with the
    oracle's: an LRU slot is invalid exactly when its stamp is -1 (the
    kernel's victim argmin rests on it)."""
    for ca, cb in zip(oracle.all_caches(), batch.all_caches()):
        assert int(cb.lcg[0]) == ca._lcg, f"{where}: {cb.name} lcg"
        if cb.params.replacement == "lru":
            assert np.array_equal(cb.tags == -1, cb.stamp == -1), (
                f"{where}: {cb.name} tags/stamps disagree on invalid slots"
            )


@needs_kernel
@pytest.mark.parametrize("geometry", sorted(FUZZ_SYSTEMS))
def test_hierarchy_fuzz_identical(geometry):
    system = make_tiny_system(num_cores=2, **FUZZ_SYSTEMS[geometry])
    oracle = CacheHierarchy(system)
    batch = build_hierarchy(system, "batch")
    assert isinstance(batch, BatchHierarchy)

    rng = random.Random(0xBEEF)
    blocks = 4 * system.llc.num_blocks
    counts_a = {lv: 0 for lv in AccessLevel}
    counts_b = {lv: 0 for lv in AccessLevel}

    # at most 4 ways per reconfigured mask (fewer in a narrower LLC)
    narrow = min(4, system.llc.ways) + 1

    def random_ways():
        # unsorted, so the mask scan order matters
        return rng.sample(
            range(system.llc.ways), rng.randrange(1, system.llc.ways + 1)
        )

    for step in range(4000):
        op = rng.randrange(15)
        core = rng.randrange(system.cpu.num_cores)
        block = rng.randrange(blocks)
        kind = RegionKind(rng.randrange(3))
        if op <= 1:
            write = rng.random() < 0.4
            a = oracle.cpu_access(core, block, kind, write)
            b = batch.cpu_access(core, block, kind, write)
        elif op <= 3:
            n = rng.randrange(1, 9)
            write = rng.random() < 0.4
            a = oracle.cpu_access_run(core, block, n, kind, write, counts_a)
            b = batch.cpu_access_run(core, block, n, kind, write, counts_b)
        elif op == 4:
            run = _block_list(rng, blocks)
            a = oracle.nic_llc_write_run(core, run, kind)
            b = batch.nic_llc_write_run(core, run, kind)
        elif op == 5:
            run = _block_list(rng, blocks)
            a = oracle.nic_probe_read_run(core, run)
            b = batch.nic_probe_read_run(core, run)
        elif op == 6:
            run = _block_list(rng, blocks)
            a = oracle.sweep_run(core, run)
            b = batch.sweep_run(core, run)
        elif op == 7:
            discard = rng.random() < 0.5
            a = oracle.invalidate_block(core, block, discard)
            b = batch.invalidate_block(core, block, discard)
        elif op == 8:
            run = _block_list(rng, blocks)
            if rng.random() < 0.5:
                a = oracle.dma_rx_write_run(core, run)
                b = batch.dma_rx_write_run(core, run)
            else:
                a = oracle.dma_tx_read_run(core, run)
                b = batch.dma_tx_read_run(core, run)
        elif op == 9:
            # prime+probe sweep over a working set where NIC writes
            # leave dirty lines for the re-primes to evict
            ways = random_ways()
            probe = [rng.randrange(blocks) for _ in range(rng.randrange(1, 17))]
            a = oracle.llc_probe(probe, ways)
            b = batch.llc_probe(probe, ways)
        elif op == 10:
            ways = random_ways()
            prime = [rng.randrange(blocks) for _ in range(rng.randrange(1, 17))]
            a = oracle.llc_prime(prime, ways)
            b = batch.llc_prime(prime, ways)
        elif op == 11:
            a = oracle.nic_llc_write(core, block, kind)
            b = batch.nic_llc_write(core, block, kind)
        elif op == 12:
            a = oracle.nic_probe_read(core, block)
            b = batch.nic_probe_read(core, block)
        elif op == 13:
            a = oracle.sweep_block(core, block)
            b = batch.sweep_block(core, block)
        else:
            # reconfigure mid-stream: masks and the victim-fill switch
            choice = rng.randrange(3)
            if choice == 0:
                ways = sorted(
                    rng.sample(range(system.llc.ways), rng.randrange(1, narrow))
                )
                a = oracle.set_ddio_way_mask(ways)
                b = batch.set_ddio_way_mask(ways)
            elif choice == 1:
                mask = (
                    None
                    if rng.random() < 0.3
                    else rng.sample(range(system.llc.ways), rng.randrange(1, narrow))
                )
                a = oracle.set_core_fill_mask(core, mask)
                b = batch.set_core_fill_mask(core, mask)
            else:
                flag = rng.random() < 0.5
                oracle.victim_fill_clean = flag
                batch.victim_fill_clean = flag
                a = b = flag
        assert a == b, f"step {step} op {op}: {a!r} != {b!r}"
        _assert_batch_state_sound(oracle, batch, f"step {step} op {op}")

    assert counts_a == counts_b
    assert oracle.traffic.snapshot() == batch.traffic.snapshot()
    assert oracle.stats_totals() == batch.stats_totals()
    assert oracle.llc.occupancy_by_kind() == batch.llc.occupancy_by_kind()
    for ca, cb in zip(oracle.all_caches(), batch.all_caches()):
        assert ca.stats.as_dict() == cb.stats.as_dict(), ca.name
        assert _final_state(ca) == _final_state(cb), ca.name


# ---------------------------------------------------------------------------
# 2. end-to-end harness equivalence
# ---------------------------------------------------------------------------

FIG_MODULES = [
    "fig1",
    "fig2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig10",
    "headline",
    "zoo",
    "figS1",
    "figS2",
]


def _assert_results_equal(a, b) -> None:
    assert a.requests == b.requests
    assert a.traffic.snapshot() == b.traffic.snapshot()
    assert a.level_counts == b.level_counts
    assert a.cpu_work_cycles == b.cpu_work_cycles
    assert a.llc_occupancy_by_kind == b.llc_occupancy_by_kind
    assert a.sweep_instructions == b.sweep_instructions
    assert a.nic_sweeps == b.nic_sweeps
    assert a.drops == b.drops
    assert a.cache_totals == b.cache_totals


def _without_engine(leak: dict) -> dict:
    return {k: v for k, v in leak.items() if k != "engine"}


def _cfg_from_spec(spec, engine: str) -> TraceConfig:
    """A fast TraceConfig for a figure spec (tiny request counts)."""
    return TraceConfig(
        system=spec.system,
        workload=spec.workload,
        policy=spec.policy,
        sweeper=spec.sweeper,
        nic_tx_sweep=spec.nic_tx_sweep,
        queued_depth=spec.queued_depth,
        seed=spec.seed,
        warmup_requests=192,
        measure_requests=256,
        engine=engine,
        observer=spec.observer,
        burst=spec.burst,
    )


@pytest.mark.parametrize("fig", FIG_MODULES)
def test_fig_harness_equivalence(fig):
    module = importlib.import_module(f"repro.experiments.{fig}")
    specs = module.specs(ExperimentSettings(scale=0.05))
    assert specs, fig
    # First and last specs bracket the grid (different policies/knobs).
    for spec in (specs[0], specs[-1]):
        # Build and run one at a time: the spec's workload object is
        # rebuilt by each simulator's constructor.
        obj_sim = TraceSimulator(_cfg_from_spec(spec, "object"))
        obj = obj_sim.run()
        bat_sim = TraceSimulator(_cfg_from_spec(spec, "batch"))
        bat = bat_sim.run()
        _assert_results_equal(obj, bat)
        assert (obj.leak is None) == (spec.observer is None)
        if obj.leak is not None:
            engine = "batch" if KERNEL else "object"
            assert (obj.leak["engine"], bat.leak["engine"]) == ("object", engine)
            assert _without_engine(obj.leak) == _without_engine(bat.leak)
            assert obj_sim.observer.records == bat_sim.observer.records


@needs_kernel
def test_reference_point_equivalence(monkeypatch):
    """The full-length reference point (scale 0.1, default warmup and
    measured window) through ``run_spec``: both engines solve the same
    throughput from the same cache totals, and a point without an
    observer carries no leak summary."""
    spec = point_spec(
        "reference",
        kvs_system(0.1, 1024, 2, 1024),
        kvs_workload(0.1, 1024),
        "ddio",
        settings=ExperimentSettings(scale=0.1),
    )
    monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
    results = []
    for engine in ("object", "batch"):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        results.append(run_spec(spec))
    obj, bat = results
    assert bat.throughput_mrps == obj.throughput_mrps
    assert bat.trace.cache_totals == obj.trace.cache_totals
    assert obj.trace.leak is None and bat.trace.leak is None


#: zoo geometries, as (make_tiny_system arguments, policy attributes,
#: backlog target D): the tiny system, where Occamy's preemption stops
#: at ``protect_buffers``; 16 RX entries, fewer than either policy's
#: bound, so every post re-posts a slot still tracked; 8 DDIO ways,
#: where Occamy's footprint stays at its pressure threshold and the
#: threshold stops each preemption; and no protected buffers, where
#: Occamy preempts down to the buffer it is writing. With D > 1 the
#: newest buffers are still unconsumed, so evicting the wrong end
#: changes the cache even when Sweeper has dropped consumed buffers.
ZOO_GEOMETRIES = {
    "tiny": ({}, {}, 1),
    "short-ring": (dict(rx_buffers=16), {}, 4),
    "wide-ddio": (dict(ddio_ways=8), {}, 4),
    "unprotected": ({}, dict(protect_buffers=0), 4),
}

ZOO_CASES = [
    pytest.param(sweeper, policy, "tiny", id=f"{sweeper}-{policy}")
    for sweeper in (False, True)
    for policy in ("occamy", "rdca")
] + [
    pytest.param(True, policy, geometry, id=f"{geometry}-{policy}")
    for geometry in ("short-ring", "wide-ddio")
    for policy in ("occamy", "rdca")
] + [pytest.param(True, "occamy", "unprotected", id="unprotected-occamy")]


def _zoo_sim(policy, engine, geometry="tiny", sweeper=True, obs=None):
    """A zoo-policy simulator whose ``service_one`` counts its calls."""
    system_kw, policy_attrs, depth = ZOO_GEOMETRIES[geometry]
    cfg = TraceConfig(
        system=make_tiny_system(num_cores=2, **system_kw),
        workload=make_tiny_kvs(),
        policy=policy,
        sweeper=sweeper,
        queued_depth=depth,
        warmup_requests=192,
        measure_requests=256,
        engine=engine,
    )
    sim = TraceSimulator(cfg, obs=obs)
    vars(sim.policy).update(policy_attrs)
    sim.service_one = _passthrough(sim.service_one)
    return sim


def _zoo_evictions(policy):
    return (
        getattr(policy, "preempted", None),
        getattr(policy, "pool_evictions", None),
    )


def _move_oldest_to_newest(sim):
    """Reorder core 0's zoo dict: its oldest buffer becomes the newest,
    so the dict is no longer its ring's last posted slots in order."""
    tracked = vars(sim.policy)
    tracked = tracked["_posted" if "_posted" in tracked else "_pool"][0]
    oldest = next(iter(tracked))
    tracked[oldest] = tracked.pop(oldest)


@pytest.mark.parametrize("sweeper,policy,geometry", ZOO_CASES)
def test_zoo_policy_equivalence(policy, sweeper, geometry):
    """The policy zoo's members are engine-equivalent, and on the batch
    engine they run in the fused loop: the kernel's window bookkeeping
    leaves the same rows, eviction counts and pickled policy as the
    Python dicts."""
    def run(engine):
        sim = _zoo_sim(policy, engine, geometry, sweeper)
        return sim, sim.run()

    (obj_sim, obj), (bat_sim, bat) = run("object"), run("batch")
    _assert_results_equal(obj, bat)
    assert obj_sim.service_one.calls == 192 + 256
    assert (bat_sim.service_one.calls == 0) == KERNEL
    assert (bat_sim._fused is not None) == KERNEL
    evictions = _zoo_evictions(obj_sim.policy)
    assert _zoo_evictions(bat_sim.policy) == evictions
    assert pickle.dumps(bat_sim.policy) == pickle.dumps(obj_sim.policy)
    assert _loop_state(bat_sim) == _loop_state(obj_sim)
    if geometry == "short-ring":
        assert evictions in ((0, None), (None, 0))
    else:
        assert max(n or 0 for n in evictions) > 0


@pytest.mark.parametrize("policy", ["occamy", "rdca"])
def test_zoo_epoch_chunked_equivalence(policy):
    """A zoo point measured in epoch chunks equals the unchunked run,
    and both engines sample the same timeline."""
    def run(engine, epoch):
        obs = ObsContext(epoch_requests=epoch) if epoch else None
        sim = _zoo_sim(policy, engine, "wide-ddio", obs=obs)
        return sim, sim.run(), obs

    (_, whole, _), (_, obj, obj_obs) = run("object", None), run("object", 70)
    bat_sim, bat, bat_obs = run("batch", 70)
    assert (bat_sim.service_one.calls == 0) == KERNEL
    _assert_results_equal(whole, obj)
    _assert_results_equal(whole, bat)
    assert bat_obs.timeline == obj_obs.timeline


@pytest.mark.parametrize("engine", ["object", "batch"])
@pytest.mark.parametrize("policy", ["occamy", "rdca"])
def test_zoo_restored_equivalence(policy, engine):
    """A zoo point forked off a pickled warm state equals the point that
    simulated its warmup, policy dicts included."""
    states = []
    full_sim = _zoo_sim(policy, engine, "wide-ddio")
    # Pickled at capture, as snapshots are: the state holds live objects.
    full = full_sim.run(on_warm=lambda state: states.append(pickle.dumps(state)))
    (state,) = states
    restored_sim = _zoo_sim(policy, engine, "wide-ddio")
    restored = restored_sim.run(warm_state=pickle.loads(state))
    assert restored_sim.warm_restored
    fused = engine == "batch" and KERNEL
    assert (restored_sim.service_one.calls == 0) == fused
    _assert_results_equal(full, restored)
    assert pickle.dumps(restored_sim.policy) == pickle.dumps(full_sim.policy)


@needs_kernel
@pytest.mark.parametrize("policy", ["occamy", "rdca"])
def test_zoo_dict_out_of_ring_order_does_not_fuse(policy):
    """The fused loop carries a zoo dict as its window length, so a dict
    that is not the ring's last posted slots in post order (here, its
    oldest entry moved to the newest end) must run per request, and the
    rows stay the object engine's. Handing it to the kernel raises."""
    sims = [
        _zoo_sim(policy, engine, "wide-ddio") for engine in ("object", "batch")
    ]
    for sim in sims:
        sim.run_requests(192)
        _move_oldest_to_newest(sim)
        sim.service_one.calls = 0
        sim.run_requests(256, start=192)
    obj_sim, bat_sim = sims
    assert bat_sim._fused is not None  # the warmup fused
    assert bat_sim.service_one.calls == obj_sim.service_one.calls == 256
    assert bat_sim.hier.traffic.snapshot() == obj_sim.hier.traffic.snapshot()
    assert bat_sim.hier.stats_totals() == obj_sim.hier.stats_totals()
    assert bat_sim._level_counts == obj_sim._level_counts
    assert pickle.dumps(bat_sim.policy) == pickle.dumps(obj_sim.policy)

    _move_oldest_to_newest(bat_sim)
    ops, _ = bat_sim.cfg.workload.encode_segment(448, 449, 2, 4)
    with pytest.raises(ProtocolError, match="last posted slots"):
        bat_sim._fused.run(bat_sim, 448, 1, None, ops)


def test_epoch_chunked_equivalence():
    """REPRO_EPOCH-style chunked measure loops stay bit-identical."""
    def run(engine):
        cfg = TraceConfig(
            system=make_tiny_system(),
            workload=make_tiny_kvs(),
            sweeper=True,
            warmup_requests=128,
            measure_requests=300,
            engine=engine,
        )
        obs = ObsContext(epoch_requests=64)  # 4 full epochs + a short one
        return TraceSimulator(cfg, obs=obs).run()

    _assert_results_equal(run("object"), run("batch"))


@pytest.mark.parametrize("overlap", [False, True])
def test_collocation_equivalence(overlap):
    """CollocationSimulator (X-Mem tenant) matches across engines."""
    def run(engine):
        cfg = TraceConfig(
            system=make_tiny_system(num_cores=4),
            workload=make_tiny_l3fwd(),
            sweeper=True,
            warmup_requests=128,
            measure_requests=256,
            engine=engine,
        )
        sim = CollocationSimulator(
            cfg, Colocation(xmem_ways=None if overlap else (0, 1, 2))
        )
        return sim.run()

    a = run("object")
    b = run("batch")
    _assert_results_equal(a, b)
    assert a.xmem_accesses == b.xmem_accesses
    assert a.xmem_level_counts == b.xmem_level_counts


# ---------------------------------------------------------------------------
# 3. the fused request loop (bc_run_requests) vs the per-request loop
# ---------------------------------------------------------------------------

def _zero_copy_l3fwd():
    return make_tiny_l3fwd(zero_copy=True)


#: configs no figure grid reaches, plus DMA/ideal with Sweeper on and an
#: observer + burst point chunked at epoch boundaries
FUSED_CONFIGS = {
    "zero-copy": dict(workload=_zero_copy_l3fwd, sweeper=True),
    "zero-copy-no-sweeper": dict(workload=_zero_copy_l3fwd),
    "nic-tx-sweep": dict(sweeper=True, nic_tx_sweep=True),
    "rx-overflow-drops": dict(
        system=make_tiny_system(rx_buffers=16), queued_depth=24, sweeper=True
    ),
    "dma-sweeper": dict(policy="dma", sweeper=True, queued_depth=8),
    "ideal-sweeper": dict(policy="ideal", sweeper=True, queued_depth=8),
    "observer-burst-epochs": dict(
        sweeper=True,
        observer=ObserverConfig(sets=8, period=5, jitter=2),
        burst=BurstProfile(low=1, high=40, window=12),
        epoch_requests=70,
    ),
}


def _passthrough(fn):
    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return fn(*args, **kwargs)

    wrapper.calls = 0
    return wrapper


def _fused_run(name: str, engine: str, per_request: bool = False):
    """Run one FUSED_CONFIGS entry; ``per_request`` wraps
    ``nic.process_one``, which forces the per-request loop."""
    kw = dict(FUSED_CONFIGS[name])
    epoch = kw.pop("epoch_requests", None)
    kw.setdefault("system", make_tiny_system())
    workload = kw.pop("workload", make_tiny_kvs)()
    cfg = TraceConfig(
        workload=workload,
        warmup_requests=300,
        measure_requests=400,
        engine=engine,
        **kw,
    )
    obs = ObsContext(epoch_requests=epoch) if epoch else None
    sim = TraceSimulator(cfg, obs=obs)
    if per_request:
        sim.nic.process_one = _passthrough(sim.nic.process_one)
    result = sim.run()
    return sim, result, obs


def _loop_state(sim):
    return (
        [(r.head, r.tail, r.drops, r.posted) for r in sim.rx_rings],
        [t._next for t in sim.tx_rings],
        sim.nic.transmissions,
        sim.sweeper.stats.as_dict(),
        sim.backlog.target_depth,
    )


@needs_kernel
@pytest.mark.parametrize("name", sorted(FUSED_CONFIGS))
def test_fused_loop_equivalence(name):
    runs = [
        _fused_run(name, "object"),
        _fused_run(name, "batch"),
        _fused_run(name, "batch", per_request=True),
    ]
    assert runs[1][0]._fused is not None, "fused loop did not run"
    assert runs[2][0]._fused is None, "per-request loop did not run"
    oracle_sim, oracle, oracle_obs = runs[0]
    if name == "rx-overflow-drops":
        assert oracle.drops > 0
    for sim, result, obs in runs[1:]:
        _assert_results_equal(oracle, result)
        assert (result.leak is None) == (oracle.leak is None)
        if oracle.leak is not None:
            assert _without_engine(result.leak) == _without_engine(oracle.leak)
        assert _loop_state(sim) == _loop_state(oracle_sim)
        if obs is not None:
            assert obs.timeline == oracle_obs.timeline
        if sim.observer is not None:
            assert sim.observer.records == oracle_sim.observer.records


@needs_kernel
@pytest.mark.parametrize("attr", ["nic.process_one", "workload.request"])
def test_instance_wrapper_sees_every_request(attr):
    """A wrapper on ``nic.process_one`` or ``workload.request`` (both
    are per-layer tracing's) forces the per-request loop: it runs once
    per simulated request, and the result is the fused run's."""
    owner_name, method = attr.split(".")

    def run(wrap):
        cfg = TraceConfig(
            system=make_tiny_system(),
            workload=make_tiny_kvs(),
            sweeper=True,
            warmup_requests=150,
            measure_requests=250,
            engine="batch",
        )
        sim = TraceSimulator(cfg)
        owner = sim.nic if owner_name == "nic" else sim.cfg.workload
        if wrap:
            setattr(owner, method, _passthrough(getattr(owner, method)))
        return sim, sim.run(), owner

    wrapped_sim, wrapped, owner = run(wrap=True)
    plain_sim, plain, _ = run(wrap=False)
    assert getattr(owner, method).calls == 150 + 250
    assert wrapped_sim._fused is None
    assert plain_sim._fused is not None
    _assert_results_equal(wrapped, plain)
    assert _loop_state(wrapped_sim) == _loop_state(plain_sim)


@needs_kernel
def test_fused_loop_rejects_malformed_op_buffer():
    """``bc_run_requests`` stays inside its op buffer: a truncated
    buffer, or a header that claims runs the buffer does not hold,
    raises before any request runs."""
    cfg = TraceConfig(
        system=make_tiny_system(), workload=make_tiny_kvs(), engine="batch"
    )
    sim = TraceSimulator(cfg)
    fused = _FusedLoop(sim)
    ops, _ = sim.cfg.workload.encode_segment(0, 3, 2, sim._packet_blocks)
    # A view of all but the last int: the int past its end is valid
    # memory, so only the bound keeps the kernel from reading it.
    truncated = ops[:-1]
    extra_run = ops.copy()
    extra_run[-7] += 1  # the last request claims one more read run
    middle = ops.copy()
    middle[1] += 1  # the first request claims one more read run
    before = (_loop_state(sim), sim.hier.stats_totals())
    for bad in (truncated, extra_run, middle, ops[:4]):
        with pytest.raises(ProtocolError, match="well-formed"):
            fused.run(sim, 0, 3, None, bad)
        assert (_loop_state(sim), sim.hier.stats_totals()) == before
    fused.run(sim, 0, 3, None, ops)
    assert sim.nic.transmissions == 3


def test_manifest_records_engine(monkeypatch, tmp_path):
    """Run manifests carry the engine as provenance (and in env)."""
    from repro.obs.manifest import RunManifest
    from repro.report.timeline import list_runs

    monkeypatch.setenv("REPRO_ENGINE", "batch")
    manifest = RunManifest.create(run_label="eq")
    assert manifest.engine == "batch"
    assert manifest.env.get("REPRO_ENGINE") == "batch"

    manifest.code_salt = "abc"
    run_dir = tmp_path / manifest.run_id
    manifest.write(run_dir / "manifest.json")
    listing = list_runs(tmp_path)
    assert "engine=batch" in listing

    # pre-engine manifests (and object-engine ones) stay loadable and
    # default to "object", which the listing does not call out
    data = manifest.to_dict()
    del data["engine"]
    assert RunManifest.from_dict(data).engine == "object"
    monkeypatch.delenv("REPRO_ENGINE")
    assert RunManifest.create().engine == "object"


@needs_kernel
def test_explicit_engine_overrides_env(monkeypatch):
    """TraceConfig.engine wins over REPRO_ENGINE."""
    monkeypatch.setenv("REPRO_ENGINE", "batch")
    cfg = TraceConfig(
        system=make_tiny_system(),
        workload=make_tiny_kvs(),
        warmup_requests=8,
        measure_requests=8,
        engine="object",
    )
    sim = TraceSimulator(cfg)
    assert sim.engine == "object"
    assert type(sim.hier) is CacheHierarchy

    cfg_env = TraceConfig(
        system=make_tiny_system(),
        workload=make_tiny_kvs(),
        warmup_requests=8,
        measure_requests=8,
    )
    sim_env = TraceSimulator(cfg_env)
    assert sim_env.engine == "batch"
    assert isinstance(sim_env.hier, BatchHierarchy)


# ---------------------------------------------------------------------------
# 4. the no-compiler fallback
# ---------------------------------------------------------------------------


def test_batch_engine_falls_back_without_kernel(monkeypatch, tmp_path, capsys):
    """With no C compiler (and no cached build) ``engine="batch"`` runs
    the object engine, reports it and logs one ``engine.fallback``
    event; the result is an object-engine run's."""
    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(native, "_kernel_error", None)
    monkeypatch.setattr(native, "_find_compiler", lambda: None)
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_LOG", "json")

    def sim(engine):
        return TraceSimulator(
            TraceConfig(
                system=make_tiny_system(),
                workload=make_tiny_kvs(),
                sweeper=True,
                warmup_requests=128,
                measure_requests=256,
                engine=engine,
                observer=ObserverConfig(sets=8, period=5),
            )
        )

    fallback = sim("batch")
    events = [
        json.loads(line)["event"]
        for line in capsys.readouterr().err.splitlines()
        if line.startswith("{")
    ]
    assert events.count("engine.fallback") == 1
    assert type(fallback.hier) is CacheHierarchy
    assert fallback.engine == "object"
    result = fallback.run()
    assert result.leak["engine"] == "object"
    assert result_identity(result) == result_identity(sim("object").run())
    with pytest.raises(ConfigError, match="no C compiler"):
        native.load_kernel()


@needs_kernel
def test_compile_command_keys_the_cached_build(monkeypatch, tmp_path):
    """The cached library is keyed by the compiler and flags as well as
    the source: a change to either builds afresh, never reusing the
    old build."""
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "native"))
    first = native.build_library()
    assert native.build_library() == first

    monkeypatch.setattr(native, "CFLAGS", ("-O1", "-fPIC", "-shared"))
    reflagged = native.build_library()
    assert reflagged != first and reflagged.exists()

    # Another compiler binary: a wrapper around the same one.
    wrapper = tmp_path / "othercc"
    wrapper.write_text(f'#!/bin/sh\nexec {native._find_compiler()} "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setattr(native, "_find_compiler", lambda: str(wrapper))
    recompiled = native.build_library()
    assert recompiled not in (first, reflagged) and recompiled.exists()
    assert len(list((tmp_path / "native").glob("batchcore-*.so"))) == 3
