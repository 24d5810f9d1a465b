"""Per-layer spans for the traced cold_sweep run, recorded from outside.

Each simulator layer is timed by wrapping the bound method the request
loop actually calls, on the instance, right after ``TraceSimulator``
is constructed. Wrapping classes is not enough: the batch engine binds
its native ``cpu_access``/``cpu_access_run`` as instance attributes in
its constructor, so a class-level wrapper would record nothing.

Spans nest. Each layer is charged its *self* time (duration minus the
time of wrapped calls made inside it), so the layer totals of one
point add up to the point's wall time without double counting. The
request loop's self time, ``engine.tracer.loop_self_s``, is what is
left of ``run_requests`` after every child layer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List

#: instance attributes set by ``instrument`` on objects that are
#: pickled into warm-state snapshots; hidden while a snapshot is stored
_WRAPPED = "__sweepbench_wrapped__"


class Spans:
    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = [0.0]

    def wrap(self, name: str, fn: Callable, count: Callable = None) -> Callable:
        """``fn`` timed as layer ``name``; ``count(args, result)`` adds
        to the layer's item count (blocks, for instance)."""
        stack = self._stack
        self_s, incl_s, calls, items = self.self_s, self.incl_s, self.calls, self.items
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self_s[name] += dt - child
                incl_s[name] += dt
                stack[-1] += dt
                calls[name] += 1
            if count is not None:
                items[name] += count(args, result)
            return result

        timed.__wrapped__ = fn
        return timed


def _set(obj, attr: str, value) -> None:
    setattr(obj, attr, value)
    wrapped = obj.__dict__.setdefault(_WRAPPED, [])
    if attr not in wrapped:
        wrapped.append(attr)


def instrument(spans: Spans, sim) -> None:
    """Wrap every layer boundary of one constructed simulator."""
    hier = sim.hier
    _set(hier, "cpu_access", spans.wrap("cache.access", hier.cpu_access, lambda a, r: 1))
    _set(
        hier,
        "cpu_access_run",
        spans.wrap("cache.access", hier.cpu_access_run, lambda a, r: a[2]),
    )
    _set(sim.nic, "process_one", spans.wrap("nic.tx", sim.nic.process_one))
    _set(
        sim.sweeper,
        "relinquish_blocks",
        spans.wrap("core.relinquish", sim.sweeper.relinquish_blocks, lambda a, r: r),
    )
    if sim.observer is not None:
        _set(sim.observer, "tick", spans.wrap("sidechannel.observer", sim.observer.tick))
        _set(
            sim.observer,
            "activate",
            spans.wrap("sidechannel.observer", sim.observer.activate),
        )
    _instrument_pickled(spans, sim)
    if sim.observer_engine_fallback:
        spans.items["engine.object_fallback"] += 1
    calls = {"n": 0}
    loop = spans.wrap("engine.tracer.loop", sim.run_requests)

    def phase(count: int, start: int = 0) -> None:
        # The first call simulates the warmup unless a snapshot was
        # restored; the loop's self time is charged to one layer and
        # each phase's inclusive time to another.
        name = "warmup" if calls["n"] == 0 and not sim.warm_restored else "measure"
        calls["n"] += 1
        t0 = time.perf_counter()
        loop(count, start)
        spans.incl_s["engine.tracer." + name] += time.perf_counter() - t0
        spans.items["engine.tracer." + name] += count

    sim.run_requests = phase
    sim.capture_warm_state = spans.wrap("engine.snapshot.capture", sim.capture_warm_state)
    restore = sim.restore_warm_state

    def restore_then_rewrap(state) -> bool:
        # A restore replaces the workload's and policy's __dict__,
        # dropping their wrappers; put them back on the restored state.
        ok = restore(state)
        _instrument_pickled(spans, sim)
        return ok

    sim.restore_warm_state = restore_then_rewrap


def _instrument_pickled(spans: Spans, sim) -> None:
    """Wrappers on objects that warm-state snapshots pickle."""
    workload, policy = sim.cfg.workload, sim.policy
    request = type(workload).request.__get__(workload)
    _set(workload, "request", spans.wrap("workloads.request", request))
    rx_write_run = type(policy).rx_write_run.__get__(policy)
    _set(
        policy,
        "rx_write_run",
        spans.wrap("nic.rx_write", rx_write_run, lambda a, r: len(a[2])),
    )


@contextmanager
def unwrapped(*objs) -> Iterator[None]:
    """Hide the instance wrappers of ``objs`` (e.g. while pickling)."""
    saved = []
    for obj in objs:
        attrs = obj.__dict__.pop(_WRAPPED, [])
        saved.append((obj, {a: obj.__dict__.pop(a) for a in attrs if a in obj.__dict__}))
    try:
        yield
    finally:
        for obj, attrs in saved:
            obj.__dict__.update(attrs)
            if attrs:
                obj.__dict__[_WRAPPED] = list(attrs)


@contextmanager
def traced_engine(spans: Spans) -> Iterator[None]:
    """Instrument every simulator built inside the block.

    Patches ``TraceSimulator.__init__`` (the class itself stays the
    same, so snapshot eligibility checks on ``type(sim)`` still hold)
    and times the module functions around the simulation that
    ``run_spec``/``run_cached_spec``/``run_points`` look up at call
    time: analytic solve, snapshot store, point-cache store, manifest
    write, and ``run_spec`` itself as the point span.
    """
    from repro.engine import analytic, parallel, pointcache, snapshot, tracer
    from repro.obs.manifest import RunManifest

    cls = tracer.TraceSimulator
    init = cls.__init__
    init_timed = spans.wrap("engine.tracer.init", init)

    def patched_init(self, *args, **kwargs):
        init_timed(self, *args, **kwargs)
        instrument(spans, self)

    store_state = snapshot.store_state

    def store_state_clean(wfp, engine, state):
        with unwrapped(state["workload"], state["policy"]):
            store_state(wfp, engine, state)

    patches = [
        (cls, "__init__", patched_init),
        (analytic, "solve_peak_throughput",
         spans.wrap("engine.analytic.solve", analytic.solve_peak_throughput)),
        (snapshot, "store_state", spans.wrap("engine.snapshot.store", store_state_clean)),
        (pointcache, "store", spans.wrap("engine.pointcache.store", pointcache.store)),
        (RunManifest, "write", spans.wrap("obs.manifest.write", RunManifest.write)),
        (parallel, "run_spec", spans.wrap("engine.point", parallel.run_spec)),
    ]
    originals = [(obj, name, obj.__dict__[name]) for obj, name, _ in patches]
    try:
        for obj, name, value in patches:
            setattr(obj, name, value)
        yield
    finally:
        for obj, name, value in originals:
            setattr(obj, name, value)
