"""Execution of independent simulation points.

A figure of the paper is a grid of independent trace simulations: every
point owns its cache hierarchy, workload state, and RNG seeds, so points
share nothing and can run in separate processes. This module is the
one execution core that ``run_points``, the serve daemon
(:mod:`repro.serve.scheduler`) and cluster workers
(:mod:`repro.cluster.worker`) all drive:

* :class:`PointSpec` — a picklable description of one grid point (the
  workload is shipped *pre-build*; the worker's simulator calls
  ``build()`` with the spec's seed, which is what makes serial and
  parallel runs bit-identical);
* :func:`run_spec` — simulate one spec (what every worker runs);
* :class:`PointPool` — the one owner of an executor: one in-process
  thread for 1 worker, else a process pool, rebuilt after a collapse;
* :func:`run_attempts` — the one attempt loop: cache hits, attaches
  to in-flight attempts and fresh submits, with retries, timeouts,
  warmup-group holds and a point-boundary interrupt;
* :func:`run_points` — run a spec list, preserving order, across
  ``REPRO_WORKERS`` workers (1 = the deterministic serial path).

Results are memoized through :mod:`repro.engine.pointcache` unless
``REPRO_NO_CACHE=1``. The process that owns a run is the one that reads
and writes the cache; workers only simulate.

Fault tolerance (DESIGN.md §9): a failing point is retried up to
``REPRO_RETRIES`` times with exponential backoff starting at
``REPRO_RETRY_BACKOFF_S``; a collapsed ``ProcessPoolExecutor`` (an
OOM-killed or crashed worker takes the whole pool down) is rebuilt and
the in-flight points retried; ``REPRO_POINT_TIMEOUT_S`` abandons
straggler attempts and reschedules them. Because a point's result is a
pure function of its spec, a retried point is bit-identical to an
undisturbed run. Points that exhaust their retries raise
:class:`PointFailure` — after the run manifest has been finalized with
``status: failed`` and per-point error records, so no exit path leaves
an orphaned, manifest-less run directory. ``REPRO_FAULT_SPEC``
(:mod:`repro.engine.faults`) injects worker crashes, point errors,
stragglers, and cache corruption deterministically to test all of this.

Observability (:mod:`repro.obs`, DESIGN.md §6): every ``run_points``
call writes a run manifest under ``results/runs/<run_id>/`` (disable
with ``REPRO_NO_MANIFEST=1``) recording full per-point config, seeds,
the code hash, host info, wall/sim time, and cache-hit provenance.
``REPRO_EPOCH=N`` makes each freshly simulated point emit an epoch
timeline JSONL next to the manifest. ``REPRO_LOG=text|json`` streams
per-point start/finish/cached events with a live ETA (plus
``point.retry`` / ``point.failed`` recovery events).
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.engine import faults, pointcache, snapshot
from repro.errors import ConfigError
from repro.obs import events as obs_events
from repro.obs import manifest as obs_manifest
from repro.obs.manifest import PointRecord, RunManifest
from repro.nic.arrivals import BurstProfile
from repro.obs.timeline import ObsContext, write_jsonl
from repro.params import SystemConfig
from repro.sched.tenants import DEFAULT_TENANT
from repro.sidechannel.observer import ObserverConfig
from repro.workloads.base import Workload
from repro.workloads.xmem import Colocation

#: default attempts-after-the-first for a failing point.
DEFAULT_RETRIES = 2
#: default first-retry backoff; doubles per subsequent retry.
DEFAULT_RETRY_BACKOFF_S = 0.1

#: run directory of the most recent completed run_points call in this
#: process (None until one completes, or when manifests are disabled).
_LAST_RUN_DIR: Optional[Path] = None


class PointFailure(RuntimeError):
    """A grid point failed after exhausting its retries.

    ``errors`` maps spec-list index -> error string for every failed
    point; the run manifest (status ``failed``) records the same.
    """

    def __init__(self, message: str, errors: Dict[int, str]) -> None:
        super().__init__(message)
        self.errors = errors


def last_run_dir() -> Optional[Path]:
    """Run directory written by the most recent :func:`run_points`."""
    return _LAST_RUN_DIR


def retry_limit() -> int:
    """Retries per failing point from ``REPRO_RETRIES`` (default 2)."""
    env = os.environ.get("REPRO_RETRIES", "").strip()
    if not env:
        return DEFAULT_RETRIES
    try:
        retries = int(env)
    except ValueError:
        raise ConfigError(f"REPRO_RETRIES must be an integer, got {env!r}")
    if retries < 0:
        raise ConfigError("REPRO_RETRIES must be >= 0")
    return retries


def retry_backoff_s() -> float:
    """First-retry backoff seconds from ``REPRO_RETRY_BACKOFF_S``."""
    env = os.environ.get("REPRO_RETRY_BACKOFF_S", "").strip()
    if not env:
        return DEFAULT_RETRY_BACKOFF_S
    try:
        backoff = float(env)
    except ValueError:
        raise ConfigError(
            f"REPRO_RETRY_BACKOFF_S must be a number, got {env!r}"
        )
    if backoff < 0:
        raise ConfigError("REPRO_RETRY_BACKOFF_S must be >= 0")
    return backoff


def point_timeout_s() -> Optional[float]:
    """Straggler timeout from ``REPRO_POINT_TIMEOUT_S`` (None = off).

    An attempt exceeding the timeout, counted from its submission, is
    abandoned and the point rescheduled, charging one attempt. The
    abandoned attempt stays a candidate: whichever of the point's
    attempts returns a result first resolves it, and the rest are
    cancelled or ignored.
    """
    env = os.environ.get("REPRO_POINT_TIMEOUT_S", "").strip()
    if not env:
        return None
    try:
        timeout = float(env)
    except ValueError:
        raise ConfigError(
            f"REPRO_POINT_TIMEOUT_S must be a number, got {env!r}"
        )
    if timeout <= 0:
        raise ConfigError("REPRO_POINT_TIMEOUT_S must be > 0")
    return timeout


def backoff_delay(backoff: float, attempt: int) -> float:
    """Exponential backoff before retry number ``attempt`` (1-based)."""
    return backoff * (2 ** max(0, attempt - 1))


@dataclass(frozen=True)
class PointSpec:
    """Everything needed to simulate one grid point in any process."""

    label: str
    system: SystemConfig
    workload: Workload
    policy: str = "ddio"
    sweeper: bool = False
    nic_tx_sweep: bool = False
    queued_depth: int = 1
    seed: int = 42
    warmup_requests: Optional[int] = None
    measure_requests: Optional[int] = None
    #: prime+probe attacker-observer config (None = off); perturbs the
    #: simulation, so it participates in the cache fingerprint.
    observer: Optional[ObserverConfig] = None
    #: seeded bursty-load profile (None = constant backlog target).
    burst: Optional[BurstProfile] = None
    #: DDIO way count applied at the warmup->measure boundary (None =
    #: the system-wide mask throughout). The measure-phase knob that
    #: lets a way-mask sweep share one warmup snapshot; see
    #: :class:`repro.engine.tracer.TraceConfig`.
    measure_ddio_ways: Optional[int] = None
    #: the X-Mem tenant sharing the LLC (None = the NF alone); runs the
    #: point on a :class:`repro.engine.tracer.CollocationSimulator`.
    colocation: Optional[Colocation] = None

    def cache_key(self) -> str:
        """Deterministic identity of the simulation's inputs.

        The label is presentation-only and deliberately excluded;
        :func:`run_cached_spec` re-stamps it on cache hits. The
        observer, burst, measure-override and colocation lines are
        appended only when set, so every pre-existing fingerprint layout
        is unchanged.
        """
        key = "\n".join(
            (
                repr(self.system),
                self.workload.cache_key(),
                self.policy,
                repr(
                    (
                        self.sweeper,
                        self.nic_tx_sweep,
                        self.queued_depth,
                        self.seed,
                        self.warmup_requests,
                        self.measure_requests,
                    )
                ),
            )
        )
        if self.observer is not None:
            key += "\nobserver=" + repr(self.observer)
        if self.burst is not None:
            key += "\nburst=" + repr(self.burst)
        if self.measure_ddio_ways is not None:
            key += "\nmeasure_ddio_ways=" + repr(self.measure_ddio_ways)
        if self.colocation is not None:
            key += "\ncolocation=" + repr(self.colocation)
        return key

    def warmup_key(self) -> str:
        """Identity of the config prefix up to end-of-warmup.

        Everything that influences simulator state through the last
        warmup request — system, workload, policy, switches, seed,
        warmup count, burst profile, colocation — and nothing that only
        shapes the measured window (measure count, measure-phase DDIO
        override, observer, label). Two specs with equal warmup keys
        fork their measured windows off one shared warm-state snapshot
        (:mod:`repro.engine.snapshot`). Any field added to this key
        must be added to :meth:`cache_key` too (the point identity
        must always subsume the warmup identity).
        """
        key = "\n".join(
            (
                repr(self.system),
                self.workload.cache_key(),
                self.policy,
                repr(
                    (
                        self.sweeper,
                        self.nic_tx_sweep,
                        self.queued_depth,
                        self.seed,
                        self.warmup_requests,
                    )
                ),
            )
        )
        if self.burst is not None:
            key += "\nburst=" + repr(self.burst)
        if self.colocation is not None:
            key += "\ncolocation=" + repr(self.colocation)
        return key


def _timeline_filename(spec: PointSpec) -> str:
    slug = "".join(
        c if c.isalnum() or c in "-_." else "_" for c in spec.label
    )[:80]
    return f"{slug}-{pointcache.fingerprint(spec)[:8]}.jsonl"


def run_spec(spec: PointSpec, run_dir: Optional[str] = None):
    """Simulate one spec end to end; the worker-process entry point.

    Must stay a module-level function so ProcessPoolExecutor can pickle
    it. Imports are deferred to avoid a cycle with
    ``repro.experiments.common`` (which imports this module).

    With ``REPRO_EPOCH`` set, the simulation samples an epoch timeline;
    when ``run_dir`` is given the timeline is written to
    ``<run_dir>/timelines/`` and the result's ``timeline_file`` records
    the manifest-relative path.
    """
    from repro.engine.analytic import ServiceProfile, solve_peak_throughput
    from repro.engine.tracer import (
        CollocationSimulator,
        TraceConfig,
        TraceSimulator,
    )
    from repro.experiments.common import PointResult

    log = obs_events.get_event_log()
    cfg = TraceConfig(
        system=spec.system,
        workload=spec.workload,
        policy=spec.policy,
        sweeper=spec.sweeper,
        nic_tx_sweep=spec.nic_tx_sweep,
        queued_depth=spec.queued_depth,
        seed=spec.seed,
        warmup_requests=spec.warmup_requests,
        measure_requests=spec.measure_requests,
        observer=spec.observer,
        burst=spec.burst,
        measure_ddio_ways=spec.measure_ddio_ways,
    )
    obs = ObsContext.from_env()
    log.debug("point.simulate", label=spec.label, pid=os.getpid())
    faults.on_point_start(spec.label)
    start = time.perf_counter()
    if spec.colocation is not None:
        sim = CollocationSimulator(cfg, spec.colocation, obs=obs)
    else:
        sim = TraceSimulator(cfg, obs=obs)
    # Warm-state snapshots (DESIGN.md §14): a snapshot miss arms the
    # on_warm capture hook; a hit skips the warmup entirely. Failures
    # anywhere on the snapshot path must never fail the point.
    warm_state = None
    warm_fp: Optional[str] = None
    on_warm = None
    if snapshot.eligible(spec):
        warm_fp = snapshot.warmup_fingerprint(spec)
        warm_state = snapshot.load_state(warm_fp, sim.engine)

        # Armed even on a hit: run() only calls on_warm after a
        # *simulated* warmup, so this also overwrites a stored state
        # that failed restore validation with a fresh capture.
        def on_warm(state, _fp=warm_fp, _engine=sim.engine):
            snapshot.store_state(_fp, _engine, state)

    trace = sim.run(warm_state=warm_state, on_warm=on_warm)
    elapsed = time.perf_counter() - start
    if warm_state is not None:
        if sim.warm_restored:
            snapshot.counters["restored"] += 1
            log.debug(
                "snapshot.restore",
                label=spec.label,
                fingerprint=warm_fp[:12],
                engine=sim.engine,
            )
        else:
            # PR 7-style deterministic fallback: the stored state did
            # not match this simulator (stale schema, foreign engine),
            # so the warmup was simulated normally — logged, never
            # silent, and bit-identical to the no-snapshot path.
            snapshot.counters["fallbacks"] += 1
            log.warning(
                "snapshot.fallback",
                label=spec.label,
                fingerprint=warm_fp[:12],
                engine=sim.engine,
                reason="stored state did not validate against this simulator",
            )
    timeline_file: Optional[str] = None
    if obs is not None and obs.timeline and run_dir is not None:
        rel = Path("timelines") / _timeline_filename(spec)
        write_jsonl(Path(run_dir) / rel, obs.timeline)
        timeline_file = str(rel)
    probe_file: Optional[str] = None
    if sim.observer is not None and sim.observer.records and run_dir is not None:
        rel = Path("probes") / _timeline_filename(spec)
        write_jsonl(Path(run_dir) / rel, sim.observer.records)
        probe_file = str(rel)
    profile = ServiceProfile.from_trace(trace)
    perf = solve_peak_throughput(profile, spec.system)
    return PointResult(
        label=spec.label,
        system=spec.system,
        trace=trace,
        profile=profile,
        perf=perf,
        sim_seconds=elapsed,
        timeline_file=timeline_file,
        probe_file=probe_file,
        warm_restored=bool(getattr(sim, "warm_restored", False)),
    )


def run_cached_spec(spec: PointSpec, run_dir: Optional[str] = None):
    """:func:`run_spec` through the persistent point cache (one spec,
    in this process)."""
    fp = pointcache.fingerprint(spec)
    cached = cached_result(spec, fp)
    if cached is not None:
        return cached
    result = run_spec(spec, run_dir=run_dir)
    store_result(fp, result)
    return result


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS``, else the CPU count."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"REPRO_WORKERS must be an integer, got {env!r}")
        if workers < 1:
            raise ConfigError("REPRO_WORKERS must be >= 1")
        return workers
    return max(1, os.cpu_count() or 1)


def start_manifest(
    run_label: Optional[str], workers: int, tenant: str = DEFAULT_TENANT
) -> Tuple[Optional[RunManifest], Optional[Path]]:
    """Create a run manifest + run directory (None, None when disabled).

    Shared by :func:`run_points` and the ``repro.serve`` scheduler so a
    served job produces exactly the artifact a local run does.
    ``tenant`` records which tenant's submission produced the run
    (provenance; ``timeline --list`` surfaces non-default tenants).
    """
    if not obs_manifest.manifests_enabled():
        return None, None
    manifest = RunManifest.create(run_label, workers)
    manifest.code_salt = pointcache.code_salt()
    manifest.tenant = tenant
    return manifest, obs_manifest.runs_dir() / manifest.run_id


def finish_manifest(
    manifest: RunManifest,
    run_dir: Path,
    spec_list: Sequence[PointSpec],
    results: Sequence,
    wall_seconds: float,
    status: str = "done",
    errors: Optional[Dict[int, str]] = None,
    attempts: Optional[Sequence[int]] = None,
) -> None:
    """Fill in per-point records and write ``manifest.json`` atomically.

    Called on **every** exit path (success, failure, cancellation, pool
    collapse, daemon drain): ``results`` may contain ``None`` holes for
    points that never completed; ``errors`` maps spec index -> error
    string for points that failed; ``attempts`` records how many times
    each point was tried. ``status`` is the run-level outcome
    (``done | partial | failed | cancelled``).
    """
    global _LAST_RUN_DIR
    errors = errors or {}
    padded = list(results) + [None] * (len(spec_list) - len(results))
    manifest.status = status
    manifest.wall_seconds = wall_seconds
    manifest.sim_seconds_total = sum(
        r.sim_seconds for r in padded if r is not None
    )
    manifest.points = [
        _point_record(
            spec,
            result,
            pointcache.fingerprint(spec),
            error=errors.get(i),
            attempts=attempts[i] if attempts is not None else 1,
        )
        for i, (spec, result) in enumerate(zip(spec_list, padded))
    ]
    manifest.write(run_dir / "manifest.json")
    _LAST_RUN_DIR = run_dir


def _point_record(
    spec: PointSpec,
    result,
    fingerprint: str,
    error: Optional[str] = None,
    attempts: int = 1,
) -> PointRecord:
    if result is not None:
        status = "done"
    elif error is not None:
        status = "failed"
    else:
        status = "skipped"
    return PointRecord(
        label=spec.label,
        fingerprint=fingerprint,
        system=repr(spec.system),
        workload=spec.workload.cache_key(),
        policy=spec.policy,
        sweeper=spec.sweeper,
        nic_tx_sweep=spec.nic_tx_sweep,
        queued_depth=spec.queued_depth,
        seed=spec.seed,
        warmup_requests=spec.warmup_requests,
        measure_requests=spec.measure_requests,
        from_cache=result.from_cache if result is not None else False,
        sim_seconds=result.sim_seconds if result is not None else 0.0,
        timeline_file=(
            getattr(result, "timeline_file", None) if result is not None else None
        ),
        probe_file=(
            getattr(result, "probe_file", None) if result is not None else None
        ),
        observer=repr(spec.observer) if spec.observer is not None else None,
        probe_seed=(
            spec.observer.probe_seed if spec.observer is not None else None
        ),
        burst=repr(spec.burst) if spec.burst is not None else None,
        colocation=(
            repr(spec.colocation) if spec.colocation is not None else None
        ),
        status=status,
        error=error,
        attempts=max(1, attempts),
        worker_id=getattr(result, "worker_id", None),
        warmup_fingerprint=(
            snapshot.warmup_fingerprint(spec) if spec.observer is None else None
        ),
        warm_restored=bool(getattr(result, "warm_restored", False)),
    )


def _emit_point_progress(
    log, run_label: Optional[str], done: int, total: int, result, t0: float
) -> None:
    """One atomic finish/ETA line per completed point."""
    if not log.would_emit("info"):
        return
    elapsed = time.perf_counter() - t0
    eta = (elapsed / done) * (total - done) if done else 0.0
    log.info(
        "point.finish",
        run=run_label or "-",
        label=result.label,
        cached=result.from_cache,
        sim_s=result.sim_seconds,
        done=f"{done}/{total}",
        eta_s=eta,
    )


class PointPool:
    """The one owner of an executor for point attempts.

    ``workers == 1`` is one in-process worker thread: no spawn cost, and
    the callable need not pickle. More workers is a
    ``ProcessPoolExecutor``. A dead worker process breaks the pool for
    good: every attempt in it fails with ``BrokenProcessPool``, and so
    does the next submit, which rebuilds the pool under the lock, so
    racing submitters rebuild once per collapse. ``generation`` counts
    the rebuilds.
    """

    def __init__(
        self, workers: int, on_rebuild: Optional[Callable[[], None]] = None
    ) -> None:
        self.workers = workers
        self.generation = 0
        self._on_rebuild = on_rebuild
        self._lock = threading.Lock()
        self._executor = self._new_executor()

    def _new_executor(self):
        if self.workers > 1:
            return ProcessPoolExecutor(max_workers=self.workers)
        return ThreadPoolExecutor(max_workers=1)

    def submit(self, fn: Callable, *args) -> Future:
        with self._lock:
            try:
                return self._executor.submit(fn, *args)
            except BrokenProcessPool:
                broken = self._executor
                self._executor = self._new_executor()
                self.generation += 1
                future = self._executor.submit(fn, *args)
        broken.shutdown(wait=False)
        obs_events.get_event_log().warning(
            "pool.rebuild", workers=self.workers, generation=self.generation
        )
        if self._on_rebuild is not None:
            self._on_rebuild()
        return future

    def shutdown(self) -> None:
        """Stop the pool; attempts still queued are cancelled."""
        with self._lock:
            executor = self._executor
        executor.shutdown(wait=False, cancel_futures=True)


def run_attempts(
    specs: Sequence[PointSpec],
    acquire: Callable[[int], Tuple[str, object]],
    results: List,
    attempts: List[int],
    errors: Dict[int, str],
    *,
    retries: int,
    backoff: float,
    timeout: Optional[float],
    capacity: Optional[int],
    interrupted: Callable[[], bool] = lambda: False,
    on_done: Callable[[int, str, object], None] = lambda i, source, result: None,
    on_retry: Optional[Callable[[int, int, str, float], None]] = None,
    on_failed: Optional[Callable[[int, int, str], None]] = None,
    on_abandon: Optional[Callable[[int, Future], None]] = None,
) -> None:
    """Attempt every point until it resolves: the one execution loop.

    ``acquire(i)`` starts an attempt at point ``i`` and returns
    ``(source, value)``: ``("cache", result)`` for a point-cache hit,
    ``("dedup", future)`` to wait on an attempt someone else owns, or
    ``("simulated", future)`` for a fresh attempt this loop owns. At
    most ``capacity`` owned attempts are in flight (None: no bound), so
    a pool is fed as it drains while a lease queue gets every point at
    once. The outputs are filled in place, so a caller can finalize a
    manifest from them on any exit path.

    * A failed attempt is retried after :func:`backoff_delay` until
      ``retries`` is spent; then ``errors[i]`` records it.
    * An attempt cancelled before it started (a rebuild's collateral,
      an owner's cancel) is not charged and is rescheduled.
    * With ``timeout``, an owned attempt older than it, counted from
      submission, is cancelled if it never started (not charged) or
      abandoned if it did (charged; ``on_abandon`` is told). An
      abandoned attempt stays a candidate: the first of the point's
      attempts to return a result resolves it, the others are
      cancelled or ignored, so ``on_done`` runs once per point.
    * Followers of a warmup group (:func:`snapshot.warmup_groups`) are
      held until their leader resolves, so one attempt simulates the
      shared warmup and the followers restore it. A leader is never
      held, and both of its terminal paths release its followers.
    * Once ``interrupted()`` is true nothing is acquired or retried:
      attempts already running are waited for and recorded, every
      other point is left unresolved (skipped).

    ``on_done(i, source, result)`` runs before a leader's followers are
    released; ``on_retry(i, attempt, error, delay)`` and
    ``on_failed(i, attempt, error)`` report the charged failures.
    """
    holds = {
        idxs[0]: idxs[1:] for idxs in snapshot.warmup_groups(specs).values()
    }
    held = {i for followers in holds.values() for i in followers}
    ready = [i for i in range(len(specs)) if i not in held]  # a heap
    delayed: List[Tuple[float, int]] = []
    pending: Dict[Future, Tuple[int, str, float]] = {}
    # An abandoned straggler stays in ``pending`` as an "abandoned"
    # candidate. One that returns a result cancels its point's later
    # owned attempts from its done-callback, which runs on the worker
    # thread before a 1-worker pool can start the next queued one; the
    # lock orders that callback against ``acquire``.
    lock = threading.Lock()
    rivals: Dict[int, List[Future]] = {}  # later owned attempts, by point
    won: Set[int] = set()  # points whose straggler returned a result
    stopping = False

    def straggler_done(i: int, fut: Future) -> None:
        if not fut.cancelled() and fut.exception() is None:
            with lock:
                won.add(i)
                for rival in rivals[i]:
                    rival.cancel()

    def release(i: int) -> None:
        if i in rivals:  # a straggler's point: its other attempts go
            for fut in [f for f, entry in pending.items() if entry[0] == i]:
                if pending.pop(fut)[1] == "simulated":
                    fut.cancel()
        for j in holds.pop(i, ()):
            heapq.heappush(ready, j)

    def succeed(i: int, source: str, result) -> None:
        results[i] = result
        on_done(i, source, result)
        release(i)

    def fail(i: int, error: str, charge: bool) -> None:
        if not charge:
            attempts[i] -= 1  # the attempt never ran
            heapq.heappush(ready, i)
        elif attempts[i] > retries:
            errors[i] = error
            release(i)  # a dead leader must not strand its group
            if on_failed is not None:
                on_failed(i, attempts[i], error)
        elif not stopping:
            delay = backoff_delay(backoff, attempts[i])
            if on_retry is not None:
                on_retry(i, attempts[i], error, delay)
            delayed.append((time.monotonic() + delay, i))

    while True:
        if not stopping and interrupted():
            stopping = True
            for fut, (i, source, _) in list(pending.items()):
                if source == "simulated" and fut.cancel():
                    attempts[i] -= 1
                elif source != "abandoned" and (fut.running() or fut.done()):
                    continue  # already running: recorded when it ends
                del pending[fut]
        now = time.monotonic()
        if not stopping:
            for entry in [e for e in delayed if e[0] <= now]:
                delayed.remove(entry)
                heapq.heappush(ready, entry[1])
            owned = sum(s == "simulated" for _, s, _ in pending.values())
            while ready and (capacity is None or owned < capacity):
                i = heapq.heappop(ready)
                with lock:
                    if results[i] is not None or i in won:
                        continue  # resolved by its straggler (maybe below)
                    attempts[i] += 1
                    source, value = acquire(i)
                    if i in rivals and source == "simulated":
                        rivals[i].append(value)
                if source == "cache":
                    succeed(i, source, value)
                    continue
                pending[value] = (i, source, time.monotonic())
                owned += source == "simulated"
        if not pending:
            if stopping:
                break
            if delayed:
                next_due = min(due for due, _ in delayed)
                time.sleep(min(0.05, max(0.0, next_due - now)))
                continue
            if not holds:
                break  # every point resolved to a result or an error
            for leader in list(holds):  # unreachable; never strand
                release(leader)
            continue
        done, _ = futures_wait(
            list(pending), timeout=0.05, return_when=FIRST_COMPLETED
        )
        # Stragglers first: one that returned a result resolves its
        # point, so the attempt it cancelled is not rescheduled.
        for fut in sorted(done, key=lambda f: pending[f][1] != "abandoned"):
            if fut not in pending:
                continue  # dropped: its point resolved in this batch
            i, source, _ = pending.pop(fut)
            try:
                result = fut.result()
            except CancelledError:
                fail(i, "cancelled before start", charge=False)
            except Exception as exc:
                if source != "abandoned":  # charged at its timeout
                    fail(i, f"{type(exc).__name__}: {exc}", charge=True)
            else:
                if source == "abandoned":
                    source = "simulated"
                succeed(i, source, result)
        if timeout is None:
            continue
        now = time.monotonic()
        for fut, (i, source, submitted) in list(pending.items()):
            if source != "simulated" or now - submitted <= timeout:
                continue
            del pending[fut]
            cancelled = fut.cancel()
            if not cancelled and on_abandon is not None:
                on_abandon(i, fut)
            fail(
                i,
                f"TimeoutError: attempt exceeded {timeout}s"
                + ("" if cancelled else " (worker abandoned)"),
                charge=not cancelled,
            )
            if not cancelled and i not in errors and not stopping:
                pending[fut] = (i, "abandoned", submitted)
                with lock:
                    rivals.setdefault(i, [])
                fut.add_done_callback(lambda f, i=i: straggler_done(i, f))


def cached_result(spec: PointSpec, fp: str):
    """The point cache's result for ``spec``, stamped as a hit, or None."""
    if not pointcache.cache_enabled():
        return None
    cached = pointcache.load(fp, require_attrs=pointcache.RESULT_ATTRS)
    if cached is None:
        return None
    return pointcache.mark_cache_hit(cached, spec.label)


def store_result(fp: str, result) -> None:
    """Write a fresh simulation into the point cache; only the process
    that owns the run writes it. A failed store is only a lost entry."""
    if not pointcache.cache_enabled():
        return
    try:
        pointcache.store(fp, result)
    except Exception as exc:
        obs_events.get_event_log().warning(
            "pointcache.store_failed", fingerprint=fp[:12],
            error=f"{type(exc).__name__}: {exc}",
        )


def run_points(
    specs: Iterable[PointSpec],
    max_workers: Optional[int] = None,
    run_label: Optional[str] = None,
) -> List:
    """Simulate every spec; results come back in spec order.

    ``max_workers`` (default: :func:`default_workers`) of 1 runs on one
    in-process worker thread, the deterministic reference path;
    parallel runs produce bit-identical results because each point's
    RNGs are seeded from its spec alone. Failing points are retried
    (``REPRO_RETRIES`` / ``REPRO_RETRY_BACKOFF_S`` /
    ``REPRO_POINT_TIMEOUT_S``); a point that exhausts its budget raises
    :class:`PointFailure` after the manifest is finalized with
    ``status: failed``. ``run_label`` names the run in its manifest,
    event-log lines, and run-directory id (figure modules pass their
    figure id).
    """
    spec_list = list(specs)
    if not spec_list:
        return []
    # Validate the size knob up front (strict): a malformed value must
    # fail the run before any point simulates — and before a run dir is
    # created — not from store() after the first point finishes.
    pointcache.cache_max_bytes()
    workers = max_workers if max_workers is not None else default_workers()
    workers = min(workers, len(spec_list))
    log = obs_events.get_event_log()
    manifest, run_dir = start_manifest(run_label, workers)
    t0 = time.perf_counter()
    log.info(
        "run.start",
        run=run_label or "-",
        points=len(spec_list),
        workers=workers,
        run_id=manifest.run_id if manifest else None,
    )
    run_dir_arg = str(run_dir) if run_dir else None
    total = len(spec_list)
    retries = retry_limit()
    fps = [pointcache.fingerprint(spec) for spec in spec_list]
    results: List = [None] * total
    attempts: List[int] = [0] * total
    errors: Dict[int, str] = {}
    done = 0

    def finalize(status: str) -> None:
        if manifest is not None and run_dir is not None:
            finish_manifest(
                manifest,
                run_dir,
                spec_list,
                results,
                time.perf_counter() - t0,
                status=status,
                errors=errors,
                attempts=attempts,
            )

    def acquire(i: int) -> Tuple[str, object]:
        cached = cached_result(spec_list[i], fps[i])
        if cached is not None:
            return "cache", cached
        return "simulated", pool.submit(run_spec, spec_list[i], run_dir_arg)

    def on_done(i: int, source: str, result) -> None:
        nonlocal done
        if source == "simulated":
            store_result(fps[i], result)
        done += 1
        _emit_point_progress(log, run_label, done, total, result, t0)

    def on_retry(i: int, attempt: int, error: str, delay: float) -> None:
        log.warning(
            "point.retry",
            run=run_label or "-",
            label=spec_list[i].label,
            attempt=attempt,
            backoff_s=delay,
            error=error,
        )

    def on_failed(i: int, attempt: int, error: str) -> None:
        log.error(
            "point.failed",
            run=run_label or "-",
            label=spec_list[i].label,
            attempts=attempt,
            error=error,
        )

    pool = PointPool(workers)
    try:
        run_attempts(
            spec_list, acquire, results, attempts, errors,
            retries=retries,
            backoff=retry_backoff_s(),
            timeout=point_timeout_s(),
            capacity=workers,
            on_done=on_done,
            on_retry=on_retry,
            on_failed=on_failed,
        )
    except BaseException:
        # Unexpected abort (KeyboardInterrupt, pool setup failure, ...):
        # still leave a finalized manifest behind, never an orphan dir.
        finalize("failed")
        raise
    finally:
        pool.shutdown()
    status = "failed" if errors else "done"
    finalize(status)
    wall = time.perf_counter() - t0
    log.info(
        "run.finish",
        run=run_label or "-",
        points=total,
        cached=sum(1 for r in results if r is not None and r.from_cache),
        warm_restored=sum(
            1
            for r in results
            if r is not None and getattr(r, "warm_restored", False)
        ),
        retried=sum(1 for a in attempts if a > 1),
        status=status,
        wall_s=wall,
        run_id=manifest.run_id if manifest else None,
    )
    if errors:
        first = min(errors)
        raise PointFailure(
            f"{len(errors)} of {total} points failed after "
            f"{retries} retries; first: point "
            f"{spec_list[first].label!r}: {errors[first]}",
            errors,
        )
    return results
