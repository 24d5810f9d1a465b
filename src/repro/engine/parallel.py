"""Parallel execution of independent simulation points.

A figure of the paper is a grid of independent trace simulations: every
point owns its cache hierarchy, workload state, and RNG seeds, so points
share nothing and can run in separate processes. This module provides
the fan-out:

* :class:`PointSpec` — a picklable description of one grid point (the
  workload is shipped *pre-build*; the worker's simulator calls
  ``build()`` with the spec's seed, which is what makes serial and
  parallel runs bit-identical);
* :func:`run_spec` — simulate one spec (the worker entry point);
* :func:`run_points` — run a spec list, preserving order, across
  ``REPRO_WORKERS`` processes (1 = deterministic serial fallback);
* :func:`run_tasks` — the same fan-out for arbitrary picklable
  functions (used by the collocation study, whose results are not
  :class:`PointResult` objects).

Results are memoized through :mod:`repro.engine.pointcache` unless
``REPRO_NO_CACHE=1``.

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

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    as_completed,
)
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.engine import faults, pointcache, snapshot
from repro.errors import ConfigError
from repro.obs import events as obs_events
from repro.obs import manifest as obs_manifest
from repro.obs.manifest import PointRecord, RunManifest
from repro.nic.arrivals import BurstProfile
from repro.obs.timeline import ObsContext, write_jsonl
from repro.params import SystemConfig
from repro.sched.policy import make_policy
from repro.sched.tenants import DEFAULT_TENANT
from repro.sidechannel.observer import ObserverConfig
from repro.workloads.base import Workload

T = TypeVar("T")

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

    A parallel attempt exceeding the timeout is abandoned (the worker
    finishes in the background; its result is discarded) and the point
    rescheduled, charging one attempt. The serial path cannot interrupt
    an in-process simulation, so the timeout only applies to workers.
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

    def cache_key(self) -> str:
        """Deterministic identity of the simulation's inputs.

        The label is presentation-only and deliberately excluded;
        :func:`run_cached_spec` re-stamps it on cache hits. The
        observer, burst, and measure-override lines are appended only
        when set, so every pre-existing fingerprint layout is unchanged.
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
        return key

    def warmup_key(self) -> str:
        """Identity of the config prefix up to end-of-warmup.

        Everything that influences simulator state through the last
        warmup request — system, workload, policy, switches, seed,
        warmup count, burst profile — and nothing that only shapes the
        measured window (measure count, measure-phase DDIO override,
        observer, label). Two specs with equal warmup keys fork their
        measured windows off one shared warm-state snapshot
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
    from repro.engine.tracer import TraceConfig, TraceSimulator
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
    """:func:`run_spec` through the persistent point cache."""
    if not pointcache.cache_enabled():
        return run_spec(spec, run_dir=run_dir)
    fp = pointcache.fingerprint(spec)
    cached = pointcache.load(fp, require_attrs=pointcache.RESULT_ATTRS)
    if cached is not None:
        return pointcache.mark_cache_hit(cached, spec.label)
    result = run_spec(spec, run_dir=run_dir)
    pointcache.store(fp, result)
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


def _run_serial(
    spec_list: Sequence[PointSpec],
    runner: Callable,
    log,
    run_label: Optional[str],
    t0: float,
    retries: int,
    backoff: float,
    results: List,
    attempts: List[int],
    errors: Dict[int, str],
) -> None:
    """In-process execution with per-point retries (fills the outputs)."""
    total = len(spec_list)
    done = 0
    for i, spec in enumerate(spec_list):
        attempt = 0
        while True:
            attempt += 1
            attempts[i] = attempt
            try:
                result = runner(spec)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                if attempt > retries:
                    errors[i] = error
                    log.error(
                        "point.failed",
                        run=run_label or "-",
                        label=spec.label,
                        attempts=attempt,
                        error=error,
                    )
                    break
                delay = backoff_delay(backoff, attempt)
                log.warning(
                    "point.retry",
                    run=run_label or "-",
                    label=spec.label,
                    attempt=attempt,
                    backoff_s=delay,
                    error=error,
                )
                if delay:
                    time.sleep(delay)
                continue
            results[i] = result
            done += 1
            _emit_point_progress(log, run_label, done, total, result, t0)
            break


def _run_parallel(
    spec_list: Sequence[PointSpec],
    runner: Callable,
    workers: int,
    log,
    run_label: Optional[str],
    t0: float,
    retries: int,
    backoff: float,
    timeout: Optional[float],
    results: List,
    attempts: List[int],
    errors: Dict[int, str],
    holds: Optional[Dict[int, List[int]]] = None,
    policy: Optional[str] = None,
    tenant: str = DEFAULT_TENANT,
) -> None:
    """Process-pool execution with crash recovery (fills the outputs).

    Recovery semantics:

    * an attempt raising an ordinary exception is retried with
      exponential backoff until its ``retries`` budget runs out;
    * a ``BrokenProcessPool`` (worker death kills the whole pool)
      rebuilds the pool once per collapse; every in-flight point is
      charged one attempt and rescheduled;
    * a cancelled attempt (collateral of ``cancel_futures`` during a
      rebuild) is rescheduled without charge — it never ran;
    * with ``timeout`` set, an attempt running longer is abandoned (the
      worker finishes in the background, its result discarded) and the
      point rescheduled, charging one attempt.

    ``holds`` maps warmup-group leader index -> follower indices
    (:func:`repro.engine.snapshot.warmup_groups`): followers stay out
    of the ready queue until their leader terminally resolves (result
    *or* exhausted retries), so exactly one worker simulates the shared
    warmup and stores the snapshot the followers then restore. Safe
    against deadlock because a leader always resolves: it is never held
    itself, and both terminal paths release its followers.

    Dispatch order comes from the shared policy engine
    (:func:`repro.sched.policy.make_policy`): ready indices are pushed
    into a :class:`PolicyQueue` and submitted in pop order. With the
    default ``priority`` policy (all points priority 0) this is exactly
    the historical FIFO index order, so results stay bit-identical; the
    seam exists so local runs obey ``REPRO_SCHED_POLICY`` like every
    other backend. Backoff delays live outside the policy queue (a
    ``delayed`` list) — a policy orders *runnable* work, not timers.
    """
    total = len(spec_list)
    pool = ProcessPoolExecutor(max_workers=workers)
    pending: Dict[Future, int] = {}
    started: Dict[Future, float] = {}
    owner: Dict[Future, ProcessPoolExecutor] = {}
    holds = dict(holds or {})
    held = {i for followers in holds.values() for i in followers}
    queue = make_policy(policy)
    for i in range(total):
        if i not in held:
            queue.push(i, tenant=tenant)
    delayed: List[Tuple[float, int]] = []
    done_count = 0

    def release_followers(i: int) -> None:
        for j in holds.pop(i, ()):
            queue.push(j, tenant=tenant)

    def rebuild_if_current(broken: ProcessPoolExecutor) -> None:
        nonlocal pool
        if pool is not broken:
            return  # a previous collapse already rebuilt it
        log.warning(
            "pool.rebuild", run=run_label or "-", workers=workers
        )
        pool = ProcessPoolExecutor(max_workers=workers)
        broken.shutdown(wait=False, cancel_futures=True)

    def submit(i: int) -> None:
        nonlocal pool
        try:
            fut = pool.submit(runner, spec_list[i])
        except BrokenProcessPool:
            rebuild_if_current(pool)
            fut = pool.submit(runner, spec_list[i])
        attempts[i] += 1
        pending[fut] = i
        started[fut] = time.monotonic()
        owner[fut] = pool

    def reschedule(i: int, error: str, charge: bool) -> None:
        nonlocal done_count
        if not charge:
            attempts[i] -= 1  # the attempt never ran
            queue.push(i, tenant=tenant)
            return
        if attempts[i] > retries:
            errors[i] = error
            done_count += 1
            release_followers(i)  # a dead leader must not strand its group
            log.error(
                "point.failed",
                run=run_label or "-",
                label=spec_list[i].label,
                attempts=attempts[i],
                error=error,
            )
            return
        delay = backoff_delay(backoff, attempts[i])
        log.warning(
            "point.retry",
            run=run_label or "-",
            label=spec_list[i].label,
            attempt=attempts[i],
            backoff_s=delay,
            error=error,
        )
        delayed.append((time.monotonic() + delay, i))

    try:
        while done_count < total:
            now = time.monotonic()
            for entry in sorted(delayed):
                if entry[0] <= now:
                    delayed.remove(entry)
                    queue.push(entry[1], tenant=tenant)
            while len(queue):
                index = queue.pop()
                if index is None:
                    break
                submit(index)
            if not pending:
                if delayed:
                    next_due = min(nb for nb, _ in delayed)
                    time.sleep(min(0.05, max(0.0, next_due - now)))
                    continue
                if holds:
                    # Unreachable by construction (leaders always
                    # resolve), but never strand held followers.
                    for leader in list(holds):
                        release_followers(leader)
                    continue
                break  # every point resolved to a result or an error
            done, _ = futures_wait(
                list(pending), timeout=0.05, return_when=FIRST_COMPLETED
            )
            for fut in done:
                i = pending.pop(fut)
                started.pop(fut, None)
                fut_pool = owner.pop(fut, None)
                try:
                    result = fut.result()
                except CancelledError:
                    reschedule(i, "cancelled", charge=False)
                except BrokenProcessPool as exc:
                    if fut_pool is not None:
                        rebuild_if_current(fut_pool)
                    reschedule(i, f"{type(exc).__name__}: {exc}", charge=True)
                except Exception as exc:
                    reschedule(i, f"{type(exc).__name__}: {exc}", charge=True)
                else:
                    results[i] = result
                    done_count += 1
                    release_followers(i)
                    _emit_point_progress(
                        log, run_label, done_count, total, result, t0
                    )
            if timeout is not None:
                now = time.monotonic()
                stragglers = [
                    fut
                    for fut, begun in started.items()
                    if now - begun > timeout and fut in pending
                ]
                for fut in stragglers:
                    i = pending.pop(fut)
                    started.pop(fut, None)
                    owner.pop(fut, None)
                    cancelled = fut.cancel()
                    reschedule(
                        i,
                        f"TimeoutError: attempt exceeded {timeout}s"
                        + ("" if cancelled else " (worker abandoned)"),
                        charge=not cancelled,
                    )
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def run_points(
    specs: Iterable[PointSpec],
    max_workers: Optional[int] = None,
    run_label: Optional[str] = None,
    tenant: str = DEFAULT_TENANT,
    policy: Optional[str] = None,
) -> List:
    """Simulate every spec; results come back in spec order.

    ``max_workers`` (default: :func:`default_workers`) of 1 runs
    serially in-process, which is the deterministic reference path —
    parallel runs produce bit-identical results because each point's
    RNGs are seeded from its spec alone. Failing points are retried
    (``REPRO_RETRIES`` / ``REPRO_RETRY_BACKOFF_S`` /
    ``REPRO_POINT_TIMEOUT_S``); a point that exhausts its budget raises
    :class:`PointFailure` after the manifest is finalized with
    ``status: failed``.

    ``run_label`` names the run in its manifest, event-log lines, and
    run-directory id (figure modules pass their figure id). ``tenant``
    is recorded in the manifest for provenance; ``policy`` selects the
    dispatch order for the parallel path (default:
    ``REPRO_SCHED_POLICY``, whose default preserves index order).
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
    manifest, run_dir = start_manifest(run_label, workers, tenant=tenant)
    t0 = time.perf_counter()
    log.info(
        "run.start",
        run=run_label or "-",
        points=len(spec_list),
        workers=workers,
        run_id=manifest.run_id if manifest else None,
    )
    runner = partial(
        run_cached_spec, run_dir=str(run_dir) if run_dir else None
    )
    total = len(spec_list)
    retries = retry_limit()
    backoff = retry_backoff_s()
    timeout = point_timeout_s()
    results: List = [None] * total
    attempts: List[int] = [0] * total
    errors: Dict[int, str] = {}
    # Warmup-sharing groups (DESIGN.md §14). The serial path needs no
    # gating: in-order execution runs each group's leader first.
    holds: Dict[int, List[int]] = {}
    if workers > 1:
        for idxs in snapshot.warmup_groups(spec_list).values():
            holds[idxs[0]] = idxs[1:]

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

    try:
        if workers <= 1:
            _run_serial(
                spec_list, runner, log, run_label, t0,
                retries, backoff, results, attempts, errors,
            )
        else:
            _run_parallel(
                spec_list, runner, workers, log, run_label, t0,
                retries, backoff, timeout, results, attempts, errors,
                holds=holds, policy=policy, tenant=tenant,
            )
    except BaseException:
        # Unexpected abort (KeyboardInterrupt, pool setup failure, ...):
        # still leave a finalized manifest behind, never an orphan dir.
        finalize("failed")
        raise
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


def run_tasks(
    fn: Callable[..., T],
    args_list: Sequence[Tuple],
    max_workers: Optional[int] = None,
    run_label: Optional[str] = None,
) -> List[T]:
    """Fan out ``fn(*args)`` over a task list, preserving order.

    ``fn`` must be a module-level (picklable) function and every args
    tuple picklable. Not point-cached, not manifested, and not retried —
    use :func:`run_points` for standard grid points. Progress events
    still flow through the event log.
    """
    tasks = list(args_list)
    if not tasks:
        return []
    workers = max_workers if max_workers is not None else default_workers()
    workers = min(workers, len(tasks))
    log = obs_events.get_event_log()
    t0 = time.perf_counter()
    log.info(
        "tasks.start", run=run_label or "-", tasks=len(tasks), workers=workers
    )
    if workers <= 1:
        results = []
        for i, args in enumerate(tasks):
            results.append(fn(*args))
            log.info(
                "task.finish",
                run=run_label or "-",
                done=f"{i + 1}/{len(tasks)}",
            )
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(fn, *args): i for i, args in enumerate(tasks)
        }
        ordered: List[T] = [None] * len(tasks)  # type: ignore[list-item]
        done = 0
        for future in as_completed(futures):
            index = futures[future]
            ordered[index] = future.result()
            done += 1
            log.info(
                "task.finish", run=run_label or "-", done=f"{done}/{len(tasks)}"
            )
        return ordered
