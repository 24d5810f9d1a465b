"""Policy-driven job scheduler with tenant admission and in-flight dedup.

The scheduler owns three pieces of shared state, all guarded by one
lock:

* a **policy queue** of submitted jobs — a pluggable
  :class:`repro.sched.policy.PolicyQueue` (``fifo | priority | wfq``,
  selected by ``REPRO_SCHED_POLICY`` or the ``--policy`` flag; the
  default ``priority`` reproduces the historical behavior: higher
  ``priority`` first, FIFO within a priority). Admission control is
  **per tenant** (DESIGN.md §15): every job carries a tenant id, and a
  submission beyond the tenant's quota (``REPRO_TENANTS``, defaulting
  to ``queue_limit`` per tenant) raises :class:`QuotaExceeded`; a
  tenant with a configured ``rate`` that outruns its token bucket
  raises :class:`RateLimited`. Both subclass :class:`QueueFull`, which
  the HTTP layer renders as a 429 naming the tenant, its limit, and
  current usage.
* an **in-flight table** ``fingerprint -> Future`` keyed by
  :func:`repro.engine.pointcache.fingerprint`. When two jobs need the
  same point, the second *attaches* to the first's future instead of
  simulating again — cross-job dedup. Completed simulations are stored
  into the persistent point cache, so later identical submissions hit
  the cache without simulating at all.
* the **job table** ``id -> Job`` for the API's lookups. It is bounded:
  only the :data:`KEEP_RESULTS` most recently finished jobs keep their
  ``PointResult``s (older ones keep the rows their ``GET /result``
  serves), and only :data:`KEEP_FINISHED` finished jobs are kept at
  all. A forgotten job's lookups raise :class:`JobPruned` (HTTP 410)
  until as many more have been forgotten after it.

Execution is admission plus HTTP around the one execution core of
:mod:`repro.engine.parallel`: each job thread drives
:func:`~repro.engine.parallel.run_attempts`, the loop ``run_points``
uses, over the shared :class:`~repro.engine.parallel.PointPool`
(``REPRO_WORKERS`` > 1 processes, else one in-process thread) or, with
the cluster backend, the coordinator's lease queue. Either way a served
point is bit-identical to a local run, a point restores a warm-state
snapshot that an earlier job or run stored, and each job writes the
usual run manifest via the helpers shared with ``run_points``.

Cancellation: a queued job is dropped before it starts; a running job
stops at the next point boundary: points already running finish and
are recorded, the rest are skipped.

Fault tolerance (DESIGN.md §9) is the loop's: failed attempts are
retried with exponential backoff (``REPRO_RETRIES`` /
``REPRO_RETRY_BACKOFF_S``), the pool is rebuilt once per collapse, and
``REPRO_POINT_TIMEOUT_S`` abandons straggler attempts. Every job exit
path — done, failed, cancelled, daemon drain — finalizes the run
manifest with a ``status``, so ``results/runs/`` never holds an
orphaned manifest-less directory. :meth:`JobScheduler.drain` (wired to
SIGTERM by ``repro.serve.app``) stops dispatching and lets running jobs
stop at the next point boundary with a ``partial`` manifest.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Deque, Dict, List, Optional, Tuple

from repro.engine import pointcache
from repro.errors import ConfigError
from repro.engine.parallel import (
    PointPool,
    cached_result,
    default_workers,
    finish_manifest,
    point_timeout_s,
    retry_backoff_s,
    retry_limit,
    run_attempts,
    run_spec,
    start_manifest,
    store_result,
)
from repro.obs import events as obs_events
from repro.obs.metrics import MetricsRegistry
from repro.sched.policy import make_policy, sched_policy
from repro.sched.tenants import (
    DEFAULT_TENANT,
    TenantTable,
    TokenBucket,
    guarded_labels,
)
from repro.serve.jobs import Job, JobRequest

DEFAULT_QUEUE_LIMIT = 64
DEFAULT_MAX_CONCURRENT_JOBS = 4
#: finished jobs that keep their ``PointResult``s; older ones keep rows.
KEEP_RESULTS = 8
#: finished jobs kept in the job table; older ones are forgotten.
KEEP_FINISHED = 1024

#: execution backends (DESIGN.md §10): ``local`` keeps the daemon's own
#: executor; ``cluster`` hands every fresh point to the lease queue for
#: worker agents.
BACKENDS = ("local", "cluster")


class QueueFull(Exception):
    """Admission control rejected a submission (HTTP 429)."""


class QuotaExceeded(QueueFull):
    """A tenant has its full quota of jobs already queued."""

    def __init__(self, tenant: str, quota: int, usage: int) -> None:
        super().__init__(
            f"tenant {tenant!r} quota exceeded "
            f"({usage}/{quota} jobs queued)"
        )
        self.tenant = tenant
        self.quota = quota
        self.usage = usage


class RateLimited(QueueFull):
    """A tenant's submissions outran its configured admission rate."""

    def __init__(self, tenant: str, rate: float, usage: int) -> None:
        super().__init__(
            f"tenant {tenant!r} rate limited "
            f"(over {rate:g} jobs/s; {usage} jobs queued)"
        )
        self.tenant = tenant
        self.rate = rate
        self.usage = usage


class UnknownJob(KeyError):
    """No job with the given id (HTTP 404)."""


class JobPruned(UnknownJob):
    """The job finished and was forgotten to bound memory (HTTP 410)."""


class JobScheduler:
    """Schedules jobs onto a shared simulation executor."""

    def __init__(
        self,
        workers: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_concurrent_jobs: int = DEFAULT_MAX_CONCURRENT_JOBS,
        registry: Optional[MetricsRegistry] = None,
        simulate=run_spec,
        backend: str = "local",
        policy: Optional[str] = None,
        tenants: Optional[TenantTable] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        # Fail fast on a malformed size knob at daemon startup — the
        # store path deliberately degrades to a warning (DESIGN.md §14).
        pointcache.cache_max_bytes()
        self.workers = workers if workers is not None else default_workers()
        self.queue_limit = queue_limit
        self.max_concurrent_jobs = max_concurrent_jobs
        self.registry = registry if registry is not None else MetricsRegistry()
        self._simulate = simulate
        self.backend = backend
        self.policy = policy if policy is not None else sched_policy()
        self.tenants = tenants if tenants is not None else TenantTable.from_env()
        self.coordinator = None
        if backend == "cluster":
            # Deferred import: repro.cluster.worker imports repro.serve.
            from repro.cluster.coordinator import ClusterCoordinator

            self.coordinator = ClusterCoordinator(
                registry=self.registry,
                policy=self.policy,
                tenants=self.tenants,
            )
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue = make_policy(self.policy, self.tenants)
        self._queued = 0
        self._running = 0
        self._tenant_queued: Dict[str, int] = {}
        self._tenant_running: Dict[str, int] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._jobs: Dict[str, Job] = {}
        self._finished: Deque[Job] = deque()
        self._pruned: Dict[str, None] = {}  # insertion-ordered ids
        self._inflight: Dict[str, Future] = {}
        self._stopping = False
        self._draining = False
        self._dispatcher: Optional[threading.Thread] = None
        self._job_threads: List[threading.Thread] = []
        self._pool: Optional[PointPool] = None
        self._log = obs_events.get_event_log()
        self._init_metrics()

    def _init_metrics(self) -> None:
        r = self.registry
        self.m_queue_depth = r.gauge(
            "serve_queue_depth", "jobs waiting in the scheduler queue"
        )
        self.m_running_jobs = r.gauge(
            "serve_running_jobs", "jobs currently executing"
        )
        self.m_submitted = r.counter(
            "serve_jobs_submitted_total", "jobs accepted into the queue"
        )
        self.m_rejected = r.counter(
            "serve_jobs_rejected_total",
            "jobs rejected by admission control (429)",
        )
        self.m_finished = r.counter(
            "serve_jobs_finished_total",
            "jobs reaching a terminal state",
            labels=("state",),
        )
        self.m_points = r.counter(
            "serve_points_total", "points served, by provenance",
            labels=("source",),
        )
        self.m_retries = r.counter(
            "serve_point_retries_total", "point attempts retried"
        )
        self.m_rebuilds = r.counter(
            "serve_pool_rebuilds_total", "executor rebuilds after a collapse"
        )
        self.m_job_seconds = r.histogram(
            "serve_job_seconds", "wall-clock seconds per finished job"
        )
        # Per-tenant families: the tenant label is client-controlled, so
        # every .labels() call goes through guarded_labels (cardinality
        # cap degrades to an _overflow series, never a crash).
        self.m_tenant_submitted = r.counter(
            "serve_tenant_jobs_submitted_total",
            "jobs accepted into the queue, by tenant",
            labels=("tenant",),
        )
        self.m_tenant_rejected = r.counter(
            "serve_tenant_jobs_rejected_total",
            "admission rejections, by tenant and reason",
            labels=("tenant", "reason"),
        )
        self.m_tenant_points = r.counter(
            "serve_tenant_points_total",
            "points delivered to finished work, by tenant",
            labels=("tenant",),
        )
        self.m_tenant_queued_g = r.gauge(
            "serve_tenant_queued_jobs",
            "jobs waiting in the queue, by tenant",
            labels=("tenant",),
        )

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Create the pool and dispatcher thread (idempotent)."""
        with self._lock:
            if self._dispatcher is not None:
                return
            if self.coordinator is None:
                self._pool = PointPool(
                    self.workers, on_rebuild=self.m_rebuilds.inc
                )
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="serve-dispatcher", daemon=True
            )
            self._dispatcher.start()
        if self.coordinator is not None:
            self.coordinator.start()

    def stop(self, wait: bool = True) -> None:
        """Stop dispatching; running simulations are abandoned."""
        with self._lock:
            self._stopping = True
            self._wake.notify_all()
            dispatcher = self._dispatcher
            threads = list(self._job_threads)
            pool = self._pool
        if wait and dispatcher is not None:
            dispatcher.join(timeout=10)
        for thread in threads:
            if wait:
                thread.join(timeout=10)
        if self.coordinator is not None:
            self.coordinator.stop()
        if pool is not None:
            pool.shutdown()

    def drain(self) -> None:
        """Stop launching jobs; running jobs stop at the next point
        boundary (their manifests finalize as ``partial``). Queued jobs
        stay queued — a later restart can still see them in the job
        table. ``/healthz`` reports ``draining`` while this is in
        effect."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
            self._wake.notify_all()
        if self.coordinator is not None:
            # Lease / heartbeat replies now carry draining=true, telling
            # workers to finish their current lease and wind down.
            self.coordinator.drain()
        self._log.info("serve.draining")

    @property
    def draining(self) -> bool:
        return self._draining

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is executing; False if ``timeout`` expires."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._wake:
            while self._running > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._wake.wait(
                    timeout=0.5 if remaining is None else min(0.5, remaining)
                )
        return True

    # -- submission / lookup / cancel -----------------------------------

    def _tenant_quota(self, tenant: str) -> int:
        """Effective queued-jobs quota for a tenant: its configured
        ``quota``, else ``queue_limit`` (per tenant) — which for a
        single-tenant deployment is exactly the old global bound."""
        config = self.tenants.get(tenant)
        return config.quota if config.quota is not None else self.queue_limit

    def submit(self, request: JobRequest) -> Job:
        """Queue a job; rejections raise a :class:`QueueFull` subclass.

        Admission is per tenant: a :class:`QuotaExceeded` names the
        tenant, its quota, and how many of its jobs are already queued
        (one tenant's backlog no longer starves admission for the
        rest); a :class:`RateLimited` fires when a configured ``rate``
        token bucket runs dry.
        """
        tenant = getattr(request, "tenant", DEFAULT_TENANT)
        config = self.tenants.get(tenant)
        with self._lock:
            usage = self._tenant_queued.get(tenant, 0)
            if config.rate is not None:
                bucket = self._buckets.get(tenant)
                if bucket is None:
                    bucket = TokenBucket(config.rate, config.burst)
                    self._buckets[tenant] = bucket
                if not bucket.allow():
                    self.m_rejected.inc()
                    guarded_labels(
                        self.m_tenant_rejected, tenant=tenant, reason="rate"
                    ).inc()
                    raise RateLimited(tenant, config.rate, usage)
            quota = self._tenant_quota(tenant)
            if usage >= quota:
                self.m_rejected.inc()
                guarded_labels(
                    self.m_tenant_rejected, tenant=tenant, reason="quota"
                ).inc()
                raise QuotaExceeded(tenant, quota, usage)
            job = Job(request)
            self._jobs[job.id] = job
            self._queue.push(
                job,
                tenant=tenant,
                cost=float(max(1, len(request.specs))),
                priority=request.priority,
            )
            self._queued += 1
            self._tenant_queued[tenant] = usage + 1
            self.m_queue_depth.set(self._queued)
            self.m_submitted.inc()
            guarded_labels(self.m_tenant_submitted, tenant=tenant).inc()
            guarded_labels(self.m_tenant_queued_g, tenant=tenant).set(
                usage + 1
            )
            self._wake.notify_all()
        self._log.info(
            "serve.job.submitted",
            job=job.id,
            name=request.name,
            tenant=tenant,
            points=len(request.specs),
            priority=request.priority,
        )
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            pruned = job_id in self._pruned
        if pruned:
            raise JobPruned(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(
                self._jobs.values(), key=lambda j: j.created_unix
            )

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job (terminal jobs are a no-op).

        The terminal transition happens *under the scheduler lock* and
        only the caller whose ``finish`` claims it touches the queue
        count and metrics — racing cancels of the same job can neither
        double-decrement ``_queued`` (driving ``serve_queue_depth``
        negative and leaking an admission slot) nor double-increment
        ``serve_jobs_finished_total``.
        """
        job = self.get(job_id)
        claimed = False
        with self._lock:
            job.cancel_requested = True
            if job.state == "queued" and job.finish("cancelled"):
                # Lazy queue deletion: the dispatcher skips finished jobs.
                claimed = True
                self._queued -= 1
                self.m_queue_depth.set(self._queued)
                self._dec_tenant_queued(job.request.tenant)
                self._retain(job)
        if claimed:
            self.m_finished.labels(state="cancelled").inc()
        self._log.info("serve.job.cancel", job=job.id, state=job.state)
        return job

    def counts(self) -> Dict[str, int]:
        """Job counts by state (for /healthz)."""
        with self._lock:
            jobs = list(self._jobs.values())
        out = {state: 0 for state in ("queued", "running", "done", "failed", "cancelled")}
        for job in jobs:
            out[job.state] = out.get(job.state, 0) + 1
        return out

    def _retain(self, job: Job) -> None:
        """Bound what finished jobs keep, now that ``job`` finished
        (lock held): see :data:`KEEP_RESULTS` / :data:`KEEP_FINISHED`."""
        self._finished.append(job)
        if len(self._finished) > KEEP_RESULTS:
            self._finished[-KEEP_RESULTS - 1].release_results()
        if len(self._finished) > KEEP_FINISHED:
            gone = self._finished.popleft()
            del self._jobs[gone.id]
            self._pruned[gone.id] = None
            if len(self._pruned) > KEEP_FINISHED:
                del self._pruned[next(iter(self._pruned))]

    def _dec_tenant_queued(self, tenant: str) -> None:
        """Drop one queued job from a tenant's count (lock held)."""
        left = self._tenant_queued.get(tenant, 1) - 1
        if left <= 0:
            self._tenant_queued.pop(tenant, None)
            left = 0
        else:
            self._tenant_queued[tenant] = left
        guarded_labels(self.m_tenant_queued_g, tenant=tenant).set(left)

    def tenant_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant queue/run/config snapshot (for ``/healthz``)."""
        with self._lock:
            queued = dict(self._tenant_queued)
            running = dict(self._tenant_running)
        names = set(queued) | set(running) | set(self.tenants.names())
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(names):
            config = self.tenants.get(name)
            out[name] = {
                "queued": queued.get(name, 0),
                "running": running.get(name, 0),
                "weight": config.weight,
                "quota": self._tenant_quota(name),
                "rate": config.rate,
            }
        return out

    # -- dispatch -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._stopping and (
                    self._draining
                    or not (
                        len(self._queue)
                        and self._running < self.max_concurrent_jobs
                    )
                ):
                    self._wake.wait(timeout=0.5)
                if self._stopping:
                    return
                job = self._queue.pop()
                if job is None or job.state != "queued":
                    continue  # lazily deleted (cancelled) entry
                # Still under the lock: once the job leaves "queued",
                # a racing cancel() can no longer treat it as queued.
                job.mark_running()
                tenant = job.request.tenant
                self._queued -= 1
                self._running += 1
                self._dec_tenant_queued(tenant)
                self._tenant_running[tenant] = (
                    self._tenant_running.get(tenant, 0) + 1
                )
                self.m_queue_depth.set(self._queued)
                self.m_running_jobs.set(self._running)
                thread = threading.Thread(
                    target=self._run_job_thread,
                    args=(job,),
                    name=f"serve-{job.id}",
                    daemon=True,
                )
                self._job_threads.append(thread)
            thread.start()

    def _run_job_thread(self, job: Job) -> None:
        try:
            self._run_job(job)
        except BaseException as exc:  # defensive: never kill the daemon
            if job.finish("failed", error=f"{type(exc).__name__}: {exc}"):
                self.m_finished.labels(state="failed").inc()
        finally:
            with self._lock:
                self._running -= 1
                tenant = job.request.tenant
                left = self._tenant_running.get(tenant, 1) - 1
                if left <= 0:
                    self._tenant_running.pop(tenant, None)
                else:
                    self._tenant_running[tenant] = left
                self.m_running_jobs.set(self._running)
                self._job_threads = [
                    t for t in self._job_threads
                    if t is not threading.current_thread()
                ]
                self._wake.notify_all()
                self._retain(job)

    # -- per-job execution ----------------------------------------------

    def _acquire_point(
        self, spec, fp: str, run_dir: Optional[str], tenant: str
    ) -> Tuple[str, object]:
        """One attempt at a point, as :func:`run_attempts` takes it.

        A cache hit, else an attach to an identical in-flight attempt
        (cross-job dedup), else a fresh submit: to the pool, or with
        the cluster backend to the coordinator's lease queue, whose
        future fails with :class:`repro.cluster.coordinator.LeaseExpired`
        when the worker misses its heartbeat deadline (charged and
        retried like a local crash).
        """
        cached = cached_result(spec, fp)
        if cached is not None:
            return "cache", cached
        with self._lock:
            future = self._inflight.get(fp)
            if future is not None:
                return "dedup", future
            if self.coordinator is not None:
                # Lock order scheduler -> coordinator; submit only
                # enqueues (it never resolves futures), so this cannot
                # re-enter the scheduler lock.
                future = self.coordinator.submit(spec, run_dir, tenant=tenant)
            else:
                future = self._pool.submit(self._simulate, spec, run_dir)
            self._inflight[fp] = future
        future.add_done_callback(lambda fut: self._retire(fp, fut))
        return "simulated", future

    def _retire(self, fp: str, future: Future) -> None:
        """Stop dedup-attaching to ``future``: it ended or was abandoned.
        Identity-checked, so a straggler ending late cannot evict the
        retry's fresh future from the dedup table."""
        with self._lock:
            if self._inflight.get(fp) is future:
                del self._inflight[fp]

    def _run_job(self, job: Job) -> None:
        t0 = time.perf_counter()
        tenant = job.request.tenant
        manifest, run_dir = start_manifest(
            f"serve-{job.request.name}", self.workers, tenant=tenant
        )
        if manifest is not None:
            job.run_id = manifest.run_id
        run_dir_arg = str(run_dir) if run_dir is not None else None
        specs = job.request.specs
        fps = [pointcache.fingerprint(spec) for spec in specs]
        total = len(specs)
        results: List[Optional[object]] = [None] * total
        attempts: List[int] = [0] * total
        errors: Dict[int, str] = {}

        def finalize(status: str) -> None:
            if manifest is not None and run_dir is not None:
                finish_manifest(
                    manifest,
                    run_dir,
                    specs,
                    results,
                    time.perf_counter() - t0,
                    status=status,
                    errors=errors,
                    attempts=attempts,
                )

        def on_done(i: int, source: str, result) -> None:
            if source == "simulated":
                store_result(fps[i], result)
            elif source == "dedup":
                # Shared with the owning job: take a private copy and
                # stamp our label; we did not pay for the simulation.
                results[i] = pointcache.mark_cache_hit(
                    copy.copy(result), specs[i].label
                )
            self.m_points.labels(source=source).inc()
            guarded_labels(self.m_tenant_points, tenant=tenant).inc()
            job.point_done(specs[i].label, source, result.sim_seconds)

        def on_retry(i: int, attempt: int, error: str, delay: float) -> None:
            job.point_retry(specs[i].label, error, attempt)
            self.m_retries.inc()
            self._log.warning(
                "serve.point.retry",
                job=job.id,
                label=specs[i].label,
                attempt=attempt,
                backoff_s=delay,
                error=error,
            )

        try:
            run_attempts(
                specs,
                lambda i: self._acquire_point(
                    specs[i], fps[i], run_dir_arg, tenant
                ),
                results, attempts, errors,
                retries=retry_limit(),
                backoff=retry_backoff_s(),
                timeout=point_timeout_s(),
                # The lease queue takes every point at once; a pool is
                # fed as it drains.
                capacity=None if self.coordinator is not None else self.workers,
                interrupted=lambda: job.cancel_requested or self._draining,
                on_done=on_done,
                on_retry=on_retry,
                on_abandon=lambda i, fut: self._retire(fps[i], fut),
            )
        except BaseException:
            # Unexpected abort: still leave a finalized manifest behind
            # (the thread backstop records the error on the job).
            finalize("failed")
            raise
        wall = time.perf_counter() - t0
        completed = sum(1 for r in results if r is not None)
        if job.cancel_requested:
            status, final_state, error = "cancelled", "cancelled", None
        elif errors:
            first = min(errors)
            status, final_state = "failed", "failed"
            error = f"point {specs[first].label!r}: {errors[first]}"
        elif self._draining and completed < total:
            status, final_state = "partial", "cancelled"
            error = "drained: daemon shutting down"
        else:
            status, final_state, error = "done", "done", None
            job.results = [r for r in results if r is not None]
        # Finalize the manifest *before* the terminal transition: the
        # moment a client can observe the terminal state, the artifacts
        # and metrics must already agree with it.
        finalize(status)
        if job.finish(final_state, error=error):
            self.m_finished.labels(state=final_state).inc()
        if status != "done":
            return
        self.m_job_seconds.observe(wall)
        self._log.info(
            "serve.job.finish",
            job=job.id,
            name=job.request.name,
            points=len(job.results),
            cached=job.cached_points,
            deduped=job.deduped_points,
            retried=job.retried_points,
            wall_s=wall,
        )
