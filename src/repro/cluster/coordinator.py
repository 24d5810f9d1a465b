"""Coordinator-side state of the cluster: workers, leases, pending points.

The scheduler's ``acquire`` step hands points here instead of its
local :class:`~repro.engine.parallel.PointPool` when the daemon runs
with ``--backend cluster``: :meth:`ClusterCoordinator.submit` returns a
plain :class:`concurrent.futures.Future` that the engine's attempt loop
(:func:`~repro.engine.parallel.run_attempts`) waits on, retries and
times out like a pool's. Worker agents then drive the
other side over the wire protocol (:mod:`repro.cluster.protocol`):

* ``lease`` pops up to a batch of pending points, stamps a deadline
  (``REPRO_CLUSTER_LEASE_TTL_S``), and ships the pickled specs;
* ``heartbeat`` renews deadlines while the worker is simulating;
* ``complete`` uploads pickled :class:`PointResult` objects keyed by
  the point-cache fingerprint — the coordinator stamps the uploading
  ``worker_id`` on each result (recorded per point in the run
  manifest) and fulfils the future;
* a lease whose deadline passes with no heartbeat **expires**: every
  unresolved point's future fails with :class:`LeaseExpired`, which the
  scheduler's retry machinery treats exactly like a crashed local
  worker — one attempt charged, exponential backoff, re-acquire (and
  the re-acquired point lands back in this queue for the next healthy
  worker).

An upload nobody waits for any more — its lease expired or is
unknown, or its future is already done — is not wasted: the result is
stored straight into the point cache, so a retry becomes a cache hit.

Lease state machine (DESIGN.md §10)::

    pending --lease--> leased --complete--> done
       ^                  |--fail/point-failure--> failed (charged)
       |                  |--expire (no heartbeat)--> expired (charged)
       |                  `--release (worker drain)--> requeued (free)
       `------------------------------------------------'

The pending queue is one :class:`repro.sched.policy.PolicyQueue`, so
with ``wfq`` the fleet's point dispatch is weighted-fair across tenants
(DESIGN.md §15). The lease table holds live leases only: a lease leaves
it when it completes, fails or expires.

Locking: one coordinator lock guards the queue, the lease table and
the worker table. It never nests with the scheduler lock, and futures
are **never** resolved while holding it — ``set_result`` runs done
callbacks inline, and the scheduler's callback takes the scheduler
lock, so resolving under the coordinator lock would deadlock against a
job thread that holds the scheduler lock while enqueuing
(:meth:`submit` is called from ``_acquire_point``).
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster import protocol
from repro.engine import pointcache
from repro.obs import events as obs_events
from repro.obs.metrics import MetricsRegistry
from repro.sched.policy import make_policy
from repro.sched.tenants import DEFAULT_TENANT, TenantTable, guarded_labels

#: worker states surfaced by ``GET /workers``.
WORKER_STATES = ("idle", "working", "lost", "draining")


class LeaseExpired(RuntimeError):
    """A leased point's worker missed its heartbeat deadline."""


class WorkerPointError(RuntimeError):
    """A worker reported a per-point simulation failure."""


class WorkerLeaseError(RuntimeError):
    """A worker aborted a whole lease (e.g. its local pool collapsed)."""


def _settle(set_outcome: Callable[[Any], None], value: Any) -> bool:
    """Resolve a future (caller holds no coordinator lock); False when
    it was already done — cancelled, or resolved by someone else."""
    try:
        set_outcome(value)
    except InvalidStateError:
        return False
    return True


@dataclass
class PendingPoint:
    """An enqueued simulation: the spec plus the future the scheduler
    is waiting on."""

    fingerprint: str
    spec: Any
    future: Future
    tenant: str = DEFAULT_TENANT
    claimed: bool = False  # set_running_or_notify_cancel already called
    #: global submission order; granted batches are sorted by it so a
    #: lease's points run in arrival order (batch *membership* is the
    #: policy's call, order within one worker's batch is not).
    seq: int = 0


@dataclass
class Lease:
    """A batch of points granted to one worker until a deadline."""

    lease_id: str
    worker_id: str
    entries: Dict[str, PendingPoint]  # fingerprint -> point
    deadline_unix: float


@dataclass
class WorkerInfo:
    """One registered worker agent."""

    worker_id: str
    name: Optional[str]
    host: str
    pid: int
    capacity: int
    registered_unix: float
    last_seen_unix: float
    lost: bool = False
    draining: bool = False
    points_done: int = 0
    points_failed: int = 0
    leases_granted: int = 0
    lease_ids: set = field(default_factory=set)

    def state(self) -> str:
        if self.lost:
            return "lost"
        if self.draining:
            return "draining"
        return "working" if self.lease_ids else "idle"

    def snapshot(self, now: float) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "name": self.name,
            "host": self.host,
            "pid": self.pid,
            "capacity": self.capacity,
            "state": self.state(),
            "registered_unix": self.registered_unix,
            "last_seen_unix": self.last_seen_unix,
            "seen_ago_s": max(0.0, now - self.last_seen_unix),
            "points_done": self.points_done,
            "points_failed": self.points_failed,
            "leases_granted": self.leases_granted,
            "leases_active": len(self.lease_ids),
        }


class ClusterCoordinator:
    """One policy queue + one lease table behind the cluster backend."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        lease_ttl: Optional[float] = None,
        batch: Optional[int] = None,
        policy: Optional[str] = None,
        tenants: Optional[TenantTable] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.lease_ttl = (
            lease_ttl if lease_ttl is not None else protocol.lease_ttl_s()
        )
        # A third of the TTL gives a worker two extra chances before its
        # lease expires. Named heartbeat_s so it cannot shadow the
        # heartbeat() protocol handler below.
        self.heartbeat_s = self.lease_ttl / 3.0
        self.batch = batch if batch is not None else protocol.batch_size()
        self.tenants = tenants if tenants is not None else TenantTable.from_env()
        self._queue = make_policy(policy, self.tenants)
        self.policy = self._queue.name
        self._lock = threading.Lock()
        self._leases: Dict[str, Lease] = {}
        self._workers: Dict[str, WorkerInfo] = {}
        self._seq = itertools.count()
        self._draining = False
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._log = obs_events.get_event_log()
        self._init_metrics()

    def _init_metrics(self) -> None:
        r = self.registry
        self.m_leases_granted = r.counter(
            "cluster_leases_granted_total", "leases handed to workers"
        )
        self.m_lease_expired = r.counter(
            "cluster_lease_expired_total",
            "leases expired after a missed heartbeat (points requeued)",
        )
        self.m_points_remote = r.counter(
            "cluster_points_remote_total",
            "point results uploaded by cluster workers",
        )
        self.m_point_failures = r.counter(
            "cluster_point_failures_total",
            "per-point failures reported by workers",
        )
        self.m_points_released = r.counter(
            "cluster_points_released_total",
            "unstarted points returned by draining workers (uncharged)",
        )
        self.m_registered = r.counter(
            "cluster_workers_registered_total", "worker registrations accepted"
        )
        self.m_late_results = r.counter(
            "cluster_late_results_total",
            "uploads nobody waited for any more (cached anyway)",
        )
        self._g_pending = r.gauge(
            "cluster_pending_points", "points waiting for a lease"
        )
        self._g_tenant_pending = r.gauge(
            "cluster_tenant_pending_points",
            "points waiting for a lease, by tenant",
            labels=("tenant",),
        )
        self._g_leases = r.gauge(
            "cluster_leases_active", "leases currently outstanding"
        )
        self._g_workers = r.gauge(
            "cluster_workers", "registered workers by state", labels=("state",)
        )
        r.register_collector(self._collect)

    def _collect(self, _registry: MetricsRegistry) -> None:
        with self._lock:
            pending = len(self._queue)
            by_tenant = self._queue.tenants_queued()
            active = len(self._leases)
            states = {state: 0 for state in WORKER_STATES}
            for worker in self._workers.values():
                states[worker.state()] += 1
        self._g_pending.set(pending)
        self._g_leases.set(active)
        for tenant, count in by_tenant.items():
            guarded_labels(self._g_tenant_pending, tenant=tenant).set(count)
        for state, count in states.items():
            self._g_workers.labels(state=state).set(count)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Start the lease-expiry monitor thread (idempotent)."""
        with self._lock:
            if self._monitor is not None:
                return
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="cluster-monitor", daemon=True
            )
        self._monitor.start()

    def stop(self) -> None:
        self._stop.set()
        monitor = self._monitor
        if monitor is not None:
            monitor.join(timeout=5)

    def drain(self) -> None:
        """Tell the fleet (via lease/heartbeat replies) to wind down."""
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def _monitor_loop(self) -> None:
        tick = max(0.05, min(0.5, self.lease_ttl / 5.0))
        while not self._stop.wait(tick):
            self.expire_stale()

    # -- scheduler side (the execution backend seam) --------------------

    def submit(
        self, spec, run_dir: Optional[str], tenant: str = DEFAULT_TENANT
    ) -> Future:
        """Enqueue one point; the future resolves when a worker delivers.

        Called by the scheduler with *its* lock held — this method only
        enqueues and never resolves a future. ``run_dir`` mirrors the
        local executor's call; workers write no run artifacts.
        """
        future: Future = Future()
        entry = PendingPoint(
            fingerprint=pointcache.fingerprint(spec),
            spec=spec,
            future=future,
            tenant=tenant,
        )
        with self._lock:
            entry.seq = next(self._seq)
            self._queue.push(entry, tenant=tenant, cost=1.0)
        return future

    def pending_count(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- worker-facing protocol handlers --------------------------------

    def register(self, payload: Any) -> Dict[str, Any]:
        """Handle ``POST /cluster/register``."""
        body = protocol.check_version(payload)
        salt = body.get("code_salt")
        protocol.require(
            isinstance(salt, str) and bool(salt),
            "'code_salt' must be a non-empty string",
        )
        if salt != pointcache.code_salt():
            raise protocol.SaltMismatch(
                "worker runs a different source tree than the coordinator "
                f"(salt {salt[:12]}... != {pointcache.code_salt()[:12]}...); "
                "results would not be bit-identical — update the worker"
            )
        capacity = body.get("capacity", 1)
        protocol.require(
            isinstance(capacity, int) and capacity >= 1,
            "'capacity' must be an integer >= 1",
        )
        now = time.time()
        worker = WorkerInfo(
            worker_id=f"w-{uuid.uuid4().hex[:10]}",
            name=body.get("name") or None,
            host=str(body.get("host", "?")),
            pid=int(body.get("pid", 0) or 0),
            capacity=capacity,
            registered_unix=now,
            last_seen_unix=now,
        )
        with self._lock:
            self._workers[worker.worker_id] = worker
        self.m_registered.inc()
        self._log.info(
            "cluster.worker.register",
            worker=worker.worker_id,
            name=worker.name,
            host=worker.host,
            pid=worker.pid,
            capacity=capacity,
        )
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "worker_id": worker.worker_id,
            "lease_ttl_s": self.lease_ttl,
            "heartbeat_s": self.heartbeat_s,
            "batch": self.batch,
            "poll_s": protocol.POLL_S,
        }

    def _touch(self, worker_id: str) -> WorkerInfo:
        """Look up a worker and refresh its liveness (lock held)."""
        worker = self._workers.get(worker_id)
        if worker is None:
            raise protocol.UnknownWorker(worker_id)
        worker.last_seen_unix = time.time()
        worker.lost = False
        return worker

    def _take_lease(self, lease_id: str, worker_id: str) -> Optional[Lease]:
        """Remove ``lease_id`` from the table if ``worker_id`` holds it
        (lock held); None when it expired, ended or is unknown."""
        lease = self._leases.get(lease_id)
        if lease is None or lease.worker_id != worker_id:
            return None
        del self._leases[lease_id]
        self._workers[worker_id].lease_ids.discard(lease_id)
        return lease

    def lease(self, payload: Any) -> Dict[str, Any]:
        """Handle ``POST /cluster/lease``: grant up to a batch of points
        in policy order."""
        body = protocol.check_version(payload)
        worker_id = protocol.worker_id_of(body)
        capacity = body.get("capacity", 1)
        protocol.require(
            isinstance(capacity, int) and capacity >= 1,
            "'capacity' must be an integer >= 1",
        )
        want = min(self.batch, capacity)
        granted: List[PendingPoint] = []
        lease: Optional[Lease] = None
        with self._lock:
            worker = self._touch(worker_id)
            while len(granted) < want:
                entry = self._queue.pop()
                if entry is None:
                    break
                if entry.future.done():
                    continue  # cancelled by the scheduler while queued
                if not entry.claimed:
                    if not entry.future.set_running_or_notify_cancel():
                        continue  # cancelled after the done() check
                    entry.claimed = True
                granted.append(entry)
            if granted:
                granted.sort(key=lambda e: e.seq)
                lease = Lease(
                    lease_id=f"lease-{uuid.uuid4().hex[:10]}",
                    worker_id=worker_id,
                    entries={e.fingerprint: e for e in granted},
                    deadline_unix=time.time() + self.lease_ttl,
                )
                self._leases[lease.lease_id] = lease
                worker.lease_ids.add(lease.lease_id)
                worker.leases_granted += 1
        if lease is None:
            return {
                "protocol": protocol.PROTOCOL_VERSION,
                "lease_id": None,
                "points": [],
                "draining": self._draining,
                "poll_s": protocol.POLL_S,
            }
        self.m_leases_granted.inc()
        self._log.info(
            "cluster.lease.grant",
            lease=lease.lease_id,
            worker=worker_id,
            points=len(granted),
            ttl_s=self.lease_ttl,
        )
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "lease_id": lease.lease_id,
            "deadline_unix": lease.deadline_unix,
            "ttl_s": self.lease_ttl,
            "heartbeat_s": self.heartbeat_s,
            "draining": self._draining,
            "points": [
                {
                    "fingerprint": e.fingerprint,
                    "label": e.spec.label,
                    "tenant": e.tenant,
                    "spec": protocol.encode_payload(e.spec),
                }
                for e in granted
            ],
        }

    def heartbeat(self, payload: Any) -> Dict[str, Any]:
        """Handle ``POST /cluster/heartbeat``: renew lease deadlines."""
        body = protocol.check_version(payload)
        worker_id = protocol.worker_id_of(body)
        lease_ids = protocol.string_list(body, "lease_ids")
        renewed: List[str] = []
        gone: List[str] = []
        with self._lock:
            self._touch(worker_id)
            deadline = time.time() + self.lease_ttl
            for lease_id in lease_ids:
                lease = self._leases.get(lease_id)
                if lease is None or lease.worker_id != worker_id:
                    gone.append(lease_id)
                    continue
                lease.deadline_unix = deadline
                renewed.append(lease_id)
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "renewed": renewed,
            "expired": gone,
            "draining": self._draining,
        }

    def complete(self, payload: Any) -> Dict[str, Any]:
        """Handle ``POST /cluster/complete``: results / failures / releases.

        A result whose future is already done, or whose lease is gone,
        takes the late-upload path: it is stored in the point cache
        and never raises.
        """
        body = protocol.check_version(payload)
        worker_id = protocol.worker_id_of(body)
        lease_id = body.get("lease_id")
        protocol.require(
            isinstance(lease_id, str) and bool(lease_id),
            "'lease_id' must be a non-empty string",
        )
        results = body.get("results", [])
        failures = body.get("failures", [])
        released = protocol.string_list(body, "released")
        protocol.require(
            isinstance(results, list) and isinstance(failures, list),
            "'results' and 'failures' must be lists",
        )
        uploads: List[Tuple[str, Any]] = []
        for item in results:
            protocol.require(
                isinstance(item, dict)
                and isinstance(item.get("fingerprint"), str)
                and isinstance(item.get("payload"), str),
                "each result needs string 'fingerprint' and 'payload'",
            )
            result = protocol.decode_payload(item["payload"])
            result.worker_id = worker_id
            uploads.append((item["fingerprint"], result))
        for item in failures:
            protocol.require(
                isinstance(item, dict)
                and isinstance(item.get("fingerprint"), str)
                and isinstance(item.get("error"), str),
                "each failure needs string 'fingerprint' and 'error'",
            )

        requeued = 0
        with self._lock:
            worker = self._touch(worker_id)
            lease = self._take_lease(lease_id, worker_id)
            entries = lease.entries if lease is not None else {}
            for fp in released:
                entry = entries.get(fp)
                if entry is not None and not entry.future.done():
                    # Returned unstarted by a draining worker: requeued
                    # in policy order, no attempt charged, same future.
                    self._queue.push(entry, tenant=entry.tenant, cost=1.0)
                    requeued += 1
            worker.points_done += len(uploads)
            worker.points_failed += len(failures)

        # Outside the lock: resolve futures (runs scheduler callbacks).
        resolved = 0
        late: List[Tuple[str, Any]] = []
        for fp, result in uploads:
            entry = entries.get(fp)
            if entry is not None and _settle(entry.future.set_result, result):
                resolved += 1
            else:
                late.append((fp, result))
        failed = 0
        for item in failures:
            entry = entries.get(item["fingerprint"])
            if entry is not None and _settle(
                entry.future.set_exception,
                WorkerPointError(f"{item['error']} (worker {worker_id})"),
            ):
                failed += 1
        if late and pointcache.cache_enabled():
            for fp, result in late:
                try:
                    pointcache.store(fp, result)
                except Exception:
                    pass  # a failed store is only a lost cache entry
        if late:
            self.m_late_results.inc(len(late))
        if resolved:
            self.m_points_remote.inc(resolved)
        if failed:
            self.m_point_failures.inc(failed)
        if requeued:
            self.m_points_released.inc(requeued)
        self._log.info(
            "cluster.lease.complete",
            lease=lease_id,
            worker=worker_id,
            results=len(results),
            failures=len(failures),
            released=len(released),
            late=len(late),
            accepted=lease is not None,
        )
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "accepted": lease is not None,
            "resolved": resolved,
            "late": len(late),
        }

    def fail(self, payload: Any) -> Dict[str, Any]:
        """Handle ``POST /cluster/fail``: abort a whole lease."""
        body = protocol.check_version(payload)
        worker_id = protocol.worker_id_of(body)
        lease_id = body.get("lease_id")
        error = body.get("error", "worker aborted the lease")
        protocol.require(
            isinstance(lease_id, str) and bool(lease_id),
            "'lease_id' must be a non-empty string",
        )
        with self._lock:
            worker = self._touch(worker_id)
            lease = self._take_lease(lease_id, worker_id)
            entries = list(lease.entries.values()) if lease is not None else []
        failed = sum(
            _settle(
                entry.future.set_exception,
                WorkerLeaseError(f"{error} (worker {worker_id})"),
            )
            for entry in entries
        )
        if failed:
            with self._lock:
                worker.points_failed += failed
            self.m_point_failures.inc(failed)
        self._log.warning(
            "cluster.lease.fail",
            lease=lease_id,
            worker=worker_id,
            points=failed,
            error=str(error),
        )
        return {"protocol": protocol.PROTOCOL_VERSION, "failed": failed}

    # -- expiry ---------------------------------------------------------

    def expire_stale(self, now: Optional[float] = None) -> int:
        """Expire leases past their deadline; returns how many expired.

        Each unresolved point fails with :class:`LeaseExpired`, which
        the attempt loop converts into a charged
        attempt + re-enqueue.
        """
        now = time.time() if now is None else now
        with self._lock:
            expired = [
                lease
                for lease in self._leases.values()
                if lease.deadline_unix <= now
            ]
            for lease in expired:
                del self._leases[lease.lease_id]
                worker = self._workers.get(lease.worker_id)
                if worker is not None:
                    worker.lost = True
                    worker.lease_ids.discard(lease.lease_id)
        for lease in expired:
            self.m_lease_expired.inc()
            self._log.warning(
                "cluster.lease.expired",
                lease=lease.lease_id,
                worker=lease.worker_id,
                overdue_s=round(now - lease.deadline_unix, 3),
            )
            for entry in lease.entries.values():
                _settle(
                    entry.future.set_exception,
                    LeaseExpired(
                        f"lease deadline missed for point "
                        f"{entry.spec.label!r}; worker presumed dead"
                    ),
                )
        return len(expired)

    # -- introspection ---------------------------------------------------

    def workers_snapshot(self) -> List[Dict[str, Any]]:
        """Fleet listing for ``GET /workers`` (registration order)."""
        now = time.time()
        with self._lock:
            workers = list(self._workers.values())
        return [w.snapshot(now) for w in workers]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "pending_points": len(self._queue),
                "active_leases": len(self._leases),
                "workers": len(self._workers),
                "draining": self._draining,
                "policy": self.policy,
                "pending_by_tenant": self._queue.tenants_queued(),
            }
