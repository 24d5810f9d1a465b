"""Pull-loop worker agent: lease points, simulate, upload results.

Run one (or N) per host against a coordinator started with
``python -m repro.serve --backend cluster``::

    python -m repro.cluster.worker --coordinator http://coord:8337
    python -m repro.cluster.worker --once        # one lease, then exit

The agent registers (proving it runs the same source tree via
``pointcache.code_salt``), then loops: lease a batch of points,
simulate them with the exact engine entry point a local run uses
(:func:`repro.engine.parallel.run_spec`), upload the pickled results
keyed by fingerprint, repeat. The agent never touches the point cache:
the daemon that owns the run reads and writes it. A heartbeat thread
renews held leases every ``heartbeat_s`` (a third of the lease TTL,
pushed by the coordinator at registration) so a healthy worker never
loses a lease; a worker that dies simply stops heartbeating and the
coordinator requeues its points.

Graceful drain mirrors the daemon's SIGTERM story: the first SIGTERM /
SIGINT stops the agent at the next *point* boundary — points of the
current lease that never started are returned in the ``released`` field
of the final ``complete`` message and requeue without charging an
attempt.

Fault injection: the module sets ``REPRO_CLUSTER_WORKER=1``
(:data:`repro.cluster.protocol.WORKER_ENV_FLAG`) so an injected
``worker_crash`` (``REPRO_FAULT_SPEC``, :mod:`repro.engine.faults`)
hard-kills the agent process even when it simulates in-process — CI
uses this to kill a worker mid-lease and assert the fleet still
finishes bit-identically.

A lease runs through the engine's one attempt loop
(:func:`repro.engine.parallel.run_attempts`) on a
:class:`~repro.engine.parallel.PointPool` of ``--capacity`` workers
(default ``REPRO_WORKERS`` / CPU count): processes when > 1, one
in-process thread at ``--capacity 1``.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import protocol
from repro.engine import pointcache
from repro.engine.parallel import (
    PointPool,
    default_workers,
    run_attempts,
    run_spec,
)
from repro.obs import events as obs_events
from repro.serve.client import ServeClient, ServeError


class ClusterClient(ServeClient):
    """:class:`ServeClient` plus the ``/cluster/*`` endpoints.

    Doubles as the agent's HTTP transport — each method takes a
    protocol message dict and returns the parsed JSON reply.
    """

    def register(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/cluster/register", payload)

    def lease(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/cluster/lease", payload)

    def heartbeat(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/cluster/heartbeat", payload)

    def complete(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/cluster/complete", payload)

    def fail(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/cluster/fail", payload)

    def workers(self) -> List[Dict[str, Any]]:
        """``GET /workers`` — the coordinator's fleet listing."""
        return self._request("GET", "/workers")["workers"]


class LocalTransport:
    """In-process transport: an agent talks to the coordinator by direct
    method call, same message shapes (tests use it in place of HTTP)."""

    def __init__(self, coordinator) -> None:
        self.coordinator = coordinator

    def register(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.coordinator.register(payload)

    def lease(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.coordinator.lease(payload)

    def heartbeat(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.coordinator.heartbeat(payload)

    def complete(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.coordinator.complete(payload)

    def fail(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.coordinator.fail(payload)


class WorkerAgent:
    """The lease/simulate/upload loop behind ``python -m repro.cluster.worker``."""

    def __init__(
        self,
        transport,
        capacity: Optional[int] = None,
        once: bool = False,
        name: Optional[str] = None,
        simulate=None,
    ) -> None:
        self.transport = transport
        self.capacity = capacity if capacity is not None else default_workers()
        if self.capacity < 1:
            raise protocol.ProtocolError("worker capacity must be >= 1")
        self.once = once
        self.name = name
        # Injectable for tests; None means the real engine (with a
        # local pool when capacity > 1).
        self._simulate = simulate
        self._stop = threading.Event()
        self._draining = False
        self._lease_lock = threading.Lock()
        self._active_leases: set = set()
        self._pool: Optional[PointPool] = None
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._log = obs_events.get_event_log()
        self.worker_id: Optional[str] = None
        self.heartbeat_s = protocol.lease_ttl_s() / 3.0
        self.poll_s = protocol.POLL_S
        self.points_done = 0
        self.points_failed = 0
        self.leases_done = 0

    # -- lifecycle ------------------------------------------------------

    def drain(self) -> None:
        """Finish the current point, release the rest, then exit."""
        self._draining = True
        self._stop.set()

    def _register(self) -> None:
        reply = self.transport.register(
            protocol.register_request(
                code_salt=pointcache.code_salt(),
                capacity=self.capacity,
                host=socket.gethostname(),
                pid=os.getpid(),
                name=self.name,
            )
        )
        self.worker_id = reply["worker_id"]
        self.heartbeat_s = float(reply.get("heartbeat_s", self.heartbeat_s))
        self.poll_s = float(reply.get("poll_s", self.poll_s))
        self._log.info(
            "cluster.worker.registered",
            worker=self.worker_id,
            capacity=self.capacity,
            heartbeat_s=self.heartbeat_s,
        )

    def run(self) -> int:
        """Blocking agent loop; returns a process exit code."""
        self._register()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="cluster-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()
        try:
            while not self._stop.is_set():
                try:
                    grant = self.transport.lease(
                        protocol.lease_request(self.worker_id, self.capacity)
                    )
                except Exception as exc:
                    if not self._handle_transport_error("lease", exc):
                        return 1
                    continue
                points = grant.get("points") or []
                lease_id = grant.get("lease_id")
                if not lease_id or not points:
                    if grant.get("draining"):
                        self._log.info(
                            "cluster.worker.coordinator_draining",
                            worker=self.worker_id,
                        )
                        break
                    self._stop.wait(self.poll_s)
                    continue
                self._run_lease(lease_id, points)
                self.leases_done += 1
                if self.once:
                    break
        finally:
            self._stop.set()
            if self._heartbeat_thread is not None:
                self._heartbeat_thread.join(timeout=2)
            if self._pool is not None:
                self._pool.shutdown()
        self._log.info(
            "cluster.worker.exit",
            worker=self.worker_id,
            leases=self.leases_done,
            points=self.points_done,
            failed=self.points_failed,
            drained=self._draining,
        )
        return 0

    def _handle_transport_error(self, what: str, exc: Exception) -> bool:
        """Recover from a failed coordinator call; False = give up."""
        if isinstance(exc, protocol.UnknownWorker) or (
            isinstance(exc, ServeError) and exc.status == 404
        ):
            # Coordinator restarted and forgot us: re-register.
            self._log.warning(
                "cluster.worker.reregister", worker=self.worker_id, after=what
            )
            try:
                self._register()
                return True
            except Exception as register_exc:  # noqa: BLE001 - reported below
                exc = register_exc
        self._log.error(
            "cluster.worker.transport_error",
            worker=self.worker_id,
            call=what,
            error=f"{type(exc).__name__}: {exc}",
        )
        if self._stop.is_set():
            return False
        self._stop.wait(self.poll_s)
        return not self._stop.is_set()

    # -- heartbeats -----------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            with self._lease_lock:
                lease_ids = sorted(self._active_leases)
            try:
                self.transport.heartbeat(
                    protocol.heartbeat_request(self.worker_id, lease_ids)
                )
            except Exception as exc:
                # A missed heartbeat is recoverable until the lease TTL
                # runs out; keep trying rather than dying mid-lease.
                self._log.warning(
                    "cluster.worker.heartbeat_error",
                    worker=self.worker_id,
                    error=f"{type(exc).__name__}: {exc}",
                )

    # -- lease execution ------------------------------------------------

    def _decode(self, item: Dict[str, Any]) -> Tuple[str, Any]:
        fp = item.get("fingerprint")
        protocol.require(
            isinstance(fp, str) and isinstance(item.get("spec"), str),
            "lease point needs string 'fingerprint' and 'spec'",
        )
        spec = protocol.decode_payload(item["spec"])
        if pointcache.fingerprint(spec) != fp:
            raise protocol.ProtocolError(
                f"fingerprint mismatch for leased point {spec.label!r}"
            )
        return fp, spec

    def _run_lease(self, lease_id: str, points: List[Dict[str, Any]]) -> None:
        with self._lease_lock:
            self._active_leases.add(lease_id)
        results: List[Dict[str, str]] = []
        failures: List[Dict[str, str]] = []
        released: List[str] = []
        t0 = time.perf_counter()
        try:
            decoded = [self._decode(item) for item in points]
            self._execute(decoded, results, failures, released)
        except Exception as exc:
            # A lease-level fault (undecodable point, pool setup): abort
            # the whole lease so the coordinator can fail/requeue it.
            try:
                self.transport.fail(
                    protocol.fail_request(
                        self.worker_id,
                        lease_id,
                        f"{type(exc).__name__}: {exc}",
                    )
                )
            except Exception:
                pass  # the lease TTL is the backstop
            self._log.error(
                "cluster.worker.lease_abort",
                worker=self.worker_id,
                lease=lease_id,
                error=f"{type(exc).__name__}: {exc}",
            )
            return
        finally:
            with self._lease_lock:
                self._active_leases.discard(lease_id)
        try:
            self.transport.complete(
                protocol.complete_request(
                    self.worker_id, lease_id, results, failures, released
                )
            )
        except Exception as exc:
            self._log.error(
                "cluster.worker.upload_error",
                worker=self.worker_id,
                lease=lease_id,
                error=f"{type(exc).__name__}: {exc}",
            )
            return
        self._log.info(
            "cluster.lease.done",
            worker=self.worker_id,
            lease=lease_id,
            results=len(results),
            failures=len(failures),
            released=len(released),
            wall_s=time.perf_counter() - t0,
        )

    def _execute(
        self,
        decoded: List[Tuple[str, Any]],
        results: List[Dict[str, str]],
        failures: List[Dict[str, str]],
        released: List[str],
    ) -> None:
        """Run a lease's points through the engine's attempt loop.

        One attempt each: the coordinator charges and retries a failed
        point, so the loop here retries only attempts that never ran.
        A drain stops at the next point boundary; the points it skips
        are released, uncharged.
        """
        if self._pool is None:
            # An injected simulate stays in-process (it need not pickle).
            self._pool = PointPool(self.capacity if self._simulate is None else 1)
        pool = self._pool
        simulate = self._simulate if self._simulate is not None else run_spec
        specs = [spec for _, spec in decoded]
        outcomes: List[Any] = [None] * len(specs)
        errors: Dict[int, str] = {}
        run_attempts(
            specs,
            lambda i: ("simulated", pool.submit(simulate, specs[i])),
            outcomes, [0] * len(specs), errors,
            retries=0,
            backoff=0.0,
            timeout=None,
            capacity=pool.workers,
            interrupted=lambda: self._draining,
        )
        for i, (fp, _spec) in enumerate(decoded):
            if outcomes[i] is not None:
                self.points_done += 1
                results.append(
                    {
                        "fingerprint": fp,
                        "payload": protocol.encode_payload(outcomes[i]),
                    }
                )
            elif i in errors:
                self.points_failed += 1
                failures.append({"fingerprint": fp, "error": errors[i]})
            else:
                released.append(fp)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="Worker agent for a repro.serve cluster coordinator.",
    )
    parser.add_argument(
        "--coordinator",
        default="http://127.0.0.1:8337",
        help="coordinator base URL (default %(default)s)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="points per lease and local pool size "
        "(default: REPRO_WORKERS, else the CPU count)",
    )
    parser.add_argument(
        "--name", default=None, help="human-readable name shown in /workers"
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="process exactly one lease, then exit (debugging)",
    )
    args = parser.parse_args(argv)
    # Mark this process as a cluster worker so an injected worker_crash
    # fault hard-kills it even on the in-process (capacity=1) path.
    os.environ[protocol.WORKER_ENV_FLAG] = "1"
    agent = WorkerAgent(
        ClusterClient(args.coordinator),
        capacity=args.capacity,
        once=args.once,
        name=args.name,
    )
    signal.signal(signal.SIGTERM, lambda *_: agent.drain())
    signal.signal(signal.SIGINT, lambda *_: agent.drain())
    try:
        return agent.run()
    except ServeError as exc:
        print(f"cluster worker: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
