"""HTTP/JSON front-end for the job scheduler (stdlib only).

API (all bodies JSON unless noted):

========  ======================  =======================================
Method    Path                    Meaning
========  ======================  =======================================
POST      /jobs                   submit a job (201; 400 bad request;
                                  429 tenant quota / rate exceeded —
                                  the body names the tenant, its
                                  limit, and current usage)
GET       /jobs                   list job snapshots
GET       /jobs/<id>              one job's state + progress (410
                                  once a finished job is pruned)
GET       /jobs/<id>/result       finished job's result (shared schema;
                                  409 until the job is done)
GET       /jobs/<id>/events       cursor-based event polling
                                  (``?cursor=N``)
DELETE    /jobs/<id>              cancel
GET       /healthz                liveness + job counts + backend
GET       /metrics                Prometheus text (``text/plain``)
GET       /workers                cluster fleet listing (404 when the
                                  backend is ``local``)
POST      /cluster/register       cluster work-lease protocol
POST      /cluster/lease          (DESIGN.md §10; bodies built by
POST      /cluster/heartbeat      ``repro.cluster.protocol``; served
POST      /cluster/complete       only with ``--backend cluster``)
POST      /cluster/fail
========  ======================  =======================================

``python -m repro.serve`` runs :func:`main`. The server is a
``ThreadingHTTPServer``: every request handler only touches the
scheduler through its lock-guarded methods, so concurrent polls and
submissions are safe.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigError
from repro.obs import events as obs_events
from repro.obs.metrics import MetricsRegistry
from repro.sched.policy import POLICIES
from repro.serve.jobs import BadRequest, parse_job_request
from repro.serve.scheduler import (
    BACKENDS,
    DEFAULT_MAX_CONCURRENT_JOBS,
    DEFAULT_QUEUE_LIMIT,
    JobPruned,
    JobScheduler,
    QueueFull,
    UnknownJob,
)

DEFAULT_PORT = 8337
MAX_BODY_BYTES = 4 * 1024 * 1024


class ServeServer(ThreadingHTTPServer):
    """HTTP server owning the scheduler and metrics registry."""

    daemon_threads = True

    def __init__(self, address, scheduler: JobScheduler) -> None:
        super().__init__(address, ServeHandler)
        self.scheduler = scheduler
        self.registry = scheduler.registry
        self.started_unix = time.time()


class ServeHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:
        # Route access logs through the structured event log (quiet by
        # default, durable with REPRO_LOG_FILE) instead of raw stderr.
        obs_events.get_event_log().debug(
            "serve.http", request=fmt % args, client=self.client_address[0]
        )

    def _send(
        self,
        status: int,
        payload: Any = None,
        content_type: str = "application/json",
    ) -> None:
        if content_type == "application/json":
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        else:
            body = payload.encode() if isinstance(payload, str) else payload
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _pruned(self, exc: JobPruned) -> None:
        self._error(
            410,
            f"job {exc.args[0]!r} finished and was pruned: the daemon "
            "keeps only its most recently finished jobs",
        )

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise BadRequest("a JSON body is required")
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}")

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {
            k: v[-1] for k, v in parse_qs(parsed.query).items()
        }
        return parsed.path.rstrip("/") or "/", query

    # -- methods --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path, query = self._route()
        try:
            if path == "/healthz":
                return self._healthz()
            if path == "/metrics":
                return self._send(
                    200,
                    self.server.registry.render_text(),
                    content_type="text/plain; version=0.0.4",
                )
            if path == "/jobs":
                return self._send(
                    200,
                    {"jobs": [j.snapshot() for j in self.server.scheduler.jobs()]},
                )
            if path == "/workers":
                coordinator = self.server.scheduler.coordinator
                if coordinator is None:
                    return self._error(
                        404,
                        "cluster backend not enabled "
                        "(start the daemon with --backend cluster)",
                    )
                stats = coordinator.stats()
                return self._send(
                    200,
                    {
                        "backend": self.server.scheduler.backend,
                        "workers": coordinator.workers_snapshot(),
                        "pending_points": stats["pending_points"],
                        "active_leases": stats["active_leases"],
                        "draining": stats["draining"],
                        "policy": stats["policy"],
                        "pending_by_tenant": stats["pending_by_tenant"],
                    },
                )
            parts = path.strip("/").split("/")
            if len(parts) >= 2 and parts[0] == "jobs":
                job = self.server.scheduler.get(parts[1])
                if len(parts) == 2:
                    return self._send(200, job.snapshot())
                if len(parts) == 3 and parts[2] == "result":
                    snapshot = job.snapshot()
                    if snapshot["state"] != "done":
                        return self._send(
                            409,
                            {
                                "error": f"job is {snapshot['state']}, not done",
                                "state": snapshot["state"],
                            },
                        )
                    return self._send(200, job.result_dict())
                if len(parts) == 3 and parts[2] == "events":
                    try:
                        cursor = int(query.get("cursor", "0"))
                    except ValueError:
                        raise BadRequest("'cursor' must be an integer")
                    events, next_cursor = job.events_since(cursor)
                    return self._send(
                        200, {"events": events, "cursor": next_cursor}
                    )
            return self._error(404, f"no route for GET {path}")
        except JobPruned as exc:
            return self._pruned(exc)
        except UnknownJob as exc:
            return self._error(404, f"unknown job {exc.args[0]!r}")
        except BadRequest as exc:
            return self._error(400, str(exc))
        except ConfigError as exc:
            return self._error(409, str(exc))

    def do_POST(self) -> None:  # noqa: N802
        path, _query = self._route()
        if path.startswith("/cluster/"):
            return self._cluster_post(path)
        if path != "/jobs":
            return self._error(404, f"no route for POST {path}")
        try:
            request = parse_job_request(self._read_json())
            job = self.server.scheduler.submit(request)
        except BadRequest as exc:
            return self._error(400, str(exc))
        except QueueFull as exc:
            # Per-tenant rejections (QuotaExceeded / RateLimited) carry
            # structured context; surface it so clients can tell *whose*
            # limit fired and how far over it they are.
            body: Dict[str, Any] = {"error": str(exc)}
            for attr in ("tenant", "quota", "rate", "usage"):
                value = getattr(exc, attr, None)
                if value is not None:
                    body[attr] = value
            return self._send(429, body)
        return self._send(201, job.snapshot())

    def _cluster_post(self, path: str) -> None:
        """Dispatch a work-lease protocol message to the coordinator."""
        from repro.cluster import protocol

        coordinator = self.server.scheduler.coordinator
        if coordinator is None:
            return self._error(
                404,
                "cluster backend not enabled "
                "(start the daemon with --backend cluster)",
            )
        handlers = {
            "/cluster/register": coordinator.register,
            "/cluster/lease": coordinator.lease,
            "/cluster/heartbeat": coordinator.heartbeat,
            "/cluster/complete": coordinator.complete,
            "/cluster/fail": coordinator.fail,
        }
        handler = handlers.get(path)
        if handler is None:
            return self._error(404, f"no route for POST {path}")
        try:
            reply = handler(self._read_json())
        except BadRequest as exc:
            return self._error(400, str(exc))
        except protocol.SaltMismatch as exc:
            return self._error(409, str(exc))
        except protocol.ProtocolError as exc:
            return self._error(400, str(exc))
        except protocol.UnknownWorker as exc:
            return self._error(404, f"unknown worker {exc.args[0]!r}")
        return self._send(200, reply)

    def do_DELETE(self) -> None:  # noqa: N802
        path, _query = self._route()
        parts = path.strip("/").split("/")
        if len(parts) != 2 or parts[0] != "jobs":
            return self._error(404, f"no route for DELETE {path}")
        try:
            job = self.server.scheduler.cancel(parts[1])
        except JobPruned as exc:
            return self._pruned(exc)
        except UnknownJob as exc:
            return self._error(404, f"unknown job {exc.args[0]!r}")
        return self._send(200, job.snapshot())

    def _healthz(self) -> None:
        scheduler = self.server.scheduler
        payload = {
            "ok": True,
            "status": "draining" if scheduler.draining else "ok",
            "uptime_seconds": time.time() - self.server.started_unix,
            "workers": scheduler.workers,
            "backend": scheduler.backend,
            "policy": scheduler.policy,
            "jobs": scheduler.counts(),
            "tenants": scheduler.tenant_stats(),
        }
        if scheduler.coordinator is not None:
            payload["cluster"] = scheduler.coordinator.stats()
        self._send(200, payload)


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    scheduler: Optional[JobScheduler] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ServeServer:
    """Build (but don't start) a server; ``port=0`` picks an ephemeral one.

    The caller owns the lifecycle: ``scheduler.start()``,
    ``serve_forever()`` (usually on a thread), then ``shutdown()`` +
    ``scheduler.stop()``.
    """
    if scheduler is None:
        scheduler = JobScheduler(registry=registry)
    return ServeServer((host, port), scheduler)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Simulation-as-a-service daemon over the repro engine.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="simulation worker processes (default: REPRO_WORKERS or CPUs)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=DEFAULT_QUEUE_LIMIT,
        help="max jobs waiting before submissions get 429",
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=DEFAULT_MAX_CONCURRENT_JOBS,
        help="jobs executing concurrently (they share the worker pool)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds SIGTERM waits for running jobs to reach a point "
        "boundary before the server exits",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="local",
        help="execution backend: 'local' uses this host's pool, "
        "'cluster' leases every point to repro.cluster.worker agents "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--policy",
        choices=POLICIES,
        default=None,
        help="scheduling policy for jobs and cluster points "
        "(default: REPRO_SCHED_POLICY or 'priority'); 'wfq' is "
        "weighted-fair across tenants (weights via REPRO_TENANTS)",
    )
    args = parser.parse_args(argv)
    scheduler = JobScheduler(
        workers=args.workers,
        queue_limit=args.queue_limit,
        max_concurrent_jobs=args.max_jobs,
        backend=args.backend,
        policy=args.policy,
    )
    server = create_server(args.host, args.port, scheduler=scheduler)
    scheduler.start()
    host, port = server.server_address[:2]
    log = obs_events.get_event_log()

    def _drain_and_exit(signum, _frame) -> None:
        # serve_forever() deadlocks if shutdown() is called from its own
        # thread, and a signal handler runs on the main thread (which is
        # inside serve_forever) — so the drain runs on a helper thread.
        def drain() -> None:
            log.emit(
                "serve.sigterm", force=True, signal=signum, host=host, port=port
            )
            scheduler.drain()
            scheduler.wait_idle(timeout=args.drain_timeout)
            server.shutdown()

        threading.Thread(target=drain, name="serve-drain", daemon=True).start()

    try:
        # Non-main-thread entry (tests embedding main()) can't install
        # signal handlers; graceful drain is then the caller's job.
        signal.signal(signal.SIGTERM, _drain_and_exit)
    except ValueError:
        pass
    log.emit(
        "serve.start",
        force=True,
        host=host,
        port=port,
        workers=scheduler.workers,
        backend=scheduler.backend,
        policy=scheduler.policy,
        queue_limit=scheduler.queue_limit,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        scheduler.stop(wait=False)
        log.emit("serve.stop", force=True, host=host, port=port)
    return 0


if __name__ == "__main__":
    sys.exit(main())
