"""Simulation-as-a-service: an HTTP daemon over the experiment engine.

``python -m repro.serve`` starts a stdlib-only daemon (DESIGN.md §8)
that accepts jobs — a named experiment grid like ``fig1`` or an
explicit point list — schedules them by priority with bounded-queue
admission control, dedups identical points across concurrently running
jobs (keyed by the point cache's content fingerprint), executes them
through the attempt loop ``run_points`` uses (bit-identical results,
same run manifests), and serves results in the same JSON
schema as ``python -m repro.experiments <fig> --json``.

Layers:

* :mod:`repro.serve.jobs` — job model, request validation, the shared
  result schema;
* :mod:`repro.serve.scheduler` — priority queue, admission control,
  cancellation, cross-job in-flight dedup, executor fan-out;
* :mod:`repro.serve.app` — the HTTP/JSON API (`POST /jobs`,
  ``GET /jobs/<id>``, ``.../result``, ``.../events``, ``DELETE``,
  ``/healthz``, ``/metrics``);
* :mod:`repro.serve.client` — a stdlib client used by tests and CI.

With ``--backend cluster`` the daemon doubles as the
coordinator of a :mod:`repro.cluster` worker fleet: fresh points go to
a lease queue that ``python -m repro.cluster.worker`` agents drain over
the same HTTP server (DESIGN.md §10).
"""

from repro.serve.app import ServeServer, create_server, main
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import (
    BadRequest,
    Job,
    JobRequest,
    parse_job_request,
)
from repro.serve.scheduler import (
    BACKENDS,
    JobPruned,
    JobScheduler,
    QueueFull,
    UnknownJob,
)

__all__ = [
    "BACKENDS",
    "BadRequest",
    "Job",
    "JobPruned",
    "JobRequest",
    "JobScheduler",
    "QueueFull",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "UnknownJob",
    "create_server",
    "main",
    "parse_job_request",
]
