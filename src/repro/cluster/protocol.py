"""Versioned JSON wire schema for the cluster work-lease protocol.

The coordinator (the ``repro.serve`` daemon running with
``--backend cluster``) and ``python -m repro.cluster.worker`` agents
speak five messages, all JSON over the daemon's existing HTTP server
(DESIGN.md §10):

========  =======================  ===================================
Method    Path                     Meaning
========  =======================  ===================================
POST      /cluster/register        join the fleet; returns worker_id +
                                   the coordinator's lease/heartbeat
                                   configuration
POST      /cluster/lease           pull a batch of pending points
POST      /cluster/heartbeat       renew the deadlines of held leases
POST      /cluster/complete        upload results / per-point failures
                                   / released (unstarted) points
POST      /cluster/fail            abort a whole lease with one error
========  =======================  ===================================

Every body carries ``protocol: PROTOCOL_VERSION``; a version the
coordinator does not speak is rejected up front rather than
half-parsed. Adding or dropping informational reply fields is
compatible within a version (leased points carry ``tenant``, for
instance); workers ignore fields they do not read. Registration also
carries the worker's :func:`repro.engine.pointcache.code_salt`: results
are only bit-identical to a local run when coordinator and worker run
the exact same source tree, so a salt mismatch is a hard 409 — never a
silently wrong figure.

Point specs and results travel as base64-encoded pickles
(:func:`encode_payload` / :func:`decode_payload`) keyed by the point
cache fingerprint, which both sides recompute and verify. Pickle is
acceptable here for the same reason it is in the process pool: the
fleet is one trust domain running one code version (enforced by the
salt check) — the cluster protocol is an extension of the executor
seam, not a public API.

Fleet-tuning knobs (both read by the **coordinator**, which pushes the
values to workers in the registration reply, so one place configures
the fleet):

* ``REPRO_CLUSTER_LEASE_TTL_S`` — lease deadline; a lease not
  heartbeat-renewed within this window expires and its points requeue
  (default 15). Workers heartbeat every ``ttl / 3``;
* ``REPRO_CLUSTER_BATCH`` — max points per lease (default 4).

An idle worker re-polls an empty queue every :data:`POLL_S` seconds.
"""

from __future__ import annotations

import base64
import os
import pickle
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError

#: bump on any incompatible wire change; both sides compare exactly.
PROTOCOL_VERSION = 1

DEFAULT_LEASE_TTL_S = 15.0
DEFAULT_BATCH = 4
#: worker idle re-poll interval when the queue is empty, in seconds.
POLL_S = 0.5

#: environment flag a worker *process* sets so an injected
#: ``worker_crash`` fault hard-kills the agent even when it simulates
#: in-process (see :mod:`repro.engine.faults`).
WORKER_ENV_FLAG = "REPRO_CLUSTER_WORKER"


class ProtocolError(ConfigError):
    """A malformed or incompatible cluster message (HTTP 400)."""


class UnknownWorker(KeyError):
    """A message referenced a worker_id the coordinator does not know
    (HTTP 404; the worker should re-register)."""


class SaltMismatch(ConfigError):
    """Worker and coordinator run different source trees (HTTP 409)."""


def lease_ttl_s() -> float:
    """Lease deadline from ``REPRO_CLUSTER_LEASE_TTL_S`` (default 15)."""
    raw = os.environ.get("REPRO_CLUSTER_LEASE_TTL_S", "").strip()
    if not raw:
        return DEFAULT_LEASE_TTL_S
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_CLUSTER_LEASE_TTL_S must be a number, got {raw!r}"
        )
    if value <= 0:
        raise ConfigError("REPRO_CLUSTER_LEASE_TTL_S must be > 0")
    return value


def batch_size() -> int:
    """Max points per lease from ``REPRO_CLUSTER_BATCH`` (default 4)."""
    raw = os.environ.get("REPRO_CLUSTER_BATCH", "").strip()
    if not raw:
        return DEFAULT_BATCH
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"REPRO_CLUSTER_BATCH must be an integer, got {raw!r}")
    if value < 1:
        raise ConfigError("REPRO_CLUSTER_BATCH must be >= 1")
    return value


# -- payload transport ----------------------------------------------------


def encode_payload(obj: Any) -> str:
    """Pickle ``obj`` and wrap it for a JSON string field."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_payload(text: str) -> Any:
    """Invert :func:`encode_payload`; raises ProtocolError when mangled."""
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as exc:
        raise ProtocolError(f"undecodable payload: {type(exc).__name__}: {exc}")


# -- message validation ---------------------------------------------------


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def check_version(payload: Any) -> Dict[str, Any]:
    """Common envelope check for every cluster message body."""
    require(isinstance(payload, dict), "cluster message must be a JSON object")
    version = payload.get("protocol")
    require(
        version == PROTOCOL_VERSION,
        f"unsupported cluster protocol {version!r}; "
        f"this coordinator speaks {PROTOCOL_VERSION}",
    )
    return payload


def worker_id_of(payload: Dict[str, Any]) -> str:
    worker_id = payload.get("worker_id")
    require(
        isinstance(worker_id, str) and bool(worker_id),
        "'worker_id' must be a non-empty string",
    )
    return worker_id


def string_list(payload: Dict[str, Any], key: str) -> List[str]:
    value = payload.get(key, [])
    require(
        isinstance(value, list) and all(isinstance(v, str) for v in value),
        f"{key!r} must be a list of strings",
    )
    return value


# -- message builders (worker side) ---------------------------------------


def register_request(
    code_salt: str, capacity: int, host: str, pid: int, name: Optional[str] = None
) -> Dict[str, Any]:
    return {
        "protocol": PROTOCOL_VERSION,
        "code_salt": code_salt,
        "capacity": capacity,
        "host": host,
        "pid": pid,
        "name": name,
    }


def lease_request(worker_id: str, capacity: int) -> Dict[str, Any]:
    return {
        "protocol": PROTOCOL_VERSION,
        "worker_id": worker_id,
        "capacity": capacity,
    }


def heartbeat_request(worker_id: str, lease_ids: List[str]) -> Dict[str, Any]:
    return {
        "protocol": PROTOCOL_VERSION,
        "worker_id": worker_id,
        "lease_ids": list(lease_ids),
    }


def complete_request(
    worker_id: str,
    lease_id: str,
    results: List[Dict[str, str]],
    failures: Optional[List[Dict[str, str]]] = None,
    released: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """``results``: ``[{"fingerprint", "payload"}]`` (payload = pickled
    PointResult); ``failures``: ``[{"fingerprint", "error"}]``;
    ``released``: fingerprints of points the worker never started
    (drain) — requeued without charging an attempt."""
    return {
        "protocol": PROTOCOL_VERSION,
        "worker_id": worker_id,
        "lease_id": lease_id,
        "results": results,
        "failures": failures or [],
        "released": released or [],
    }


def fail_request(worker_id: str, lease_id: str, error: str) -> Dict[str, Any]:
    return {
        "protocol": PROTOCOL_VERSION,
        "worker_id": worker_id,
        "lease_id": lease_id,
        "error": error,
    }
