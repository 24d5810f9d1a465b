"""Run manifests: every grid execution becomes an inspectable artifact.

``run_points`` writes ``<runs_dir>/<run_id>/manifest.json`` describing
the run end to end: the full configuration of every point (the system
``repr`` and workload cache key — the same identity the point cache
fingerprints), seeds, request counts, cache-hit provenance, per-point
and total wall/sim time, the code hash (reusing the pointcache salt, so
a manifest pins the exact source state), and host info. Timeline JSONL
files for points simulated with ``REPRO_EPOCH`` live next to the
manifest and are referenced by relative path.

Environment knobs:

* ``REPRO_RUNS_DIR`` — root for run directories (default
  ``results/runs``);
* ``REPRO_NO_MANIFEST=1`` — disable manifest writing entirely.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import tempfile
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError

MANIFEST_SCHEMA_VERSION = 2
#: schema versions :meth:`RunManifest.from_dict` still accepts (v1
#: manifests predate fault tolerance and default to ``status: done``).
COMPATIBLE_SCHEMAS = (1, 2)
DEFAULT_RUNS_DIR = Path("results") / "runs"

#: run-level outcomes (schema v2). ``partial`` means the run stopped at
#: a point boundary with work remaining (daemon drain).
MANIFEST_STATUSES = ("done", "partial", "failed", "cancelled")
#: per-point outcomes: ``skipped`` points never got a completed attempt
#: before the run ended.
POINT_STATUSES = ("done", "failed", "skipped")

#: REPRO_* knobs recorded in every manifest for reproducibility.
_ENV_KEYS = (
    "REPRO_SCALE",
    "REPRO_MEASURE",
    "REPRO_WORKERS",
    "REPRO_EPOCH",
    "REPRO_LOG",
    "REPRO_LOG_LEVEL",
    "REPRO_NO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_MAX_MB",
    "REPRO_LOG_FILE",
    "REPRO_RUNS_DIR",
    "REPRO_RETRIES",
    "REPRO_RETRY_BACKOFF_S",
    "REPRO_POINT_TIMEOUT_S",
    "REPRO_FAULT_SPEC",
    "REPRO_FAULT_STATE",
    "REPRO_CLUSTER_LEASE_TTL_S",
    "REPRO_CLUSTER_BATCH",
    "REPRO_SERVE_TIMEOUT_S",
    "REPRO_ENGINE",
    "REPRO_NATIVE_DIR",
    "REPRO_SNAPSHOTS",
    "REPRO_SCHED_POLICY",
    "REPRO_TENANTS",
)


def manifests_enabled() -> bool:
    return os.environ.get("REPRO_NO_MANIFEST", "") != "1"


def runs_dir() -> Path:
    env = os.environ.get("REPRO_RUNS_DIR")
    return Path(env) if env else DEFAULT_RUNS_DIR


def new_run_id(run_label: Optional[str] = None) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    suffix = uuid.uuid4().hex[:6]
    prefix = f"{_slug(run_label)}-" if run_label else ""
    return f"{prefix}{stamp}-{suffix}"


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in text)


def host_info() -> Dict[str, Any]:
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


@dataclass
class PointRecord:
    """Provenance of one grid point inside a run."""

    label: str
    fingerprint: str
    system: str  # repr of the frozen SystemConfig tree (full config)
    workload: str  # the workload's cache_key
    policy: str
    sweeper: bool
    nic_tx_sweep: bool
    queued_depth: int
    seed: int
    warmup_requests: Optional[int]
    measure_requests: Optional[int]
    from_cache: bool = False
    sim_seconds: float = 0.0
    timeline_file: Optional[str] = None
    #: manifest-relative path of the probe JSONL for observer points
    #: freshly simulated in this run (None otherwise). Defaulted, like
    #: ``observer``/``probe_seed``/``burst``, so pre-observer manifests
    #: still load.
    probe_file: Optional[str] = None
    #: ``repr`` of the point's ObserverConfig (None = no observer).
    observer: Optional[str] = None
    #: the observer's probe seed, surfaced for at-a-glance provenance.
    probe_seed: Optional[int] = None
    #: ``repr`` of the point's BurstProfile (None = constant load).
    burst: Optional[str] = None
    status: str = "done"  # done | failed | skipped
    error: Optional[str] = None  # last error when status == "failed"
    attempts: int = 1  # how many times the point was tried
    #: cluster worker that simulated the point (None = local / cached).
    worker_id: Optional[str] = None
    #: hash of the config prefix up to end-of-warmup (DESIGN.md §14);
    #: None for observer points, which opt out of warm-state sharing.
    warmup_fingerprint: Optional[str] = None
    #: True when the measured window was forked off a restored
    #: warm-state snapshot instead of a simulated warmup. Defaulted so
    #: pre-snapshot manifests still load.
    warm_restored: bool = False


@dataclass
class RunManifest:
    """One ``run_points`` execution, serialized to ``manifest.json``."""

    run_id: str
    schema: int = MANIFEST_SCHEMA_VERSION
    run_label: Optional[str] = None
    created_unix: float = 0.0
    code_salt: str = ""
    workers: int = 1
    host: Dict[str, Any] = field(default_factory=dict)
    env: Dict[str, str] = field(default_factory=dict)
    wall_seconds: float = 0.0
    sim_seconds_total: float = 0.0
    status: str = "done"  # done | partial | failed | cancelled
    #: trace engine the run was simulated with (``REPRO_ENGINE``); the
    #: engines are bit-identical, so this is provenance, not identity.
    engine: str = "object"
    #: tenant whose submission produced this run (DESIGN.md §15).
    #: Defaulted so pre-tenancy manifests still load.
    tenant: str = "default"
    points: List[PointRecord] = field(default_factory=list)

    @classmethod
    def create(
        cls, run_label: Optional[str] = None, workers: int = 1
    ) -> "RunManifest":
        # deferred import: repro.engine.batch pulls numpy and the cache
        # layer in, which the obs package otherwise never needs
        from repro.engine.batch import engine_from_env

        return cls(
            run_id=new_run_id(run_label),
            run_label=run_label,
            created_unix=time.time(),
            workers=workers,
            host=host_info(),
            env={k: os.environ[k] for k in _ENV_KEYS if k in os.environ},
            engine=engine_from_env(),
        )

    @property
    def cached_points(self) -> int:
        return sum(1 for p in self.points if p.from_cache)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def write(self, path: Path) -> None:
        """Atomic JSON write (temp file + rename), like the point cache."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(payload + "\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        if not isinstance(data, dict):
            raise ConfigError("manifest must be a JSON object")
        if data.get("schema") not in COMPATIBLE_SCHEMAS:
            raise ConfigError(
                f"manifest schema {data.get('schema')!r} not in "
                f"{COMPATIBLE_SCHEMAS}"
            )
        raw_points = data.get("points", [])
        if not isinstance(raw_points, list):
            raise ConfigError("manifest 'points' must be a list")
        points = [PointRecord(**p) for p in raw_points]
        fields = {k: v for k, v in data.items() if k != "points"}
        try:
            return cls(points=points, **fields)
        except TypeError as exc:
            raise ConfigError(f"malformed manifest: {exc}")

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        try:
            with Path(path).open("r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read manifest {path}: {exc}")
        return cls.from_dict(data)


def validate_manifest(manifest: RunManifest, where: str = "manifest") -> None:
    """Structural checks beyond what parsing already guarantees."""
    if not manifest.run_id:
        raise ConfigError(f"{where}: empty run_id")
    if not manifest.code_salt:
        raise ConfigError(f"{where}: missing code_salt")
    if manifest.status not in MANIFEST_STATUSES:
        raise ConfigError(
            f"{where}: status {manifest.status!r} not in {MANIFEST_STATUSES}"
        )
    labels = [p.label for p in manifest.points]
    if len(labels) != len(set(labels)):
        raise ConfigError(f"{where}: duplicate point labels")
    for p in manifest.points:
        if not p.fingerprint:
            raise ConfigError(f"{where}: point {p.label!r} missing fingerprint")
        if p.sim_seconds < 0:
            raise ConfigError(f"{where}: point {p.label!r} negative sim time")
        if p.status not in POINT_STATUSES:
            raise ConfigError(
                f"{where}: point {p.label!r} status {p.status!r} not in "
                f"{POINT_STATUSES}"
            )
        if p.status == "failed" and not p.error:
            raise ConfigError(
                f"{where}: failed point {p.label!r} missing error record"
            )
        if p.attempts < 1:
            raise ConfigError(
                f"{where}: point {p.label!r} attempts must be >= 1"
            )
    if manifest.status == "done" and any(
        p.status != "done" for p in manifest.points
    ):
        raise ConfigError(
            f"{where}: status 'done' but not every point is done"
        )
