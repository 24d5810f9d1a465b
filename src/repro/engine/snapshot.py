"""Content-addressed warm-state snapshots (DESIGN.md §14).

Every grid point pays a full cache warmup before its measured window.
This module keys end-of-warmup simulator state by a *warmup
fingerprint* (a hash over only the config fields that influence state
up to the end of warmup) and stores it in the point cache's generation
directory. A later point with the same fingerprint, in a later run or
a later ``run_points`` call (a rerun that changes only
``REPRO_MEASURE``, say), misses the point cache but restores the stored
warmup and simulates only its measured window. Within one run nothing
waits for a snapshot: a serial run acquires each point after the
previous one stored its state, parallel attempts simply race.

Determinism contract: a restored point is bit-identical to one that
re-simulated its warmup, per engine (the object and SoA engines key
separate snapshots because their native state layouts differ). The
restore is all-or-nothing: every field is validated against the live
simulator before anything is mutated, and any mismatch falls back to a
normal warmup with a logged ``snapshot.fallback`` event. Observer
and collocated points deterministically opt out (never capture, never
restore; collocated points carry X-Mem state). For observer points the
observer only activates after warmup, but no two figS points share a
warmup, so snapshots would buy them nothing, and restored == full has
never been checked for them (DESIGN.md §14). Burst points
restore exactly — the burst profile is part of the warmup fingerprint
and the mutated backlog target is part of the captured state.

Knobs: ``REPRO_SNAPSHOTS=0`` disables snapshots (default on); they are
only active when the point cache is (``REPRO_NO_CACHE`` unset).
Snapshots live under
``<cache_dir>/<generation>/snapshots/<warmup_fp>.<engine>.snap``, are
written and read by the point cache's own helpers, count toward
``REPRO_CACHE_MAX_MB``, are pruned LRU alongside point entries (loads
refresh mtime), and are garbage-collected with their code generation.
"""

from __future__ import annotations

import os
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, Optional

from repro.engine import pointcache

SNAP_SUBDIR = "snapshots"


def snapshots_enabled() -> bool:
    """``REPRO_SNAPSHOTS`` (default on), gated on the point cache."""
    if os.environ.get("REPRO_SNAPSHOTS", "") == "0":
        return False
    return pointcache.cache_enabled()


def opts_out(spec: Any) -> bool:
    """Whether ``spec`` never captures or restores warm state: observer
    points (see the module docstring) and collocated points, whose
    ``CollocationSimulator`` carries X-Mem state the blob does not
    model."""
    return (
        getattr(spec, "observer", None) is not None
        or getattr(spec, "colocation", None) is not None
    )


def eligible(spec: Any) -> bool:
    """Whether ``spec`` participates in warm-state sharing.

    Points that :func:`opts_out` never do; specs without a
    ``warmup_key`` (foreign spec types fed through the serve scheduler)
    are simply not shareable.
    """
    if not snapshots_enabled() or opts_out(spec):
        return False
    return hasattr(spec, "warmup_key")


def warmup_fingerprint(spec: Any) -> str:
    """Content address of the config prefix up to end-of-warmup.

    Code-salted like :func:`repro.engine.pointcache.fingerprint`, with a
    domain separator so a warmup fingerprint can never collide with a
    point fingerprint even for a degenerate ``cache_key``.
    """
    digest = sha256()
    digest.update(pointcache.code_salt().encode())
    digest.update(b"\0warmup\0")
    digest.update(spec.warmup_key().encode())
    return digest.hexdigest()


def snapshot_path(wfp: str, engine: str) -> Path:
    return pointcache.generation_dir() / SNAP_SUBDIR / f"{wfp}.{engine}.snap"


def load_state(wfp: str, engine: str) -> Optional[Dict[str, Any]]:
    """Unpickled warm state for ``wfp``, or None on a miss.

    Read by :func:`pointcache.read_entry`: a damaged or foreign entry is
    a miss, so the caller warms up normally and overwrites it.
    """
    return pointcache.read_entry(
        snapshot_path(wfp, engine),
        lambda state: isinstance(state, dict) and "version" in state,
    )


def store_state(wfp: str, engine: str, state: Dict[str, Any]) -> None:
    """Persist warm state atomically (:func:`pointcache.write_entry`)."""
    pointcache.write_entry(snapshot_path(wfp, engine), state)
