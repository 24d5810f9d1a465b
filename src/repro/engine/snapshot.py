"""Content-addressed warm-state snapshots (DESIGN.md §14).

Every grid point pays a full cache warmup before its measured window,
yet the points of one figure usually differ only in a measure-phase
knob (DDIO way mask, measure length). This module keys end-of-warmup
simulator state by a *warmup fingerprint* — a hash over only the config
fields that influence state up to the end of warmup — and stores the
pickled state in the point cache's generation directory, so a fig5
sweep over 8 way masks simulates warmup once and forks the other 7
measured windows off restored state, and a re-run after a
one-parameter edit only simulates the delta.

Determinism contract: a restored point is bit-identical to one that
re-simulated its warmup, per engine (the object and SoA engines key
separate snapshots because their native state layouts differ). The
restore is all-or-nothing — every field is validated against the live
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
``<cache_dir>/<generation>/snapshots/<warmup_fp>.<engine>.snap``,
count toward ``REPRO_CACHE_MAX_MB``, are pruned LRU alongside point
entries (loads refresh mtime), and are garbage-collected with their
code generation.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.engine import pointcache

SNAP_SUBDIR = "snapshots"

#: process-local metrics; the cross-process metric is the manifest's
#: per-point ``warm_restored`` flag (workers don't share this dict).
counters: Dict[str, int] = {"captured": 0, "restored": 0, "fallbacks": 0}


def reset_counters() -> None:
    for key in counters:
        counters[key] = 0


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
    """Unpickled warm state for ``wfp``, or None on miss/corruption.

    Like :func:`pointcache.load`, anything wrong with the entry — a
    truncated pickle from a crashed writer, a foreign object, a stale
    schema — degrades to a miss; the caller warms up normally and
    overwrites it. Hits refresh mtime so pruning stays LRU.
    """
    path = snapshot_path(wfp, engine)
    try:
        with path.open("rb") as f:
            state = pickle.load(f)
    except pointcache._LOAD_ERRORS:
        return None
    if not isinstance(state, dict) or "version" not in state:
        return None
    try:
        os.utime(path)
    except OSError:
        pass
    return state


def store_state(wfp: str, engine: str, state: Dict[str, Any]) -> None:
    """Persist warm state atomically (temp file + rename).

    Readers racing a crashed writer see either a complete snapshot or a
    miss — never a partial file under the final name. The size bound is
    applied with ``strict=False``: a malformed ``REPRO_CACHE_MAX_MB``
    must not fail a point that already simulated.
    """
    path = snapshot_path(wfp, engine)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            pickle.dump(state, f, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    counters["captured"] += 1
    limit = pointcache.cache_max_bytes(strict=False)
    if limit is not None:
        pointcache.prune(limit)


# -- sweep grouping -----------------------------------------------------


def warmup_groups(specs: Sequence[Any]) -> Dict[str, List[int]]:
    """Spec indices grouped by shared warmup fingerprint (size >= 2).

    Only groups that can actually share a snapshot are returned: the
    first index of each group is the *leader* that simulates the warmup
    and stores the snapshot; the rest are followers that restore it.
    """
    if not snapshots_enabled():
        return {}
    groups: Dict[str, List[int]] = {}
    for i, spec in enumerate(specs):
        if not eligible(spec):
            continue
        groups.setdefault(warmup_fingerprint(spec), []).append(i)
    return {fp: idxs for fp, idxs in groups.items() if len(idxs) > 1}

