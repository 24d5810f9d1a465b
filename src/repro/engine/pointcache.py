"""Persistent content-addressed cache of simulated point results.

Re-running a figure grid after editing only rendering or analysis code
used to re-simulate every point from scratch. This module memoizes
:class:`~repro.experiments.common.PointResult` objects on disk, keyed by
a fingerprint of everything that determines the simulation's output:

* the full system configuration (``repr`` of the frozen dataclass tree),
* the workload's :meth:`~repro.workloads.base.Workload.cache_key`,
* the injection policy, Sweeper switches, queue depth, seed, and the
  resolved warmup/measure request counts,
* a *code-version salt* — a hash over every ``.py`` and ``.c`` file of
  the ``repro`` package (the batch engine's kernel source counts as
  code) — so any source change invalidates all entries.

Environment knobs:

* ``REPRO_NO_CACHE=1`` bypasses the cache entirely (no reads, no writes);
* ``REPRO_CACHE_DIR`` overrides the default ``results/.pointcache``;
* ``REPRO_CACHE_MAX_MB`` bounds the cache's total size — every store
  prunes least-recently-used entries (by mtime; hits refresh it) until
  the cache fits.

Entries are pickles written atomically (temp file + rename), so parallel
workers racing on the same fingerprint are safe: last writer wins and
every reader sees a complete file.

Entries live in one subdirectory per code generation
(``<cache_dir>/<code_salt[:16]>/<fingerprint>.pkl``), because any source
change invalidates every prior entry: the generation that produced them
becomes unreachable garbage the moment the salt changes. Warm-state
snapshots (:mod:`repro.engine.snapshot`) live under a ``snapshots/``
subdirectory of the same generation as ``*.snap`` files and share the
size accounting, pruning, and GC lifecycle. ``python -m
repro.engine.pointcache --stats`` reports generations and sizes;
``--gc`` deletes orphaned generations and applies the size bound. GC
also collects ``*.tmp`` orphans *inside* generation dirs (crashed
writers leave their ``mkstemp`` temp files there, not at the cache
root), age-guarded by :data:`TMP_MAX_AGE_S` so a live writer's temp
file is never raced; their bytes count toward the size stats either
way.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import faults
from repro.engine.provenance import HIT_PROVENANCE
from repro.errors import ConfigError

DEFAULT_CACHE_DIR = Path("results") / ".pointcache"

#: minimum age before an in-generation ``*.tmp`` orphan is collected;
#: anything younger may be a live writer mid-``pickle.dump``.
TMP_MAX_AGE_S = 3600.0

#: everything unpickling a damaged/foreign entry is known to raise:
#: OSError (unreadable), EOFError/UnpicklingError (truncated stream),
#: Attribute/Import (class moved or gone), Index/Key/Value/Type (corrupt
#: bytecode stream internals), UnicodeDecodeError (mangled strings),
#: MemoryError (bogus length prefix). Anything in this set is a miss.
_LOAD_ERRORS = (
    OSError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    ValueError,
    TypeError,
    MemoryError,
    pickle.UnpicklingError,
    UnicodeDecodeError,
)

#: directory-name length for one code generation (a code_salt prefix).
GENERATION_CHARS = 16

_code_salt: Optional[str] = None


def code_salt() -> str:
    """Hash of the repro package's source; computed once per process."""
    global _code_salt
    if _code_salt is None:
        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        sources = sorted(package_root.rglob("*.py")) + sorted(
            package_root.rglob("*.c")
        )
        for path in sources:
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_salt = digest.hexdigest()
    return _code_salt


def cache_enabled() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "") != "1"


def cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else DEFAULT_CACHE_DIR


_warned_bad_max_mb = False


def cache_max_bytes(strict: bool = True) -> Optional[int]:
    """Size bound from ``REPRO_CACHE_MAX_MB`` (None = unbounded).

    ``strict=True`` (startup validation) raises :class:`ConfigError` on
    a malformed value. The store path passes ``strict=False``: a bad
    knob must not fail a point that has already fully simulated, so it
    degrades to a once-per-process warning with pruning skipped.
    """
    global _warned_bad_max_mb
    env = os.environ.get("REPRO_CACHE_MAX_MB")
    if not env:
        return None
    try:
        mb = float(env)
    except ValueError:
        mb = None
    if mb is None or mb <= 0:
        if strict:
            if mb is None:
                raise ConfigError(
                    f"REPRO_CACHE_MAX_MB must be a number, got {env!r}"
                )
            raise ConfigError("REPRO_CACHE_MAX_MB must be > 0")
        if not _warned_bad_max_mb:
            _warned_bad_max_mb = True
            from repro.obs.events import get_event_log

            get_event_log().warning(
                "pointcache.bad_max_mb",
                value=env,
                action="size pruning skipped",
            )
        return None
    return int(mb * 1024 * 1024)


def fingerprint(spec: Any) -> str:
    """Content address of a point spec (its ``cache_key`` + code salt)."""
    digest = hashlib.sha256()
    digest.update(code_salt().encode())
    digest.update(b"\0")
    digest.update(spec.cache_key().encode())
    return digest.hexdigest()


def generation_dir() -> Path:
    """Entry directory of the current code generation."""
    return cache_dir() / code_salt()[:GENERATION_CHARS]


def _entry_path(fp: str) -> Path:
    return generation_dir() / f"{fp}.pkl"


#: the attributes a cached point result must expose; callers on the
#: simulation path pass this to ``load`` so a wrong-class pickle (a
#: foreign or stale writer) degrades to a miss instead of exploding
#: later when the label is re-stamped.
RESULT_ATTRS = ("label", "from_cache", "sim_seconds")


def read_entry(path: Path, accept=lambda value: True) -> Optional[Any]:
    """The unpickled entry at ``path``, or None on a miss.

    A missing, truncated or foreign file, or a value ``accept``
    rejects, is a miss; the caller recomputes and overwrites it. Hits
    refresh mtime so the size-bound pruning is LRU rather than FIFO.
    """
    try:
        with path.open("rb") as f:
            value = pickle.load(f)
    except _LOAD_ERRORS:
        return None
    if not accept(value):
        return None
    try:
        os.utime(path)
    except OSError:
        pass
    return value


def write_entry(path: Path, value: Any) -> None:
    """Pickle ``value`` to ``path`` atomically (temp file + rename).

    With ``REPRO_CACHE_MAX_MB`` set, least-recently-used entries are
    then pruned until the cache fits; a malformed bound only skips the
    pruning (``strict=False``), never fails a simulated point.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    limit = cache_max_bytes(strict=False)
    if limit is not None:
        prune(limit)


def load(fp: str, require_attrs: Optional[Tuple[str, ...]] = None) -> Optional[Any]:
    """Cached value for fingerprint ``fp``, or None (:func:`read_entry`);
    a value missing one of ``require_attrs`` is a miss too."""
    path = _entry_path(fp)
    faults.on_cache_load(fp, path)
    return read_entry(
        path, lambda value: all(hasattr(value, a) for a in require_attrs or ())
    )


def mark_cache_hit(result: Any, label: str) -> Any:
    """Stamp this run's provenance on a result it did not simulate.

    Used for cache hits and for copies shared with another job. The
    stored result may reference a timeline or probe file in the run
    directory that produced it, and the cluster worker that simulated
    it; none of that belongs to this run, and nothing was restored.
    """
    result.label = label
    for name, value in HIT_PROVENANCE.items():
        setattr(result, name, value)
    return result


def store(fp: str, value: Any) -> None:
    """Persist ``value`` under fingerprint ``fp`` (:func:`write_entry`)."""
    write_entry(_entry_path(fp), value)


# -- garbage collection -------------------------------------------------


def _entries() -> List[Tuple[Path, float, int]]:
    """Every evictable entry (point pickles + warm-state snapshots) as
    (path, mtime, size); unstat-able files skipped."""
    root = cache_dir()
    out: List[Tuple[Path, float, int]] = []
    if not root.is_dir():
        return out
    for pattern in ("*.pkl", "*.snap"):
        for path in root.rglob(pattern):
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((path, st.st_mtime, st.st_size))
    return out


def _tmp_bytes() -> int:
    """Bytes held by ``*.tmp`` writer temp files anywhere in the cache.

    Counted toward the size budget (a crash-orphaned temp occupies real
    disk) but never chosen as a prune victim — GC collects them once
    they age past :data:`TMP_MAX_AGE_S`.
    """
    root = cache_dir()
    if not root.is_dir():
        return 0
    total = 0
    for path in root.rglob("*.tmp"):
        try:
            total += path.stat().st_size
        except OSError:
            continue
    return total


def prune(max_bytes: int) -> List[Path]:
    """Delete oldest-mtime entries until the cache fits ``max_bytes``.

    Returns the removed paths. Races with concurrent stores and loads
    are benign: each victim is re-statted immediately before unlinking,
    so a file that vanished is just discounted and an entry a
    concurrent hit refreshed since the scan (``load`` bumps mtime) is
    skipped rather than evicted out of LRU order.
    """
    entries = sorted(_entries(), key=lambda e: e[1])  # oldest first
    total = sum(size for _, _, size in entries) + _tmp_bytes()
    removed: List[Path] = []
    for path, mtime, size in entries:
        if total <= max_bytes:
            break
        try:
            st = path.stat()
        except OSError:
            total -= size  # vanished concurrently: no longer occupies space
            continue
        if st.st_mtime > mtime:
            continue  # touched since the scan (cache hit): not LRU anymore
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        removed.append(path)
    return removed


def stats() -> Dict[str, Any]:
    """Cache composition: per-generation entry counts/bytes + totals.

    Snapshots count as entries of the generation that owns them; writer
    temp files are reported (and included in ``total_bytes``) as
    ``tmp_bytes`` so crash orphans are visible before GC collects them.
    """
    current = code_salt()[:GENERATION_CHARS]
    root = cache_dir()
    generations: Dict[str, Dict[str, Any]] = {}
    for path, _mtime, size in _entries():
        rel = path.relative_to(root)
        name = rel.parts[0] if len(rel.parts) > 1 else "(flat)"
        gen = generations.setdefault(
            name, {"entries": 0, "bytes": 0, "current": name == current}
        )
        gen["entries"] += 1
        gen["bytes"] += size
    tmp_bytes = _tmp_bytes()
    return {
        "cache_dir": str(root),
        "current_generation": current,
        "generations": generations,
        "total_entries": sum(g["entries"] for g in generations.values()),
        "total_bytes": sum(g["bytes"] for g in generations.values())
        + tmp_bytes,
        "tmp_bytes": tmp_bytes,
        "max_bytes": cache_max_bytes(),
    }


def gc(
    max_bytes: Optional[int] = None, tmp_max_age_s: float = TMP_MAX_AGE_S
) -> Dict[str, Any]:
    """Delete orphaned generations, then apply the size bound.

    Orphans are entry directories whose name is not the current code
    salt (plus stray ``*.pkl``/``*.snap``/``*.tmp`` files at the cache
    root, left by the pre-generation layout or by crashed writers).
    ``*.tmp`` files *inside* the surviving generation — crash leftovers
    of :func:`write_entry`'s ``mkstemp`` — are collected too once
    older than ``tmp_max_age_s``, so a writer mid-dump is never raced.
    ``max_bytes`` defaults to ``REPRO_CACHE_MAX_MB``; None skips size
    pruning.
    """
    root = cache_dir()
    current = code_salt()[:GENERATION_CHARS]
    removed_generations: List[str] = []
    removed_files = 0
    if root.is_dir():
        for child in sorted(root.iterdir()):
            if child.is_dir() and child.name != current:
                shutil.rmtree(child, ignore_errors=True)
                removed_generations.append(child.name)
            elif child.is_file() and child.suffix in (".pkl", ".snap", ".tmp"):
                try:
                    child.unlink()
                    removed_files += 1
                except OSError:
                    pass
        now = time.time()
        for tmp in root.rglob("*.tmp"):
            try:
                if now - tmp.stat().st_mtime < tmp_max_age_s:
                    continue
                tmp.unlink()
                removed_files += 1
            except OSError:
                pass
    if max_bytes is None:
        max_bytes = cache_max_bytes()
    pruned = prune(max_bytes) if max_bytes is not None else []
    return {
        "removed_generations": removed_generations,
        "removed_stray_files": removed_files,
        "pruned_entries": len(pruned),
    }


def _main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.pointcache",
        description="Inspect or garbage-collect the persistent point cache.",
    )
    actions = parser.add_mutually_exclusive_group(required=True)
    actions.add_argument(
        "--stats", action="store_true", help="print cache composition as JSON"
    )
    actions.add_argument(
        "--gc",
        action="store_true",
        help="delete orphaned generations and apply the size bound",
    )
    parser.add_argument(
        "--max-mb",
        type=float,
        default=None,
        help="size bound for --gc (default: REPRO_CACHE_MAX_MB, else none)",
    )
    args = parser.parse_args(argv)
    if args.stats:
        print(json.dumps(stats(), indent=2, sort_keys=True))
        return 0
    max_bytes = (
        int(args.max_mb * 1024 * 1024) if args.max_mb is not None else None
    )
    print(json.dumps(gc(max_bytes=max_bytes), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
