"""Structured event log with levels, text/JSON rendering, atomic lines.

The experiment engine emits per-point lifecycle events (start, finish,
cached, progress/ETA), fault-tolerance events (``point.retry`` /
``point.failed`` on recovery, ``pool.rebuild`` /
``serve.pool.rebuild`` after an executor collapse, ``serve.draining``
on SIGTERM), and diagnostic blocks (cProfile output) through one logger
so that parallel workers cannot interleave partial lines: every event
is rendered to a single string — newline included — and written with
one ``write()`` call.

Environment contract (documented in README):

* ``REPRO_LOG`` — ``text`` or ``json``. Unset disables the log entirely
  (the seed repo printed nothing, and the test suites rely on quiet
  runs); ``off`` is an explicit synonym for unset.
* ``REPRO_LOG_LEVEL`` — ``debug``/``info``/``warning``/``error``
  (default ``info``).
* ``REPRO_LOG_FILE`` — append event lines to this file instead of
  stderr (the ``repro.serve`` daemon uses it for durable event
  history). Setting it also enables the log in ``text`` mode when
  ``REPRO_LOG`` is unset (an explicit ``REPRO_LOG=off`` still wins).
  The file is opened with ``O_APPEND`` and each event is flushed as one
  contiguous chunk, preserving the no-interleave guarantee across
  worker processes appending to the same file.

Forced events (``force=True``) bypass the disabled state but still
honour the rendering mode — this is how the serve daemon's lifecycle
events keep appearing for users who never opted into the event log.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, Optional, TextIO

from repro.errors import ConfigError

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class EventLog:
    """Renders events as single atomic lines on a stream (stderr)."""

    def __init__(
        self,
        mode: Optional[str] = "text",
        level: str = "info",
        stream: Optional[TextIO] = None,
    ) -> None:
        if mode not in (None, "text", "json"):
            raise ConfigError(f"REPRO_LOG must be 'text' or 'json', got {mode!r}")
        if level not in LEVELS:
            raise ConfigError(
                f"REPRO_LOG_LEVEL must be one of {sorted(LEVELS)}, got {level!r}"
            )
        self.mode = mode  # None = disabled
        self.level = level
        self.stream = stream if stream is not None else sys.stderr
        self._t0 = time.perf_counter()
        #: set when from_env opened a REPRO_LOG_FILE stream for us
        self._owns_stream = False

    def close(self) -> None:
        """Close a stream this log opened itself (REPRO_LOG_FILE)."""
        if self._owns_stream:
            try:
                self.stream.close()
            except OSError:
                pass

    @property
    def enabled(self) -> bool:
        return self.mode is not None

    def would_emit(self, level: str) -> bool:
        return self.enabled and LEVELS[level] >= LEVELS[self.level]

    # -- core -----------------------------------------------------------

    def emit(
        self,
        event: str,
        level: str = "info",
        force: bool = False,
        **fields: Any,
    ) -> None:
        """Emit one event as one atomic line.

        ``fields`` become JSON keys / ``key=value`` pairs. A ``text``
        field is treated as a multi-line payload: in text mode every
        line is prefixed with the event tag so the block stays
        attributable even if another worker writes between *events*
        (never between lines of one event — it is a single write).
        """
        if level not in LEVELS:
            raise ConfigError(f"unknown log level {level!r}")
        if not force and not self.would_emit(level):
            return
        mode = self.mode or "text"  # forced events on a disabled log
        elapsed = time.perf_counter() - self._t0
        if mode == "json":
            record: Dict[str, Any] = {
                "ts": round(elapsed, 6),
                "level": level,
                "event": event,
            }
            record.update(fields)
            line = json.dumps(record, default=str) + "\n"
        else:
            text_block = fields.pop("text", None)
            pairs = " ".join(f"{k}={_fmt(v)}" for k, v in fields.items())
            head = f"[repro +{elapsed:8.2f}s] {event}"
            if pairs:
                head = f"{head} {pairs}"
            if text_block is not None:
                tag = fields.get("label", event)
                body = "".join(
                    f"[{tag}] {ln}\n" for ln in str(text_block).splitlines()
                )
                line = head + "\n" + body
            else:
                line = head + "\n"
        try:
            self.stream.write(line)
            self.stream.flush()
        except (OSError, ValueError):  # closed stream mid-teardown
            pass

    # -- conveniences ---------------------------------------------------

    def debug(self, event: str, **fields: Any) -> None:
        self.emit(event, level="debug", **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.emit(event, level="info", **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.emit(event, level="warning", **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.emit(event, level="error", **fields)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    text = str(value)
    return f'"{text}"' if " " in text else text


def from_env(stream: Optional[TextIO] = None) -> EventLog:
    """Build an :class:`EventLog` from the ``REPRO_LOG*`` knobs."""
    raw = os.environ.get("REPRO_LOG", "").strip().lower()
    log_file = os.environ.get("REPRO_LOG_FILE", "").strip()
    mode: Optional[str]
    if raw in ("", "off", "0", "none"):
        # A log file without an explicit mode means "log, as text":
        # daemons set only REPRO_LOG_FILE and still get durable history.
        mode = "text" if (log_file and raw == "") else None
    elif raw in ("text", "json"):
        mode = raw
    else:
        raise ConfigError(f"REPRO_LOG must be 'text' or 'json', got {raw!r}")
    level = os.environ.get("REPRO_LOG_LEVEL", "info").strip().lower()
    if stream is None and log_file:
        try:
            stream = open(log_file, "a", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot open REPRO_LOG_FILE {log_file!r}: {exc}")
        log = EventLog(mode=mode, level=level, stream=stream)
        log._owns_stream = True
        return log
    return EventLog(mode=mode, level=level, stream=stream)


_log: Optional[EventLog] = None
_log_env: Optional[tuple] = None


def get_event_log() -> EventLog:
    """Process-wide logger, rebuilt if the env knobs changed (tests)."""
    global _log, _log_env
    env = (
        os.environ.get("REPRO_LOG"),
        os.environ.get("REPRO_LOG_LEVEL"),
        os.environ.get("REPRO_LOG_FILE"),
    )
    if _log is None or env != _log_env:
        if _log is not None:
            _log.close()
        _log = from_env()
        _log_env = env
    return _log
