"""Job model for the ``repro.serve`` daemon.

A *job* is one client-submitted unit of work: a named experiment grid
(``{"experiment": "fig1", "scale": 0.05}`` — built through the same
spec builders the figure harnesses use, so a served job simulates
exactly what a local run would), an explicit list of point
descriptions (``{"points": [{...}, ...]}`` in the vocabulary of
:mod:`repro.scenario.points`), or a declarative scenario document
(``{"scenario": {...}}``, compiled by :mod:`repro.scenario` — sweeps
expanded and references resolved server-side, so a submitted document
runs the exact grid ``python -m repro.scenario run`` would).

Jobs move through ``queued -> running -> done`` (or ``failed`` /
``cancelled``). Every state change and per-point completion is recorded
as a monotonically numbered event, which ``GET /jobs/<id>/events``
exposes for cursor-based polling. The finished job's result serializes
to the same JSON schema ``python -m repro.experiments <fig> --json``
emits (:func:`repro.experiments.common.point_row`).
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.parallel import PointSpec
from repro.errors import ConfigError
from repro.sched.tenants import DEFAULT_TENANT, validate_tenant

#: every state a job can be in; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


class BadRequest(ConfigError):
    """Client-side error in a job submission (rendered as HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadRequest(message)


class JobRequest:
    """Validated submission: a named spec list plus scheduling knobs."""

    def __init__(
        self,
        name: str,
        specs: List[PointSpec],
        scale: float,
        priority: int = 0,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        self.name = name
        self.specs = specs
        self.scale = scale
        self.priority = priority
        self.tenant = tenant


def _number(payload: Dict[str, Any], key: str, default: float) -> float:
    value = payload.get(key, default)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{key!r} must be a number",
    )
    return float(value)


def _build_point(
    entry: Dict[str, Any], default_scale: float, index: int
) -> PointSpec:
    """One explicit point, validated by the shared scenario vocabulary.

    :mod:`repro.scenario.points` owns the key set and all error
    messages (each naming its exact key path, ``points[2].policy``);
    this wrapper only rebrands the failure as an HTTP 400.
    """
    from repro.scenario.points import ScenarioError, build_point

    try:
        return build_point(entry, default_scale, path=f"points[{index}]")
    except ScenarioError as exc:
        raise BadRequest(str(exc)) from exc


def parse_job_request(payload: Any) -> JobRequest:
    """Validate a ``POST /jobs`` body into a :class:`JobRequest`.

    Raises :class:`BadRequest` (HTTP 400) on any malformed field; an
    unknown experiment name lists the servable ids in the message, and
    a malformed point or scenario document names the exact key path of
    the offending field (``points[0].sweep.wayz``).
    """
    from repro.experiments import SPEC_BUILDERS, UNSERVABLE
    from repro.experiments.common import DEFAULT_SCALE, ExperimentSettings

    _require(isinstance(payload, dict), "job body must be a JSON object")
    priority = payload.get("priority", 0)
    _require(
        isinstance(priority, int) and not isinstance(priority, bool),
        "'priority' must be an integer",
    )
    try:
        tenant = validate_tenant(payload.get("tenant", DEFAULT_TENANT))
    except ConfigError as exc:
        raise BadRequest(str(exc)) from exc
    has_experiment = "experiment" in payload
    has_points = "points" in payload
    has_scenario = "scenario" in payload
    _require(
        int(has_experiment) + int(has_points) + int(has_scenario) == 1,
        "exactly one of 'experiment', 'points', or 'scenario' is required",
    )
    scale = _number(payload, "scale", DEFAULT_SCALE)
    _require(0 < scale <= 1, "'scale' must be in (0, 1]")
    if has_scenario:
        from repro.scenario import (
            ScenarioError,
            compile_scenario,
            scenario_from_dict,
        )

        # Top-level scale/measure, when present, override the document's
        # defaults (same fidelity knobs as experiment jobs); otherwise
        # the document speaks for itself.
        settings = None
        if "scale" in payload or "measure" in payload:
            measure = _number(payload, "measure", 1.0)
            _require(measure > 0, "'measure' must be > 0")
            settings = ExperimentSettings(
                scale=scale, measure_multiplier=measure
            )
        try:
            compiled = compile_scenario(
                scenario_from_dict(payload["scenario"]), settings=settings
            )
        except ScenarioError as exc:
            raise BadRequest(str(exc)) from exc
        return JobRequest(
            compiled.run_label,
            compiled.specs,
            compiled.scale,
            priority=priority,
            tenant=tenant,
        )
    if has_experiment:
        name = payload["experiment"]
        if isinstance(name, str) and name in UNSERVABLE:
            raise BadRequest(
                f"experiment {name!r} is intentionally not servable: "
                f"{UNSERVABLE[name]} (see DESIGN.md §8)"
            )
        _require(
            isinstance(name, str) and name in SPEC_BUILDERS,
            f"unknown experiment {payload['experiment']!r}; servable: "
            + ", ".join(sorted(SPEC_BUILDERS)),
        )
        measure = _number(payload, "measure", 1.0)
        _require(measure > 0, "'measure' must be > 0")
        settings = ExperimentSettings(scale=scale, measure_multiplier=measure)
        specs = SPEC_BUILDERS[name](settings)
        return JobRequest(name, specs, scale, priority=priority, tenant=tenant)
    points = payload["points"]
    _require(
        isinstance(points, list) and points,
        "'points' must be a non-empty list",
    )
    specs = [
        _build_point(entry, scale, index)
        for index, entry in enumerate(points)
    ]
    labels = [s.label for s in specs]
    _require(
        len(labels) == len(set(labels)), "point labels must be unique"
    )
    return JobRequest("points", specs, scale, priority=priority, tenant=tenant)


class Job:
    """One scheduled unit of work; all mutation goes through its lock."""

    def __init__(self, request: JobRequest) -> None:
        self.id = f"job-{uuid.uuid4().hex[:12]}"
        self.request = request
        self.state = "queued"
        self.error: Optional[str] = None
        self.run_id: Optional[str] = None
        self.created_unix = time.time()
        self.started_unix: Optional[float] = None
        self.finished_unix: Optional[float] = None
        self.done_points = 0
        self.cached_points = 0
        self.deduped_points = 0
        self.simulated_points = 0
        self.retried_points = 0
        #: the done job's ``PointResult``s, until :meth:`release_results`
        #: swaps them for the rows ``GET /result`` serves
        self.results: List[Any] = []
        self._rows: List[Dict[str, Any]] = []
        self.cancel_requested = False
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self.add_event(
            "job.submitted",
            name=request.name,
            tenant=getattr(request, "tenant", DEFAULT_TENANT),
            points=len(request.specs),
            priority=request.priority,
        )

    # -- events ---------------------------------------------------------

    def add_event(self, event: str, **fields: Any) -> None:
        with self._lock:
            record = {
                "seq": len(self._events),
                "ts": time.time(),
                "event": event,
            }
            record.update(fields)
            self._events.append(record)

    def events_since(self, cursor: int) -> Tuple[List[Dict[str, Any]], int]:
        """Events with seq >= cursor, plus the next cursor to poll with."""
        if cursor < 0:
            raise BadRequest("'cursor' must be >= 0")
        with self._lock:
            return list(self._events[cursor:]), len(self._events)

    # -- state transitions (called by the scheduler) --------------------

    def mark_running(self) -> None:
        with self._lock:
            self.state = "running"
            self.started_unix = time.time()
        self.add_event("job.started")

    def finish(self, state: str, error: Optional[str] = None) -> bool:
        """Move to a terminal state; True only for the claiming caller.

        The bool makes racing finishers (e.g. concurrent cancels, or a
        cancel racing the job thread) safe: exactly one caller claims
        the transition and owns the side effects (metrics, events).
        """
        with self._lock:
            if self.state in TERMINAL_STATES:
                return False
            self.state = state
            self.error = error
            self.finished_unix = time.time()
        fields = {"state": state}
        if error:
            fields["error"] = error
        self.add_event("job.finished", **fields)
        return True

    def point_done(self, label: str, source: str, sim_seconds: float) -> None:
        """Record one completed point (source: simulated|cache|dedup)."""
        with self._lock:
            self.done_points += 1
            if source == "cache":
                self.cached_points += 1
            elif source == "dedup":
                self.deduped_points += 1
            else:
                self.simulated_points += 1
            done, total = self.done_points, len(self.request.specs)
        self.add_event(
            "point.finish",
            label=label,
            source=source,
            sim_s=round(sim_seconds, 6),
            done=f"{done}/{total}",
        )

    def point_retry(self, label: str, error: str, attempt: int) -> None:
        """Record a failed attempt that the scheduler will retry."""
        with self._lock:
            self.retried_points += 1
        self.add_event(
            "point.retry", label=label, attempt=attempt, error=error
        )

    def release_results(self) -> None:
        """Drop the ``PointResult``s, keeping the rows of the result."""
        with self._lock:
            self._rows = self._result_rows()
            self.results = []

    # -- serialization --------------------------------------------------

    def _result_rows(self) -> List[Dict[str, Any]]:
        from repro.experiments.common import point_row

        if not self.results:
            return list(self._rows)
        return [point_row(p, self.request.scale) for p in self.results]

    def snapshot(self) -> Dict[str, Any]:
        """State + progress, the ``GET /jobs/<id>`` body."""
        with self._lock:
            return {
                "id": self.id,
                "name": self.request.name,
                "state": self.state,
                "tenant": getattr(self.request, "tenant", DEFAULT_TENANT),
                "priority": self.request.priority,
                "error": self.error,
                "run_id": self.run_id,
                "created_unix": self.created_unix,
                "started_unix": self.started_unix,
                "finished_unix": self.finished_unix,
                "total_points": len(self.request.specs),
                "done_points": self.done_points,
                "cached_points": self.cached_points,
                "deduped_points": self.deduped_points,
                "simulated_points": self.simulated_points,
                "retried_points": self.retried_points,
                "events": len(self._events),
            }

    def result_dict(self) -> Dict[str, Any]:
        """The shared result schema (identical to the CLI's ``--json``)."""
        from repro.experiments.common import RESULT_SCHEMA_VERSION

        with self._lock:
            if self.state != "done":
                raise ConfigError(
                    f"job {self.id} has no result (state={self.state})"
                )
            return {
                "schema": RESULT_SCHEMA_VERSION,
                "figure": self.request.name,
                "title": f"repro.serve job {self.id}",
                "scale": self.request.scale,
                "rows": self._result_rows(),
                "series": {},
                "notes": [],
            }
