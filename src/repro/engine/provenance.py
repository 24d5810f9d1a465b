"""What a point result records about how it was produced.

A :class:`~repro.experiments.common.PointResult` mixes simulated
fields (the trace, profile and perf of the point) with provenance:
whether it came from the point cache, how long it took, which worker
ran it, whether its warmup was restored, and the run files it wrote.
Equivalence checks compare :func:`result_identity`; a cache hit resets
provenance from :data:`HIT_PROVENANCE`
(:func:`repro.engine.pointcache.mark_cache_hit`).
"""

from __future__ import annotations

from typing import Any, Dict

#: the provenance fields of a point result and the value each takes on
#: a result this run did not simulate. ``sim_seconds`` is provenance
#: too, but a hit keeps the time the stored simulation took.
HIT_PROVENANCE = {
    "from_cache": True,
    "worker_id": None,
    "warm_restored": False,
    "timeline_file": None,
    "probe_file": None,
}
PROVENANCE_FIELDS = ("sim_seconds", *HIT_PROVENANCE)


def result_identity(result: Any) -> Dict[str, Any]:
    """Every simulated field of a point result, without its provenance.

    Two results are the same simulation exactly when their identities
    are equal; provenance gets its own assertions.
    """
    return {
        name: value
        for name, value in vars(result).items()
        if name not in PROVENANCE_FIELDS
    }
