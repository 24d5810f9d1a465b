"""Grid points and their output digests.

The union of every ``SPEC_BUILDERS`` grid at scale 0.05, deduplicated
by simulation identity, is the population cold_sweep draws
from. Each point is named ``<grid>:<label>`` after its first
occurrence. ``points.json`` holds, per point name, a digest of the
fields of the result row that a correct program must reproduce bit for
bit, and the point's serial batch-engine wall time on the reference
host (``ref_s``), which only orders points into cost bands for the
stratified draw. Regenerate it with ``python3 sweepbench/points.py``
(about four minutes) only when a change is meant to alter simulation
results.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
POINTS = HERE / "points.json"

#: row fields a correct program reproduces exactly (sim time excluded)
DIGEST_FIELDS = ("breakdown", "throughput_mrps", "mem_bandwidth_gbps")


def union_points(scale: float) -> List[Tuple[str, object]]:
    """``(name, PointSpec)`` for every distinct grid point."""
    from repro.experiments import SPEC_BUILDERS
    from repro.experiments.common import ExperimentSettings

    settings = ExperimentSettings(scale=scale)
    seen = set()
    out = []
    for grid, build in SPEC_BUILDERS.items():
        for spec in build(settings):
            key = spec.cache_key()
            if key in seen:
                continue
            seen.add(key)
            out.append((f"{grid}:{spec.label}", spec))
    return out


def row_digest(row: Dict[str, object]) -> str:
    subset = {k: row[k] for k in DIGEST_FIELDS}
    blob = json.dumps(subset, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def load_points() -> Dict[str, Dict[str, object]]:
    return json.loads(POINTS.read_text())


def load_digests() -> Dict[str, str]:
    return {name: p["digest"] for name, p in load_points().items()}


def stratified(points: List[Tuple[str, object]], k: int, rng) -> List[Tuple[str, object]]:
    """One point from each of ``k`` bands of similar reference cost.

    A plain draw of a few points from a population whose costs differ
    threefold makes every rate depend on the seed; drawing one point per
    cost band keeps each run's mix of cheap and dear points the same
    while the seed still picks which points run.
    """
    ref = load_points()
    ranked = sorted(points, key=lambda p: (ref[p[0]]["ref_s"], p[0]))
    bands = [ranked[len(ranked) * i // k:len(ranked) * (i + 1) // k] for i in range(k)]
    picks = [band[rng.randrange(len(band))] for band in bands]
    rng.shuffle(picks)
    return picks


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.engine.parallel import run_spec
    from repro.experiments.common import point_row

    scale = 0.05
    out = {}
    for name, spec in union_points(scale):
        t0 = time.perf_counter()
        row = point_row(run_spec(spec), scale)
        out[name] = {"digest": row_digest(row), "ref_s": round(time.perf_counter() - t0, 3)}
        print(name, out[name], flush=True)
    POINTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
