"""Experiment harnesses: one module per figure of the paper's evaluation.

Every module exposes ``run(scale=...) -> FigureResult`` returning the
rows/series the paper figure reports, plus a rendered text form. The
registry below maps experiment ids to runners for the CLI::

    python -m repro.experiments fig5 --scale 0.1
"""

from repro.experiments.common import (
    ExperimentSettings,
    FigureResult,
    PointResult,
    run_point,
)
from repro.experiments import (
    fig1,
    fig2,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    figS1,
    figS2,
    headline,
    table1,
    zoo,
)

#: experiment id -> callable(scale: float) -> FigureResult
REGISTRY = {
    "table1": table1.run,
    "fig1": fig1.run,
    "fig2": fig2.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "figS1": figS1.run,
    "figS2": figS2.run,
    "headline": headline.run,
    "zoo": zoo.run,
}

#: experiment id -> callable(settings) -> List[PointSpec]. The servable
#: subset of REGISTRY: experiments whose work is a grid of PointSpecs
#: that `repro.serve` can build by name and fan out point-by-point.
#: fig9 has a spec builder too (``fig9.specs``) but is not registered
#: here yet, and table1 is analytic-only; see UNSERVABLE.
SPEC_BUILDERS = {
    "fig1": fig1.specs,
    "fig2": fig2.specs,
    "fig5": fig5.specs,
    "fig6": fig6.specs,
    "fig7": fig7.specs,
    "fig8": fig8.specs,
    "fig10": fig10.specs,
    "figS1": figS1.specs,
    "figS2": figS2.specs,
    "headline": headline.specs,
    "zoo": zoo.specs,
}

#: experiment id -> why `repro.serve` refuses it (HTTP 400 naming the
#: reason, instead of the generic unknown-experiment error). Everything
#: in REGISTRY is either here or in SPEC_BUILDERS — the figS* observer
#: experiments are servable: their PointSpecs carry the observer/burst
#: knobs, so served runs reproduce local ones bit-identically (probe
#: seed and all). fig9's points are PointSpecs, but the benchmark draws
#: its point population from SPEC_BUILDERS and looks each point's
#: reference time up in sweepbench/points.json, which has no fig9
#: entries; registering fig9 waits for a change that regenerates it.
UNSERVABLE = {
    "fig9": (
        "not yet registered: its collocated PointSpecs (fig9.specs) "
        "need reference entries in the benchmark's points.json first"
    ),
    "table1": (
        "analytic-only (closed-form model, no trace simulation to "
        "schedule)"
    ),
}

__all__ = [
    "ExperimentSettings",
    "FigureResult",
    "PointResult",
    "REGISTRY",
    "SPEC_BUILDERS",
    "UNSERVABLE",
    "run_point",
]
