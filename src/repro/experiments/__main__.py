"""CLI entry point: ``python -m repro.experiments <id> [--scale S]``.

``--list`` enumerates the available experiments with one-line
descriptions; ``--emit-timeline`` turns on epoch sampling for the run
(defaulting ``REPRO_EPOCH`` if unset) and prints a per-point timeline
digest after each experiment; ``--json`` emits the figure's
rows/breakdowns as machine-readable JSON in the same result schema the
``repro.serve`` API returns from ``GET /jobs/<id>/result``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from repro.engine.parallel import last_run_dir
from repro.experiments import REGISTRY
from repro.experiments.common import figure_result_to_dict
from repro.report.timeline import summarize_run

#: epochs per point are workload-dependent; this default gives a few
#: dozen samples at REPRO_SCALE=0.1 measure counts.
DEFAULT_EMIT_EPOCH = 1000


def describe(exp_id: str) -> str:
    """First docstring line of the experiment's module."""
    module = inspect.getmodule(REGISTRY[exp_id])
    doc = (module.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate one of the paper's tables/figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(REGISTRY) + ["all"],
        help="experiment id (fig1..fig10, table1, headline) or 'all'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="machine scale factor in (0, 1]; default from REPRO_SCALE or DEFAULT_SCALE (0.1)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list experiment ids with one-line descriptions and exit",
    )
    parser.add_argument(
        "--emit-timeline",
        action="store_true",
        help="sample epoch timelines (sets REPRO_EPOCH if unset) and "
        "print a per-point digest after each experiment",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit machine-readable JSON (the serve API's result schema) "
        "instead of rendered tables",
    )
    args = parser.parse_args(argv)
    if args.list_experiments:
        for exp_id in sorted(REGISTRY):
            print(f"{exp_id:10s} {describe(exp_id)}")
        return 0
    if args.experiment is None:
        parser.error("an experiment id is required (or use --list)")
    if args.emit_timeline and not os.environ.get("REPRO_EPOCH"):
        os.environ["REPRO_EPOCH"] = str(DEFAULT_EMIT_EPOCH)
    ids = sorted(REGISTRY) if args.experiment == "all" else [args.experiment]
    if args.as_json:
        # One JSON document on stdout: the bare result for a single
        # experiment, an {id: result} object for 'all'.
        payloads = {
            exp_id: figure_result_to_dict(REGISTRY[exp_id](scale=args.scale))
            for exp_id in ids
        }
        document = payloads[ids[0]] if len(ids) == 1 else payloads
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    for exp_id in ids:
        before = last_run_dir()
        result = REGISTRY[exp_id](scale=args.scale)
        print(result.render())
        print()
        if args.emit_timeline:
            run_dir = last_run_dir()
            if run_dir is None or run_dir == before:
                # table1 is analytic-only: it produces no run directory.
                print(f"{exp_id}: no new run directory to summarize")
            else:
                print(summarize_run(run_dir))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
