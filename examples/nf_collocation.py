#!/usr/bin/env python3
"""Multi-tenant server: an L3 forwarder collocated with a memory-bound
analytics tenant (the paper's §VI-E scenario).

Half the cores run a DPDK-style L3 forwarder with deep RX rings; the
other half run X-Mem, a memory-intensive tenant. The LLC is partitioned:
DDIO gets A ways, the analytics tenant the remaining 12-A. The script
sweeps the partition point and prints the Pareto frontier with and
without Sweeper — Sweeper's frontier dominates, so *both* tenants win.

Each configuration is one of Figure 9's collocated points, so it runs
through the point cache and leaves a run manifest like any figure.

Run:  python examples/nf_collocation.py [scale]
"""

import sys

from repro.engine.parallel import run_points
from repro.experiments.common import ExperimentSettings
from repro.experiments.fig9 import clamp, collocated_spec
from repro.report.tables import Table

PARTITIONS = ((2, 10), (4, 8), (6, 6), (8, 4))


def main() -> int:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    settings = clamp(ExperimentSettings(scale))
    keys = [(a, b, sweeper) for a, b in PARTITIONS for sweeper in (False, True)]
    specs = [
        collocated_spec(settings, a, sweeper, partitioned=True)
        for a, _b, sweeper in keys
    ]
    table = Table(
        ["(DDIO, X-Mem) ways", "Sweeper", "L3fwd Mrps (full-scale)",
         "X-Mem IPC"],
        title="Collocation Pareto frontier (paper Figure 9a)",
    )
    results = {}
    for (a, b, sweeper), point in zip(
        keys, run_points(specs, run_label="nf_collocation")
    ):
        perf = point.perf  # the joint NF + X-Mem operating point
        results[(a, sweeper)] = perf
        table.add_row(
            f"({a},{b})",
            "yes" if sweeper else "no",
            perf.nf_throughput_mrps / settings.scale,
            perf.xmem_ipc,
        )
    print(table.render())

    a = 4
    base, sw = results[(a, False)], results[(a, True)]
    print(
        f"\nAt the balanced (4,8) split, Sweeper boosts the forwarder by "
        f"{sw.nf_throughput_mrps / base.nf_throughput_mrps:.2f}x and the "
        f"analytics tenant by {sw.xmem_ipc / base.xmem_ipc:.2f}x "
        "(paper: 1.5x and 1.14x) — the frontier moves out on both axes."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
