"""sweepbench: the repository's benchmark, one workload per invocation.

    python3 sweepbench/run.py --workload cold_sweep --seed 1 --seconds 30 --trace 0
    python3 sweepbench/run.py --all --seed 1       # every workload in turn

Run from anywhere inside a checkout; the program is taken from
``<checkout>/src`` and everything the run writes stays under
``<checkout>/.bench_build``. The last line of standard output is the
JSON result (``correct``, ``attempted``, ``failed``, ``metrics``); the
line before it, ``record {...}``, keeps raw and host-speed-calibrated
figures, calibration samples and per-op latencies. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced
run, in BENCHMARK.json's order; ``sweepbench/layers.json`` names, per
layer metric, the workloads that measure it and the end-to-end metric
it should move. ``--size tiny`` shrinks every workload to a few seconds
for the self-tests (``python3 -m pytest sweepbench``).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time

from common import (
    HERE,
    ROOT,
    SRC,
    BenchError,
    Calibrator,
    build_kernel,
    emit,
    fresh_run_dir,
    metric,
    per_layer_metrics,
    program_env,
    remove_tree,
    require_sources,
)

WORKLOADS = ("cold_sweep", "cluster_fanout")
#: independent set-ups timed per run; setup_s is their median. A cold
#: set-up is a ~0.5 s interpreter start, so it takes more samples than
#: a daemon boot of ~2.5 s to steady its median
SETUP_SAMPLES = {"cold_sweep": 9, "cluster_fanout": 5}


def _cold_setup_s(seed: int, seconds: int, tiny: bool, setup_cal: Calibrator) -> list:
    """Wall time from spawning a fresh interpreter until it could issue
    its first cold_sweep point, once per sample."""
    samples = []
    run_dir = fresh_run_dir("cold-setup")
    env = program_env(run_dir)
    try:
        for _ in range(SETUP_SAMPLES["cold_sweep"]):
            for _ in range(2):
                setup_cal.sample()
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--setup-probe",
                 "--seed", str(seed), "--seconds", str(seconds)]
                + (["--size", "tiny"] if tiny else []),
                stdout=subprocess.PIPE,
                env=env,
                cwd=str(ROOT),
                text=True,
            )
            try:
                line = proc.stdout.readline()
                samples.append(time.perf_counter() - t0)
            finally:
                proc.stdout.close()
                proc.wait(timeout=60)
            if line.strip() != "ready" or proc.returncode != 0:
                raise BenchError("cold_sweep set-up probe failed")
    finally:
        remove_tree(run_dir)
    return samples


def run_workload(args) -> int:
    tiny = args.size == "tiny"
    trace = bool(args.trace)
    # Set-up is timed before the workload runs, so it is calibrated by
    # kernel samples taken beside it rather than by the workload's.
    setup_cal = Calibrator()
    setup_samples = []
    if args.workload == "cold_sweep":
        import cold

        if not trace:
            setup_samples = _cold_setup_s(args.seed, args.seconds, tiny, setup_cal)
        out = cold.run(args.seed, args.seconds, trace, tiny)
    else:
        import daemons

        out = daemons.run(args.seed, args.seconds, trace, tiny,
                          setup_cal, SETUP_SAMPLES[args.workload])
        setup_samples = out["record"]["setup_s"]
    record = out["record"]
    record.update(seed=args.seed, seconds=args.seconds, trace=trace, size=args.size)
    metrics = out["metrics"]
    if trace:
        # Every traced run reports the whole per-layer list; a layer this
        # workload does not exercise reads 0 and is named in the record.
        layers = per_layer_metrics()
        record["not_measured"] = [l["name"] for l in layers if l["name"] not in metrics]
        metrics = {
            l["name"]: metrics.get(l["name"], metric(0, l["unit"])) for l in layers
        }
    else:
        raw = statistics.median(setup_samples)
        setup_s = raw * setup_cal.scale()
        record["raw"]["setup_s"] = raw
        record["calibrated"]["setup_s"] = setup_s
        record["setup_samples_s"] = setup_samples
        record["setup_calibration"] = setup_cal.record()
        metrics = {"setup_s": metric(setup_s, "s"), **metrics}
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    emit(result, record)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's lines."""
    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines:
            if not line.startswith("record "):
                print(line)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sweepbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so every daemon and worker it
    # started is stopped and reaped by the finally blocks on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        require_sources()
        sys.path.insert(0, str(SRC))
        if args.setup_probe:
            import cold

            cold.setup_child(args.seed, max(1, round(args.seconds / cold.ROUND_S)), args.size == "tiny")
            print("ready", flush=True)
            return 0
        build_kernel()
        if args.all:
            return run_all(args)
        if args.workload is None:
            parser.error("--workload or --all is required")
        return run_workload(args)
    except BenchError as exc:
        print(f"sweepbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
