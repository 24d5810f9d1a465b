"""Self-tests of the benchmark: ``python3 -m pytest sweepbench`` (~1.5 min).

Each workload runs at its tiny size; the tests check the result line's
shape (every end-to-end metric by name and unit, nothing failed), that
the output checks reject a tampered row, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "sweepbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_workload_and_layer_is_accounted_for():
    from run import WORKLOADS

    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    layers = json.loads((HERE / "layers.json").read_text())
    assert list(layers) == [m["name"] for m in BENCH["per_layer"]]
    assert all(set(l["workloads"]) <= set(WORKLOADS) for l in layers.values())


@pytest.mark.parametrize("workload", ["cold_sweep", "cluster_fanout"])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "6", "--trace", "0",
                "--size", "tiny")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in result["metrics"].values())
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines())
    ratio = [line.split() for line in proc.stdout.splitlines() if line.startswith("failed_op_ratio")]
    assert ratio and float(ratio[0][1]) == 0.0


def test_traced_cold_run_covers_the_point_time():
    proc = _run("--workload", "cold_sweep", "--seed", "5", "--seconds", "6", "--trace", "1",
                "--size", "tiny")
    result = _result(proc)
    assert result["correct"], proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert result["metrics"]["sim.requests"]["value"] > 0


def test_tampered_rows_fail_the_output_checks(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_NO_MANIFEST", "1")
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(ROOT / ".bench_build" / "native"))
    from cold import row_ok
    from daemons import same_row
    from points import load_digests, union_points
    from repro.engine.parallel import run_spec
    from repro.experiments.common import point_row

    name, spec = next(p for p in union_points(0.05) if p[1].observer is None)
    row = point_row(run_spec(spec), 0.05)
    digests = load_digests()
    assert row_ok(name, row, digests)
    tampered = json.loads(json.dumps(row))
    key = next(iter(tampered["breakdown"]))
    tampered["breakdown"][key] = math.nextafter(tampered["breakdown"][key], math.inf)
    assert not row_ok(name, tampered, digests)
    assert same_row(row, dict(row, from_cache=True))
    assert not same_row(row, tampered)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "sweepbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = _run("--workload", "cold_sweep", "--seed", "1", "--seconds", "25",
                    "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
        assert not os.path.exists(bare / ".bench_build")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
