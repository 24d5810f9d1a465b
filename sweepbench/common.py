"""Shared plumbing for the sweepbench workloads.

Everything here is benchmark-side: paths inside the checkout, the
host-speed calibration kernel with its quiescence guard, process
management for the daemon workloads, percentiles and the result line.
The program under test is only ever imported from ``<root>/src`` or
started as ``python -m repro...`` with that directory on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: everything a run builds or writes lives under this gitignored dir
BUILD = ROOT / ".bench_build"

#: grid scale of every cold_sweep point
GRID_SCALE = 0.05
#: the calibration kernel's median time on the reference host, run
#: alone and run as a pair (see Calibrator)
CALIB_REF_S = {False: 0.035, True: 0.04}
#: how far host-time metrics follow the kernel (see Calibrator.scale)
CALIB_EXPONENT = {False: 0.5, True: 1.0}
#: dict-loop iterations of one kernel call (~35 ms with the gather)
CALIB_ITERATIONS = 80_000


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed boot)."""


def per_layer_metrics() -> List[Dict[str, str]]:
    """The per-layer metrics BENCHMARK.json declares, in its order."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the per-layer metrics of BENCHMARK.json: {exc}")


def program_env(run_dir: Path) -> Dict[str, str]:
    """Environment for the program: sources, engine, private dirs.

    Cache, runs and native-kernel directories all live inside the
    checkout, and the cache/runs directories are fresh per run.
    """
    env = dict(os.environ)
    for key in list(env):
        if key.startswith("REPRO_"):
            del env[key]
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_ENGINE"] = "batch"
    env["REPRO_NATIVE_DIR"] = str(BUILD / "native")
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    env["REPRO_RUNS_DIR"] = str(run_dir / "runs")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def use_program_env(run_dir: Path) -> Dict[str, str]:
    """Give this process the program's environment; returns the old one.

    Replaces the whole environment, so no ``REPRO_*`` setting of the
    caller's survives into the in-process program.
    """
    saved = dict(os.environ)
    env = program_env(run_dir)
    env["REPRO_WORKERS"] = "1"
    os.environ.clear()
    os.environ.update(env)
    return saved


def restore_env(saved: Dict[str, str]) -> None:
    os.environ.clear()
    os.environ.update(saved)


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")


def build_kernel() -> None:
    """Compile the batch engine's C kernel once, outside any timing.

    Users pay the compile once per machine, not per run, so no metric
    includes it. A failed build is fatal: every workload asks for the
    batch engine, and the Python fallback would measure another program.
    """
    env = program_env(BUILD)
    env["REPRO_BATCH_BACKEND"] = "native"
    proc = subprocess.run(
        [sys.executable, "-c", "from repro.engine import native; native.load_kernel()"],
        env=env,
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise BenchError(f"native kernel build failed:\n{proc.stderr}")


def fresh_run_dir(tag: str) -> Path:
    path = BUILD / "runs" / f"{tag}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


# -- statistics -----------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def mean(values: Iterable[float]) -> float:
    data = list(values)
    return sum(data) / len(data) if data else 0.0


# -- host-speed calibration ----------------------------------------------


def _cpu_ns(pids: Sequence[int]) -> int:
    """CPU nanoseconds every thread of ``pids`` has used so far."""
    total = 0
    for pid in pids:
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                    total += int(f.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    return total


class Calibrator:
    """Times a fixed ~40 ms kernel while the program is idle.

    The kernel is a pure-Python dict loop plus a small numpy gather, the
    two kinds of work the simulator does. The gather is kept to about a
    tenth of the kernel over a 2 MB table: timed against a fixed batch
    point, a larger, memory-bound gather tracked host speed worse than
    the dict loop did, and its time also varied from process to process.
    A sample counts only if no
    process of the system under test used more than ``QUIET_NS`` of CPU
    while it ran, read from ``/proc/<pid>/task/*/schedstat`` before and
    after; so a program that polls busily cannot slow the kernel and
    make its own figures look better after scaling.

    ``paired`` runs the kernel in this process and in a helper process
    at once and times the slower of the two, for a program that keeps
    both CPUs busy. Over twenty cluster_fanout runs the log of its
    time moved with the log of the cluster's raw latency and throughput
    at a slope of about 1 (correlation 0.72-0.78), while in another set
    runs at the same lone-kernel speed differed by 30%: a neighbour
    that takes one of two CPUs slows a lone kernel little and two
    workers much.
    """

    #: CPU a watched process may use during one sample (1% of it)
    QUIET_NS = 400_000

    def __init__(self, paired: bool = False) -> None:
        import numpy as np

        self.paired = paired
        self._table = (np.arange(1 << 18, dtype=np.int64) * 2654435761) % (1 << 31)
        self._idx = (np.arange(1 << 18, dtype=np.int64) * 40503) % (1 << 18)
        self.samples: List[float] = []
        self.dropped = 0
        self.kernel()  # first-touch the arrays outside any sample
        self._peer = None
        if paired:
            self._peer = subprocess.Popen(
                [sys.executable, "-c", "import common; common._kernel_peer()"],
                cwd=str(HERE), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                preexec_fn=_die_with_parent,
            )
            self._peer.stdout.readline()

    def close(self) -> None:
        if self._peer is not None:
            self._peer.stdin.close()
            try:
                self._peer.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._peer.kill()
                self._peer.wait()
            self._peer = None

    def _timed(self) -> float:
        """Seconds of one kernel, or of the slower of a paired two."""
        if self._peer is not None:
            self._peer.stdin.write("k\n")
            self._peer.stdin.flush()
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        if self._peer is not None:
            dt = max(dt, float(self._peer.stdout.readline()))
        return dt

    def kernel(self) -> int:
        d: Dict[int, int] = {}
        x = 1
        for i in range(CALIB_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x3FFF
            d[x] = d.get(x, 0) + i
        return len(d) + int(self._table[self._idx].sum())

    def sample(self, pids: Sequence[int] = (), attempts: int = 3) -> bool:
        """Take one sample; retry up to ``attempts`` times if noisy."""
        for _ in range(attempts):
            before = _cpu_ns(pids) if pids else 0
            dt = self._timed()
            after = _cpu_ns(pids) if pids else 0
            if after - before <= self.QUIET_NS:
                self.samples.append(dt)
                return True
            self.dropped += 1
        return False

    def scale(self) -> float:
        """``(calib_ref / calib_run) ** exponent``: >1 when the host
        runs fast now.

        A lone kernel is followed only in part: over about sixty runs
        per workload, in which its median swung 17-78 ms, the log of
        each raw time or rate moved with the log of its time at a slope
        of about 0.5 (0.46-0.58), so its exponent is 0.5. Full scaling
        widened the run-to-run spread whenever the kernel moved more
        than the program; no scaling let the medians of sets taken
        minutes apart drift with the host. The paired kernel is followed
        fully (exponent 1).
        """
        if not self.samples:
            raise BenchError("no quiet calibration sample")
        ratio = CALIB_REF_S[self.paired] / statistics.median(self.samples)
        return ratio ** CALIB_EXPONENT[self.paired]

    def record(self) -> Dict[str, object]:
        return {
            "paired": self.paired,
            "calib_ref_s": CALIB_REF_S[self.paired],
            "calib_exponent": CALIB_EXPONENT[self.paired],
            "calib_run_s": statistics.median(self.samples) if self.samples else None,
            "samples": len(self.samples),
            "dropped": self.dropped,
        }


def _kernel_peer() -> None:
    """A second kernel process: times one kernel per input line."""
    cal = Calibrator()
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        cal.kernel()
        print(time.perf_counter() - t0, flush=True)


def at_reference(raw: Dict[str, float], scale: float) -> Dict[str, float]:
    """Host-time metrics at reference host speed: times are multiplied
    by the calibration scale, rates (``*_per_s``) divided by it."""
    return {k: v / scale if k.endswith("_per_s") else v * scale for k, v in raw.items()}


# -- processes ------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            children.setdefault(int(fields[1]), []).append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, []))
    return out


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Largest VmHWM (peak resident set) among ``pids``, in MB."""
    peak = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except (OSError, ValueError):
            continue
    return peak / 1024.0


def _die_with_parent() -> None:
    """In the child: get SIGKILL if the benchmark process dies first."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Proc:
    """A program process in its own session, killed with its children."""

    def __init__(self, args: List[str], env: Dict[str, str], log: Path) -> None:
        self.log = log
        with log.open("wb") as out:
            self.popen = subprocess.Popen(
                args,
                env=env,
                cwd=str(ROOT),
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=subprocess.STDOUT,
                start_new_session=True,
                preexec_fn=_die_with_parent,
            )
        self.pid = self.popen.pid

    def alive(self) -> bool:
        return self.popen.poll() is None

    def stop(self, grace_s: float = 5.0) -> None:
        """SIGTERM the whole session, then SIGKILL it, and reap."""
        if self.alive():
            try:
                os.killpg(self.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self.popen.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.popen.wait()


# -- reporting ------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def emit(result: Dict[str, object], record: Dict[str, object]) -> None:
    """Human-readable lines, the run record, then the result line last."""
    attempted = result["attempted"]
    ratio = result["failed"] / attempted if attempted else 0.0
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_op_ratio':34s} {ratio:14.6g} ratio")
    for name, m in record.get("extra_metrics", {}).items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}  (not gated)")
    print("record " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps(result), flush=True)
