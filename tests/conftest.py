"""Shared fixtures: a tiny-but-complete machine for fast tests.

The `tiny` fixtures shrink every structure (2 cores, KB-scale caches,
short rings, 256 B packets) while keeping the same structural ratios as
the paper's machine — RX footprint larger than the DDIO ways — so every
qualitative behaviour under test still occurs, in milliseconds.
"""

from __future__ import annotations

import pytest

from repro.engine import native
from repro.errors import ConfigError
from repro.params import (
    CacheParams,
    CpuParams,
    MemoryParams,
    NicParams,
    SystemConfig,
)
from repro.workloads.kvs import KvsParams, KvsWorkload
from repro.workloads.l3fwd import L3fwdParams, L3fwdWorkload


def _kernel_loads() -> bool:
    try:
        native.load_kernel()
    except ConfigError:  # pragma: no cover - env-dependent
        return False
    return True


#: Whether the batch engine's C kernel builds here. Without a C compiler
#: ``engine="batch"`` runs the object engine, so tests of the batch
#: engine itself carry ``needs_kernel``.
KERNEL = _kernel_loads()
needs_kernel = pytest.mark.skipif(not KERNEL, reason="no C compiler")


def make_tiny_system(
    num_cores: int = 2,
    ddio_ways: int = 2,
    rx_buffers: int = 64,
    packet_bytes: int = 256,
    llc_sets: int = 64,
    llc_replacement: str = "random",
    num_channels: int = 4,
    private_replacement: str = "lru",
    l1_ways: int = 4,
    l2_ways: int = 8,
    llc_ways: int = 12,
) -> SystemConfig:
    """A miniature Table-I machine: RX footprint >> DDIO capacity.

    ``private_replacement`` and the ``*_ways`` arguments vary the cache
    geometry for tests that cover every replacement path; the L1 and L2
    keep their sizes (4 KB and 16 KB), so fewer ways means more sets.
    """
    return SystemConfig(
        cpu=CpuParams(num_cores=num_cores),
        l1=CacheParams(
            size_bytes=4096,
            ways=l1_ways,
            latency_cycles=4,
            replacement=private_replacement,
        ),
        l2=CacheParams(
            size_bytes=16384,
            ways=l2_ways,
            latency_cycles=14,
            replacement=private_replacement,
        ),
        llc=CacheParams(
            size_bytes=llc_sets * llc_ways * 64,
            ways=llc_ways,
            latency_cycles=35,
            replacement=llc_replacement,
        ),
        memory=MemoryParams(num_channels=num_channels, channel_peak_gbps=1.6),
        nic=NicParams(
            rx_buffers_per_core=rx_buffers,
            tx_buffers_per_core=8,
            packet_bytes=packet_bytes,
            ddio_ways=ddio_ways,
        ),
    )


def make_tiny_kvs(item_bytes: int = 256) -> KvsWorkload:
    return KvsWorkload(
        KvsParams(
            num_keys=4096,
            num_buckets=1024,
            log_bytes=1 << 20,
            item_bytes=item_bytes,
        )
    )


def make_tiny_l3fwd(packet_bytes: int = 256, zero_copy: bool = False) -> L3fwdWorkload:
    return L3fwdWorkload(
        L3fwdParams(
            num_rules=512,
            packet_blocks=(packet_bytes + 63) // 64,
            zero_copy=zero_copy,
        )
    )


@pytest.fixture(autouse=True, scope="session")
def _isolate_observability(tmp_path_factory):
    """Keep tests from littering results/ or inheriting obs knobs.

    Manifests stay enabled (tests exercise them) but are written under
    a session tmp dir, and the point cache starts empty in another one,
    so a run never depends on what the working tree's cache holds.
    Epoch sampling and the event log default off so the suite stays
    quiet and bit-identical to the seed behaviour. Session-scoped so it
    runs before the module-scoped figure fixtures in test_experiments.py
    (which call run_points during setup).
    """
    mp = pytest.MonkeyPatch()
    session_dir = tmp_path_factory.mktemp("obs")
    mp.setenv("REPRO_RUNS_DIR", str(session_dir / "runs"))
    mp.setenv("REPRO_CACHE_DIR", str(session_dir / "pointcache"))
    for var in (
        "REPRO_EPOCH",
        "REPRO_LOG",
        "REPRO_LOG_FILE",
        "REPRO_LOG_LEVEL",
        "REPRO_NO_MANIFEST",
        "REPRO_CACHE_MAX_MB",
        "REPRO_RETRIES",
        "REPRO_RETRY_BACKOFF_S",
        "REPRO_POINT_TIMEOUT_S",
        "REPRO_FAULT_SPEC",
        "REPRO_FAULT_STATE",
        "REPRO_CLUSTER_LEASE_TTL_S",
        "REPRO_CLUSTER_BATCH",
        "REPRO_CLUSTER_WORKER",
        "REPRO_SERVE_TIMEOUT_S",
        "REPRO_SNAPSHOTS",
        "REPRO_SCHED_POLICY",
        "REPRO_TENANTS",
    ):
        mp.delenv(var, raising=False)
    yield
    mp.undo()


@pytest.fixture
def tiny_system() -> SystemConfig:
    return make_tiny_system()


@pytest.fixture
def tiny_kvs() -> KvsWorkload:
    return make_tiny_kvs()


@pytest.fixture
def tiny_l3fwd() -> L3fwdWorkload:
    return make_tiny_l3fwd()
