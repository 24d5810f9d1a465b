"""End-to-end invariants of the trace engine — the paper's core claims
reproduced at miniature scale."""

import pytest

from repro.cache.hierarchy import AccessLevel
from repro.engine.tracer import CollocationSimulator, TraceConfig, TraceSimulator
from repro.errors import ConfigError
from repro.traffic import MemCategory
from repro.workloads.xmem import Colocation, XMemParams

from tests.conftest import make_tiny_kvs, make_tiny_l3fwd, make_tiny_system


def run_trace(policy="ddio", sweeper=False, queued_depth=1, workload=None,
              system=None, warmup=3000, measure=2000, **sys_kwargs):
    system = system or make_tiny_system(**sys_kwargs)
    cfg = TraceConfig(
        system=system,
        workload=workload or make_tiny_kvs(),
        policy=policy,
        sweeper=sweeper,
        queued_depth=queued_depth,
        warmup_requests=warmup,
        measure_requests=measure,
    )
    return TraceSimulator(cfg).run()


class TestBaselineShapes:
    def test_ddio_breakdown_dominated_by_consumed_evictions(self):
        """§IV-A: RX Evct dominates; premature (CPU RX Rd) negligible."""
        r = run_trace("ddio")
        per = r.per_request()
        assert per[MemCategory.RX_EVCT] > 1.0
        assert per[MemCategory.CPU_RX_RD] < 0.1 * per[MemCategory.RX_EVCT]
        assert per[MemCategory.NIC_RX_WR] == 0.0

    def test_dma_breakdown(self):
        """DMA: NIC writes and CPU reads hit memory once per packet block;
        no RX evictions (CPU copies are clean)."""
        r = run_trace("dma")
        per = r.per_request()
        blocks = 4  # 256B packets
        assert per[MemCategory.NIC_RX_WR] == pytest.approx(blocks, rel=0.01)
        assert per[MemCategory.CPU_RX_RD] == pytest.approx(blocks, rel=0.01)
        assert per[MemCategory.NIC_TX_RD] > 0
        assert per[MemCategory.RX_EVCT] == 0.0

    def test_ideal_ddio_has_zero_network_memory_traffic(self):
        r = run_trace("ideal")
        per = r.per_request()
        for cat in (MemCategory.NIC_RX_WR, MemCategory.NIC_TX_RD,
                    MemCategory.CPU_RX_RD, MemCategory.CPU_TX_RDWR,
                    MemCategory.RX_EVCT, MemCategory.TX_EVCT):
            assert per[cat] == 0.0
        # network buffer reads are serviced at LLC latency
        assert r.level_counts[AccessLevel.LLC] > 0

    def test_dma_moves_more_data_than_ddio(self):
        """Figure 1b/1c: DMA's per-request traffic exceeds DDIO's."""
        dma = run_trace("dma").mem_accesses_per_request()
        ddio = run_trace("ddio").mem_accesses_per_request()
        assert dma > ddio


class TestSweeperClaims:
    def test_sweeper_eliminates_consumed_buffer_evictions(self):
        base = run_trace("ddio", sweeper=False)
        swept = run_trace("ddio", sweeper=True)
        base_evct = base.per_request()[MemCategory.RX_EVCT]
        assert base_evct > 1.0
        assert swept.per_request()[MemCategory.RX_EVCT] < 0.05 * base_evct
        assert swept.sweep_instructions > 0

    def test_sweeper_reduces_total_memory_traffic(self):
        base = run_trace("ddio", sweeper=False)
        swept = run_trace("ddio", sweeper=True)
        assert (
            swept.mem_accesses_per_request()
            < 0.7 * base.mem_accesses_per_request()
        )

    def test_sweeper_insensitive_to_buffer_depth(self):
        """§VI-A: Sweeper breaks the buffer-provisioning tradeoff."""
        shallow = run_trace("ddio", sweeper=True, rx_buffers=32)
        deep = run_trace("ddio", sweeper=True, rx_buffers=256)
        assert deep.mem_accesses_per_request() == pytest.approx(
            shallow.mem_accesses_per_request(), rel=0.15
        )

    def test_baseline_degrades_with_buffer_depth(self):
        shallow = run_trace("ddio", rx_buffers=16)
        deep = run_trace("ddio", rx_buffers=256)
        assert (
            deep.per_request()[MemCategory.RX_EVCT]
            > shallow.per_request()[MemCategory.RX_EVCT]
        )

    def test_residual_rx_evictions_match_premature_reads(self):
        """Figure 7b signature: with Sweeper, RX Evct == CPU RX Rd."""
        r = run_trace("ddio", sweeper=True, queued_depth=24,
                      workload=make_tiny_l3fwd())
        per = r.per_request()
        assert per[MemCategory.CPU_RX_RD] > 0.3  # premature evictions exist
        assert per[MemCategory.RX_EVCT] == pytest.approx(
            per[MemCategory.CPU_RX_RD], rel=0.1
        )


class TestQueuedDepth:
    def test_backlog_maintained(self):
        system = make_tiny_system(rx_buffers=64)
        cfg = TraceConfig(system=system, workload=make_tiny_kvs(),
                          queued_depth=16, warmup_requests=0,
                          measure_requests=10)
        sim = TraceSimulator(cfg)
        sim.run_requests(50)
        for ring in sim.rx_rings:
            assert 15 <= ring.backlog <= 16

    def test_deeper_queues_cause_premature_evictions(self):
        shallow = run_trace("ddio", queued_depth=1, workload=make_tiny_l3fwd())
        deep = run_trace("ddio", queued_depth=24, workload=make_tiny_l3fwd())
        assert (
            deep.per_request()[MemCategory.CPU_RX_RD]
            > shallow.per_request()[MemCategory.CPU_RX_RD] + 0.2
        )

    def test_invalid_depth_rejected(self):
        system = make_tiny_system()
        cfg = TraceConfig(system=system, workload=make_tiny_kvs(),
                          queued_depth=0)
        with pytest.raises(ConfigError):
            TraceSimulator(cfg)

    def test_no_drops_when_depth_fits_ring(self):
        r = run_trace("ddio", queued_depth=16, rx_buffers=64)
        assert r.drops == 0


class TestZeroCopyTxPath:
    def test_nic_sweeps_rx_buffer_after_transmit(self):
        """§V-D: zero-copy NF + SweepBuffer -> NIC-driven sweeping."""
        r = run_trace("ddio", sweeper=True,
                      workload=make_tiny_l3fwd(zero_copy=True))
        assert r.nic_sweeps > 0
        assert r.sweep_instructions == 0  # CPU never relinquishes
        assert r.per_request()[MemCategory.RX_EVCT] < 0.05

    def test_zero_copy_without_sweeper_still_leaks(self):
        r = run_trace("ddio", sweeper=False,
                      workload=make_tiny_l3fwd(zero_copy=True))
        assert r.per_request()[MemCategory.RX_EVCT] > 1.0


class TestMeasurement:
    def test_per_request_normalisation(self):
        r = run_trace("ddio", measure=1000)
        assert r.requests == 1000
        total = sum(r.per_request().values())
        assert total == pytest.approx(r.mem_accesses_per_request())

    def test_levels_accounting_covers_all_cpu_accesses(self):
        r = run_trace("ddio")
        levels = r.levels_per_request()
        # packet reads + app + tx writes, all attributed to some level
        assert sum(levels.values()) > 4  # at least the packet blocks

    def test_zero_measure_rejected(self):
        system = make_tiny_system()
        cfg = TraceConfig(system=system, workload=make_tiny_kvs(),
                          warmup_requests=0, measure_requests=0)
        with pytest.raises(ConfigError):
            TraceSimulator(cfg).run()

    def test_determinism(self):
        a = run_trace("ddio", warmup=500, measure=500)
        b = run_trace("ddio", warmup=500, measure=500)
        assert a.traffic.snapshot() == b.traffic.snapshot()
        assert a.level_counts == b.level_counts


class TestCollocation:
    def make(self, sweeper=False, xmem_mask=None):
        system = make_tiny_system(num_cores=2)
        cfg = TraceConfig(
            system=system,
            workload=make_tiny_l3fwd(),
            policy="ddio",
            sweeper=sweeper,
            warmup_requests=1500,
            measure_requests=1000,
        )
        return CollocationSimulator(
            cfg,
            Colocation(
                xmem=XMemParams(dataset_bytes=1 << 16), xmem_ways=xmem_mask
            ),
        )

    def test_xmem_activity_recorded(self):
        result = self.make().run()
        assert result.xmem_accesses > 0
        counts = result.xmem_level_counts
        rates = {lv: n / result.xmem_accesses for lv, n in counts.items()}
        assert sum(rates.values()) == pytest.approx(1.0)

    def test_xmem_partition_respected(self):
        sim = self.make(xmem_mask=(10, 11))
        sim.run()
        # X-Mem's dataset blocks in the LLC live only in ways 10-11.
        region = sim.space.region("xmem_dataset[1]")
        for block in sim.hier.llc.resident_blocks():
            if region.contains_block(block):
                assert sim.hier.llc.way_of(block) in (10, 11)

    def test_requires_an_nf_core(self):
        system = make_tiny_system(num_cores=1)
        cfg = TraceConfig(system=system, workload=make_tiny_l3fwd())
        with pytest.raises(ConfigError):
            CollocationSimulator(cfg, Colocation())

    def test_sweeper_does_not_hurt_partitioned_xmem_hit_rate(self):
        """§VI-E disjoint partitions: with X-Mem fenced off from the DDIO
        ways, Sweeper's cleaning must not degrade X-Mem's cache hit rate
        (its IPC gain then comes from the bandwidth relief the analytic
        layer models)."""
        mask = tuple(range(2, 12))
        base = self.make(sweeper=False, xmem_mask=mask).run()
        swept = self.make(sweeper=True, xmem_mask=mask).run()
        base_mem = base.xmem_level_counts[AccessLevel.MEM] / base.xmem_accesses
        swept_mem = (
            swept.xmem_level_counts[AccessLevel.MEM] / swept.xmem_accesses
        )
        assert swept_mem <= base_mem + 0.03
