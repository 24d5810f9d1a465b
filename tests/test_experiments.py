"""Smoke + shape tests for every figure harness at miniature scale.

These run the real experiment code end to end (small machine, shortened
measurement) and assert the *qualitative* result each paper figure
exists to show. The benchmarks re-run the same harnesses at the larger
default scale and print the full rows.
"""

import dataclasses

import pytest

from repro.engine import snapshot
from repro.engine.analytic import (
    ServiceProfile,
    solve_collocated,
    solve_peak_throughput,
)
from repro.engine.parallel import last_run_dir, run_spec
from repro.engine.pointcache import fingerprint
from repro.experiments import REGISTRY, fig1, fig2, fig5, fig6, fig7, fig8, fig9, fig10
from repro.experiments import headline, table1
from repro.experiments.common import ExperimentSettings
from repro.obs.manifest import RunManifest
from repro.traffic import MemCategory

SETTINGS = ExperimentSettings(scale=0.05, measure_multiplier=0.25)


def test_registry_covers_every_artifact():
    assert set(REGISTRY) == {
        "table1", "fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "figS1", "figS2", "headline", "zoo",
    }


class TestTable1:
    def test_renders_paper_parameters(self):
        r = table1.run(settings=SETTINGS)
        text = r.series["rendered"]
        assert "24 x86-64 cores" in text
        assert "36 MB 12-way" in text
        assert "DDR4-3200" in text


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1.run(settings=SETTINGS)

    def test_ddio_beats_dma(self, result):
        for buffers in fig1.BUFFER_SWEEP:
            dma = result.point(f"{buffers} bufs / DMA")
            ddio = result.point(f"{buffers} bufs / DDIO 2 Ways")
            assert ddio.throughput_mrps > dma.throughput_mrps

    def test_ideal_is_upper_bound(self, result):
        for buffers in fig1.BUFFER_SWEEP:
            ideal = result.point(f"{buffers} bufs / Ideal DDIO")
            for ways in fig1.DDIO_WAYS:
                ddio = result.point(f"{buffers} bufs / DDIO {ways} Ways")
                assert ideal.throughput_mrps >= 0.95 * ddio.throughput_mrps

    def test_consumed_evictions_dominate_ddio_leaks(self, result):
        p = result.point("2048 bufs / DDIO 2 Ways").breakdown
        assert p[MemCategory.RX_EVCT] > 1.0
        assert p[MemCategory.CPU_RX_RD] < 0.2 * p[MemCategory.RX_EVCT]

    def test_deeper_buffers_leak_more(self, result):
        small = result.point("512 bufs / DDIO 2 Ways").breakdown
        big = result.point("2048 bufs / DDIO 2 Ways").breakdown
        assert big[MemCategory.RX_EVCT] >= small[MemCategory.RX_EVCT]


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2.run(settings=SETTINGS)

    def test_premature_evictions_grow_with_queue_depth(self, result):
        shallow = result.point("D=50 / DDIO 2 Ways").breakdown
        deep = result.point("D=450 / DDIO 2 Ways").breakdown
        assert deep[MemCategory.CPU_RX_RD] > shallow[MemCategory.CPU_RX_RD]

    def test_more_ways_reduce_premature_evictions(self, result):
        w2 = result.point("D=450 / DDIO 2 Ways").breakdown
        w12 = result.point("D=450 / DDIO 12 Ways").breakdown
        assert w12[MemCategory.CPU_RX_RD] < w2[MemCategory.CPU_RX_RD]

    def test_ideal_ddio_memory_traffic_negligible(self, result):
        for depth in fig2.QUEUE_DEPTHS:
            ideal = result.point(f"D={depth} / Ideal DDIO")
            w2 = result.point(f"D={depth} / DDIO 2 Ways")
            assert ideal.trace.mem_accesses_per_request() < (
                0.2 * w2.trace.mem_accesses_per_request()
            )


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run(
            settings=SETTINGS,
            packet_sizes=(1024,),
            buffer_sweep=(512, 2048),
            ddio_ways=(2, 12),
        )

    def test_sweeper_eliminates_rx_evictions(self, result):
        for buffers in (512, 2048):
            base = result.point(f"1024B / {buffers} bufs / DDIO 2 Ways")
            sw = result.point(f"1024B / {buffers} bufs / DDIO 2 Ways + Sweeper")
            assert base.breakdown[MemCategory.RX_EVCT] > 0.5
            assert sw.breakdown[MemCategory.RX_EVCT] < 0.1 * (
                base.breakdown[MemCategory.RX_EVCT]
            )

    def test_sweeper_always_helps(self, result):
        assert result.series["sweeper_gain_min"] >= 1.0

    def test_sweeper_near_ideal(self, result):
        for buffers in (512, 2048):
            ideal = result.point(f"1024B / {buffers} bufs / Ideal DDIO")
            sw = result.point(
                f"1024B / {buffers} bufs / DDIO 12 Ways + Sweeper"
            )
            assert sw.throughput_mrps >= 0.75 * ideal.throughput_mrps

    def test_sweeper_insensitive_to_buffers_baseline_is_not(self, result):
        base_512 = result.point("1024B / 512 bufs / DDIO 2 Ways")
        base_2048 = result.point("1024B / 2048 bufs / DDIO 2 Ways")
        sw_512 = result.point("1024B / 512 bufs / DDIO 2 Ways + Sweeper")
        sw_2048 = result.point("1024B / 2048 bufs / DDIO 2 Ways + Sweeper")
        sw_spread = abs(sw_2048.throughput_mrps / sw_512.throughput_mrps - 1)
        base_spread = abs(
            base_2048.throughput_mrps / base_512.throughput_mrps - 1
        )
        assert sw_spread < base_spread


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run(settings=SETTINGS)

    def test_sweeper_lowers_latency_at_peak_and_iso(self, result):
        for panel in ("at_peak", "iso_throughput"):
            curves = fig6.curves_by_label(result, panel)
            assert (
                curves["DDIO 2 Ways + Sweeper"].mean_cycles
                < curves["DDIO 2 Ways"].mean_cycles
            )
            assert (
                curves["DDIO 2 Ways + Sweeper"].p99_cycles
                < curves["DDIO 2 Ways"].p99_cycles
            )

    def test_cdf_curves_are_valid(self, result):
        for curve in result.series["at_peak"]:
            assert curve.cdf[0] <= 0.01
            assert curve.cdf[-1] > 0.99

    def test_sweeper_runs_at_higher_throughput_at_peak(self, result):
        curves = fig6.curves_by_label(result, "at_peak")
        assert (
            curves["DDIO 2 Ways + Sweeper"].throughput_mrps
            > curves["DDIO 2 Ways"].throughput_mrps
        )


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run(settings=SETTINGS)

    def test_sweeper_helps_despite_premature_evictions(self, result):
        assert min(result.series["sweeper_gains"]) > 1.0

    def test_residual_rx_evictions_are_premature_only(self, result):
        for rx_evct, rx_rd in result.series["residual_match"]:
            assert rx_evct == pytest.approx(rx_rd, rel=0.15, abs=0.05)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8.run(settings=SETTINGS)

    def test_more_channels_more_throughput(self, result):
        for packet, buffers in fig8.SCENARIOS:
            a = result.point(f"{packet}B/{buffers} bufs / 3ch / DDIO 2 Ways")
            b = result.point(f"{packet}B/{buffers} bufs / 8ch / DDIO 2 Ways")
            assert b.throughput_mrps > a.throughput_mrps

    def test_sweeper_gain_shrinks_with_channels(self, result):
        gains = result.series["sweeper_gain_by_channels"]
        assert gains[3][1] >= gains[8][1]

    def test_sweeper_never_materially_hurts(self, result):
        # Paper's floor is 1.02x; allow tiny-scale measurement noise on
        # the configs where Sweeper is merely neutral.
        assert gains_min(result) >= 0.95


def gains_min(result):
    return min(lo for lo, _hi in result.series["sweeper_gain_by_channels"].values())


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        # A point cache of its own, so a second run can be all hits.
        mp = pytest.MonkeyPatch()
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("fig9")))
        mp.delenv("REPRO_NO_CACHE", raising=False)
        yield fig9.run(settings=SETTINGS)
        mp.undo()

    def test_specs_are_distinct_and_share_no_warmup(self):
        specs = fig9.specs(SETTINGS)
        assert len({fingerprint(s) for s in specs}) == len(specs) == 22
        warmups = {snapshot.warmup_fingerprint(s) for s in specs}
        assert len(warmups) == 22

    def test_collocated_run_spec_carries_the_joint_answer(self):
        """``run_spec`` solves a collocated point's NF + X-Mem fixed
        point, not the NF's throughput as if it ran alone."""
        spec = dataclasses.replace(
            fig9.collocated_spec(fig9.clamp(SETTINGS), 4, False, partitioned=True),
            warmup_requests=400,
            measure_requests=600,
        )
        result = run_spec(spec)
        trace, cores = result.trace, spec.system.cpu.num_cores
        per_req = trace.per_request()
        app = per_req[MemCategory.CPU_OTHER_RD] + per_req[MemCategory.OTHER_EVCT]
        nf_profile = dataclasses.replace(
            ServiceProfile.from_trace(trace),
            mem_blocks_total=trace.mem_accesses_per_request() - app,
        )
        joint = solve_collocated(
            nf_profile,
            trace.xmem_level_counts,
            app * trace.requests / trace.xmem_accesses,
            spec.system,
            nf_cores=cores // 2,
            xmem_cores=cores - cores // 2,
        )
        assert result.perf == joint
        assert result.throughput_mrps == joint.nf_throughput_mrps
        assert result.mem_bandwidth_gbps == joint.mem_bandwidth_gbps
        alone = solve_peak_throughput(result.profile, spec.system)
        assert result.throughput_mrps < alone.throughput_mrps
        assert fig9.collocated_point(spec, result).perf is result.perf

    def test_second_run_is_all_cache_hits(self, result):
        again = fig9.run(settings=SETTINGS)
        manifest = RunManifest.load(last_run_dir() / "manifest.json")
        assert manifest.run_label == "fig9"
        assert len(manifest.points) == manifest.cached_points == 22
        assert again.render() == result.render()
        assert again.notes == result.notes
        assert again.series == result.series

    def test_partition_tradeoff_exists(self, result):
        """More DDIO ways help the NF and hurt X-Mem (baseline)."""
        part = result.series["partitioned"]
        nf_small = part[(2, False)].perf.nf_throughput_mrps
        nf_big = part[(10, False)].perf.nf_throughput_mrps
        xm_small = part[(2, False)].perf.xmem_ipc
        xm_big = part[(10, False)].perf.xmem_ipc
        assert nf_big >= nf_small * 0.95
        assert xm_big <= xm_small * 1.05

    def test_sweeper_shifts_the_frontier_outward(self, result):
        part = result.series["partitioned"]
        for a, _b in fig9.PARTITIONS_9A:
            base = part[(a, False)].perf
            sw = part[(a, True)].perf
            assert sw.nf_throughput_mrps >= base.nf_throughput_mrps
            assert sw.xmem_ipc >= base.xmem_ipc * 0.98

    def test_overlapping_sweeper_makes_nf_way_insensitive(self, result):
        over = result.series["overlapping"]
        sw = [over[(w, True)].perf.nf_throughput_mrps
              for w in fig9.OVERLAP_WAYS_9B]
        assert max(sw) / min(sw) < 1.25


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run(settings=SETTINGS, packets_per_core=4000)

    def test_deeper_buffers_beat_shallow_on_no_drop_peak(self, result):
        """Paper Fig 10a: shallow (128) handicaps the drop-free peak;
        some deeper provisioning beats it (the exact best depth shifts
        because leaks penalize the deepest baseline config)."""
        peaks = result.series["peak_no_drop_mrps"]
        best_deep = max(peaks[(b, False)] for b in (256, 512, 1024, 2048))
        assert best_deep > peaks[(128, False)]

    def test_sweeper_lifts_deep_buffer_peak(self, result):
        """Paper Fig 10a: with Sweeper, the deepest buffers win outright."""
        peaks = result.series["peak_no_drop_mrps"]
        assert peaks[(2048, True)] >= peaks[(2048, False)]
        assert peaks[(2048, True)] >= max(
            peaks[(b, False)] for b in (128, 256, 512, 1024, 2048)
        )

    def test_drop_curves_monotone(self, result):
        for curve in result.series["drop_curves"]:
            drops = curve.drop_rate
            assert all(b >= a - 0.02 for a, b in zip(drops, drops[1:]))


class TestHeadline:
    @pytest.fixture(scope="class")
    def result(self):
        return headline.run(settings=SETTINGS)

    def test_material_throughput_gain(self, result):
        assert result.series["max_throughput_gain"] > 1.3

    def test_material_bandwidth_saving(self, result):
        assert result.series["max_bandwidth_saving"] > 1.2

    def test_render_mentions_paper_targets(self, result):
        text = result.render()
        assert "2.6x" in text
        assert "1.3x" in text
