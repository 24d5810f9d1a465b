"""Unit tests for the cache hierarchy and its coherence-ish semantics."""

import pytest

from repro.cache.hierarchy import AccessLevel, CacheHierarchy
from repro.errors import ConfigError
from repro.mem.layout import RegionKind
from repro.traffic import MemCategory

from repro.engine.batch import build_hierarchy
from tests.conftest import make_tiny_system, needs_kernel

RX = RegionKind.RX_BUFFER
TX = RegionKind.TX_BUFFER
APP = RegionKind.APP


def make_hier(**kwargs) -> CacheHierarchy:
    return CacheHierarchy(make_tiny_system(**kwargs))


class TestCpuReadPath:
    def test_first_read_misses_to_memory_and_fills_l1_l2(self):
        h = make_hier()
        assert h.cpu_read(0, 100, APP) is AccessLevel.MEM
        assert h.traffic.get(MemCategory.CPU_OTHER_RD) == 1
        assert h.l1s[0].contains(100)
        assert h.l2s[0].contains(100)
        assert not h.llc.contains(100)  # non-inclusive: no LLC fill on miss

    def test_second_read_hits_l1(self):
        h = make_hier()
        h.cpu_read(0, 100, APP)
        assert h.cpu_read(0, 100, APP) is AccessLevel.L1
        assert h.traffic.total() == 1

    def test_read_miss_category_follows_kind(self):
        h = make_hier()
        h.cpu_read(0, 1, RX)
        h.cpu_read(0, 2, TX)
        h.cpu_read(0, 3, APP)
        assert h.traffic.get(MemCategory.CPU_RX_RD) == 1
        assert h.traffic.get(MemCategory.CPU_TX_RDWR) == 1
        assert h.traffic.get(MemCategory.CPU_OTHER_RD) == 1

    def test_llc_read_hit_retains_line(self):
        """Consumed-buffer mechanism: dirty RX lines stay parked in LLC."""
        h = make_hier()
        h.nic_llc_write(0, 100, RX)
        assert h.cpu_read(0, 100, RX) is AccessLevel.LLC
        assert h.llc.contains(100)
        assert h.llc.is_dirty(100)
        assert h.l1s[0].contains(100)
        assert h.traffic.total() == 0

    def test_cross_core_llc_hit(self):
        h = make_hier()
        h.nic_llc_write(0, 100, RX)
        assert h.cpu_read(1, 100, RX) is AccessLevel.LLC
        assert h.l1s[1].contains(100)


class TestCpuWritePath:
    def test_write_miss_is_rfo_read(self):
        h = make_hier()
        assert h.cpu_write(0, 50, TX) is AccessLevel.MEM
        assert h.traffic.get(MemCategory.CPU_TX_RDWR) == 1
        assert h.l1s[0].is_dirty(50)

    def test_write_hit_in_llc_takes_ownership(self):
        h = make_hier()
        h.nic_llc_write(0, 100, RX)
        assert h.cpu_write(0, 100, RX) is AccessLevel.LLC
        assert not h.llc.contains(100)
        assert h.l1s[0].is_dirty(100)

    def test_l1_write_hit_stays_local(self):
        h = make_hier()
        h.cpu_write(0, 50, APP)
        assert h.cpu_write(0, 50, APP) is AccessLevel.L1
        assert h.traffic.total() == 1  # only the initial RFO


class TestEvictionCascade:
    def test_dirty_data_flows_down_to_memory_writeback(self):
        """Write enough dirty blocks through one core that evictions
        cascade L1 -> L2 -> LLC -> memory, attributed to the kind."""
        h = make_hier()
        l2_blocks = h.l2s[0].params.num_blocks
        llc_blocks = h.llc.params.num_blocks
        total = (l2_blocks + llc_blocks) * 2
        for b in range(total):
            h.cpu_write(0, b, APP)
        assert h.traffic.get(MemCategory.OTHER_EVCT) > 0

    def test_clean_data_never_writes_back(self):
        h = make_hier()
        total = (h.l2s[0].params.num_blocks + h.llc.params.num_blocks) * 2
        for b in range(total):
            h.cpu_read(0, b, APP)
        for cat in (MemCategory.OTHER_EVCT, MemCategory.RX_EVCT, MemCategory.TX_EVCT):
            assert h.traffic.get(cat) == 0

    def test_clean_victims_dropped_by_default(self):
        h = make_hier()
        assert not h.victim_fill_clean
        # Stream reads through L2; clean victims must not allocate in LLC.
        total = h.l2s[0].params.num_blocks * 3
        for b in range(total):
            h.cpu_read(0, b, APP)
        assert h.llc.occupancy() == 0

    def test_clean_victim_fill_ablation(self):
        h = CacheHierarchy(make_tiny_system(), victim_fill_clean=True)
        total = h.l2s[0].params.num_blocks * 3
        for b in range(total):
            h.cpu_read(0, b, APP)
        assert h.llc.occupancy() > 0


class TestNicSide:
    def test_ddio_write_allocates_dirty_in_ddio_ways(self):
        h = make_hier(ddio_ways=2)
        h.nic_llc_write(0, 100, RX)
        assert h.llc.contains(100)
        assert h.llc.is_dirty(100)
        assert h.llc.way_of(100) in (0, 1)
        assert h.traffic.total() == 0

    def test_ddio_write_snoops_private_copies(self):
        h = make_hier()
        h.cpu_read(0, 100, RX)  # cached in L1/L2 (from memory)
        h.traffic.reset()
        h.nic_llc_write(0, 100, RX)
        assert not h.l1s[0].contains(100)
        assert not h.l2s[0].contains(100)
        assert h.traffic.total() == 0  # full-line overwrite: no writeback

    def test_ddio_thrash_writes_back_dirty_victims_as_rx_evct(self):
        h = make_hier(ddio_ways=1)
        ddio_capacity = h.llc.num_sets  # one way
        for b in range(ddio_capacity * 3):
            h.nic_llc_write(0, b, RX)
        assert h.traffic.get(MemCategory.RX_EVCT) >= ddio_capacity
        assert h.traffic.get(MemCategory.OTHER_EVCT) == 0

    def test_ddio_in_place_hit_outside_ddio_ways(self):
        h = make_hier(ddio_ways=2)
        h.set_core_fill_mask(0, [4, 5])
        # Park a dirty TX line in way 4/5 via an L2 eviction cascade.
        h.cpu_write(0, 7, TX)
        for b in range(64, 64 + h.l2s[0].params.num_blocks * 2):
            h.cpu_read(0, b, APP)
            h.cpu_write(0, b + 10000, APP)
        if h.llc.contains(7):
            way = h.llc.way_of(7)
            h.nic_llc_write(0, 7, TX)
            assert h.llc.way_of(7) == way  # updated in place, not moved

    def test_nic_probe_read_hit_no_traffic(self):
        h = make_hier()
        h.cpu_write(0, 50, TX)
        assert h.nic_probe_read(0, 50)
        assert h.traffic.get(MemCategory.NIC_TX_RD) == 0

    def test_nic_probe_read_miss_counts_tx_read_without_allocating(self):
        h = make_hier()
        assert not h.nic_probe_read(0, 50)
        assert h.traffic.get(MemCategory.NIC_TX_RD) == 1
        assert not h.llc.contains(50)

    def test_invalidate_discard_drops_dirty_silently(self):
        h = make_hier()
        h.cpu_write(0, 50, TX)
        assert h.invalidate_block(0, 50, discard_dirty=True)
        assert h.traffic.get(MemCategory.TX_EVCT) == 0
        assert not h.l1s[0].contains(50)

    def test_invalidate_flush_writes_back_dirty(self):
        h = make_hier()
        h.cpu_write(0, 50, TX)
        h.traffic.reset()
        assert h.invalidate_block(0, 50, discard_dirty=False)
        assert h.traffic.get(MemCategory.TX_EVCT) == 1

    def test_invalidate_clean_reports_false(self):
        h = make_hier()
        h.cpu_read(0, 50, APP)
        h.traffic.reset()
        assert not h.invalidate_block(0, 50, discard_dirty=False)
        assert h.traffic.total() == 0


class TestSweep:
    def test_sweep_drops_all_copies_without_writeback(self):
        h = make_hier()
        h.nic_llc_write(0, 100, RX)
        h.cpu_read(0, 100, RX)  # copies in L1, L2; dirty line in LLC
        h.traffic.reset()
        dropped = h.sweep_block(0, 100)
        assert dropped == 3
        assert not h.resident_anywhere(0, 100)
        assert h.traffic.total() == 0

    def test_sweep_absent_block_is_harmless(self):
        h = make_hier()
        assert h.sweep_block(0, 100) == 0

    def test_sweep_then_nic_write_causes_no_eviction(self):
        """The whole point: a swept slot absorbs the next packet free."""
        h = make_hier(ddio_ways=1)
        capacity = h.llc.num_sets
        for b in range(capacity):
            h.nic_llc_write(0, b, RX)
            h.cpu_read(0, b, RX)
            h.sweep_block(0, b)
        for b in range(capacity, 2 * capacity):
            h.nic_llc_write(0, b, RX)
        assert h.traffic.get(MemCategory.RX_EVCT) == 0


class TestConfiguration:
    def test_ddio_mask_validation(self):
        h = make_hier()
        with pytest.raises(ConfigError):
            h.set_ddio_way_mask([99])

    def test_core_fill_mask_validation_and_clear(self):
        h = make_hier()
        h.set_core_fill_mask(0, [0, 1])
        h.set_core_fill_mask(0, None)
        with pytest.raises(ConfigError):
            h.set_core_fill_mask(0, [12])

    @pytest.mark.parametrize("engine", ["object", pytest.param("batch", marks=needs_kernel)])
    def test_empty_masks_rejected_on_both_engines(self, engine):
        """An empty mask leaves no way to insert into; the object engine
        raised at the insert and the kernel dropped it, so the setters
        refuse it and the masks stay as they were."""
        h = build_hierarchy(make_tiny_system(), engine)
        with pytest.raises(ConfigError, match="empty"):
            h.set_ddio_way_mask([])
        with pytest.raises(ConfigError, match="empty"):
            h.set_core_fill_mask(0, [])
        assert h.ddio_way_mask == (0, 1)
        assert h._core_fill_masks[0] is None
        h.nic_llc_write_run(0, range(100, 104), RegionKind.RX_BUFFER)
        assert h.llc.stats.insertions == 4

    def test_core_fill_mask_confines_victim_fills(self):
        h = make_hier()
        h.set_core_fill_mask(0, [11])
        total = h.l2s[0].params.num_blocks * 2
        for b in range(total):
            h.cpu_write(0, b, APP)
        for block in h.llc.resident_blocks():
            assert h.llc.way_of(block) == 11

    def test_reset_stats(self):
        h = make_hier()
        h.cpu_read(0, 1, APP)
        h.reset_stats()
        assert h.traffic.total() == 0
        assert h.l1s[0].stats.accesses == 0
