"""Unit tests for the KVS, L3fwd, X-Mem, and spiky workload models."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mem.layout import AddressSpace, RegionKind
from repro.params import MiB
from repro.workloads.base import Workload
from repro.workloads.kvs import KvsParams, KvsWorkload
from repro.workloads.l3fwd import L3fwdParams, L3fwdWorkload
from repro.workloads.spiky import SpikyKvsWorkload
from repro.workloads.xmem import XMemParams, XMemWorkload

from tests.conftest import make_tiny_kvs


def built(workload, cores=2, seed=0):
    space = AddressSpace()
    workload.build(space, cores, rng=np.random.default_rng(seed))
    return space, workload


class TestKvsParams:
    def test_paper_defaults(self):
        p = KvsParams()
        assert p.num_keys == 2_400_000
        assert p.num_buckets == 1_000_000
        assert p.log_bytes == 256 * MiB
        assert p.get_fraction == 0.05
        assert p.zipf_skew == 0.99

    def test_item_blocks(self):
        assert KvsParams(item_bytes=1024).item_blocks == 16
        assert KvsParams(item_bytes=512).item_blocks == 8

    def test_scaled_shrinks_dataset(self):
        p = KvsParams().scaled(0.125)
        assert p.num_keys == 300_000
        assert p.log_bytes == 32 * MiB
        assert p.item_bytes == 1024  # item size does not scale

    def test_scaled_validation(self):
        with pytest.raises(ConfigError):
            KvsParams().scaled(0)

    def test_rejects_log_smaller_than_item(self):
        with pytest.raises(ConfigError):
            KvsParams(item_bytes=1024, log_bytes=512)


class TestKvsWorkload:
    def test_request_before_build_raises(self):
        with pytest.raises(ConfigError):
            make_tiny_kvs().request(0)

    def test_regions_allocated(self):
        space, _ = built(make_tiny_kvs())
        assert space.region("kvs_buckets").kind is RegionKind.APP
        assert space.region("kvs_log").kind is RegionKind.APP

    def test_every_request_probes_one_bucket(self):
        space, wl = built(make_tiny_kvs())
        buckets = space.region("kvs_buckets")
        for _ in range(50):
            ops = wl.request(0)
            assert buckets.contains_block(ops.app_reads[0])

    def test_get_reads_item_and_responds_with_item(self):
        space, wl = built(
            KvsWorkload(
                KvsParams(num_keys=512, num_buckets=128, log_bytes=1 << 20,
                          item_bytes=256, get_fraction=1.0)
            )
        )
        log = space.region("kvs_log")
        ops = wl.request(0)
        item_reads = ops.all_read_blocks()[1:]
        assert len(item_reads) == 4
        assert all(log.contains_block(b) for b in item_reads)
        assert ops.response_blocks == 4
        assert not ops.all_write_blocks()

    def test_set_writes_item_and_acks_one_block(self):
        space, wl = built(
            KvsWorkload(
                KvsParams(num_keys=512, num_buckets=128, log_bytes=1 << 20,
                          item_bytes=256, get_fraction=0.0)
            )
        )
        log = space.region("kvs_log")
        ops = wl.request(0)
        writes = ops.all_write_blocks()
        assert len(writes) == 4
        assert all(log.contains_block(b) for b in writes)
        assert ops.response_blocks == 1

    def test_in_place_update_rewrites_same_blocks(self):
        wl = KvsWorkload(
            KvsParams(num_keys=4, num_buckets=4, log_bytes=1 << 16,
                      item_bytes=256, get_fraction=0.0, zipf_skew=0.0,
                      update_in_place=True)
        )
        built(wl)
        seen = {}
        for _ in range(100):
            ops = wl.request(0)
            key_blocks = tuple(ops.all_write_blocks())
            seen.setdefault(key_blocks, 0)
            seen[key_blocks] += 1
        assert len(seen) <= 4  # one block set per key, reused forever

    def test_append_mode_advances_log_head(self):
        wl = KvsWorkload(
            KvsParams(num_keys=64, num_buckets=16, log_bytes=1 << 16,
                      item_bytes=256, get_fraction=0.0,
                      update_in_place=False)
        )
        built(wl)
        a = wl.request(0).all_write_blocks()
        b = wl.request(0).all_write_blocks()
        assert a != b
        assert b[0] == a[-1] + 1  # consecutive appends

    def test_append_mode_wraps_circularly(self):
        wl = KvsWorkload(
            KvsParams(num_keys=64, num_buckets=16, log_bytes=1 << 12,
                      item_bytes=256, get_fraction=0.0,
                      update_in_place=False)
        )
        space, _ = built(wl)
        log = space.region("kvs_log")
        blocks = []
        for _ in range(64):  # far more than the 16-item log holds
            blocks.extend(wl.request(0).all_write_blocks())
        assert all(log.contains_block(b) for b in blocks)

    def test_get_set_mix_tracks_fraction(self):
        wl = KvsWorkload(
            KvsParams(num_keys=512, num_buckets=128, log_bytes=1 << 20,
                      item_bytes=256, get_fraction=0.05)
        )
        built(wl)
        for _ in range(4000):
            wl.request(0)
        frac = wl.gets / (wl.gets + wl.sets)
        assert frac == pytest.approx(0.05, abs=0.02)

    def test_request_cycles_positive(self):
        wl = make_tiny_kvs()
        built(wl)
        ops = wl.request(0)
        assert wl.request_cycles(ops, packet_blocks=4) > wl.base_cycles


class TestL3fwd:
    def test_table_sized_from_rules(self):
        p = L3fwdParams(num_rules=16384, rule_bytes=64)
        assert p.table_bytes == 16384 * 64

    def test_l1_resident_variant_shrinks(self):
        p = L3fwdParams().l1_resident()
        assert p.num_rules == 128
        assert p.table_bytes <= 16 * 1024

    def test_lookups_fall_in_table(self):
        wl = L3fwdWorkload(L3fwdParams(num_rules=512, packet_blocks=4))
        space, _ = built(wl)
        table = space.region("l3fwd_table")
        for _ in range(200):
            ops = wl.request(0)
            assert all(table.contains_block(b) for b in ops.app_reads)
            assert len(ops.app_reads) == 2

    def test_copy_mode_response_is_full_packet(self):
        wl = L3fwdWorkload(L3fwdParams(packet_blocks=16, zero_copy=False))
        built(wl)
        assert wl.request(0).response_blocks == 16

    def test_zero_copy_mode_has_no_tx_copy(self):
        wl = L3fwdWorkload(L3fwdParams(packet_blocks=16, zero_copy=True))
        built(wl)
        assert wl.request(0).response_blocks == 0

    def test_request_before_build_raises(self):
        with pytest.raises(ConfigError):
            L3fwdWorkload().request(0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            L3fwdParams(num_rules=0)
        with pytest.raises(ConfigError):
            L3fwdParams(packet_blocks=0)


class TestXMem:
    def test_accesses_confined_to_private_region(self):
        wl = XMemWorkload(XMemParams(dataset_bytes=1 << 16))
        space = AddressSpace()
        wl.build(space, cores=[0, 1], rng=np.random.default_rng(0))
        r0 = space.region("xmem_dataset[0]")
        blocks, writes = wl.accesses(0, 500)
        assert all(r0.contains_block(int(b)) for b in blocks)
        assert len(writes) == 500

    def test_write_fraction(self):
        wl = XMemWorkload(XMemParams(write_fraction=0.3))
        space = AddressSpace()
        wl.build(space, cores=[0], rng=np.random.default_rng(1))
        _, writes = wl.accesses(0, 20000)
        assert np.mean(writes) == pytest.approx(0.3, abs=0.02)

    def test_non_xmem_core_rejected(self):
        wl = XMemWorkload()
        space = AddressSpace()
        wl.build(space, cores=[1], rng=np.random.default_rng(2))
        with pytest.raises(ConfigError):
            wl.accesses(0, 10)

    def test_access_before_build_raises(self):
        with pytest.raises(ConfigError):
            XMemWorkload().accesses(0, 1)

    def test_paper_dataset_default(self):
        assert XMemParams().dataset_bytes == 2 * MiB


class TestSpikyKvs:
    def test_spikes_occur_at_configured_rate(self):
        wl = SpikyKvsWorkload(
            KvsParams(num_keys=512, num_buckets=128, log_bytes=1 << 20,
                      item_bytes=256),
            spike_probability=0.05,
            rng=np.random.default_rng(4),
        )
        delays = [wl.extra_delay_us() for _ in range(20000)]
        nonzero = [d for d in delays if d > 0]
        assert len(nonzero) / len(delays) == pytest.approx(0.05, rel=0.2)
        assert all(1.0 <= d <= 100.0 for d in nonzero)

    def test_mean_extra_delay(self):
        wl = SpikyKvsWorkload(spike_probability=0.001)
        assert wl.mean_extra_delay_us() == pytest.approx(0.001 * 50.5)

    def test_plain_workload_has_no_delay(self):
        wl = make_tiny_kvs()
        assert wl.extra_delay_us() == 0.0


# ----------------------------------------------------------------------
# encode_segment: the fused loop's vector encoders vs request()
# ----------------------------------------------------------------------


def _tiny_kvs(get_fraction, update_in_place=True):
    return KvsWorkload(
        KvsParams(
            num_keys=4096,
            num_buckets=1024,
            log_bytes=1 << 20,
            item_bytes=256,
            get_fraction=get_fraction,
            update_in_place=update_in_place,
        )
    )


def _tiny_l3fwd(zero_copy, lookups):
    return L3fwdWorkload(
        L3fwdParams(
            num_rules=512,
            packet_blocks=4,
            zero_copy=zero_copy,
            lookups_per_packet=lookups,
        )
    )


ENCODERS = {
    "kvs-get0": lambda: _tiny_kvs(0.0),
    "kvs-get0.05": lambda: _tiny_kvs(0.05),
    "kvs-get1": lambda: _tiny_kvs(1.0),
    "kvs-append-get0.05": lambda: _tiny_kvs(0.05, update_in_place=False),
    "kvs-append-get1": lambda: _tiny_kvs(1.0, update_in_place=False),
    "spiky-kvs": lambda: SpikyKvsWorkload(_tiny_kvs(0.05).params),
    "l3fwd-copy-1": lambda: _tiny_l3fwd(False, 1),
    "l3fwd-copy-2": lambda: _tiny_l3fwd(False, 2),
    "l3fwd-zero-copy-1": lambda: _tiny_l3fwd(True, 1),
    "l3fwd-zero-copy-2": lambda: _tiny_l3fwd(True, 2),
}

#: request counts at which a batch runs out: the zipf batch (65,536
#: keys), the GET/SET batch (8,192 flags) and the L3fwd lookup batch
#: (8,192 reads, 4,096 requests at two lookups each)
_REFILLS = (4096, 8192, 12288, 16384, 65536, 73728)


def _segment_cuts(total, seed):
    """Segment ends over ``total`` requests: random lengths, segments of
    length 1, and segments ending exactly on, one before and one after
    each refill boundary."""
    rng = np.random.default_rng(seed)
    cuts = {1, 2, total}
    for b in _REFILLS:
        cuts.update((b - 1, b, b + 1))
    at = 0
    while at < total:
        at += int(rng.integers(1, 3000))
        cuts.add(at)
    return sorted(c for c in cuts if 0 < c <= total)


def _encoder_state(w):
    zipf = getattr(w, "_zipf", None)
    return {
        "rng": w._rng.bit_generator.state,
        "zipf": None if zipf is None else (zipf._batch, zipf._pos),
        "ops": (getattr(w, "_op_batch", None), getattr(w, "_op_pos", None)),
        "lookups": (getattr(w, "_lookup_batch", None), getattr(w, "_pos", None)),
        "counts": (getattr(w, "gets", None), getattr(w, "sets", None)),
        "log": (getattr(w, "_key_offset", None), getattr(w, "_log_head", None)),
    }


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_encode_segment_matches_per_request(name):
    """Segments crossing every batch refill encode to the base-class
    per-request buffer, and leave the RNG, batches, cursors and counters
    where ``request()`` calls leave them (warm snapshots pickle them)."""
    cores, packet_blocks, total = 3, 4, 74_000
    _, vector = built(ENCODERS[name](), cores=cores, seed=9)
    _, twin = built(ENCODERS[name](), cores=cores, seed=9)
    start = 0
    for stop in _segment_cuts(total, seed=len(name)):
        ops, touched = vector.encode_segment(start, stop, cores, packet_blocks)
        ref_ops, ref_touched = Workload.encode_segment(
            twin, start, stop, cores, packet_blocks
        )
        assert ops.dtype == touched.dtype == np.int64
        np.testing.assert_array_equal(ops, ref_ops, err_msg=f"{start}..{stop}")
        np.testing.assert_array_equal(touched, ref_touched)
        start = stop
    assert start == total
    np.testing.assert_equal(_encoder_state(vector), _encoder_state(twin))
    if isinstance(vector, KvsWorkload):
        assert vector.gets + vector.sets == total
