"""Unit and property tests for the Zipf key-popularity sampler."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.workloads.zipf import CHUNK, ZipfGenerator, zipf_cdf


def eager_stream(num_items, seed, batch_size, batches, skew=0.99):
    """The ids a generator hands out, each batch converted at once
    (``perm[searchsorted(cdf, u)]``), and the RNG after ``batches``
    refills."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_items)
    cdf = zipf_cdf(num_items, skew)
    ids = [
        perm[np.searchsorted(cdf, rng.random(batch_size), side="left")]
        for _ in range(batches)
    ]
    return np.concatenate(ids), rng


def interleaved(z, total, seed):
    """``total`` ids drawn from ``z`` by a seeded mix of single
    ``sample`` calls and ``sample_run`` runs."""
    steps = np.random.default_rng(seed)
    out = []
    while len(out) < total:
        n = min(int(steps.integers(1, 3000)), total - len(out))
        if steps.random() < 0.5:
            out.extend(z.sample() for _ in range(min(n, 40)))
        else:
            out.extend(z.sample_run(n).tolist())
    return out


class TestDistribution:
    def test_samples_within_range(self):
        z = ZipfGenerator(100, rng=np.random.default_rng(1))
        samples = z.sample_many(5000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_rank_probabilities_sum_to_one(self):
        z = ZipfGenerator(50, skew=0.99)
        total = sum(z.probability_of_rank(r) for r in range(50))
        assert total == pytest.approx(1.0)

    def test_rank_probabilities_decrease(self):
        z = ZipfGenerator(1000, skew=0.99)
        probs = [z.probability_of_rank(r) for r in range(10)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_empirical_matches_rank1_probability(self):
        z = ZipfGenerator(100, skew=0.99, rng=np.random.default_rng(2),
                          shuffle=False)
        samples = z.sample_many(100_000)
        empirical = np.mean(samples == 0)
        assert empirical == pytest.approx(z.probability_of_rank(0), rel=0.05)

    def test_zero_skew_is_uniform(self):
        z = ZipfGenerator(10, skew=0.0)
        for r in range(10):
            assert z.probability_of_rank(r) == pytest.approx(0.1)

    def test_shuffle_spreads_hot_keys(self):
        """With shuffling, the hottest item id is (almost surely) not 0."""
        hot_ids = set()
        for seed in range(8):
            z = ZipfGenerator(
                10_000, rng=np.random.default_rng(seed), shuffle=True
            )
            samples = z.sample_many(2000)
            ids, counts = np.unique(samples, return_counts=True)
            hot_ids.add(int(ids[np.argmax(counts)]))
        assert hot_ids != {0}

    def test_sample_one_by_one_matches_batched_stream(self):
        a = ZipfGenerator(100, rng=np.random.default_rng(7), batch_size=16)
        b = ZipfGenerator(100, rng=np.random.default_rng(7), batch_size=16)
        singles = [a.sample() for _ in range(64)]
        runs = np.concatenate([b.sample_run(16) for _ in range(4)])
        stream, rng = eager_stream(100, 7, 16, 4)
        assert singles == runs.tolist() == stream.tolist()
        assert a._rng.bit_generator.state == rng.bit_generator.state

    def test_determinism_given_seed(self):
        a = ZipfGenerator(100, rng=np.random.default_rng(3))
        b = ZipfGenerator(100, rng=np.random.default_rng(3))
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]


class TestLazyConversion:
    @pytest.mark.parametrize("batch_size", [1000, 10_000])
    def test_interleaved_draws_match_eager_conversion(self, batch_size):
        """Batches smaller than a chunk, and batches whose last chunk is
        short, hand out the eagerly converted stream across refills."""
        z = ZipfGenerator(5000, rng=np.random.default_rng(4), batch_size=batch_size)
        total = 3 * batch_size + 123
        drawn = interleaved(z, total, seed=5)
        stream, rng = eager_stream(5000, 4, batch_size, -(-total // batch_size))
        assert drawn == stream[:total].tolist()
        assert z._rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("cut", [5000, CHUNK, 2 * CHUNK, 10_000])
    def test_pickle_round_trip_continues_identically(self, cut):
        """Mid-batch, on a chunk edge and at the end of a batch, a
        restored generator draws what the original draws."""
        z = ZipfGenerator(5000, rng=np.random.default_rng(6), batch_size=10_000)
        interleaved(z, cut, seed=8)
        assert z._pos == cut
        state = z.__getstate__()
        assert "_cdf" not in state and "_batch" not in state
        clone = pickle.loads(pickle.dumps(z))
        assert clone._cdf is z._cdf
        assert interleaved(clone, 15_000, seed=9) == interleaved(z, 15_000, seed=9)
        assert clone._rng.bit_generator.state == z._rng.bit_generator.state

    def test_cdf_is_shared_and_read_only(self):
        a = ZipfGenerator(3000, skew=0.99, rng=np.random.default_rng(1))
        b = ZipfGenerator(3000, skew=0.99, rng=np.random.default_rng(2))
        assert a._cdf is b._cdf is zipf_cdf(3000, 0.99)
        assert not a._cdf.flags.writeable
        with pytest.raises(ValueError):
            a._cdf[0] = 0.0
        weights = 1.0 / np.power(np.arange(1, 3001, dtype=np.float64), 0.99)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        np.testing.assert_array_equal(a._cdf, cdf)
        assert ZipfGenerator(3000, skew=0.5)._cdf is not a._cdf


class TestValidation:
    def test_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            ZipfGenerator(0)
        with pytest.raises(ConfigError):
            ZipfGenerator(10, skew=-1.0)
        z = ZipfGenerator(10)
        with pytest.raises(ConfigError):
            z.probability_of_rank(10)
        with pytest.raises(ConfigError):
            z.sample_many(-1)


@given(st.integers(2, 500), st.floats(0.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_cdf_is_monotone_and_complete(n, skew):
    z = ZipfGenerator(n, skew=skew)
    probs = [z.probability_of_rank(r) for r in range(n)]
    assert all(p > 0 for p in probs)
    assert sum(probs) == pytest.approx(1.0)
