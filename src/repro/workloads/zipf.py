"""Zipfian key-popularity sampling (the paper uses zipf 0.99).

Sampling uses an exact inverse-CDF over the full key universe, vectorized
with numpy. The normalized CDF depends only on ``(num_items, skew)``, so
generators of one shape share a single read-only copy (:func:`zipf_cdf`).

Keys are drawn in batches: a refill draws the batch's uniforms in one
``rng.random`` call, and they are converted to item ids
(``perm[searchsorted(cdf, u)]``) one aligned chunk of :data:`CHUNK`
draws at a time, when a chunk is first handed out. A point that runs a
few thousand requests thus pays for a few chunks, not a whole batch.
``sample`` and ``sample_run`` convert the same chunks, so either way of
drawing leaves the same generator state.

A pickled generator carries its RNG, permutation, uniforms and cursor;
the CDF and the converted ids are re-derived on unpickling.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.errors import ConfigError

#: uniforms converted to item ids at a time (batch-aligned)
CHUNK = 4096


@lru_cache(maxsize=4)
def zipf_cdf(num_items: int, skew: float) -> np.ndarray:
    """The normalized CDF of Zipf(``skew``) over ``num_items`` ranks,
    shared and read-only."""
    weights = 1.0 / np.power(np.arange(1, num_items + 1, dtype=np.float64), skew)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


class ZipfGenerator:
    """Exact Zipf(s) sampler over ``num_items`` ranked items.

    Rank r (0-based) has probability proportional to 1/(r+1)^s. Item
    identities are shuffled so that popular keys are spread over the
    key space, as a hash-distributed store would see them.
    """

    def __init__(
        self,
        num_items: int,
        skew: float = 0.99,
        rng: Optional[np.random.Generator] = None,
        batch_size: int = 65536,
        shuffle: bool = True,
    ) -> None:
        if num_items <= 0:
            raise ConfigError("num_items must be positive")
        if skew < 0:
            raise ConfigError("zipf skew must be non-negative")
        self.num_items = num_items
        self.skew = skew
        self._rng = rng if rng is not None else np.random.default_rng(7)
        self._batch_size = batch_size
        self._cdf = zipf_cdf(num_items, skew)
        if shuffle:
            self._perm = self._rng.permutation(num_items)
        else:
            self._perm = np.arange(num_items)
        #: the current batch's uniforms
        self._u = np.empty(0)
        #: their item ids; ``[0, _ready)`` is converted, the rest zero
        self._batch = np.empty(0, dtype=np.int64)
        self._ready = 0
        self._pos = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_cdf"], state["_batch"], state["_ready"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._cdf = zipf_cdf(self.num_items, self.skew)
        self._batch = np.zeros(len(self._u), dtype=np.int64)
        self._ready = self._pos - self._pos % CHUNK

    def _refill(self) -> None:
        self._u = self._rng.random(self._batch_size)
        self._batch = np.zeros(len(self._u), dtype=np.int64)
        self._ready = 0
        self._pos = 0

    def _convert(self, stop: int) -> None:
        """Convert the uniforms through the chunk holding draw ``stop - 1``."""
        start, end = self._ready, min(-(-stop // CHUNK) * CHUNK, len(self._u))
        ranks = np.searchsorted(self._cdf, self._u[start:end], side="left")
        self._batch[start:end] = self._perm[ranks]
        self._ready = end

    def sample(self) -> int:
        """Draw one item id."""
        pos = self._pos
        if pos >= self._ready:
            if pos >= len(self._u):
                self._refill()
                pos = 0
            self._convert(pos + 1)
        self._pos = pos + 1
        return int(self._batch[pos])

    def sample_run(self, limit: int) -> np.ndarray:
        """The next ``1..limit`` item ids of the current batch: what as
        many :meth:`sample` calls return. An exhausted batch is refilled
        first, exactly where ``sample`` would refill it."""
        if self._pos >= len(self._u):
            self._refill()
        pos = self._pos
        stop = min(pos + limit, len(self._u))
        if stop > self._ready:
            self._convert(stop)
        self._pos = stop
        return self._batch[pos:stop]

    def sample_many(self, count: int) -> np.ndarray:
        """Draw ``count`` item ids at once."""
        if count < 0:
            raise ConfigError("count must be non-negative")
        u = self._rng.random(count)
        ranks = np.searchsorted(self._cdf, u, side="left")
        return self._perm[ranks]

    def probability_of_rank(self, rank: int) -> float:
        """P(draw == the item of popularity rank ``rank``)."""
        if not 0 <= rank < self.num_items:
            raise ConfigError("rank out of range")
        if rank == 0:
            return float(self._cdf[0])
        return float(self._cdf[rank] - self._cdf[rank - 1])
