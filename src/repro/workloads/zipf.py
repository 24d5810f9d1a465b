"""Zipfian key-popularity sampling (the paper uses zipf 0.99).

Sampling uses an exact inverse-CDF over the full key universe, vectorized
with numpy. Keys are drawn in batches and handed out one at a time so the
per-request cost is a single array index.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError


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
        weights = 1.0 / np.power(
            np.arange(1, num_items + 1, dtype=np.float64), skew
        )
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if shuffle:
            self._perm = self._rng.permutation(num_items)
        else:
            self._perm = np.arange(num_items)
        self._batch = np.empty(0, dtype=np.int64)
        self._pos = 0

    def _refill(self) -> None:
        u = self._rng.random(self._batch_size)
        ranks = np.searchsorted(self._cdf, u, side="left")
        self._batch = self._perm[ranks]
        self._pos = 0

    def sample(self) -> int:
        """Draw one item id."""
        if self._pos >= len(self._batch):
            self._refill()
        item = int(self._batch[self._pos])
        self._pos += 1
        return item

    def sample_run(self, limit: int) -> np.ndarray:
        """The next ``1..limit`` item ids of the current batch: what as
        many :meth:`sample` calls return. An exhausted batch is refilled
        first, exactly where ``sample`` would refill it."""
        if self._pos >= len(self._batch):
            self._refill()
        run = self._batch[self._pos : self._pos + limit]
        self._pos += len(run)
        return run

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
