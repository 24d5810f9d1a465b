"""Packet arrival processes and queue-backlog control.

Three generators cover every load shape the paper uses:

* :class:`PoissonArrivals` — the traffic generator of the appendix
  ("injects packets at configurable Poisson arrival rate").
* :class:`BacklogController` — §IV-B's modified load generator, which
  keeps at least ``D`` unconsumed packets in every core's RX ring to
  emulate batched processing of degree ``D``.
* :class:`SpikeSampler` — §VI-F's microbenchmark behaviour: a small
  probability of an extra service delay sampled uniformly from
  [1, 100] µs, functionally equivalent to packet arrival bursts.
* :class:`BurstProfile` — a seeded square-wave modulation of the
  backlog target, used by the ``figS*`` side-channel experiments: a
  constant-rate victim posts exactly one packet per serviced request,
  which makes every arrival statistic a deterministic function of
  elapsed requests and therefore carries no information an attacker
  could not get from a wall clock. Bursty load is what creates a
  nontrivial arrival signal for the prime+probe observer to infer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigError


class PoissonArrivals:
    """Exponentially distributed inter-arrival times at a fixed rate."""

    def __init__(
        self,
        rate_per_us: float,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if rate_per_us <= 0:
            raise ConfigError("arrival rate must be positive")
        self.rate_per_us = rate_per_us
        self._rng = rng if rng is not None else np.random.default_rng(1)

    def next_interval_us(self) -> float:
        return float(self._rng.exponential(1.0 / self.rate_per_us))

    def sample_batch_us(self, count: int) -> np.ndarray:
        """Arrival *times* (cumulative) for ``count`` packets."""
        gaps = self._rng.exponential(1.0 / self.rate_per_us, size=count)
        return np.cumsum(gaps)


class BacklogController:
    """Keeps each RX ring's backlog at a target depth ``D``.

    ``refill(backlog)`` returns how many packets the generator must
    inject right now so that the ring again holds at least ``D``
    unconsumed packets (the paper's emulation of batching of degree D).
    A target of zero degenerates to "one packet per service" closed-loop
    operation.
    """

    def __init__(self, target_depth: int) -> None:
        if target_depth < 0:
            raise ConfigError("target backlog depth must be non-negative")
        self.target_depth = target_depth

    def refill(self, current_backlog: int) -> int:
        if current_backlog < 0:
            raise ConfigError("backlog cannot be negative")
        deficit = max(self.target_depth, 1) - current_backlog
        return max(deficit, 0)


@dataclass(frozen=True)
class BurstProfile:
    """Seeded square-wave load: backlog target per absolute request.

    Requests are grouped into fixed ``window``-sized windows; each
    window's backlog target is drawn (seeded, stateless) from
    ``{low, high}``. A low->high transition posts ``high - low`` packets
    in one request (a burst); a high->low transition posts nothing while
    the backlog drains. ``depth`` is a pure function of the absolute
    request index, so epoch-chunked runs see the identical load shape
    and the warmup/measure phases replay the same sequence.
    """

    #: calm-phase backlog target (>= 1: the ring never runs dry).
    low: int = 1
    #: burst-phase backlog target; the burst amplitude is ``high - low``.
    high: int = 33
    #: requests per window (same-depth windows merge into longer runs).
    window: int = 24
    #: seed for the per-window depth draw.
    seed: int = 5

    def __post_init__(self) -> None:
        if self.low < 1:
            raise ConfigError("burst low depth must be >= 1")
        if self.high < self.low:
            raise ConfigError("burst high depth must be >= low")
        if self.window < 1:
            raise ConfigError("burst window must be >= 1")

    def depth(self, request_index: int) -> int:
        """Backlog target for one request; stateless and seeded."""
        w = request_index // self.window
        x = (w * 2246822519 + self.seed * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
        x ^= x >> 15
        x = (x * 2246822519) & 0xFFFFFFFF
        x ^= x >> 13
        return self.high if x & 0x10000 else self.low

    def depths(self, start: int, stop: int) -> np.ndarray:
        """``depth(i)`` for every ``i`` in ``start..stop-1``, as int64.
        The hash wraps in uint64; masking to 32 bits makes that equal to
        ``depth``'s unbounded integer arithmetic."""
        u64, mask = np.uint64, np.uint64(0xFFFFFFFF)
        w = np.arange(start, stop, dtype=np.uint64) // u64(self.window)
        salt = (self.seed * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
        x = (w * u64(2246822519) + u64(salt)) & mask
        x ^= x >> u64(15)
        x = (x * u64(2246822519)) & mask
        x ^= x >> u64(13)
        return np.where(x & u64(0x10000), self.high, self.low).astype(np.int64)


class SpikeSampler:
    """Occasional long service delays (Figure 10's spiky workload)."""

    def __init__(
        self,
        probability: float = 0.001,
        low_us: float = 1.0,
        high_us: float = 100.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigError("spike probability must be in [0, 1]")
        if low_us > high_us or low_us < 0:
            raise ConfigError("spike delay range is invalid")
        self.probability = probability
        self.low_us = low_us
        self.high_us = high_us
        self._rng = rng if rng is not None else np.random.default_rng(2)

    def sample_extra_delay_us(self) -> float:
        """Zero most of the time; uniform [low, high] µs on a spike."""
        if float(self._rng.random()) >= self.probability:
            return 0.0
        return float(self._rng.uniform(self.low_us, self.high_us))

    def mean_extra_delay_us(self) -> float:
        return self.probability * 0.5 * (self.low_us + self.high_us)
