"""Prime+probe attacker-observer tenant (Packet Chasing style).

The observer models a collocated attacker process with no privileges
beyond running on the same socket: it owns a working set of cache-line
sized buffers that alias a *monitored* subset of LLC sets, primes the
DDIO-reachable ways of those sets with its own (clean) lines, and
periodically probes them. A probe miss means some other agent — in
steady state, overwhelmingly the NIC's DDIO write-allocations — evicted
the attacker's line: the observable leak signal. Sweeper's ``clsweep``
invalidates consumed buffers without writeback, so the NIC's next fill
lands in an invalid slot instead of evicting the attacker, which is the
mechanism this observer exists to quantify.

Determinism contract (mirrors the rest of the engine):

* the monitored sets and the probe schedule derive from ``probe_seed``
  through the same 32-bit LCG family the caches use — no global RNG;
* probes key off the *absolute* request index, so ``REPRO_EPOCH``
  chunked runs probe at identical points and stay bit-identical;
* attacker blocks are allocated strictly above every simulated region
  (``AddressSpace.total_bytes``), so they can never alias victim lines.

The observer is active only during the measure phase: it is primed right
after the post-warmup stats reset, which is also when the ground-truth
arrival baseline is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.mem.layout import CACHE_BLOCK_BYTES
from repro.obs.probes import PROBE_SCHEMA_VERSION


@dataclass(frozen=True)
class ObserverConfig:
    """Attacker-observer knobs; part of a point's cache identity.

    Carried on :class:`~repro.engine.parallel.PointSpec` (``observer=``)
    rather than read from the environment so the persistent point cache
    stays sound: two runs with different observer settings must never
    share a fingerprint. ``repr(config)`` is the deterministic identity
    string appended to ``PointSpec.cache_key``.
    """

    #: number of LLC sets the attacker monitors (clamped to the LLC).
    sets: int = 16
    #: way indices to prime/probe; None = the hierarchy's DDIO way mask
    #: at activation time (the DDIO-reachable region, the default
    #: attack surface).
    ways: Optional[Tuple[int, ...]] = None
    #: requests between probes. A fixed period keeps every probe
    #: interval identical, so interval length carries zero information
    #: and the MI estimator isolates the arrival signal.
    period: int = 8
    #: optional schedule jitter: gaps drawn uniformly (seeded) from
    #: [period - jitter, period + jitter]. Off by default — deterministic
    #: CPU-driven evictions scale with interval length, so jitter couples
    #: the miss count to the interval instead of the arrivals.
    jitter: int = 0
    #: seed for monitored-set selection and the schedule jitter draw.
    probe_seed: int = 7
    #: bins per variable for the mutual-information estimator.
    mi_bins: int = 4

    def __post_init__(self) -> None:
        if self.sets < 1:
            raise ConfigError("observer sets must be >= 1")
        if self.period < 1:
            raise ConfigError("observer period must be >= 1")
        if not 0 <= self.jitter < self.period:
            raise ConfigError("observer jitter must be in [0, period)")
        if self.mi_bins < 2:
            raise ConfigError("observer mi_bins must be >= 2")
        if self.ways is not None:
            ways = tuple(self.ways)
            if not ways or any(w < 0 for w in ways):
                raise ConfigError(
                    "observer ways must be a non-empty tuple of way indices"
                )
            object.__setattr__(self, "ways", ways)


def _lcg_next(state: int) -> int:
    return (state * 1103515245 + 12345) & 0xFFFFFFFF


class PrimeProbeObserver:
    """Deterministic prime+probe tenant bound to one simulation's LLC."""

    def __init__(
        self,
        cfg: ObserverConfig,
        hier,
        arrivals_fn: Callable[[], int],
    ) -> None:
        self.cfg = cfg
        self.hier = hier
        self.llc = hier.llc
        self._arrivals_fn = arrivals_fn
        self._lcg = (cfg.probe_seed * 2654435761) & 0xFFFFFFFF or 1
        self.monitored_sets = self._choose_sets(self.llc.num_sets)
        self.probe_ways: Tuple[int, ...] = ()
        self.records: List[Dict[str, object]] = []
        self.active = False
        self.total_hits = 0
        self.total_misses = 0
        #: attacker blocks; block % num_sets is the monitored set
        self._blocks: List[int] = []
        self._next_probe = -1
        self._last_request = 0
        self._last_arrivals = 0

    # ------------------------------------------------------------------
    # seeded choices
    # ------------------------------------------------------------------

    def _choose_sets(self, num_sets: int) -> Tuple[int, ...]:
        want = min(self.cfg.sets, num_sets)
        chosen: List[int] = []
        seen = set()
        while len(chosen) < want:
            self._lcg = _lcg_next(self._lcg)
            s = (self._lcg >> 16) % num_sets
            if s not in seen:
                seen.add(s)
                chosen.append(s)
        return tuple(sorted(chosen))

    def _schedule_next(self, now: int) -> None:
        """Next probe after ``period`` requests, optionally jittered."""
        gap = self.cfg.period
        jitter = self.cfg.jitter
        if jitter:
            self._lcg = _lcg_next(self._lcg)
            gap += (self._lcg >> 16) % (2 * jitter + 1) - jitter
        self._next_probe = now + max(1, gap)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def activate(self, space, start_index: int = 0) -> None:
        """Prime the monitored region and start the probe schedule.

        Called at measure start (after the stats reset): ``space`` is the
        simulation's :class:`~repro.mem.layout.AddressSpace`, used only
        to place attacker blocks above every real region.
        """
        ways = self.cfg.ways
        if ways is None:
            ways = tuple(self.hier.ddio_way_mask)
        if any(w >= self.llc.ways for w in ways):
            raise ConfigError(
                "observer ways exceed LLC associativity "
                f"({ways} vs {self.llc.ways} ways)"
            )
        self.probe_ways = ways
        num_sets = self.llc.num_sets
        total_blocks = -(-space.total_bytes // CACHE_BLOCK_BYTES)
        base = -(-total_blocks // num_sets) * num_sets  # multiple of sets
        self._blocks = [
            base + j * num_sets + s
            for s in self.monitored_sets
            for j in range(len(ways))
        ]
        # Clean inserts confined to the probed ways, the same rule as
        # llc_probe's re-prime (one kernel call on the batch engine).
        self.hier.llc_prime(self._blocks, ways)
        self.records = []
        self.total_hits = 0
        self.total_misses = 0
        self._last_request = start_index
        self._last_arrivals = self._arrivals_fn()
        self.active = True
        self._schedule_next(start_index - 1)

    # ------------------------------------------------------------------
    # hot-path hook (called by TraceSimulator.run_requests)
    # ------------------------------------------------------------------

    def tick(self, request_index: int) -> None:
        if request_index >= self._next_probe:
            self._probe(request_index)

    def _probe(self, request_index: int) -> None:
        # One hierarchy call probes every line and re-primes the evicted
        # ones, so every probe starts fully primed (a single kernel call
        # on the batch engine).
        missed = self.hier.llc_probe(self._blocks, self.probe_ways)
        misses = len(missed)
        hits = len(self._blocks) - misses
        num_sets = self.llc.num_sets
        set_misses: Dict[str, int] = {}
        for block in missed:
            key = str(block % num_sets)
            set_misses[key] = set_misses.get(key, 0) + 1
        arrivals = self._arrivals_fn()
        self.total_hits += hits
        self.total_misses += misses
        self.records.append(
            {
                "schema": PROBE_SCHEMA_VERSION,
                "probe": len(self.records),
                "request": request_index,
                "interval": request_index - self._last_request,
                "arrivals": arrivals - self._last_arrivals,
                "hits": hits,
                "misses": misses,
                "set_misses": dict(sorted(set_misses.items())),
            }
        )
        self._last_request = request_index
        self._last_arrivals = arrivals
        self._schedule_next(request_index)

    # ------------------------------------------------------------------
    # results / observability
    # ------------------------------------------------------------------

    def leak_summary(self, engine: str) -> Dict[str, object]:
        from repro.sidechannel.analysis import leak_summary

        return leak_summary(
            self.records,
            self.cfg,
            monitored_sets=len(self.monitored_sets),
            probe_ways=self.probe_ways,
            engine=engine,
        )

    def publish_metrics(self, registry) -> None:
        """Pull-collected leak-signal counters (``repro.obs`` registry)."""
        probes = registry.counter(
            "observer_probes_total", "Prime+probe rounds executed"
        )
        hits = registry.counter(
            "observer_probe_hits_total", "Probe lines found resident"
        )
        misses = registry.counter(
            "observer_probe_misses_total",
            "Probe lines evicted since the last probe (the leak signal)",
        )
        monitored = registry.gauge(
            "observer_monitored_sets", "LLC sets the observer primes"
        )

        def collect(_registry, obs=self) -> None:
            probes.set_total(len(obs.records))
            hits.set_total(obs.total_hits)
            misses.set_total(obs.total_misses)
            monitored.set(len(obs.monitored_sets))

        registry.register_collector(collect)
