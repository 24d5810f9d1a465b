"""Pluggable queuing policies: ``fifo | priority | wfq``.

One :class:`PolicyQueue` implementation orders the work tenants compete
for, whatever the granularity: the serve scheduler queues *jobs* and
the cluster coordinator queues *points*. ``REPRO_SCHED_POLICY`` selects
the engine everywhere (constructors also take it explicitly):

* ``fifo`` — strict arrival order, tenants and priorities ignored.
* ``priority`` — higher ``priority`` first, FIFO within a priority.
  This is the historical serve behavior and remains the default.
* ``wfq`` — weighted fair queuing across tenants by virtual finish
  time. Each pushed item is stamped
  ``vft = max(V, last_vft[tenant]) + cost / weight(tenant)`` where
  ``V`` is the virtual time of the last pop; popping in ``vft`` order
  gives every backlogged tenant service proportional to its weight
  regardless of arrival pattern, and an idle tenant's unused share is
  redistributed instead of banked (``max`` with ``V`` forbids saving
  up credit while idle).

Policies are deliberately not thread-safe: every caller already owns a
lock around its queue (scheduler lock, coordinator lock, the
single-threaded dispatch loop), and keeping the policy lock-free keeps
lock ordering trivial.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sched.tenants import DEFAULT_TENANT, TenantTable

#: every selectable policy name.
POLICIES = ("fifo", "priority", "wfq")
#: the historical serve-scheduler behavior; unchanged by default.
DEFAULT_POLICY = "priority"

#: arrival counter used as the FIFO tiebreak in every queue.
_ARRIVALS = itertools.count(1)


def sched_policy() -> str:
    """Policy name from ``REPRO_SCHED_POLICY`` (default ``priority``)."""
    raw = os.environ.get("REPRO_SCHED_POLICY", "").strip()
    if not raw:
        return DEFAULT_POLICY
    if raw not in POLICIES:
        raise ConfigError(
            f"REPRO_SCHED_POLICY must be one of {POLICIES}, got {raw!r}"
        )
    return raw


class PolicyQueue:
    """Common queue interface; subclasses define the pop order."""

    name = "?"

    def push(
        self,
        item: Any,
        tenant: str = DEFAULT_TENANT,
        cost: float = 1.0,
        priority: int = 0,
    ) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[Any]:
        """Next item by policy order, or None when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def tenants_queued(self) -> Dict[str, int]:
        """Queued-item counts by tenant (introspection / stats)."""
        raise NotImplementedError


class FifoQueue(PolicyQueue):
    name = "fifo"

    def __init__(self) -> None:
        self._items: Deque[Tuple[int, str, Any]] = deque()

    def push(self, item, tenant=DEFAULT_TENANT, cost=1.0, priority=0) -> None:
        self._items.append((next(_ARRIVALS), tenant, item))

    def pop(self):
        if not self._items:
            return None
        return self._items.popleft()[2]

    def __len__(self) -> int:
        return len(self._items)

    def tenants_queued(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _seq, tenant, _item in self._items:
            out[tenant] = out.get(tenant, 0) + 1
        return out


class PriorityHeapQueue(PolicyQueue):
    """Higher priority first, FIFO within a priority (heap ``(-prio, seq)``)."""

    name = "priority"

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, str, Any]] = []

    def push(self, item, tenant=DEFAULT_TENANT, cost=1.0, priority=0) -> None:
        heapq.heappush(self._heap, (-priority, next(_ARRIVALS), tenant, item))

    def pop(self):
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[3]

    def __len__(self) -> int:
        return len(self._heap)

    def tenants_queued(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _prio, _seq, tenant, _item in self._heap:
            out[tenant] = out.get(tenant, 0) + 1
        return out


class WfqQueue(PolicyQueue):
    """Weighted fair queuing by virtual finish time (see module doc)."""

    name = "wfq"

    def __init__(self, tenants: Optional[TenantTable] = None) -> None:
        self.tenants = tenants if tenants is not None else TenantTable()
        self._heap: List[Tuple[float, int, str, Any]] = []
        self._vtime = 0.0
        self._last_vft: Dict[str, float] = {}

    def push(self, item, tenant=DEFAULT_TENANT, cost=1.0, priority=0) -> None:
        weight = self.tenants.weight(tenant)
        start = max(self._vtime, self._last_vft.get(tenant, 0.0))
        vft = start + max(cost, 1e-9) / weight
        self._last_vft[tenant] = vft
        heapq.heappush(self._heap, (vft, next(_ARRIVALS), tenant, item))

    def pop(self):
        if not self._heap:
            return None
        vft, _seq, _tenant, item = heapq.heappop(self._heap)
        self._vtime = vft
        return item

    def __len__(self) -> int:
        return len(self._heap)

    def tenants_queued(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _vft, _seq, tenant, _item in self._heap:
            out[tenant] = out.get(tenant, 0) + 1
        return out


_POLICY_CLASSES = {
    "fifo": FifoQueue,
    "priority": PriorityHeapQueue,
    "wfq": WfqQueue,
}


def make_policy(
    name: Optional[str] = None, tenants: Optional[TenantTable] = None
) -> PolicyQueue:
    """Build a policy queue; ``name=None`` reads ``REPRO_SCHED_POLICY``."""
    name = sched_policy() if name is None else name
    cls = _POLICY_CLASSES.get(name)
    if cls is None:
        raise ConfigError(
            f"scheduling policy must be one of {POLICIES}, got {name!r}"
        )
    if cls is WfqQueue:
        return WfqQueue(tenants)
    return cls()
