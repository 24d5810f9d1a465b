"""``repro.sched`` — scheduling policies and tenancy.

The scheduling-policy subsystem shared by every execution backend
(DESIGN.md §15). It owns two concerns that used to be hard-wired into
``repro.serve.scheduler`` and ``repro.cluster.coordinator``:

* **queuing policy** (:mod:`repro.sched.policy`) — a pluggable
  ``fifo | priority | wfq`` queue (``REPRO_SCHED_POLICY``). The serve
  scheduler orders *jobs* with it and the cluster coordinator orders
  *points* with it, so one policy engine drives ``local|cluster``.
* **tenancy** (:mod:`repro.sched.tenants`) — per-tenant weights,
  admission quotas, and rate limits parsed from ``REPRO_TENANTS``,
  plus the cardinality-guarded label helper that keeps per-tenant
  metrics inside the registry's label-set cap.
"""

from repro.sched.policy import (  # noqa: F401
    DEFAULT_POLICY,
    POLICIES,
    PolicyQueue,
    make_policy,
    sched_policy,
)
from repro.sched.tenants import (  # noqa: F401
    DEFAULT_TENANT,
    TenantConfig,
    TenantTable,
    TokenBucket,
    guarded_labels,
    validate_tenant,
)
