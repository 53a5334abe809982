"""Service observability: request outcomes, counters, and snapshots.

Every request ends in exactly one of four terminal outcomes — the
service-level mirror of the chaos campaign's safe states:

* ``completed``           — served with no fault absorption;
* ``degraded-in-budget``  — served, but only because a hardening
  mechanism (bounded degradation, retries, ballooning) absorbed EPC
  pressure within its declared budget;
* ``shed``                — refused or cancelled with a *structured*
  reason (queue full, overload tier, token/paging budget, breaker
  open, deadline) — the service chose not to serve it;
* ``structured-abort``    — the tenant's enclave failed stop with a
  structured :class:`~repro.errors.AbortReason`.

Anything else (an unclassified exception, a served request on a dead
enclave) is an invariant violation and fails the run.

The snapshot is a plain dict of sorted, canonical values so it can be
JSON-dumped, diffed in CI, and folded into the run digest without any
ordering hazards.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

OUTCOME_COMPLETED = "completed"
OUTCOME_DEGRADED = "degraded-in-budget"
OUTCOME_SHED = "shed"
OUTCOME_ABORTED = "structured-abort"

OUTCOMES = (
    OUTCOME_COMPLETED, OUTCOME_DEGRADED, OUTCOME_SHED, OUTCOME_ABORTED,
)

#: Structured shed reasons (the service's rejection taxonomy).
SERVICE_OVERLOADED = "service-overloaded"   # degradation tier rejects
QUEUE_FULL = "queue-full"                   # bounded run queue is full
RATE_LIMITED = "rate-limited"               # token bucket exhausted
PAGING_BUDGET = "paging-budget"             # paging debt unpaid
BREAKER_OPEN = "breaker-open"               # circuit breaker rejecting
DEADLINE = "deadline"                       # cancelled mid-execution
SLO_PRESSURE = "slo-pressure"               # tenant violating its SLO
POOL_UNAVAILABLE = "pool-unavailable"       # every replica unhealthy
TENANT_RETIRED = "tenant-retired"           # shed by departure drain

SHED_REASONS = (
    SERVICE_OVERLOADED, QUEUE_FULL, RATE_LIMITED, PAGING_BUDGET,
    BREAKER_OPEN, DEADLINE, SLO_PRESSURE, POOL_UNAVAILABLE,
    TENANT_RETIRED,
)


class LatencyWindow:
    """Sliding window of per-request latencies on the simulated clock.

    Integer nearest-rank percentiles over the last ``capacity``
    terminal requests — deterministic (no floats, no interpolation),
    cheap (the window is tiny), and computed on demand so recording
    stays O(1).  The SLO admission check reads :meth:`percentile`
    every tick; the run digest folds in :meth:`snapshot`.
    """

    __slots__ = ("_samples",)

    def __init__(self, capacity=32):
        if capacity < 1:
            raise ValueError("latency window needs at least one slot")
        self._samples = deque(maxlen=capacity)

    def record(self, cycles):
        """Fold one request's simulated-cycle latency into the window."""
        if cycles < 0:
            raise ValueError(f"negative latency: {cycles}")
        self._samples.append(cycles)

    def __len__(self):
        return len(self._samples)

    def percentile(self, p_milli):
        """Nearest-rank percentile (``p_milli`` in thousandths, e.g.
        950 = p95) over the window, or ``None`` while empty."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = (p_milli * len(ordered) + 999) // 1000   # ceil
        rank = min(max(rank, 1), len(ordered))
        return ordered[rank - 1]

    def snapshot(self):
        """Canonical ``(n, p50, p95, p99)`` tuple for digests."""
        return (
            len(self._samples),
            self.percentile(500),
            self.percentile(950),
            self.percentile(990),
        )


@dataclass(frozen=True)
class RequestResult:
    """Terminal record of one request."""

    tenant: str
    request_id: int
    outcome: str
    reason: str          # shed reason or AbortReason value, "" otherwise
    cycles: int          # simulated cycles spent executing (0 if shed
                         # at admission)
    fetches: int         # EPC page fetches the request performed

    def __init__(self, tenant, request_id, outcome, reason, cycles,
                 fetches):
        # One per request: see repro.sgx.crypto.SealedPage.__init__.
        self.__dict__.update(tenant=tenant, request_id=request_id,
                             outcome=outcome, reason=reason,
                             cycles=cycles, fetches=fetches)


@dataclass
class ServiceMetrics:
    """Aggregated counters for one service run."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    degraded: int = 0
    aborted: int = 0
    shed: int = 0
    shed_by_reason: dict = field(default_factory=dict)
    abort_reasons: dict = field(default_factory=dict)
    recoveries: int = 0
    quarantines: int = 0
    balloon_reclaimed_pages: int = 0
    tier_changes: int = 0
    peak_queue_depth: int = 0
    peak_epc_pressure_milli: int = 0
    failovers: int = 0
    skipped_probes: int = 0
    aex_interrupts: int = 0
    replica_suspends: int = 0
    replica_resumes: int = 0
    arrivals: int = 0
    departures: int = 0
    arrival_refusals: int = 0

    def record(self, result):
        """Fold one :class:`RequestResult` into the counters."""
        if result.outcome == OUTCOME_COMPLETED:
            self.completed += 1
        elif result.outcome == OUTCOME_DEGRADED:
            self.degraded += 1
        elif result.outcome == OUTCOME_ABORTED:
            self.aborted += 1
            self.abort_reasons[result.reason] = (
                self.abort_reasons.get(result.reason, 0) + 1
            )
        elif result.outcome == OUTCOME_SHED:
            self.shed += 1
            self.shed_by_reason[result.reason] = (
                self.shed_by_reason.get(result.reason, 0) + 1
            )
        else:
            raise ValueError(f"unknown outcome {result.outcome!r}")

    def outcome_counts(self):
        return {
            OUTCOME_COMPLETED: self.completed,
            OUTCOME_DEGRADED: self.degraded,
            OUTCOME_SHED: self.shed,
            OUTCOME_ABORTED: self.aborted,
        }

    def canonical(self):
        """A deterministic tuple of every counter (digest input)."""
        return (
            self.submitted, self.admitted, self.completed, self.degraded,
            self.aborted, self.shed,
            tuple(sorted(self.shed_by_reason.items())),
            tuple(sorted(self.abort_reasons.items())),
            self.recoveries, self.quarantines,
            self.balloon_reclaimed_pages, self.tier_changes,
            self.peak_queue_depth, self.peak_epc_pressure_milli,
            self.failovers, self.skipped_probes, self.aex_interrupts,
            self.replica_suspends, self.replica_resumes,
            self.arrivals, self.departures, self.arrival_refusals,
        )


def epc_pressure_milli(kernel):
    """Shared-EPC occupancy in thousandths (integer, deterministic)."""
    total = kernel.epc.total_pages
    return ((total - kernel.epc.free_pages) * 1000) // total
