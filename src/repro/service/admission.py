"""Admission control for the multi-tenant enclave service.

One deterministic rate control, :class:`TokenBucket`, guards the front
door twice per tenant, refilled from the *simulated* clock (never wall
time):

* the **request bucket** admits a request only if it can pay one token
  (:meth:`TokenBucket.try_take`).  A tenant that floods the service
  runs out of tokens and is shed with a structured rejection instead
  of starving its neighbours.

* the **paging budget** counts EPC page fetches rather than requests.
  Paging is the contended resource in this regime (many tenants, one
  EPC): a tenant whose requests thrash pays its paging debt before it
  may submit again, so one thrashing working set cannot monopolize the
  shared paging bandwidth.  Debt is charged *after* execution
  (:meth:`TokenBucket.charge`; the fetch count is only known then),
  which is why the balance may go negative — :meth:`TokenBucket.admits`
  then refuses new work until simulated time repays it.

Everything is integer arithmetic over cycle counts, so admission
decisions are bit-reproducible across runs and pool widths.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TokenBucket:
    """Deterministic token bucket refilled from simulated cycles.

    ``cycles_per_token`` is the refill period; ``capacity`` bounds the
    burst.  ``last_refill_cycles`` advances only in whole-token steps so
    fractional remainders carry over exactly (no drift, no floats).
    """

    capacity: int
    cycles_per_token: int
    tokens: int = None
    last_refill_cycles: int = 0

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("bucket capacity must be at least 1")
        if self.cycles_per_token < 1:
            raise ValueError("refill period must be at least 1 cycle")
        if self.tokens is None:
            self.tokens = self.capacity

    def refill(self, now_cycles):
        """Credit whole tokens earned since the last refill."""
        elapsed = now_cycles - self.last_refill_cycles
        if elapsed <= 0:
            return
        earned = elapsed // self.cycles_per_token
        if earned > 0:
            self.tokens = min(self.capacity, self.tokens + earned)
            self.last_refill_cycles += earned * self.cycles_per_token

    def try_take(self, now_cycles, count=1):
        """Admit ``count`` units if the bucket can pay; returns bool."""
        self.refill(now_cycles)
        if self.tokens >= count:
            self.tokens -= count
            return True
        return False

    def admits(self, now_cycles):
        """Whether the balance is positive right now (nothing taken)."""
        self.refill(now_cycles)
        return self.tokens > 0

    def charge(self, count):
        """Book ``count`` units spent already; the balance may go
        negative."""
        if count < 0:
            raise ValueError(f"negative charge: {count}")
        self.tokens -= count
