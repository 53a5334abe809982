"""Bounded retry-with-backoff for untrusted host services.

The paging runtime depends on host calls (`ay_fetch_pages`,
`ay_evict_pages`, the SGX2 IOCTLs) that a Byzantine host may refuse or
fail transiently.  The Autarky contract gives the enclave exactly two
safe responses: absorb the failure within a *bounded* budget, or fail
stop.  Unbounded retry loops reopen a livelock channel (the host can
stall the enclave forever while watching its retry pattern), so every
budget here is finite and every wait is charged to the simulated clock
— backoff costs cycles, exactly like the real runtime spinning on a
monotonic counter would.  The retry loop that applies a policy is
:meth:`repro.runtime.paging_ops.PagingOps._host_call`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.immutable import share


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a denied host call, and at what cost.

    ``max_attempts`` counts the *total* tries (first call included);
    the wait before retry ``i`` is ``base_cycles * multiplier**(i-1)``,
    charged to :data:`~repro.clock.Category.BACKOFF`.
    """

    __deepcopy__ = share

    max_attempts: int = 4
    base_cycles: int = 2_000
    multiplier: int = 4

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("retry budget must allow at least one attempt")
        if self.base_cycles < 0 or self.multiplier < 1:
            raise ValueError("backoff must advance simulated time forward")

    def wait_cycles(self, attempt):
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.base_cycles * self.multiplier ** (attempt - 1)
