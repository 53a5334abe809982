"""Bounded-leakage fault-rate limiting (§5.2.4).

The enclave cannot trust any clock (the cycle counter is host
controlled; SGX platform-service time is too slow to query from a fault
handler), so the limit is expressed per unit of *application progress*
the libOS can observe: I/O completions, memory allocations, system
calls.  A server limits faults per socket receive; an ML task per
allocation.

Exceeding the limit terminates the enclave — the "similar guarantees to
Varys" defense with none of its recompilation requirements.
"""

from __future__ import annotations

import enum

from repro.errors import RateLimitExceeded


class ProgressKind(enum.Enum):
    """libOS-observable forward-progress events."""

    IO = "io"
    ALLOCATION = "allocation"
    SYSCALL = "syscall"


class RateLimiter:
    """Counts faults between progress events and enforces a ceiling.

    ``max_faults_per_progress`` is the user-supplied, workload-specific
    bound; ``grace_faults`` absorbs the cold-start burst before the
    first progress event (working-set warm-up), which is how we
    "fine-tune the limit accordingly to prevent false positives" (§7.2).
    """

    def __init__(self, max_faults_per_progress, grace_faults=None,
                 kinds=None):
        if max_faults_per_progress <= 0:
            raise ValueError("fault budget must be positive")
        self.max_faults_per_progress = max_faults_per_progress
        self.grace_faults = (
            grace_faults if grace_faults is not None
            else 4 * max_faults_per_progress
        )
        #: Which progress kinds reset the window (None = all).
        self.kinds = set(kinds) if kinds else None

        self.window_faults = 0
        self.total_faults = 0
        self.progress_events = 0
        self.tripped = False

    def note_progress(self, kind=ProgressKind.SYSCALL, count=1):
        """``count`` (≥ 1) forward-progress events: they open a fresh
        fault window, exactly as ``count`` single events would."""
        if self.kinds is not None and kind not in self.kinds:
            return
        self.progress_events += count
        self.window_faults = 0

    def note_fault(self):
        """Record one legitimate page fault; terminate on excess.

        Raises :class:`~repro.errors.RateLimitExceeded` when the bound
        is crossed — the runtime treats that as an active attack.
        """
        self.window_faults += 1
        self.total_faults += 1
        budget = (
            self.grace_faults if self.progress_events == 0
            else self.max_faults_per_progress
        )
        if self.window_faults > budget:
            self.tripped = True
            raise RateLimitExceeded(
                f"{self.window_faults} faults since last progress event "
                f"(budget {budget})"
            )

    def headroom(self):
        """Faults remaining in the current window."""
        budget = (
            self.grace_faults if self.progress_events == 0
            else self.max_faults_per_progress
        )
        return max(0, budget - self.window_faults)
