"""Measurement helpers: throughput, slowdowns, breakdowns.

All measurements run on the simulated clock, so they are exactly
reproducible; "standard deviation below 5%" in the paper becomes
standard deviation of zero here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class RunMetrics:
    """Results of one measured run."""

    ops: int
    cycles: int
    seconds: float
    faults: int = 0
    pages_fetched: int = 0
    pages_evicted: int = 0
    breakdown: dict = field(default_factory=dict)

    @property
    def throughput(self):
        """Operations per simulated second."""
        if self.seconds == 0:
            return float("inf")
        return self.ops / self.seconds

    @property
    def cycles_per_op(self):
        return self.cycles / self.ops if self.ops else 0.0

    @property
    def fault_rate(self):
        """Faults per simulated second."""
        if self.seconds == 0:
            return 0.0
        return self.faults / self.seconds


class Measurement:
    """Delta-measures a region of simulated execution.

    >>> with Measurement(kernel) as m:
    ...     run_workload()
    >>> m.metrics(ops=n)
    """

    __slots__ = ("kernel", "runtime", "_snap", "_cycles0", "_faults0",
                 "_in0", "_out0")

    def __init__(self, kernel, runtime=None):
        self.kernel = kernel
        self.runtime = runtime
        self._snap = None
        self._cycles0 = 0
        self._faults0 = 0
        self._in0 = 0
        self._out0 = 0

    def __enter__(self):
        clock = self.kernel.clock
        self._snap = clock.snapshot()
        self._cycles0 = clock.cycles
        self._faults0 = self.kernel.cpu.fault_count
        self._in0 = self.kernel.driver.pages_in
        self._out0 = self.kernel.driver.pages_out
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def metrics(self, ops):
        clock = self.kernel.clock
        cycles = clock.cycles - self._cycles0
        return RunMetrics(
            ops=ops,
            cycles=cycles,
            seconds=cycles / clock.frequency_hz,
            faults=self.kernel.cpu.fault_count - self._faults0,
            pages_fetched=self.kernel.driver.pages_in - self._in0,
            pages_evicted=self.kernel.driver.pages_out - self._out0,
            breakdown=clock.delta_since(self._snap),
        )


class AbortStats:
    """Per-reason counts of enclave aborts.

    Feeds on :class:`~repro.errors.EnclaveTerminated` exceptions (or
    bare :class:`~repro.errors.AbortReason` values) and aggregates them
    by the structured reason, so robustness campaigns and experiments
    report *why* enclaves died rather than opaque totals.
    """

    UNCLASSIFIED = "unclassified"

    __slots__ = ("by_reason",)

    def __init__(self):
        self.by_reason = {}

    def record(self, abort):
        """Count one abort; returns the reason key it was filed under.

        Accepts an exception carrying a ``.reason``, a bare
        :class:`~repro.errors.AbortReason`, or an already-stringified
        reason key."""
        reason = getattr(abort, "reason", abort)
        if isinstance(reason, str):
            key = reason or self.UNCLASSIFIED
        else:
            key = getattr(reason, "value", None) or self.UNCLASSIFIED
        self.by_reason[key] = self.by_reason.get(key, 0) + 1
        return key

    @property
    def total(self):
        return sum(self.by_reason.values())

    def count(self, reason):
        key = getattr(reason, "value", reason)
        return self.by_reason.get(key, 0)

    def as_dict(self):
        """Reason → count, sorted by reason for stable reports."""
        return dict(sorted(self.by_reason.items()))


def slowdown(baseline, subject):
    """Throughput ratio baseline/subject (1.0 = no overhead)."""
    if subject.throughput == 0:
        return float("inf")
    return baseline.throughput / subject.throughput


def geomean(values):
    """Geometric mean of positive values."""
    values = list(values)
    if not values:
        raise ValueError("geomean of nothing")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
