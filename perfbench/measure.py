"""Host-time measurement helpers: calibrated timing, percentiles, memory.

Host time on a shared machine drifts: the same pure-Python loop can run
at half speed for minutes while neighbours are busy.  Every host-time
figure the benchmark reports is therefore normalised by a calibration
loop that runs next to the work it normalises.  A unit of work that
took ``t`` seconds while the calibration loop took ``c`` seconds is
reported as ``t * REFERENCE_CALIBRATION_S / c`` "reference seconds":
the time the unit would take on a host whose calibration loop runs in
``REFERENCE_CALIBRATION_S``.  A change to the simulator moves the
numerator only; a change in machine speed moves both.
"""

from __future__ import annotations

import random
import resource
import statistics
import time

#: Calibration-loop duration on the reference host (a quiet 2-core
#: x86-64 VM running CPython 3.11).  Any constant works; this one keeps
#: reference seconds close to wall seconds on a quiet machine.
REFERENCE_CALIBRATION_S = 0.0046

#: Iterations of the two halves of one calibration sample (together
#: about 4.5 ms on the reference host).
CORE_ITERATIONS = 10_000
CACHE_ITERATIONS = 4_000

#: Seconds between calibration samples inside one long unit of work.
SAMPLE_INTERVAL_S = 0.05

#: Objects in the cache-sized half's working set (a few MiB, like the
#: simulator's page tables and plan caches).
WORKING_SET = 1 << 14


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self, value=0):
        self.value = value
        self.hits = 0

    def bump(self, n):
        self.value += n
        self.hits += 1
        return self.value


class Calibrator:
    """Interleaves calibration samples with measured work.

    One sample runs fixed interpreter-bound work shaped like the
    simulator's hot paths in two halves: slotted attribute updates,
    method calls and small-dict traffic, then scattered lookups over a
    working set of a few MiB, so contention for the core and for the
    caches both slow it.  ``sample()`` books its duration as overhead, so
    :meth:`Stopwatch.stop` can subtract samples taken inside a unit;
    ``maybe_sample()`` samples only when :data:`SAMPLE_INTERVAL_S` has
    passed since the last one, for callers deep inside a long unit of work.
    """

    def __init__(self):
        self.samples = []
        self.overhead_s = 0.0
        self._last = 0.0
        self._cells = [_Cell() for _ in range(64)]
        self._table = {i << 12: _Cell(i) for i in range(WORKING_SET)}
        order = list(range(WORKING_SET))
        random.Random(1).shuffle(order)
        self._keys = [i << 12 for i in order]

    def loop(self):
        cells = self._cells
        small = {}
        total = 0
        for i in range(CORE_ITERATIONS):
            cell = cells[i & 63]
            total += cell.bump(i & 7)
            small[i & 1023] = total
            total ^= small.get((i * 7) & 1023, 0)
        get = self._table.get
        keys = self._keys
        mask = WORKING_SET - 1
        for i in range(CACHE_ITERATIONS):
            cell = get(keys[i & mask])
            cell.hits += 1
            total += cell.value
        return total

    def sample(self):
        start = time.perf_counter()
        self.loop()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.overhead_s += end - start
        self._last = end
        return end - start

    def maybe_sample(self):
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()


class Stopwatch:
    """Times one unit of work in reference seconds.

    A calibration sample is taken at start and at stop; the unit's
    speed factor is the mean of every sample from its start sample to
    its stop sample, including any taken inside it."""

    def __init__(self, calibrator):
        self.cal = calibrator
        # The previous unit's stop sample doubles as this one's start
        # sample when nothing ran in between.
        if not self.cal.samples or \
                time.perf_counter() - self.cal._last > 0.002:
            self.cal.sample()
        self._first = len(self.cal.samples) - 1
        self._overhead0 = self.cal.overhead_s
        self._start = time.perf_counter()

    def stop(self):
        """Returns ``(raw_seconds, reference_seconds)``."""
        end = time.perf_counter()
        inside = self.cal.overhead_s - self._overhead0
        raw = end - self._start - inside
        self.cal.sample()
        window = self.cal.samples[self._first:]
        speed = sum(window) / len(window)
        return raw, raw * REFERENCE_CALIBRATION_S / speed


def nearest_rank(samples, p_milli, min_beyond=10):
    """Nearest-rank percentile (``p_milli`` in thousandths, 990 = p99),
    ranked as the service's own ``LatencyWindow`` ranks.

    Returns ``None`` unless at least ``min_beyond`` samples lie beyond
    the rank, so a tail percentile is never read off a handful of
    points."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, (p_milli * n + 999) // 1000)
    if n - rank < min_beyond:
        return None
    return ordered[rank - 1]


def peak_rss_mib():
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rate_from_units(unit_ops, unit_times):
    """Ops per reference second for a fixed round of units.

    ``unit_ops[u]`` is the op count of unit ``u`` and ``unit_times[u]``
    the reference-second durations of its executions.  Each unit
    contributes the median of its executions, so a unit repeated more
    often (a partial last round) does not shift the mix."""
    total_ops = sum(unit_ops[u] for u in unit_times)
    total_time = sum(statistics.median(times)
                     for times in unit_times.values())
    return total_ops / total_time
