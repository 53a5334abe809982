"""Oblivious access primitives and their costs.

Without Autarky, ORAM metadata (position map, stash) itself leaks
through the paging channel, so CoSMIX-style systems access it with
CMOVZ *linear scans*: every lookup touches every entry so the access
pattern is data-independent.  The cost is what makes uncached enclave
ORAM impractical — §7.2's uncached uthash run "did not complete in 24
hours" on the full input.

With Autarky, the metadata lives in enclave-managed pinned pages and
can be indexed directly; the scan cost disappears.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clock import Category


@dataclass
class ObliviousScanCosts:
    """Calibration for CMOV-based linear scans.

    ``cycles_per_entry`` models one load + CMOVZ + bookkeeping per
    scanned element (pessimistically cache-resident); real scans are
    memory-bound, so treat this as a lower bound for the baseline.
    """

    cycles_per_entry: float = 2.0


def oblivious_scan_cycles(n_entries, costs=None):
    """Cycles to obliviously select one element out of ``n_entries``."""
    costs = costs or ObliviousScanCosts()
    return int(n_entries * costs.cycles_per_entry)


class ObliviousTable:
    """A key-value table whose lookups charge a full linear scan.

    Functionally a dict; the obliviousness is expressed purely in the
    cycle charges (the simulator does not need data-independent Python
    control flow, only data-independent *modelled* behaviour).
    """

    def __init__(self, clock, costs=None, category=Category.OBLIVIOUS_SCAN):
        self.clock = clock
        self.costs = costs or ObliviousScanCosts()
        self.category = category
        self._data = {}
        self.scans = 0

    def __len__(self):
        return len(self._data)

    def get(self, key, default=None):
        self._charge_scan()
        return self._data.get(key, default)

    def put(self, key, value):
        self._charge_scan()
        self._data[key] = value

    def pop(self, key, default=None):
        self._charge_scan()
        return self._data.pop(key, default)

    def _charge_scan(self):
        self.scans += 1
        self.clock.charge(
            oblivious_scan_cycles(max(len(self._data), 1), self.costs),
            self.category,
        )
