"""Generation stamp for translation-affecting state.

One :class:`TranslationEpoch` is shared by everything that can change
the outcome of an address translation — the page table, the TLB, the
EPCM (via the SGX instructions), and the CPU's mode transitions.  Every
mutation bumps the counter.  Its consumer is the columnar tier's
compiled stamps (:class:`repro.sgx.columnar.PageRun`): a run compiled
against the TLB records the value, and replays in bulk only while the
value still matches; on mismatch it recompiles.

This is deliberately coarse: a single global generation, not per-page
tracking.  Invalidation events (faults, evictions, shootdowns, SGX
paging instructions) are orders of magnitude rarer than translations
in steady state, so dropping every stamp on any of them keeps the
protocol trivially auditable — a stamp can never outlive *any*
architectural change — while the common case stays one compare.
"""

from __future__ import annotations


class TranslationEpoch:
    """A monotonically increasing generation counter."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def bump(self):
        """Record that translation-affecting state changed."""
        self.value += 1

    def __repr__(self):
        return f"TranslationEpoch({self.value})"
