"""TLB model with SGX's enclave-transition flush semantics.

Two properties matter for the paper:

* The TLB is flushed on every enclave entry and exit, so the first
  access to each page after a transition always triggers a walk — this
  is why transition costs dominate fault latency, and why the
  accessed/dirty-bit channel works (the OS can force re-walks).

* Autarky's A/D-bit defense is checked at *fill* time; once an entry is
  cached, later hits bypass the page table entirely, which is exactly
  the time-of-check semantics §5.1.4 reasons about.

The TLB is the simulator's only translation cache: the MMU's fast
path probes its live entry map (:meth:`Tlb.residency`) directly.
Every operation that removes an entry — full flush, single-page
shootdown, capacity eviction — bumps the shared translation epoch, so
a columnar stamp (:mod:`repro.sgx.columnar`) can never replay a run
whose translations the TLB no longer holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sgx.epoch import TranslationEpoch
from repro.sgx.params import PAGE_SHIFT, AccessType


@dataclass
class TlbEntry:
    __slots__ = ("pfn", "writable", "executable")

    pfn: int
    writable: bool
    executable: bool

    # repro: hot
    def allows(self, access):
        """Whether this entry allows ``access``: the one statement of
        the rule.  Any resident entry allows a read, so the fast paths
        probe a read by residency alone and ask this for the rest."""
        if access is AccessType.READ:
            return True
        if access is AccessType.WRITE:
            return self.writable
        if access is AccessType.EXEC:
            return self.executable
        raise ValueError(f"unknown access type {access!r}")


class Tlb:
    """TLB with optional capacity.

    ``capacity=None`` (default) models an unbounded TLB — adequate for
    the paging experiments, where flush-on-transition dominates.  The
    nbench architecture-overhead analysis (E1) sets a realistic
    capacity (~1536 entries for Ice Lake's STLB) so capacity misses
    generate the fill stream the 10-cycle Autarky check taxes.
    Replacement is FIFO (dict insertion order), a standard approximation.
    """

    def __init__(self, capacity=None, epoch=None):
        self.capacity = capacity
        self._entries = {}
        self.fills = 0
        self.hits = 0
        self.flushes = 0
        #: Shared generation stamp (private when standing alone).
        self.epoch = epoch if epoch is not None else TranslationEpoch()

    # repro: hot
    def lookup(self, vaddr, access):
        """Return the cached PFN or ``None`` (miss or insufficient perms).

        A permission mismatch is treated as a miss so the walk (and its
        SGX checks) re-runs, matching hardware behaviour.
        """
        entry = self._entries.get(vaddr >> PAGE_SHIFT)
        if entry is None or not entry.allows(access):
            return None
        self.hits += 1
        return entry.pfn

    # Installing an entry only *adds* a translation the walk just
    # validated; columnar stamps taken earlier stay correct, so no
    # epoch bump is needed on the fill path (the capacity-eviction
    # branch, which removes a translation, does bump).
    # repro: allow[effects/epoch-soundness]
    # repro: hot
    def install(self, vaddr, pfn, writable, executable):
        self.fills += 1
        if self.capacity is not None and len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
            self.epoch.value += 1
        self._entries[vaddr >> PAGE_SHIFT] = TlbEntry(
            pfn, writable, executable
        )

    def flush(self):
        """Full flush (EENTER/EEXIT/AEX)."""
        self.flushes += 1
        self._entries.clear()
        self.epoch.value += 1

    def flush_page(self, vaddr):
        """Single-page shootdown (OS unmap/protect)."""
        self.flush_pages((vaddr,))

    def flush_pages(self, vaddrs):
        """Shoot down every page of a list: one sweep, one epoch bump
        (the IPI round of a batched unmap)."""
        pop = self._entries.pop
        for vaddr in vaddrs:
            pop(vaddr >> PAGE_SHIFT, None)
        self.epoch.value += 1

    def residency(self):
        """The live ``{vpn: TlbEntry}`` map — the residency/permission
        table the MMU's fast path probes and the columnar engine
        compiles against.

        Callers must treat it as read-only; it is mutated strictly in
        place by the TLB itself, so an alias never goes stale, and
        every entry removal bumps the shared epoch, which is what keeps
        compiled columns sound.
        """
        return self._entries

    def __contains__(self, vaddr):
        return vaddr >> PAGE_SHIFT in self._entries
