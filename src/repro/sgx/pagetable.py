"""The OS-owned page table.

This is the attack surface: the untrusted OS (and therefore the
controlled-channel attacker) has full read/write access to every PTE —
it can unmap pages, downgrade permissions, and clear or sample the
accessed/dirty bits.  SGX's integrity comes from the EPCM check *after*
the walk, not from protecting the page table itself.
"""

from __future__ import annotations

from repro.errors import SgxError
from repro.sgx.epoch import TranslationEpoch
from repro.sgx.params import PAGE_SHIFT, AccessType, vpn_of


class Pte:
    """An x86-style page table entry (the bits the paper's attack uses).

    A plain ``__slots__`` class rather than a dataclass: one of these
    exists per mapped page and is probed on every TLB miss, so the
    per-instance dict is measurable overhead at experiment scale.
    """

    __slots__ = ("pfn", "present", "writable", "executable",
                 "accessed", "dirty")

    def __init__(self, pfn, present=True, writable=True, executable=False,
                 accessed=False, dirty=False):
        self.pfn = pfn
        self.present = present
        self.writable = writable
        self.executable = executable
        self.accessed = accessed
        self.dirty = dirty

    # repro: hot
    def allows(self, access):
        if access is AccessType.READ:
            return True
        if access is AccessType.WRITE:
            return self.writable
        if access is AccessType.EXEC:
            return self.executable
        raise ValueError(f"unknown access type {access!r}")


class PageTable:
    """Sparse map of virtual page number → :class:`Pte`.

    All mutation goes through named methods rather than raw dict access
    so that attacker actions (``unmap``, ``clear_accessed_dirty``,
    ``set_protection``) and legitimate OS actions are explicit in traces
    and tests.  Every mutator bumps the translation epoch, so no
    columnar stamp taken before a PTE change is replayed after it.
    """

    def __init__(self, epoch=None):
        self._ptes = {}
        #: TLB(s) to notify on unmap/protect — the OS performs the TLB
        #: shootdown that the SGX flows require.
        self._shootdown_targets = []
        #: Shared generation stamp (private when standing alone).
        self.epoch = epoch if epoch is not None else TranslationEpoch()
        #: Optional lifecycle witness, called ``op_observer("drop",
        #: vaddr)`` when a mapping is removed — the shootdown step of
        #: the EBLOCK → drop → EWB eviction protocol the model
        #: checker's runtime oracle verifies.
        self.op_observer = None

    def register_tlb(self, tlb):
        self._shootdown_targets.append(tlb)

    # -- lookups ---------------------------------------------------------

    # repro: hot
    def lookup(self, vaddr):
        """Return the PTE covering ``vaddr`` or ``None`` if unmapped."""
        return self._ptes.get(vaddr >> PAGE_SHIFT)

    def mapped_vpns(self):
        """All VPNs with a present mapping (attacker enumeration)."""
        return [vpn for vpn, pte in self._ptes.items() if pte.present]

    # -- OS / attacker mutations -----------------------------------------

    def map(self, vaddr, pfn, writable=True, executable=False,
            accessed=False, dirty=False):
        self.map_pages((vaddr,), (pfn,), writable, executable, accessed,
                       dirty)
        return self._ptes[vpn_of(vaddr)]

    def map_pages(self, vaddrs, pfns, writable=True, executable=False,
                  accessed=False, dirty=False):
        """Install one present PTE per ``(vaddr, pfn)`` pair, in order,
        with the same permission and A/D bits: one epoch bump."""
        self.epoch.value += 1
        ptes = self._ptes
        for vaddr, pfn in zip(vaddrs, pfns):
            ptes[vaddr >> PAGE_SHIFT] = Pte(
                pfn, True, writable, executable, accessed, dirty,
            )

    def unmap(self, vaddr):
        """Clear the present bit (keeps the PFN for later remap)."""
        self.epoch.value += 1
        pte = self._require(vaddr)
        pte.present = False
        self._shootdown(vaddr)

    def remap(self, vaddr):
        """Restore the present bit of a previously unmapped page."""
        self.epoch.value += 1
        pte = self._require(vaddr)
        pte.present = True

    def drop(self, vaddr):
        """Remove the PTE entirely (page fully deallocated)."""
        self.drop_pages((vaddr,))

    def drop_pages(self, vaddrs):
        """Remove the PTEs of a list of pages: one epoch bump and one
        shootdown sweep per TLB for the whole list."""
        self.epoch.value += 1
        pop = self._ptes.pop
        for vaddr in vaddrs:
            pop(vaddr >> PAGE_SHIFT, None)
        for tlb in self._shootdown_targets:
            tlb.flush_pages(vaddrs)
        observe = self.op_observer
        if observe is not None:
            for vaddr in vaddrs:
                observe("drop", vaddr)

    def set_protection(self, vaddr, writable=None, executable=None):
        self.epoch.value += 1
        pte = self._require(vaddr)
        if writable is not None:
            pte.writable = writable
        if executable is not None:
            pte.executable = executable
        self._shootdown(vaddr)

    def set_accessed_dirty(self, vaddr, accessed=None, dirty=None):
        """Set or clear A/D bits (used both by the MMU walk and by the
        attacker's monitoring loop, and by Autarky's driver which must
        pre-set both bits for self-paging enclaves)."""
        self.epoch.value += 1
        pte = self._require(vaddr)
        if accessed is not None:
            pte.accessed = accessed
        if dirty is not None:
            pte.dirty = dirty
        self._shootdown(vaddr)

    def read_accessed_dirty(self, vaddr):
        """Sample the A/D bits of a page (attacker primitive)."""
        pte = self._require(vaddr)
        return pte.accessed, pte.dirty

    # -- internals ---------------------------------------------------------

    def _require(self, vaddr):
        """The PTE covering ``vaddr``, present or not (the OS may operate
        on a non-present PTE)."""
        pte = self._ptes.get(vpn_of(vaddr))
        if pte is None:
            raise SgxError(f"no PTE for {vaddr:#x}")
        return pte

    def _shootdown(self, vaddr):
        for tlb in self._shootdown_targets:
            tlb.flush_page(vaddr)
