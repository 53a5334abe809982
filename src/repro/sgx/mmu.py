"""The TLB-miss walk with SGX checks and Autarky's modifications.

Walk order (§2.1 "Access control and page faults"):

1. x86 page walk: PTE must be present with sufficient permissions.
2. SGX checks (enclave mode, address inside the enclave region):
   the PTE must point at an EPC frame, and the EPCM entry must match
   (owner, linked vaddr, permissions, no pending/modified/blocked bits).
3. Autarky check (self-paging enclaves only, §5.1.4): the fetched PTE's
   accessed *and* dirty bits must already be set; otherwise the PTE is
   treated as invalid and a fault occurs.  This blinds the OS's
   A/D-bit channel, because a cleared bit can never be silently re-set
   by the hardware — it surfaces as a fault the enclave sees.
4. On success, install the TLB entry.  Legacy enclaves (and host
   software) get their A/D bits updated as usual, which is exactly the
   signal the fault-free controlled channel reads.

Fast path
---------

When the MMU is built with a shared :class:`TranslationEpoch` (the
kernel wires one through the page table, TLB, and SGX instructions),
successful translations are memoized per ``(access, vpn)``.  A memo
hit replays exactly what a TLB hit does — bump ``tlb.hits``, return
the PFN, charge nothing, touch no A/D bit — because a memo entry is
recorded only when the TLB provably holds a covering entry, and every
event that can remove or change TLB content (flush, shootdown,
capacity eviction) or translation-relevant state (PTE stores, EPCM
mutations) bumps the epoch, which drops the whole memo.  Without a
shared epoch (standalone rigs) the fast path is disabled and behaviour
is bit-for-bit the classic lookup/walk.

Faults are *returned*, not raised, on the :meth:`Mmu.translate_nofault`
path, so the CPU's retry loop prices a cold run of N pages at N fault
deliveries — never N raise/except round trips per retried access.
:meth:`Mmu.translate` keeps the raising contract for direct callers.
"""

from __future__ import annotations

from repro.clock import Category
from repro.errors import EpcmViolation, PageFault
from repro.sgx.params import PAGE_MASK, PAGE_SHIFT, AccessType


class Mmu:
    """Performs translations for one logical core."""

    def __init__(self, page_table, tlb, epcm, clock, cost, epoch=None):
        self.page_table = page_table
        self.tlb = tlb
        self.epcm = epcm
        self.clock = clock
        self.cost = cost
        #: Counters for the nbench-style architecture-overhead analysis.
        self.walks = 0
        self.ad_checks = 0
        #: Shared translation generation stamp; ``None`` disables the
        #: memoized fast path (standalone constructions keep the exact
        #: classic behaviour).
        self.epoch = epoch
        #: Per-access-type {vpn: pfn} memos, valid only while the epoch
        #: matches.  Three plain attributes selected by identity —
        #: hashing an enum on every probe is measurable at this rate.
        self._fast_read = {}
        self._fast_write = {}
        self._fast_exec = {}
        self._fast_epoch = -1

    # -- the fast path -----------------------------------------------------

    def _fast_dict(self, access):
        """The memo for one access type, synced to the current epoch.

        Callers must have checked ``self.epoch is not None``.
        """
        if self._fast_epoch != self.epoch.value:
            self._fast_read.clear()
            self._fast_write.clear()
            self._fast_exec.clear()
            self._fast_epoch = self.epoch.value
        if access is AccessType.READ:
            return self._fast_read
        if access is AccessType.WRITE:
            return self._fast_write
        return self._fast_exec

    def fast_hit(self, vaddr, access):
        """Memoized translation, or ``None`` to take the slow path.

        A hit is architecturally a TLB hit: it bumps ``tlb.hits`` and
        charges nothing, exactly like :meth:`repro.sgx.tlb.Tlb.lookup`.
        """
        if self.epoch is None:
            return None
        pfn = self._fast_dict(access).get(vaddr >> PAGE_SHIFT)
        if pfn is not None:
            self.tlb.hits += 1
        return pfn

    def fast_view(self, access):
        """The synced ``{vpn: pfn}`` memo for one access type, or ``None``.

        Batched callers (``Cpu.access_run``) probe the returned dict
        directly in their inner loop and account the hits in bulk; the
        view is invalid as soon as anything bumps the epoch, so it must
        be re-fetched after every slow-path excursion.
        """
        if self.epoch is None:
            return None
        return self._fast_dict(access)

    # repro: hot
    def probe_run(self, vaddrs, access):
        """Resolve a whole run from the memo, or ``None`` on any miss.

        Probes have no side effects, so a miss anywhere simply means
        "take the slow path for the whole run" — nothing to undo.  On
        success the run is architecturally N TLB hits, accounted in
        bulk.  Epoch sync and memo selection are inlined: this is the
        innermost frame of the batched hot path.
        """
        epoch = self.epoch
        if epoch is None:
            return None
        if self._fast_epoch != epoch.value:
            self._fast_read.clear()
            self._fast_write.clear()
            self._fast_exec.clear()
            self._fast_epoch = epoch.value
        if access is AccessType.READ:
            get = self._fast_read.get
        elif access is AccessType.WRITE:
            get = self._fast_write.get
        else:
            get = self._fast_exec.get
        pfns = [get(v >> PAGE_SHIFT) for v in vaddrs]
        if None in pfns:
            return None
        self.tlb.hits += len(pfns)
        return pfns

    def _remember(self, vaddr, access, pfn):
        if self.epoch is None:
            return
        # Sync *after* the walk: the walk itself may have bumped the
        # epoch (TLB capacity eviction during install).
        self._fast_dict(access)[vaddr >> PAGE_SHIFT] = pfn

    # -- translation -------------------------------------------------------

    def translate(self, vaddr, access, enclave=None):
        """Translate ``vaddr`` for ``access``; returns the PFN.

        ``enclave`` is the currently executing enclave, or ``None`` for
        host-mode accesses.  Raises :class:`PageFault` on any failed
        check (the CPU turns that into an AEX when in enclave mode).
        """
        pfn, fault = self.translate_nofault(vaddr, access, enclave)
        if fault is not None:
            raise fault
        return pfn

    def translate_nofault(self, vaddr, access, enclave=None):
        """Translate without raising: returns ``(pfn, fault)``.

        Exactly one of the pair is ``None``.  Counters and cycle
        charges are identical to :meth:`translate`; only the delivery
        of the failure differs (a returned object instead of a raised
        one), which is what lets the CPU's retry loop avoid paying
        Python exception unwinding on every retried access.
        """
        pfn = self.tlb.lookup(vaddr, access)
        if pfn is not None:
            self._remember(vaddr, access, pfn)
            return pfn, None
        pfn, fault = self._walk(vaddr, access, enclave)
        if fault is None:
            self._remember(vaddr, access, pfn)
        return pfn, fault

    def _walk(self, vaddr, access, enclave):
        """The TLB-miss walk, in the order of the module docstring; the
        SGX checks and Autarky's A/D check (§5.1.4) run here, inline.

        The A/D check piggybacks on the EPCM lookup (already
        SGX-specific), so it costs a fixed few cycles per fill and
        touches no core MMU path.  A self-paging enclave's A/D bits are
        never written back, honouring the assumption that prevents the
        TOCTOU §5.1.4 discusses."""
        self.walks += 1
        self.clock.charge(self.cost.tlb_fill, Category.TLB_FILL)

        pte = self.page_table.lookup(vaddr)
        if pte is None or not pte.present:
            return None, PageFault(vaddr, access is AccessType.WRITE,
                                   access is AccessType.EXEC, False,
                                   "not present")
        if not pte.allows(access):
            return None, PageFault(vaddr, access is AccessType.WRITE,
                                   access is AccessType.EXEC, True,
                                   "protection")

        if enclave is not None and enclave.base <= vaddr < enclave.limit:
            try:
                self.epcm.check_access(pte.pfn, enclave.enclave_id,
                                       vaddr & PAGE_MASK, access)
            except EpcmViolation as exc:
                fault = PageFault(vaddr, access is AccessType.WRITE,
                                  access is AccessType.EXEC, True,
                                  f"EPCM: {exc}")
                fault.__cause__ = exc
                return None, fault
            if enclave.attributes.self_paging:
                self.ad_checks += 1
                self.clock.charge(self.cost.autarky_ad_check,
                                  Category.TLB_FILL)
                if not (pte.accessed and pte.dirty):
                    return None, PageFault(
                        vaddr, access is AccessType.WRITE,
                        access is AccessType.EXEC, True,
                        "accessed/dirty cleared (Autarky)")
            else:
                # Legacy behaviour: hardware sets A (and D on writes) —
                # the observable the fault-free attack samples.
                self._update_ad(vaddr, pte, access)
        else:
            self._update_ad(vaddr, pte, access)

        self.tlb.install(vaddr, pte.pfn, pte.writable, pte.executable)
        return pte.pfn, None

    # Setting A/D bits to True is monotone-permissive: it can only
    # turn a would-be Autarky A/D fault into a hit, never invalidate a
    # translation an existing memo relies on, so the fast path stays
    # sound without an epoch bump (which would defeat the memo).
    # repro: allow[effects/epoch-soundness]
    def _update_ad(self, vaddr, pte, access):
        pte.accessed = True
        if access is AccessType.WRITE:
            pte.dirty = True
