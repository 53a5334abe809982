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

The TLB is the only translation cache.  When the MMU is built with the
fast path on (tier "columnar"), :meth:`Mmu.fast_hit` and
:meth:`Mmu.probe_run` probe the TLB's live entry map
(:meth:`repro.sgx.tlb.Tlb.residency`) directly, skipping the
:meth:`Mmu.translate_nofault` call chain.  A probe hit is exactly what
:meth:`repro.sgx.tlb.Tlb.lookup` does on a hit — bump ``tlb.hits``,
return the PFN, charge nothing, touch no A/D bit — and a miss has no
side effect, so the slow path that follows runs as if the probe never
happened.  With the fast path off (tier "off", and standalone rigs)
every access takes the classic lookup/walk.

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

    def __init__(self, page_table, tlb, epcm, clock, cost, fast=False):
        self.page_table = page_table
        self.tlb = tlb
        self.epcm = epcm
        self.clock = clock
        self.cost = cost
        #: Counters for the nbench-style architecture-overhead analysis.
        self.walks = 0
        self.ad_checks = 0
        #: The TLB's live ``{vpn: TlbEntry}`` map, which the fast path
        #: probes, or ``None`` when the fast path is off.  An alias, not
        #: a copy: the TLB changes it strictly in place.
        self.tlb_entries = tlb.residency() if fast else None

    # -- the fast path -----------------------------------------------------

    # repro: hot
    def fast_hit(self, vaddr, access):
        """A TLB hit probed in the entry map, or ``None`` to take the
        slow path (:meth:`translate_nofault`).

        A hit is :meth:`repro.sgx.tlb.Tlb.lookup`'s hit: it bumps
        ``tlb.hits`` and charges nothing.  A read needs only a resident
        entry; any other access asks :meth:`~repro.sgx.tlb.TlbEntry.allows`.
        """
        entries = self.tlb_entries
        if entries is None:
            return None
        entry = entries.get(vaddr >> PAGE_SHIFT)
        if entry is None or not (access is AccessType.READ
                                 or entry.allows(access)):
            return None
        self.tlb.hits += 1
        return entry.pfn

    # repro: hot
    def probe_run(self, vaddrs, access):
        """Resolve a whole run from the TLB, or ``None`` on any miss.

        Probes have no side effects, so a miss anywhere simply means
        "take the slow path for the whole run" — nothing to undo.  On
        success the run is architecturally N TLB hits, accounted in
        bulk.
        """
        entries = self.tlb_entries
        if entries is None:
            return None
        get = entries.get
        read = access is AccessType.READ
        pfns = []
        append = pfns.append
        for vaddr in vaddrs:
            entry = get(vaddr >> PAGE_SHIFT)
            if entry is None or not (read or entry.allows(access)):
                return None
            append(entry.pfn)
        self.tlb.hits += len(pfns)
        return pfns

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

    # repro: hot
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
            return pfn, None
        return self._walk(vaddr, access, enclave)

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
    # translation a columnar stamp relies on, so stamps stay sound
    # without an epoch bump (which would drop them on every fill).
    # repro: allow[effects/epoch-soundness]
    def _update_ad(self, vaddr, pte, access):
        pte.accessed = True
        if access is AccessType.WRITE:
            pte.dirty = True
