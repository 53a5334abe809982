"""The SGX instruction set (the subset the paper's flows depend on).

Launch:    ECREATE, EADD, EINIT
Paging v1: EBLOCK, EWB, ELDU               (privileged, driver-executed)
Paging v2: EAUG, EACCEPT, EACCEPTCOPY, EMODPR, EMODT, EREMOVE
           (OS proposes, unprivileged enclave code confirms)

Every instruction enforces the architectural rules: the OS cannot forge
contents (crypto), cannot replay stale pages (versioning), and cannot
change a live enclave's memory without the enclave's EACCEPT.  Costs
are charged to :data:`Category.SGX_PAGING` so Figure 5 can be rebuilt.
"""

from __future__ import annotations

from repro.clock import Category
from repro.errors import SgxError
from repro.sgx.enclave import Enclave
from repro.sgx.epcm import PageType, Permissions
from repro.sgx.epoch import TranslationEpoch
from repro.sgx.params import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, vpn_of
from repro.sgx.tcs import Tcs


class SgxInstructions:
    """Executes SGX instructions against shared EPC/EPCM state."""

    def __init__(self, epc, epcm, clock, cost, epoch=None):
        self.epc = epc
        self.epcm = epcm
        self.clock = clock
        self.cost = cost
        #: Translation generation stamp, bumped by every instruction
        #: that mutates EPCM state (the kernel shares one stamp across
        #: the whole machine; standalone rigs get a private one).
        self.epoch = epoch if epoch is not None else TranslationEpoch()
        #: The CPU's EWB/ELDU sealing engine (one key per package).
        from repro.sgx.crypto import PagingCrypto
        self.hw_crypto = PagingCrypto()
        #: ``enclave_id -> Enclave`` for every enclave ECREATE built
        #: and the driver has not reclaimed yet
        #: (:meth:`repro.host.driver.SgxDriver.reclaim_enclave` removes
        #: it): the live table EPC parity sums over.
        self.enclaves = {}
        #: Registered by the kernel at boot so EWB can verify the
        #: ETRACK shootdown completed (no stale translations).
        self.tlb = None
        #: Optional chaos hook consulted before EAUG allocates: a
        #: scripted host may refuse the augmentation (EPC pressure) by
        #: raising from the hook.  See repro.chaos.
        self.fault_hook = None
        #: Optional lifecycle witness, called ``op_observer(name,
        #: enclave, vaddr)`` after each protocol-relevant instruction
        #: *completes* (a refused instruction never happened).  The
        #: model checker's runtime oracle feeds these into the same
        #: automata the static lifecycle pass runs.
        self.op_observer = None

    def _observe(self, name, enclave, vaddr=None):
        if self.op_observer is not None:
            self.op_observer(name, enclave, vaddr)

    @staticmethod
    def _require_distinct(name, vaddrs):
        """A batch names each page once: the all-or-nothing checks of a
        bulk instruction cannot see the effect of its own earlier
        pages."""
        if len(set(vaddrs)) != len(vaddrs):
            raise SgxError(f"{name}: a page appears twice in one batch")

    # -- launch ----------------------------------------------------------

    def ecreate(self, base, size_pages, attributes=None):
        enclave = Enclave(base, size_pages, attributes)
        self.enclaves[enclave.enclave_id] = enclave
        enclave.measurement.extend("ECREATE", base)
        self._observe("ecreate", enclave)
        return enclave

    def eadd(self, enclave, vaddr, contents=None, perms=Permissions.RW,
             page_type=PageType.REG):
        """Add and measure an initial page (pre-EINIT)."""
        self._check_range(enclave, vaddr)
        if enclave.initialized:
            raise SgxError("EADD after EINIT")
        self._require_unbacked(enclave, (vaddr,))
        pfn = self._install_pages(enclave, (vaddr,), (contents,), (perms,),
                                  page_type)[0]
        enclave.measurement.extend("EADD", vaddr)
        self._observe("eadd", enclave, vaddr)
        return pfn

    def eadd_tcs(self, enclave, vaddr, nssa=None):
        """Add a TCS page; returns the TCS object."""
        from repro.sgx.params import DEFAULT_NSSA
        tcs = Tcs(nssa or DEFAULT_NSSA)
        self.eadd(enclave, vaddr, contents=tcs, perms=Permissions.RW,
                  page_type=PageType.TCS)
        enclave.add_tcs(tcs)
        return tcs

    def einit(self, enclave):
        if enclave.initialized:
            raise SgxError("double EINIT")
        enclave.initialized = True
        self._observe("einit", enclave)

    # -- SGX1 paging (privileged) ------------------------------------------
    #
    # Each instruction is implemented over a page list and the
    # single-page form is a batch of one, so both run the same checks in
    # the same order.  A page-list instruction is two phases: its check
    # phase (``eblock_check``, ``ewb_check``, ``eldu_check``) has no side
    # effect and returns what it looked up, and its commit phase makes
    # the changes from that, so a batch checks all of its pages before it
    # commits any of them.  EBLOCK and EWB bump the epoch, and EWB and
    # ELDU charge, before they check: a batch that fails its check has
    # been paid for.  A driver that validated a whole batch with the
    # check phases passes what they returned to the instruction, which
    # then commits without checking again; so each check runs once per
    # page.

    # EBLOCK's few hundred cycles are folded into the EWB figure the
    # cost model calibrates against (§7.1 measures the eviction
    # sequence as a whole), so charging here would double-count;
    # ``eblock_pages`` carries the same annotation for the same reason.
    # repro: allow[cycle-accounting] cost folded into the EWB figure
    def eblock(self, enclave, vaddr):
        """Mark a page blocked: no *new* TLB translations may be
        created for it (existing ones persist until shot down — the
        window ETRACK exists to close)."""
        self.eblock_pages(enclave, (vaddr,))

    # repro: allow[cycle-accounting] cost folded into the EWB figure
    def eblock_pages(self, enclave, vaddrs, found=None):
        """EBLOCK every page of ``vaddrs``.  ``found`` is what
        :meth:`eblock_check` returned for them, when the caller ran it."""
        self.epoch.value += 1
        if found is None:
            found = self.eblock_check(enclave, vaddrs)
        for entry in found[1]:
            entry.blocked = True
        if self.op_observer is not None:
            for vaddr in vaddrs:
                self.op_observer("eblock", enclave, vaddr)

    # repro: allow[cycle-accounting] a check phase; its instruction charges
    def eblock_check(self, enclave, vaddrs):
        """EBLOCK's check phase: every page appears once, is backed and
        is not blocked yet.  Returns the pages' PFNs and EPCM entries."""
        if len(vaddrs) > 1:
            self._require_distinct("EBLOCK", vaddrs)
        found = self._backed_entries("", enclave, vaddrs)
        for vaddr, entry in zip(vaddrs, found[1]):
            if entry.blocked:
                raise SgxError(f"EBLOCK: {vaddr:#x} already blocked")
        return found

    def ewb(self, enclave, vaddr):
        """Evict a page: seal contents, free the frame, return the blob.

        Architectural preconditions enforced here (§2.1): the page must
        be EBLOCKed, and no logical processor may still hold a cached
        translation — i.e. the ETRACK/IPI shootdown sequence completed.
        We verify the latter directly against the TLB when the kernel
        registered one.
        """
        return self.ewb_pages(enclave, (vaddr,))[0]

    def ewb_pages(self, enclave, vaddrs, found=None):
        """EWB every page of ``vaddrs``; returns the sealed blobs in
        order.  Frames go back to the free list in page order.
        ``found`` is what :meth:`eblock_check` returned for the same
        pages when the caller EBLOCKed them with it: EWB's check phase
        then reuses its lookups."""
        self.epoch.value += 1
        self.clock.charge(self.cost.ewb * len(vaddrs), Category.SGX_PAGING)
        entries, frames = self.ewb_check(enclave, vaddrs, found)
        sealed = self.hw_crypto.seal_pages(
            enclave.enclave_id, [vaddr & PAGE_MASK for vaddr in vaddrs],
            [frame.contents for frame in frames])
        for entry in entries:
            entry.valid = False
            entry.blocked = False
        self.epc.free_frames(frames)
        backed = enclave.backed
        for vaddr in vaddrs:
            del backed[vaddr >> PAGE_SHIFT]
        if self.op_observer is not None:
            for vaddr in vaddrs:
                self.op_observer("ewb", enclave, vaddr)
        return sealed

    # repro: allow[cycle-accounting] a check phase; its instruction charges
    def ewb_check(self, enclave, vaddrs, found=None):
        """EWB's check phase: every page appears once, is backed and
        blocked, and no TLB still caches its translation.  The last two
        hold only once EBLOCK has committed and the translations were
        shot down, so this runs inside EWB; ``found`` is what
        :meth:`eblock_check` looked up for the same pages, if it ran.
        Returns the pages' EPCM entries and frames."""
        if found is None:
            if len(vaddrs) > 1:
                self._require_distinct("EWB", vaddrs)
            found = self._backed_entries("EWB: ", enclave, vaddrs)
        pfns, entries = found
        cached = self.tlb.residency() if self.tlb is not None else {}
        frame_of = self.epc.frame
        frames = []
        for vaddr, pfn, entry in zip(vaddrs, pfns, entries):
            if not entry.blocked:
                raise SgxError(
                    f"EWB: {vaddr:#x} not blocked (EBLOCK required first)"
                )
            if vaddr >> PAGE_SHIFT in cached:
                raise SgxError(
                    f"EWB: stale TLB translation for {vaddr:#x} "
                    "(ETRACK shootdown incomplete)"
                )
            frames.append(frame_of(pfn))
        return entries, frames

    def eldu(self, enclave, vaddr, sealed, perms=Permissions.RW):
        """Reload an evicted page, verifying integrity and freshness."""
        return self.eldu_pages(enclave, (vaddr,), (sealed,), (perms,))[0]

    def eldu_pages(self, enclave, vaddrs, blobs, perms, contents=None):
        """ELDU each ``(vaddr, sealed blob, permissions)`` triple; returns
        the new PFNs in order.  Every blob is verified before any is
        consumed, so a batch with one bad blob loads nothing.
        ``contents`` is what :meth:`eldu_check` returned for the batch,
        when the caller ran it."""
        self.clock.charge(self.cost.eldu * len(vaddrs), Category.SGX_PAGING)
        if contents is None:
            contents = self.eldu_check(enclave, vaddrs, blobs)
        self.hw_crypto.consume(enclave.enclave_id, vaddrs)
        pfns = self._install_pages(enclave, vaddrs, contents, perms,
                                   PageType.REG)
        if self.op_observer is not None:
            for vaddr in vaddrs:
                self.op_observer("eldu", enclave, vaddr)
        return pfns

    # repro: allow[cycle-accounting] a check phase; its instruction charges
    def eldu_check(self, enclave, vaddrs, blobs):
        """ELDU's check phase: every page lies in the enclave, is page
        aligned, appears once and is not backed yet, and its blob
        verifies (enclave, address, outstanding version and MAC).
        Returns the verified contents in order."""
        low, high = enclave.base, enclave.limit
        for vaddr in vaddrs:
            if not low <= vaddr < high:
                self._check_range(enclave, vaddr)
        if len(vaddrs) > 1:
            self._require_distinct("ELDU", vaddrs)
        self._require_unbacked(enclave, vaddrs)
        return self.hw_crypto.verify_pages(enclave.enclave_id, vaddrs,
                                           blobs)

    # -- SGX2 dynamic memory management ------------------------------------
    #
    # EAUG, EACCEPT and EREMOVE take page lists like the SGX1 paging
    # instructions above, with the single-page form a batch of one.

    def eaug(self, enclave, vaddr):
        """OS adds a zeroed page in pending state (needs EACCEPT[COPY])."""
        return self.eaug_pages(enclave, (vaddr,))[0]

    def eaug_pages(self, enclave, vaddrs):
        """EAUG every page of ``vaddrs``; returns the new PFNs in order.
        The fault hook, when one is installed, is consulted for every
        page before any page is allocated."""
        low, high = enclave.base, enclave.limit
        for vaddr in vaddrs:
            if not low <= vaddr < high:
                self._check_range(enclave, vaddr)
        if len(vaddrs) > 1:
            self._require_distinct("EAUG", vaddrs)
        if not enclave.attributes.sgx2:
            raise SgxError("EAUG requires SGX2")
        hook = self.fault_hook
        if hook is not None:
            for vaddr in vaddrs:
                hook("eaug", enclave, vaddr)
        count = len(vaddrs)
        self.clock.charge(self.cost.eaug * count, Category.SGX_PAGING)
        self._require_unbacked(enclave, vaddrs)
        pfns = self._install_pages(enclave, vaddrs, (None,) * count,
                                   (Permissions.RW,) * count, PageType.REG)
        for entry in self.epcm.entries(pfns):
            entry.pending = True
        if self.op_observer is not None:
            for vaddr in vaddrs:
                self.op_observer("eaug", enclave, vaddr)
        return pfns

    def eaccept(self, enclave, vaddr):
        """Enclave confirms an OS-proposed change (clears pending/modified)."""
        self.eaccept_pages(enclave, (vaddr,))

    def eaccept_pages(self, enclave, vaddrs):
        """EACCEPT every page of ``vaddrs``: each must have a change
        pending, or none is accepted."""
        self.epoch.value += 1
        self.clock.charge(self.cost.eaccept * len(vaddrs),
                          Category.SGX_PAGING)
        if len(vaddrs) > 1:
            self._require_distinct("EACCEPT", vaddrs)
        entries = []
        for vaddr in vaddrs:
            entry = self._entry_for(enclave, vaddr)
            if not (entry.pending or entry.modified):
                raise SgxError(f"EACCEPT: nothing pending at {vaddr:#x}")
            entries.append(entry)
        for entry in entries:
            entry.pending = False
            entry.modified = False

    def eacceptcopy(self, enclave, vaddr, contents):
        """Enclave accepts a pending page, initializing its contents —
        the SGX2 page-in path (contents were decrypted in-enclave)."""
        self.epoch.value += 1
        self.clock.charge(self.cost.eacceptcopy, Category.SGX_PAGING)
        entry = self._entry_for(enclave, vaddr)
        if not entry.pending:
            raise SgxError(f"EACCEPTCOPY: page not pending at {vaddr:#x}")
        entry.pending = False
        pfn = enclave.backed[vpn_of(vaddr)]
        self.epc.frame(pfn).contents = contents
        return pfn

    def emodpe(self, enclave, vaddr, perms):
        """Enclave-side permission *extension* (e.g. RW → RX after the
        enclave verified freshly-loaded code).  Unlike EMODPR this runs
        inside the enclave and takes effect immediately."""
        self.epoch.value += 1
        self.clock.charge(self.cost.eaccept, Category.SGX_PAGING)
        entry = self._entry_for(enclave, vaddr)
        if (entry.perms.read and not perms.read) or \
           (entry.perms.write and not perms.write) or \
           (entry.perms.execute and not perms.execute):
            raise SgxError("EMODPE can only extend permissions")
        entry.perms = perms

    def emodpr(self, enclave, vaddr, perms):
        """OS proposes a permission *reduction* (needs EACCEPT)."""
        self.epoch.value += 1
        self.clock.charge(self.cost.emodpr, Category.SGX_PAGING)
        entry = self._entry_for(enclave, vaddr)
        if (perms.read and not entry.perms.read) or \
           (perms.write and not entry.perms.write) or \
           (perms.execute and not entry.perms.execute):
            raise SgxError("EMODPR can only reduce permissions")
        entry.perms = perms
        entry.modified = True

    def emodt(self, enclave, vaddr, page_type=PageType.TRIM):
        """OS proposes a type change — trimming for deallocation."""
        self.epoch.value += 1
        self.clock.charge(self.cost.emodt, Category.SGX_PAGING)
        entry = self._entry_for(enclave, vaddr)
        entry.page_type = page_type
        entry.modified = True

    def eremove(self, enclave, vaddr):
        """Free a trimmed-and-accepted (or dead-enclave) page."""
        self.eremove_pages(enclave, (vaddr,))

    def eremove_pages(self, enclave, vaddrs):
        """EREMOVE every page of ``vaddrs``, or none of them.  Frames go
        back to the free list in page order."""
        self.epoch.value += 1
        self.clock.charge(self.cost.eremove * len(vaddrs),
                          Category.SGX_PAGING)
        if len(vaddrs) > 1:
            self._require_distinct("EREMOVE", vaddrs)
        backed = enclave.backed
        entry_of = self.epcm.entry
        frame_of = self.epc.frame
        dead = enclave.dead
        entries, frames = [], []
        for vaddr in vaddrs:
            pfn = backed.get(vaddr >> PAGE_SHIFT)
            if pfn is None:
                raise SgxError(f"EREMOVE: {vaddr:#x} not backed")
            entry = entry_of(pfn)
            trimmed = entry.page_type is PageType.TRIM and not entry.modified
            if not (trimmed or dead):
                raise SgxError(
                    "EREMOVE on a live, untrimmed page "
                    "(would break the enclave)"
                )
            entries.append(entry)
            frames.append(frame_of(pfn))
        for entry in entries:
            entry.valid = False
            entry.page_type = PageType.REG
        self.epc.free_frames(frames)
        for vaddr in vaddrs:
            del backed[vaddr >> PAGE_SHIFT]

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _require_unbacked(enclave, vaddrs):
        """Every page is page aligned and not backed by EPC yet: what
        :meth:`_install_pages` needs."""
        backed = enclave.backed
        for vaddr in vaddrs:
            if vaddr % PAGE_SIZE:
                raise SgxError(f"unaligned enclave page {vaddr:#x}")
            if vaddr >> PAGE_SHIFT in backed:
                raise SgxError(f"{vaddr:#x} already backed by EPC")

    def _install_pages(self, enclave, vaddrs, contents, perms, page_type):
        """Back each page with a fresh frame (allocated in page order)
        and a valid EPCM entry; returns the PFNs."""
        backed = enclave.backed
        self.epoch.value += 1
        frames = self.epc.alloc_frames(len(vaddrs))
        pfns = [frame.pfn for frame in frames]
        entries = self.epcm.entries(pfns)
        enclave_id = enclave.enclave_id
        for i, frame in enumerate(frames):
            vaddr = vaddrs[i]
            frame.contents = contents[i]
            entry = entries[i]
            entry.valid = True
            entry.page_type = page_type
            entry.enclave_id = enclave_id
            entry.vaddr = vaddr
            entry.perms = perms[i]
            entry.pending = False
            entry.modified = False
            entry.blocked = False
            backed[vaddr >> PAGE_SHIFT] = pfns[i]
        return pfns

    def _backed_entries(self, prefix, enclave, vaddrs):
        """The PFNs and EPCM entries of backed pages; raises at the first
        page not backed by EPC."""
        backed = enclave.backed
        pfns = []
        for vaddr in vaddrs:
            pfn = backed.get(vaddr >> PAGE_SHIFT)
            if pfn is None:
                raise SgxError(f"{prefix}{vaddr:#x} not backed by EPC")
            pfns.append(pfn)
        return pfns, self.epcm.entries(pfns)

    def _entry_for(self, enclave, vaddr):
        pfn = enclave.backed.get(vaddr >> PAGE_SHIFT)
        if pfn is None:
            raise SgxError(f"{vaddr:#x} not backed by EPC")
        return self.epcm.entry(pfn)

    def _check_range(self, enclave, vaddr):
        if not enclave.contains(vaddr):
            raise SgxError(
                f"{vaddr:#x} outside enclave "
                f"[{enclave.base:#x}, {enclave.limit:#x})"
            )
