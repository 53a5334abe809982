"""Stateful property testing of the driver's page-management contract.

Drives the raw driver (no runtime) with interleavings of page-in,
eviction, Autarky management-transfer IOCTLs, and suspend/resume,
checking the §5.2.1 contract after every step:

* resident enclave-managed pages are pinned (driver eviction refuses);
* the quota is never exceeded;
* EPC frames never leak or double-count;
* contents survive arbitrary swap cycles (crypto accepted every blob);
* the PTE view is consistent with residency for OS-managed pages.

A second machine runs two kernels in lockstep: one takes each paging
IOCTL as a multi-page batch, the other takes the same pages one call at
a time, and every observable must agree after every step — the
failure semantics of the pager transaction.
"""

import re

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import pytest

from repro.errors import EpcExhausted, SgxError
from repro.host.kernel import HostKernel
from repro.sgx.crypto import PagingCrypto
from repro.sgx.params import PAGE_SIZE

BASE = 0x1000_0000
NPAGES = 64
QUOTA = 24


class DriverMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.kernel = HostKernel(epc_pages=256)
        self.driver = self.kernel.driver
        self.enclave = self.driver.create_enclave(
            BASE, NPAGES, quota_pages=QUOTA,
        )
        self.driver.declare_region(self.enclave, BASE, NPAGES)
        self.kernel.instr.einit(self.enclave)
        self.enclave_managed = set()
        #: page -> token we last wrote into its frame contents.
        self.written = {}
        self.suspended = False

    def _page(self, index):
        return BASE + index * PAGE_SIZE

    # -- rules -------------------------------------------------------------

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1), token=st.integers())
    def os_pages_in_and_writes(self, index, token):
        page = self._page(index)
        if self.driver.resident(self.enclave, page):
            return
        try:
            self.driver.page_in(self.enclave, page)
        except EpcExhausted:
            # Legal when pinned pages fill the quota.
            assert len(self.enclave_managed) >= QUOTA - 1
            return
        pfn = self.enclave.backed[page >> 12]
        self.kernel.epc.frame(pfn).contents = token
        self.written[page] = token

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1))
    def os_tries_evict(self, index):
        page = self._page(index)
        if not self.driver.resident(self.enclave, page):
            return
        if page >> 12 in self.driver.state(self.enclave).enclave_managed:
            with pytest.raises(SgxError):
                self.driver.evict_page(self.enclave, page)
        else:
            self.driver.evict_page(self.enclave, page)

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1))
    def enclave_claims(self, index):
        page = self._page(index)
        self.driver.ay_set_enclave_managed(self.enclave, [page])
        self.enclave_managed.add(page)

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1))
    def enclave_releases(self, index):
        page = self._page(index)
        self.driver.ay_set_os_managed(self.enclave, [page])
        self.enclave_managed.discard(page)

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1))
    def enclave_fetches(self, index):
        page = self._page(index)
        if page not in self.enclave_managed:
            return
        if self.driver.resident(self.enclave, page):
            return
        try:
            self.driver.ay_fetch_pages(self.enclave, [page])
        except EpcExhausted:
            assert len(self.enclave_managed) >= QUOTA - 1

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1))
    def enclave_evicts(self, index):
        page = self._page(index)
        if page in self.enclave_managed:
            self.driver.ay_evict_pages(self.enclave, [page])

    @precondition(lambda self: not self.suspended)
    @rule()
    def os_suspends(self):
        self.driver.suspend_enclave(self.enclave)
        self.suspended = True

    @precondition(lambda self: self.suspended)
    @rule()
    def os_resumes(self):
        self.driver.resume_enclave(self.enclave)
        self.suspended = False

    # -- invariants ----------------------------------------------------------

    @invariant()
    def quota_respected(self):
        assert self.driver.resident_count(self.enclave) <= QUOTA

    @invariant()
    def epc_accounting_exact(self):
        assert self.kernel.epc.used_pages == len(self.enclave.backed)

    @invariant()
    def contents_never_corrupted(self):
        for page, token in self.written.items():
            vpn = page >> 12
            if vpn in self.enclave.backed:
                frame = self.kernel.epc.frame(self.enclave.backed[vpn])
                assert frame.contents == token

    @invariant()
    def pte_matches_residency(self):
        if self.suspended:
            return
        for index in range(NPAGES):
            page = self._page(index)
            pte = self.kernel.page_table.lookup(page)
            if self.driver.resident(self.enclave, page):
                assert pte is not None and pte.present
            else:
                assert pte is None or not pte.present


DriverMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=50, deadline=None,
)
TestDriverMachine = DriverMachine.TestCase


# -- batched IOCTLs against the same pages one per call ----------------------
#
# Pages 0..LOCK_REGION-1 form a writable data region and pages
# CODE_START..LOCK_NPAGES-1 an executable code region (a zero-filled
# code page takes an EMODPE); pages 22 and 23 lie inside the enclave but
# outside every region.  Every other page starts enclave-managed; pages
# in UNMANAGED are never claimed, so injecting one into a batch fails it
# in the middle.  The code pages and the data pages from LOCK_QUOTA up
# start never swapped: their first fetch is an EAUG zero-fill.

LOCK_NPAGES = 40
LOCK_REGION = 22
CODE_START = 24
LOCK_QUOTA = 16
LOCK_EPC = 20
UNMANAGED = 18
OUTSIDE = 22
CLAIMABLE = [i for i in range(LOCK_NPAGES) if i != UNMANAGED]
IN_REGION = [i for i in CLAIMABLE if i < LOCK_REGION or i >= CODE_START]

#: Batches are mostly picks (repeats allowed) among the pages the
#: operation applies to, plus an optional arbitrary page ...
picks = st.lists(st.integers(0, LOCK_NPAGES), min_size=1, max_size=8)
extras = st.one_of(st.none(), st.sampled_from(IN_REGION))
#: ... and an optional intruder slipped into the middle: a page the
#: enclave does not manage, or a managed one outside every region.
intruders = st.sampled_from([None, UNMANAGED, OUTSIDE])


class RefuseEaug:
    """An EAUG fault hook that lets ``budget`` EAUGs through, then
    refuses every later one (EPC pressure, as the chaos injector's EAUG
    refusal models it).  A batch it refuses part-way must keep the
    pages EAUGed before the refusal, as the one-page calls do, so the
    driver may not consult the hook for a whole batch up front."""

    def __init__(self, budget):
        self.budget = budget

    def __call__(self, instruction, enclave, vaddr):
        if self.budget <= 0:
            raise EpcExhausted(f"injected EAUG refusal at {vaddr:#x}")
        self.budget -= 1


def _outcome(call):
    """``("ok", result)`` or ``("raise", type, message)``; enclave ids
    differ between the twins, so they are masked in messages.  Any
    exception counts: the machine checks that batching changes nothing,
    while test_driver.py pins which error each misuse raises."""
    try:
        return ("ok", call())
    except Exception as exc:
        return ("raise", type(exc).__name__,
                re.sub(r"enclave \d+", "enclave <id>", str(exc)))


class LockstepDriverMachine(RuleBasedStateMachine):
    """Two identical kernels: ``batched`` takes each ay_fetch_pages /
    ay_evict_pages batch in one call, ``single`` takes the same pages
    one call at a time and stops at the first failure.  The pager
    transaction must be observably identical to that sequence:
    results, exceptions, cycles, EPC/EPCM, backing store, anti-replay
    state, PTEs, TLB, driver counters, each page's lifecycle events
    and the fault hook's budget, after every step."""

    def __init__(self):
        super().__init__()
        #: Per rig, the lifecycle events each page saw, in order.
        self.events = [{}, {}]
        self.rigs = [self._boot(events) for events in self.events]
        self.hogged = []

    @staticmethod
    def _boot(events):
        kernel = HostKernel(epc_pages=LOCK_EPC)

        def observe(name, vaddr):
            events.setdefault(vaddr, []).append(name)

        kernel.instr.op_observer = \
            lambda name, _enclave, vaddr: observe(name, vaddr)
        kernel.page_table.op_observer = observe
        enclave = kernel.driver.create_enclave(
            BASE, LOCK_NPAGES, quota_pages=LOCK_QUOTA,
        )
        kernel.driver.declare_region(enclave, BASE, LOCK_REGION)
        kernel.driver.declare_region(
            enclave, BASE + CODE_START * PAGE_SIZE,
            LOCK_NPAGES - CODE_START, executable=True,
        )
        kernel.instr.einit(enclave)
        pages = [BASE + i * PAGE_SIZE for i in CLAIMABLE]
        kernel.driver.ay_set_enclave_managed(enclave, pages)
        # Start with resident and swapped-out pages to batch over.
        kernel.driver.ay_fetch_pages(enclave, pages[:LOCK_QUOTA])
        kernel.driver.ay_evict_pages(enclave, pages[:LOCK_QUOTA // 2])
        return kernel, enclave

    @staticmethod
    def _page(index):
        return BASE + index * PAGE_SIZE

    def _both(self, action):
        """Apply ``action(kernel, enclave)`` to both kernels; their
        outcomes must agree."""
        batched, single = (_outcome(lambda k=k, e=e: action(k, e))
                           for k, e in self.rigs)
        assert batched == single

    def _lockstep(self, name, indices):
        pages = [self._page(i) for i in indices]
        kernel, enclave = self.rigs[0]
        batched = _outcome(
            lambda: getattr(kernel.driver, name)(enclave, pages))
        kernel, enclave = self.rigs[1]
        single = ("ok", [] if name == "ay_fetch_pages" else None)
        for page in pages:
            step = _outcome(
                lambda p=page: getattr(kernel.driver, name)(enclave, [p]))
            if step[0] == "raise":
                single = step
                break
            if name == "ay_fetch_pages":
                single[1].extend(step[1])
        assert batched == single

    def _resident_in_both(self, index):
        return all(k.driver.resident(e, self._page(index))
                   for k, e in self.rigs)

    # -- rules -------------------------------------------------------------

    @rule(indices=st.lists(st.sampled_from(CLAIMABLE), min_size=1,
                           max_size=6))
    def claim(self, indices):
        pages = [self._page(i) for i in indices]
        self._both(lambda k, e: k.driver.ay_set_enclave_managed(e, pages))

    @rule(index=st.sampled_from(CLAIMABLE))
    def release(self, index):
        page = self._page(index)
        self._both(lambda k, e: k.driver.ay_set_os_managed(e, [page]))

    @rule(index=st.integers(0, LOCK_REGION - 1))
    def os_page_in(self, index):
        if any(k.driver.resident(e, self._page(index))
               for k, e in self.rigs):
            return
        page = self._page(index)
        self._both(lambda k, e: k.driver.page_in(e, page))

    def _batch(self, candidates, chosen, extra, intruder):
        pages = [candidates[c % len(candidates)] for c in chosen] \
            if candidates else []
        if extra is not None:
            pages.append(extra)
        if intruder is not None:
            pages.insert(len(pages) // 2, intruder)
        return pages

    @rule(chosen=picks, extra=extras, intruder=intruders)
    def fetch(self, chosen, extra, intruder):
        """Mostly swapped-out pages."""
        kernel, enclave = self.rigs[0]
        swapped = [(v - BASE) // PAGE_SIZE for v in
                   kernel.backing.swapped_pages(enclave.enclave_id)]
        self._lockstep("ay_fetch_pages",
                       self._batch(swapped, chosen, extra, intruder))

    @rule(chosen=picks, extra=extras, intruder=intruders)
    def zero_fill(self, chosen, extra, intruder):
        """Mostly never-swapped pages: managed, in a region, neither
        resident nor stored, so each first fetch is an EAUG."""
        kernel, enclave = self.rigs[0]
        managed = kernel.driver.state(enclave).enclave_managed
        fresh = [i for i in IN_REGION
                 if (BASE >> 12) + i in managed
                 and (BASE >> 12) + i not in enclave.backed
                 and not kernel.backing.has(enclave.enclave_id,
                                            self._page(i))]
        self._lockstep("ay_fetch_pages",
                       self._batch(fresh, chosen, extra, intruder))

    @rule(budget=st.sampled_from([None, 0, 1, 2]))
    def eaug_hook(self, budget):
        """Arm an EAUG-refusing fault hook with the same budget on both
        rigs (``None`` clears it)."""
        for kernel, _enclave in self.rigs:
            kernel.instr.fault_hook = \
                None if budget is None else RefuseEaug(budget)

    @rule(chosen=picks, extra=extras, intruder=intruders)
    def evict(self, chosen, extra, intruder):
        """Mostly resident enclave-managed pages."""
        kernel, enclave = self.rigs[0]
        managed = kernel.driver.state(enclave).enclave_managed
        resident = sorted(vpn - (BASE >> 12) for vpn in enclave.backed
                          if vpn in managed)
        self._lockstep("ay_evict_pages",
                       self._batch(resident, chosen, extra, intruder))

    @rule(index=st.integers(0, LOCK_NPAGES - 1), token=st.integers(0, 99))
    def touch(self, index, token):
        """Write the page and cache its translation (the eviction must
        shoot it down before EWB)."""
        if not self._resident_in_both(index):
            return
        page = self._page(index)
        for kernel, enclave in self.rigs:
            pfn = enclave.backed[page >> 12]
            kernel.epc.frame(pfn).contents = token
            kernel.tlb.install(page, pfn, True, False)

    @rule(pick=st.integers(0, LOCK_NPAGES), forge=st.booleans())
    def tamper(self, pick, forge):
        """Forge or replay the blob of a swapped-out page."""
        kernel, enclave = self.rigs[0]
        swapped = kernel.backing.swapped_pages(enclave.enclave_id)
        if not swapped:
            return
        page = swapped[pick % len(swapped)]
        for kernel, enclave in self.rigs:
            if forge:
                kernel.backing.forge(enclave.enclave_id, page, mac=-1)
            else:
                kernel.backing.replay(enclave.enclave_id, page)

    @rule(pick=st.integers(0, LOCK_NPAGES))
    def half_evict(self, pick):
        """An eviction that died after EBLOCK: the page stays resident
        but blocked, so evicting it again must fail at that page."""
        kernel, enclave = self.rigs[0]
        resident = sorted(enclave.backed)
        if not resident:
            return
        page = resident[pick % len(resident)] << 12
        if kernel.epcm.entry(enclave.backed[page >> 12]).blocked:
            return
        for kernel, enclave in self.rigs:
            kernel.instr.eblock(enclave, page)

    @rule(take=st.booleans())
    def squeeze(self, take):
        """Another tenant takes (or returns) an EPC frame: global EPC
        pressure the enclave's quota does not see."""
        if take and all(k.epc.free_pages for k, _e in self.rigs):
            self.hogged.append([k.epc.alloc() for k, _e in self.rigs])
        elif not take and self.hogged:
            for (kernel, _e), frame in zip(self.rigs, self.hogged.pop()):
                kernel.epc.free(frame)

    # -- the lockstep invariant ----------------------------------------------

    @staticmethod
    def _observe(kernel, enclave, events):
        eid = enclave.enclave_id
        state = kernel.driver.state(enclave)

        def blob(sealed):
            valid_mac = sealed.mac == PagingCrypto._mac(
                sealed.enclave_id, sealed.vaddr, sealed.version,
                sealed.nonce, sealed.ciphertext)
            return (sealed.enclave_id == eid, sealed.vaddr, sealed.version,
                    sealed.nonce, sealed.ciphertext, valid_mac)

        def store(table):
            return {vaddr: blob(sealed)
                    for (owner, vaddr), sealed in table.items()}

        used = sorted(set(range(kernel.epc.total_pages))
                      - set(kernel.epc._free))
        epcm = {}
        for pfn in used:
            entry = kernel.epcm.entry(pfn)
            epcm[pfn] = (entry.valid, entry.page_type,
                         entry.enclave_id == eid, entry.vaddr, entry.perms,
                         entry.pending, entry.modified, entry.blocked,
                         kernel.epc.frame(pfn).contents)
        return {
            "cycles": kernel.clock.cycles,
            "by_category": dict(kernel.clock.by_category),
            "backed": list(enclave.backed.items()),
            "free": list(kernel.epc._free),
            "epcm": epcm,
            "pages": store(kernel.backing._pages),
            "stale": store(kernel.backing._stale),
            "tainted": sorted(v for _e, v in kernel.backing.tainted),
            "outstanding": kernel.instr.hw_crypto.outstanding_table(eid),
            "ptes": [(vpn, pte.pfn, pte.present, pte.writable,
                      pte.executable, pte.accessed, pte.dirty)
                     for vpn, pte in kernel.page_table._ptes.items()],
            "tlb": sorted((vpn, e.pfn, e.writable, e.executable)
                          for vpn, e in kernel.tlb.residency().items()),
            "pages_in": kernel.driver.pages_in,
            "pages_out": kernel.driver.pages_out,
            "managed": sorted(state.enclave_managed),
            "fifo": [vpn for vpn in state.fifo if vpn in state.fifo_set],
            "events": events,
            "hook": getattr(kernel.instr.fault_hook, "budget", None),
        }

    @invariant()
    def twins_agree(self):
        batched, single = (self._observe(k, e, events) for (k, e), events
                           in zip(self.rigs, self.events))
        assert batched == single


LockstepDriverMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
)
TestLockstepDriverMachine = LockstepDriverMachine.TestCase
