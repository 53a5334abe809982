"""SGX driver tests: demand paging, quotas, Autarky IOCTLs, suspension."""

import re

import pytest

from repro.errors import EpcExhausted, SgxError
from repro.host.kernel import HostKernel
from repro.sgx.crypto import PagingCrypto, SealedPage
from repro.sgx.params import PAGE_SIZE

BASE = 0x1000_0000


@pytest.fixture
def rig(kernel):
    enclave = kernel.driver.create_enclave(BASE, 256, quota_pages=32)
    kernel.driver.declare_region(enclave, BASE, 256)
    kernel.instr.einit(enclave)

    class Rig:
        pass

    rig = Rig()
    rig.kernel, rig.driver, rig.enclave = kernel, kernel.driver, enclave
    return rig


def page(i):
    return BASE + i * PAGE_SIZE


class TestRegions:
    def test_region_bounds_enforced(self, rig):
        with pytest.raises(SgxError):
            rig.driver.declare_region(rig.enclave, BASE, 10_000)

    def test_unaligned_region_rejected(self, rig):
        with pytest.raises(SgxError):
            rig.driver.declare_region(rig.enclave, BASE + 1, 4)

    def test_overlapping_region_rejected(self, kernel):
        # A page has at most one region, so a fetch can look a region
        # up once per run of pages.
        enclave = kernel.driver.create_enclave(BASE, 16)
        kernel.driver.declare_region(enclave, page(4), 4)
        for start, npages in ((0, 5), (7, 2), (5, 1), (2, 10)):
            with pytest.raises(SgxError, match="overlaps"):
                kernel.driver.declare_region(enclave, page(start), npages)
        kernel.driver.declare_region(enclave, page(0), 4)
        kernel.driver.declare_region(enclave, page(8), 8)
        assert [(r.start, r.npages) for r in
                kernel.driver.state(enclave).regions] == \
            [(page(4), 4), (page(0), 4), (page(8), 8)]

    def test_access_outside_regions_rejected(self, kernel):
        enclave = kernel.driver.create_enclave(BASE, 16)
        with pytest.raises(SgxError):
            kernel.driver.page_in(enclave, BASE)


class TestDemandPaging:
    def test_first_touch_zero_fill(self, rig):
        rig.driver.page_in(rig.enclave, page(0))
        assert rig.driver.resident(rig.enclave, page(0))
        assert rig.kernel.page_table.lookup(page(0)).present

    def test_double_page_in_rejected(self, rig):
        rig.driver.page_in(rig.enclave, page(0))
        with pytest.raises(SgxError):
            rig.driver.page_in(rig.enclave, page(0))

    def test_evict_and_reload_preserves_contents(self, rig):
        rig.driver.page_in(rig.enclave, page(0))
        pfn = rig.enclave.backed[page(0) >> 12]
        rig.kernel.epc.frame(pfn).contents = "payload"
        rig.driver.evict_page(rig.enclave, page(0))
        assert not rig.driver.resident(rig.enclave, page(0))
        rig.driver.page_in(rig.enclave, page(0))
        pfn = rig.enclave.backed[page(0) >> 12]
        assert rig.kernel.epc.frame(pfn).contents == "payload"

    def test_quota_enforced_with_eviction(self, rig):
        for i in range(40):  # quota is 32
            rig.driver.page_in(rig.enclave, page(i))
        assert rig.driver.resident_count(rig.enclave) <= 32

    def test_clock_eviction_prefers_unaccessed(self, rig):
        for i in range(32):
            rig.driver.page_in(rig.enclave, page(i))
        # Mark everything accessed except page 5.
        for i in range(32):
            rig.kernel.page_table.set_accessed_dirty(
                page(i), accessed=(i != 5)
            )
        rig.driver.page_in(rig.enclave, page(40))
        assert not rig.driver.resident(rig.enclave, page(5))

    def test_fifo_eviction_for_self_paging(self, kernel):
        from repro.sgx.enclave import EnclaveAttributes
        enclave = kernel.driver.create_enclave(
            BASE, 256, EnclaveAttributes(self_paging=True),
            quota_pages=8,
        )
        kernel.driver.declare_region(enclave, BASE, 256)
        for i in range(10):
            kernel.driver.page_in(enclave, page(i))
        # Oldest pages (0, 1) went out first despite A bits being set.
        assert not kernel.driver.resident(enclave, page(0))
        assert not kernel.driver.resident(enclave, page(1))
        assert kernel.driver.resident(enclave, page(9))

    def test_self_paging_maps_with_ad_preset(self, kernel):
        from repro.sgx.enclave import EnclaveAttributes
        enclave = kernel.driver.create_enclave(
            BASE, 16, EnclaveAttributes(self_paging=True)
        )
        kernel.driver.declare_region(enclave, BASE, 16)
        kernel.driver.page_in(enclave, page(0))
        assert kernel.page_table.read_accessed_dirty(page(0)) == \
            (True, True)


class TestAutarkyIoctls:
    def test_claim_returns_residency(self, rig):
        rig.driver.page_in(rig.enclave, page(0))
        residency = rig.driver.ay_set_enclave_managed(
            rig.enclave, [page(0), page(1)]
        )
        assert residency[page(0)] is True
        assert residency[page(1)] is False

    def test_enclave_managed_pages_pinned(self, rig):
        rig.driver.page_in(rig.enclave, page(0))
        rig.driver.ay_set_enclave_managed(rig.enclave, [page(0)])
        with pytest.raises(SgxError):
            rig.driver.evict_page(rig.enclave, page(0))

    def test_pinned_pages_never_clock_victims(self, rig):
        rig.driver.page_in(rig.enclave, page(0))
        rig.driver.ay_set_enclave_managed(rig.enclave, [page(0)])
        for i in range(1, 40):
            rig.driver.page_in(rig.enclave, page(i))
        assert rig.driver.resident(rig.enclave, page(0))

    def test_quota_exceeded_when_all_pinned(self, rig):
        pages = [page(i) for i in range(32)]
        rig.driver.ay_set_enclave_managed(rig.enclave, pages)
        rig.driver.ay_fetch_pages(rig.enclave, pages)
        with pytest.raises(EpcExhausted):
            rig.driver.page_in(rig.enclave, page(33))

    def test_fetch_requires_enclave_managed(self, rig):
        with pytest.raises(SgxError):
            rig.driver.ay_fetch_pages(rig.enclave, [page(0)])

    def test_evict_requires_enclave_managed(self, rig):
        rig.driver.page_in(rig.enclave, page(0))
        with pytest.raises(SgxError):
            rig.driver.ay_evict_pages(rig.enclave, [page(0)])

    def test_fetch_evict_roundtrip(self, rig):
        rig.driver.ay_set_enclave_managed(rig.enclave, [page(0), page(1)])
        fetched = rig.driver.ay_fetch_pages(
            rig.enclave, [page(0), page(1)]
        )
        assert fetched == [page(0), page(1)]
        rig.driver.ay_evict_pages(rig.enclave, [page(0)])
        assert not rig.driver.resident(rig.enclave, page(0))
        assert rig.driver.resident(rig.enclave, page(1))

    def test_fetch_skips_already_resident(self, rig):
        rig.driver.ay_set_enclave_managed(rig.enclave, [page(0)])
        rig.driver.ay_fetch_pages(rig.enclave, [page(0)])
        assert rig.driver.ay_fetch_pages(rig.enclave, [page(0)]) == []

    def test_fetch_outside_every_region_rejected_before_side_effects(
            self, kernel):
        # Inside the enclave, outside every declared region: the fetch
        # must fail the way page_in does, before touching the EPC.
        enclave = kernel.driver.create_enclave(BASE, 16, quota_pages=8)
        kernel.driver.declare_region(enclave, BASE, 8)
        kernel.instr.einit(enclave)
        outside = page(12)
        kernel.driver.ay_set_enclave_managed(enclave, [outside])
        free = kernel.epc.free_pages
        for _attempt in range(2):   # a retry must not report success
            with pytest.raises(SgxError,
                               match="access outside any declared region"):
                kernel.driver.ay_fetch_pages(enclave, [outside])
        assert kernel.epc.free_pages == free
        assert not kernel.driver.resident(enclave, outside)
        assert kernel.page_table.lookup(outside) is None
        assert kernel.driver.pages_in == 0

    def test_release_back_to_os(self, rig):
        rig.driver.ay_set_enclave_managed(rig.enclave, [page(0)])
        rig.driver.ay_fetch_pages(rig.enclave, [page(0)])
        rig.driver.ay_set_os_managed(rig.enclave, [page(0)])
        rig.driver.evict_page(rig.enclave, page(0))  # now allowed


def twin_rig():
    """A fresh kernel and enclave, built the same way every call, with
    the page table's drop events recorded in ``kernel.drops``."""
    kernel = HostKernel(epc_pages=64)
    enclave = kernel.driver.create_enclave(BASE, 64, quota_pages=32)
    kernel.driver.declare_region(enclave, BASE, 64)
    kernel.instr.einit(enclave)
    kernel.drops = []
    kernel.page_table.op_observer = \
        lambda name, vaddr: kernel.drops.append((name, vaddr))
    return kernel, enclave


class TestRangeOperations:
    """The claim IOCTL and the dead-enclave teardown settle as one
    operation over the page list; each must leave what the one-page
    calls it replaces leave, on a twin kernel."""

    VADDRS = [page(0), page(1) + 8, page(2), page(1), page(4) + 4095,
              page(2) + 1, page(3), page(6), page(0)]

    @staticmethod
    def _claim_setup(kernel, enclave):
        for i in (3, 1, 5, 2):      # resident and in the OS FIFO
            kernel.driver.page_in(enclave, page(i))
        kernel.driver.ay_set_enclave_managed(enclave, [page(3)])

    def test_claim_is_one_set_operation(self):
        (kernel, enclave), (twin, twin_enclave) = twin_rig(), twin_rig()
        self._claim_setup(kernel, enclave)
        self._claim_setup(twin, twin_enclave)
        cycles = kernel.clock.cycles
        residency = kernel.driver.ay_set_enclave_managed(
            enclave, self.VADDRS)
        assert kernel.clock.cycles - cycles == kernel.cost.syscall
        per_page = {}
        for vaddr in self.VADDRS:
            per_page.update(
                twin.driver.ay_set_enclave_managed(twin_enclave, [vaddr]))
        assert list(residency.items()) == list(per_page.items())
        assert residency == {page(0): False, page(1): True,
                             page(2): True, page(4): False,
                             page(3): True, page(6): False}
        state = kernel.driver.state(enclave)
        twin_state = twin.driver.state(twin_enclave)
        assert state.enclave_managed == twin_state.enclave_managed == \
            {page(i) >> 12 for i in (0, 1, 2, 3, 4, 6)}
        assert state.fifo_set == twin_state.fifo_set == {page(5) >> 12}
        assert [vpn for vpn in state.fifo if vpn in state.fifo_set] == \
            [vpn for vpn in twin_state.fifo if vpn in twin_state.fifo_set]

    @staticmethod
    def _reclaim_setup(kernel, enclave):
        """Resident pages in a scrambled order, one of them reloaded
        after an eviction, and some with cached translations."""
        managed = [page(i) for i in (9, 4, 12)]
        kernel.driver.ay_set_enclave_managed(enclave, managed)
        kernel.driver.ay_fetch_pages(enclave, managed)
        for i in (7, 2, 11, 0):
            kernel.driver.page_in(enclave, page(i))
        kernel.driver.ay_evict_pages(enclave, [page(4)])
        kernel.driver.ay_fetch_pages(enclave, [page(4)])
        for i in (9, 2, 4):
            kernel.tlb.install(page(i), enclave.backed[page(i) >> 12],
                               True, False)
        kernel.drops.clear()

    @staticmethod
    def _observe(kernel, enclave):
        eid = enclave.enclave_id
        epcm = []
        for pfn in range(kernel.epc.total_pages):
            entry = kernel.epcm.entry(pfn)
            epcm.append((entry.valid, entry.page_type,
                         entry.enclave_id == eid, entry.vaddr, entry.perms,
                         entry.pending, entry.modified, entry.blocked))
        return {
            "cycles": kernel.clock.cycles,
            "by_category": dict(kernel.clock.by_category),
            "free": list(kernel.epc._free),
            "epcm": epcm,
            "backed": dict(enclave.backed),
            "ptes": sorted((vpn, pte.pfn, pte.present)
                           for vpn, pte in kernel.page_table._ptes.items()),
            "tlb": sorted(kernel.tlb.residency()),
            "drops": kernel.drops,
        }

    def test_reclaim_matches_the_per_page_loop(self):
        (kernel, enclave), (twin, twin_enclave) = twin_rig(), twin_rig()
        self._reclaim_setup(kernel, enclave)
        self._reclaim_setup(twin, twin_enclave)
        assert len(enclave.backed) == 7
        kernel.driver.reclaim_enclave(enclave)
        # The loop reclaim_enclave replaces, then the teardown of the
        # now empty corpse (driver state and the syscall charge).
        twin_enclave.dead = True
        for vpn in list(twin_enclave.backed):
            twin.page_table.drop(vpn << 12)
            twin.instr.eremove(twin_enclave, vpn << 12)
        twin.driver.reclaim_enclave(twin_enclave)
        observed = self._observe(kernel, enclave)
        assert observed == self._observe(twin, twin_enclave)
        assert observed["backed"] == {} and observed["tlb"] == []
        assert len(observed["drops"]) == 7

    def test_reclaim_of_an_empty_corpse_charges_only_the_syscall(self):
        kernel, enclave = twin_rig()
        before = kernel.clock.snapshot()
        kernel.driver.reclaim_enclave(enclave)
        assert kernel.clock.snapshot() == {
            **before, "os": before.get("os", 0) + kernel.cost.syscall}
        assert kernel.drops == []


class TestZeroFillBatches:
    """A fetch batch of never-swapped pages is one pager transaction:
    one EAUG over the list, one EACCEPT, an EMODPE per page of an
    executable region, and the mappings."""

    @staticmethod
    def _rig():
        kernel = HostKernel(epc_pages=64)
        enclave = kernel.driver.create_enclave(BASE, 16, quota_pages=8)
        kernel.driver.declare_region(enclave, BASE, 8)
        kernel.driver.declare_region(enclave, page(8), 8, executable=True)
        kernel.instr.einit(enclave)
        kernel.driver.ay_set_enclave_managed(
            enclave, [page(i) for i in range(16)])
        batches = []
        bulk = kernel.instr.eaug_pages

        def eaug_pages(enclave, vaddrs):
            batches.append(list(vaddrs))
            return bulk(enclave, vaddrs)

        kernel.instr.eaug_pages = eaug_pages
        return kernel, enclave, batches

    def test_commits_in_bulk_across_regions(self):
        kernel, enclave, batches = self._rig()
        pages = [page(i) for i in (6, 7, 8, 9)]
        assert kernel.driver.ay_fetch_pages(enclave, pages) == pages
        assert batches == [pages]
        for vaddr in pages:
            entry = kernel.epcm.entry(enclave.backed[vaddr >> 12])
            pte = kernel.page_table.lookup(vaddr)
            code = vaddr >= page(8)
            assert (entry.perms.execute, pte.executable) == (code, code)
            assert not entry.pending

    def test_replays_page_by_page_while_a_fault_hook_is_installed(self):
        kernel, enclave, batches = self._rig()
        asked = []

        def hook(instruction, enclave, vaddr):
            asked.append(vaddr)
            if len(asked) > 2:
                raise EpcExhausted(f"refused at {vaddr:#x}")

        kernel.instr.fault_hook = hook
        pages = [page(i) for i in (3, 1, 4, 2)]
        with pytest.raises(EpcExhausted, match=f"{page(4):#x}"):
            kernel.driver.ay_fetch_pages(enclave, pages)
        # The pages before the refusal stay committed, as they would
        # after one-page calls; the hook never saw the fourth page.
        assert asked == pages[:3]
        assert batches == [[page(3)], [page(1)], [page(4)]]
        assert sorted(enclave.backed) == [page(1) >> 12, page(3) >> 12]

    def test_a_batch_mixing_swapped_pages_replays_page_by_page(self):
        kernel, enclave, batches = self._rig()
        kernel.driver.ay_fetch_pages(enclave, [page(0)])
        kernel.driver.ay_evict_pages(enclave, [page(0)])
        del batches[:]
        pages = [page(0), page(1), page(9)]
        assert kernel.driver.ay_fetch_pages(enclave, pages) == pages
        assert batches == [[page(1)], [page(9)]]


def _outcome(call):
    """``("ok", result)`` or ``("raise", type, message)``, with the
    enclave id (process-global, so it differs between twins) masked."""
    try:
        return ("ok", call())
    except Exception as exc:
        return ("raise", type(exc).__name__,
                re.sub(r"enclave \d+", "enclave <id>", str(exc)))


class TestPagerTransactionTwins:
    """Fixed cases of the pager transaction, each on twin kernels: one
    takes a batch in one call, the other takes the same pages one call
    at a time, and everything the two leave behind must agree.  The
    lockstep machine in test_stateful_driver.py generates such cases;
    these pin the ones a transaction change must keep, whatever the
    hypothesis seed."""

    #: Pages 0..31 form a data region and 32..47 a code region; 0..39
    #: are enclave-managed, so a batch of 28..33 crosses the boundary
    #: and 40..47 are OS-managed code pages.
    RELOAD = [page(i) for i in range(28, 38)]
    EVICT = [page(i) for i in range(20)]

    @staticmethod
    def _rig():
        kernel = HostKernel(epc_pages=96)
        kernel.events = {}

        def observe(name, vaddr):
            kernel.events.setdefault(vaddr, []).append(name)

        kernel.instr.op_observer = \
            lambda name, _enclave, vaddr: observe(name, vaddr)
        kernel.page_table.op_observer = observe
        enclave = kernel.driver.create_enclave(BASE, 64, quota_pages=48)
        kernel.driver.declare_region(enclave, BASE, 32)
        kernel.driver.declare_region(enclave, page(32), 16, executable=True)
        kernel.instr.einit(enclave)
        kernel.driver.ay_set_enclave_managed(
            enclave, [page(i) for i in range(40)])
        return kernel, enclave

    @staticmethod
    def _cycle(kernel, enclave, pages):
        """Fetch ``pages``, give each frame its own contents and cache
        its translation, then evict them all again."""
        driver = kernel.driver
        driver.ay_fetch_pages(enclave, pages)
        for vaddr in pages:
            pfn = enclave.backed[vaddr >> 12]
            kernel.epc.frame(pfn).contents = \
                ("token", vaddr, kernel.driver.pages_out)
            kernel.tlb.install(vaddr, pfn, True, False)
        driver.ay_evict_pages(enclave, pages)

    def _setup(self, kernel, enclave):
        """Resident managed pages 0..19 and OS pages 40..43, pages
        28..37 swapped out twice (so each has a stale blob), page 38
        swapped out once."""
        self._cycle(kernel, enclave, self.RELOAD)
        self._cycle(kernel, enclave, self.RELOAD + [page(38)])
        kernel.driver.ay_fetch_pages(enclave, self.EVICT)
        for i in range(40, 44):
            kernel.driver.page_in(enclave, page(i))
        for vaddr in self.EVICT[::3]:
            kernel.tlb.install(vaddr, enclave.backed[vaddr >> 12], True,
                               False)

    @staticmethod
    def _observe(kernel, enclave):
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
                    for (_owner, vaddr), sealed in table.items()}

        epcm = {}
        for pfn in sorted(set(range(kernel.epc.total_pages))
                          - set(kernel.epc._free)):
            entry = kernel.epcm.entry(pfn)
            epcm[pfn] = (entry.valid, entry.page_type,
                         entry.enclave_id == eid, entry.vaddr, entry.perms,
                         entry.pending, entry.modified, entry.blocked,
                         kernel.epc.frame(pfn).contents)
        return {
            "by_category": dict(kernel.clock.by_category),
            "epoch": kernel.epoch.value,
            "free": list(kernel.epc._free),
            "epcm": epcm,
            "backed": list(enclave.backed.items()),
            "pages": store(kernel.backing._pages),
            "stale": store(kernel.backing._stale),
            "tainted": sorted(v for _e, v in kernel.backing.tainted),
            "outstanding": kernel.instr.hw_crypto.outstanding_table(eid),
            "ptes": [(vpn, pte.pfn, pte.present, pte.writable,
                      pte.executable, pte.accessed, pte.dirty)
                     for vpn, pte in kernel.page_table._ptes.items()],
            "tlb": sorted(kernel.tlb.residency()),
            "counters": (kernel.driver.pages_in, kernel.driver.pages_out),
            "fifo": [vpn for vpn in state.fifo if vpn in state.fifo_set],
            "suspended": (state.suspended, list(state.suspend_set)),
            "events": kernel.events,
        }

    def _twins(self, name, pages, tamper=None):
        """Run IOCTL ``name`` over ``pages`` as one batch on one kernel
        and one page per call (stopping at the first failure) on its
        twin; returns both outcomes and what each kernel looks like."""
        (kernel, enclave), (twin, twin_enclave) = self._rig(), self._rig()
        for k, e in ((kernel, enclave), (twin, twin_enclave)):
            self._setup(k, e)
            if tamper is not None:
                tamper(k, e)
        bulk = _outcome(
            lambda: getattr(kernel.driver, name)(enclave, pages))
        single = ("ok", [] if name == "ay_fetch_pages" else None)
        for vaddr in pages:
            step = _outcome(lambda v=vaddr: getattr(twin.driver, name)(
                twin_enclave, [v]))
            if step[0] == "raise":
                single = step
                break
            if name == "ay_fetch_pages":
                single[1].extend(step[1])
        return (bulk, self._observe(kernel, enclave),
                single, self._observe(twin, twin_enclave))

    def test_reload(self):
        bulk, seen, single, twin_seen = self._twins("ay_fetch_pages",
                                                    self.RELOAD)
        assert bulk == single == ("ok", self.RELOAD)
        # One ELDU install and one mapping per region the batch crosses
        # instead of one of each per page: only the epoch's count of
        # bumps may differ.
        epoch, twin_epoch = seen.pop("epoch"), twin_seen.pop("epoch")
        assert epoch < twin_epoch
        assert seen == twin_seen

    @pytest.mark.parametrize("attack", ["forge", "replay"])
    def test_reload_with_a_bad_fourth_blob(self, attack):
        def tamper(kernel, enclave):
            if attack == "forge":
                kernel.backing.forge(enclave.enclave_id, self.RELOAD[3],
                                     mac=-1)
            else:
                assert kernel.backing.replay(enclave.enclave_id,
                                             self.RELOAD[3])

        bulk, seen, single, twin_seen = self._twins(
            "ay_fetch_pages", self.RELOAD, tamper)
        assert bulk == single
        assert bulk[:2] == ("raise", "IntegrityError")
        assert seen == twin_seen
        assert [v >> 12 in dict(seen["backed"]) for v in self.RELOAD] == \
            [True] * 3 + [False] * 7

    def test_evict_with_one_page_already_blocked(self):
        blocked = self.EVICT[13]

        def half_evict(kernel, enclave):
            kernel.instr.eblock(enclave, blocked)

        bulk, seen, single, twin_seen = self._twins(
            "ay_evict_pages", self.EVICT, half_evict)
        assert bulk == single == (
            "raise", "SgxError", f"EBLOCK: {blocked:#x} already blocked")
        assert seen == twin_seen
        assert sorted(seen["pages"]) == sorted(
            self.EVICT[:13] + self.RELOAD + [page(38)])

    def test_evict_over_a_current_blob(self):
        """A resident page whose store keeps a current, untainted blob
        fails the batch's validation (the put would version-check it),
        so the batch is replayed page by page and stops where the
        one-page evictions stop."""
        current = self.EVICT[13]

        def plant(kernel, enclave):
            eid = enclave.enclave_id
            kernel.backing.put(eid, current, SealedPage(
                eid, current, 10**6, 0, "planted", 0))

        bulk, seen, single, twin_seen = self._twins(
            "ay_evict_pages", self.EVICT, plant)
        assert bulk == single
        assert bulk[:2] == ("raise", "SgxError")
        assert bulk[2].startswith(
            f"backing-store version regression for {current:#x}")
        assert seen == twin_seen
        assert sorted(seen["pages"]) == sorted(
            self.EVICT[:14] + self.RELOAD + [page(38)])

    def test_evict(self):
        bulk, seen, single, twin_seen = self._twins("ay_evict_pages",
                                                    self.EVICT)
        assert bulk == single == ("ok", None)
        epoch, twin_epoch = seen.pop("epoch"), twin_seen.pop("epoch")
        assert epoch < twin_epoch
        assert seen == twin_seen

    def test_suspend_then_resume(self):
        (kernel, enclave), (twin, twin_enclave) = self._rig(), self._rig()
        self._setup(kernel, enclave)
        self._setup(twin, twin_enclave)
        kernel.driver.suspend_enclave(enclave)
        restored = kernel.driver.resume_enclave(enclave)
        # The twin takes the same pages one call at a time: each page
        # evicted on its own while suspended, then each restored by a
        # resume of a one-page suspend set.
        driver, state = twin.driver, twin.driver.state(twin_enclave)
        bases = [vpn << 12 for vpn in twin_enclave.backed]
        state.suspended = True
        for base in bases:
            driver.evict_page(twin_enclave, base)
        state.suspend_set = list(bases)
        twin_restored = []
        for base in bases:
            state.suspended, state.suspend_set = True, [base]
            twin_restored += driver.resume_enclave(twin_enclave)
        assert restored == twin_restored == bases
        assert len(bases) == 24
        seen, twin_seen = (self._observe(kernel, enclave),
                           self._observe(twin, twin_enclave))
        epoch, twin_epoch = seen.pop("epoch"), twin_seen.pop("epoch")
        assert epoch < twin_epoch
        assert seen == twin_seen

    def test_validated_batches_check_each_page_once(self):
        """A validated n-page reload verifies n blobs and a validated
        n-page eviction looks up n EPCM entries: validation runs the
        instructions' check phases, and the commit reuses what they
        returned."""
        kernel, enclave = self._rig()
        self._setup(kernel, enclave)
        crypto, epcm = kernel.instr.hw_crypto, kernel.epcm
        verified, looked_up = [], []
        verify, entry, entries = \
            crypto.verify_pages, epcm.entry, epcm.entries

        def counting_verify(enclave_id, vaddrs, blobs):
            verified.extend(vaddrs)
            return verify(enclave_id, vaddrs, blobs)

        def counting_entry(pfn):
            looked_up.append(pfn)
            return entry(pfn)

        def counting_entries(pfns):
            looked_up.extend(pfns)
            return entries(pfns)

        crypto.verify_pages = counting_verify
        assert kernel.driver.ay_fetch_pages(enclave, self.RELOAD) == \
            self.RELOAD
        assert verified == self.RELOAD
        pfns = [enclave.backed[vaddr >> 12] for vaddr in self.EVICT]
        epcm.entry, epcm.entries = counting_entry, counting_entries
        kernel.driver.ay_evict_pages(enclave, self.EVICT)
        assert sorted(looked_up) == sorted(pfns)


class TestSuspendResume:
    def test_suspend_evicts_everything(self, rig):
        rig.driver.ay_set_enclave_managed(rig.enclave, [page(0)])
        rig.driver.ay_fetch_pages(rig.enclave, [page(0)])
        rig.driver.page_in(rig.enclave, page(1))
        rig.driver.suspend_enclave(rig.enclave)
        assert rig.driver.resident_count(rig.enclave) == 0

    def test_resume_restores_exactly_suspended_pages(self, rig):
        rig.driver.ay_set_enclave_managed(rig.enclave, [page(0)])
        rig.driver.ay_fetch_pages(rig.enclave, [page(0)])
        rig.driver.page_in(rig.enclave, page(1))
        rig.driver.evict_page(rig.enclave, page(1))  # out before suspend
        rig.driver.suspend_enclave(rig.enclave)
        restored = rig.driver.resume_enclave(rig.enclave)
        assert restored == [page(0)]
        assert rig.driver.resident(rig.enclave, page(0))
        assert not rig.driver.resident(rig.enclave, page(1))

    def test_resume_without_suspend_rejected(self, rig):
        with pytest.raises(SgxError):
            rig.driver.resume_enclave(rig.enclave)


class TestOsResolve:
    def test_remaps_unmapped_resident_page(self, rig):
        rig.driver.page_in(rig.enclave, page(0))
        rig.kernel.page_table.unmap(page(0))
        rig.driver.os_resolve(rig.enclave, page(0))
        assert rig.kernel.page_table.lookup(page(0)).present

    def test_restores_protections(self, rig):
        rig.driver.page_in(rig.enclave, page(0))
        rig.kernel.page_table.set_protection(page(0), writable=False)
        rig.driver.os_resolve(rig.enclave, page(0))
        assert rig.kernel.page_table.lookup(page(0)).writable

    def test_pages_in_nonresident(self, rig):
        rig.driver.os_resolve(rig.enclave, page(7))
        assert rig.driver.resident(rig.enclave, page(7))
