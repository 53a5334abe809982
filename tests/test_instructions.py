"""SGX instruction-set tests: launch, SGX1 paging, SGX2 DMM."""

import pytest

from repro.clock import Clock
from repro.errors import IntegrityError, SgxError
from repro.sgx.epc import EpcAllocator
from repro.sgx.epcm import Epcm, PageType, Permissions
from repro.sgx.instructions import SgxInstructions
from repro.sgx.params import PAGE_SIZE, CostModel

BASE = 0x1000_0000


@pytest.fixture
def instr():
    epc = EpcAllocator(64)
    return SgxInstructions(epc, Epcm(64), Clock(), CostModel())


@pytest.fixture
def enclave(instr):
    enclave = instr.ecreate(BASE, 32)
    return enclave


class TestLaunch:
    def test_ecreate_assigns_id_and_range(self, instr):
        e = instr.ecreate(BASE, 16)
        assert e.contains(BASE)
        assert e.contains(BASE + 15 * PAGE_SIZE)
        assert not e.contains(BASE + 16 * PAGE_SIZE)

    def test_unaligned_base_rejected(self, instr):
        with pytest.raises(SgxError):
            instr.ecreate(BASE + 1, 16)

    def test_eadd_measures_page(self, instr, enclave):
        before = len(enclave.measurement.records)
        instr.eadd(enclave, BASE, contents="code")
        assert len(enclave.measurement.records) == before + 1
        assert enclave.backed

    def test_eadd_after_einit_rejected(self, instr, enclave):
        instr.einit(enclave)
        with pytest.raises(SgxError):
            instr.eadd(enclave, BASE)

    def test_eadd_outside_range_rejected(self, instr, enclave):
        with pytest.raises(SgxError):
            instr.eadd(enclave, BASE + 64 * PAGE_SIZE)

    def test_eadd_tcs_registers_thread(self, instr, enclave):
        tcs = instr.eadd_tcs(enclave, BASE)
        assert tcs in enclave.tcs_list

    def test_double_einit_rejected(self, instr, enclave):
        instr.einit(enclave)
        with pytest.raises(SgxError):
            instr.einit(enclave)

    def test_double_backing_rejected(self, instr, enclave):
        instr.eadd(enclave, BASE)
        with pytest.raises(SgxError):
            instr.eadd(enclave, BASE)

    def test_measurement_changes_with_layout(self, instr):
        e1 = instr.ecreate(BASE, 16)
        e2 = instr.ecreate(BASE, 16)
        instr.eadd(e1, BASE)
        instr.eadd(e2, BASE + PAGE_SIZE)
        assert e1.measurement.digest() != e2.measurement.digest()


def evict(instr, enclave, vaddr):
    """The full architectural eviction sequence for tests."""
    instr.eblock(enclave, vaddr)
    return instr.ewb(enclave, vaddr)


class TestSgx1Paging:
    def test_ewb_eldu_roundtrip(self, instr, enclave):
        instr.eadd(enclave, BASE, contents="data")
        sealed = evict(instr, enclave, BASE)
        assert BASE >> 12 not in enclave.backed
        instr.eldu(enclave, BASE, sealed)
        pfn = enclave.backed[BASE >> 12]
        assert instr.epc.frame(pfn).contents == "data"

    def test_ewb_frees_the_frame(self, instr, enclave):
        instr.eadd(enclave, BASE)
        free_before = instr.epc.free_pages
        evict(instr, enclave, BASE)
        assert instr.epc.free_pages == free_before + 1

    def test_ewb_of_unbacked_page_rejected(self, instr, enclave):
        with pytest.raises(SgxError):
            instr.ewb(enclave, BASE)

    def test_eldu_replay_rejected(self, instr, enclave):
        instr.eadd(enclave, BASE, contents="v1")
        stale = evict(instr, enclave, BASE)
        instr.eldu(enclave, BASE, stale)
        fresh = evict(instr, enclave, BASE)
        with pytest.raises(IntegrityError):
            instr.eldu(enclave, BASE, stale)
        instr.eldu(enclave, BASE, fresh)

    def test_eldu_wrong_address_rejected(self, instr, enclave):
        instr.eadd(enclave, BASE)
        sealed = evict(instr, enclave, BASE)
        with pytest.raises(IntegrityError):
            instr.eldu(enclave, BASE + PAGE_SIZE, sealed)

    def test_paging_costs_charged(self, instr, enclave):
        instr.eadd(enclave, BASE)
        cycles = instr.clock.cycles
        sealed = evict(instr, enclave, BASE)
        instr.eldu(enclave, BASE, sealed)
        assert instr.clock.cycles == cycles + instr.cost.ewb \
            + instr.cost.eldu


class TestSgx2Dmm:
    def test_eaug_leaves_page_pending(self, instr, enclave):
        pfn = instr.eaug(enclave, BASE)
        assert instr.epcm.entry(pfn).pending

    def test_eaccept_clears_pending(self, instr, enclave):
        pfn = instr.eaug(enclave, BASE)
        instr.eaccept(enclave, BASE)
        assert not instr.epcm.entry(pfn).pending

    def test_eaccept_without_pending_rejected(self, instr, enclave):
        instr.eadd(enclave, BASE)
        with pytest.raises(SgxError):
            instr.eaccept(enclave, BASE)

    def test_eacceptcopy_installs_contents(self, instr, enclave):
        pfn = instr.eaug(enclave, BASE)
        instr.eacceptcopy(enclave, BASE, "restored")
        assert instr.epc.frame(pfn).contents == "restored"
        assert not instr.epcm.entry(pfn).pending

    def test_emodpr_requires_eaccept(self, instr, enclave):
        pfn = instr.eadd(enclave, BASE)
        instr.emodpr(enclave, BASE, Permissions.R)
        assert instr.epcm.entry(pfn).modified
        instr.eaccept(enclave, BASE)
        assert not instr.epcm.entry(pfn).modified
        assert not instr.epcm.entry(pfn).perms.write

    def test_emodpr_cannot_extend(self, instr, enclave):
        instr.eadd(enclave, BASE, perms=Permissions.R)
        with pytest.raises(SgxError):
            instr.emodpr(enclave, BASE, Permissions.RW)

    def test_emodpe_extends_in_place(self, instr, enclave):
        pfn = instr.eadd(enclave, BASE, perms=Permissions.RW)
        instr.emodpe(enclave, BASE, Permissions.RWX)
        entry = instr.epcm.entry(pfn)
        assert entry.perms.execute and not entry.modified

    def test_emodpe_cannot_reduce(self, instr, enclave):
        instr.eadd(enclave, BASE, perms=Permissions.RW)
        with pytest.raises(SgxError):
            instr.emodpe(enclave, BASE, Permissions.R)

    def test_eremove_requires_trim_and_accept(self, instr, enclave):
        instr.eadd(enclave, BASE)
        with pytest.raises(SgxError):
            instr.eremove(enclave, BASE)
        instr.emodt(enclave, BASE, PageType.TRIM)
        with pytest.raises(SgxError):
            instr.eremove(enclave, BASE)  # enclave has not accepted
        instr.eaccept(enclave, BASE)
        instr.eremove(enclave, BASE)
        assert not enclave.backed

    def test_eremove_on_dead_enclave_allowed(self, instr, enclave):
        instr.eadd(enclave, BASE)
        enclave.dead = True
        instr.eremove(enclave, BASE)

    def test_eaug_requires_sgx2_attribute(self, instr):
        from repro.sgx.enclave import EnclaveAttributes
        legacy = instr.ecreate(
            BASE, 8, EnclaveAttributes(self_paging=False, sgx2=False)
        )
        with pytest.raises(SgxError):
            instr.eaug(legacy, BASE)

    def test_page_lists_match_single_pages(self, instr, enclave):
        twin = SgxInstructions(EpcAllocator(64), Epcm(64), Clock(),
                               CostModel())
        twin_enclave = twin.ecreate(BASE, 32)
        pages = [BASE + i * PAGE_SIZE for i in (2, 0, 5)]
        pfns = instr.eaug_pages(enclave, pages)
        instr.eaccept_pages(enclave, pages)
        assert pfns == [twin.eaug(twin_enclave, p) for p in pages]
        for p in pages:
            twin.eaccept(twin_enclave, p)
        enclave.dead = twin_enclave.dead = True
        instr.eremove_pages(enclave, pages[1:])
        for p in pages[1:]:
            twin.eremove(twin_enclave, p)
        assert instr.clock.cycles == twin.clock.cycles
        assert instr.epc._free == twin.epc._free
        assert enclave.backed == twin_enclave.backed

    def test_page_lists_are_all_or_nothing(self, instr, enclave):
        instr.eaug(enclave, BASE + PAGE_SIZE)
        free = instr.epc.free_pages
        for pages in ([BASE, BASE + PAGE_SIZE, BASE + 2 * PAGE_SIZE],
                      [BASE, BASE]):
            with pytest.raises(SgxError):
                instr.eaug_pages(enclave, pages)
            assert instr.epc.free_pages == free
        instr.eadd(enclave, BASE)
        with pytest.raises(SgxError, match="nothing pending"):
            instr.eaccept_pages(enclave, [BASE + PAGE_SIZE, BASE])
        assert instr.epcm.entry(enclave.backed[(BASE >> 12) + 1]).pending
        with pytest.raises(SgxError, match="live, untrimmed"):
            instr.eremove_pages(enclave, [BASE + PAGE_SIZE, BASE])
        assert len(enclave.backed) == 2


class TestEblockEtrack:
    def test_ewb_without_eblock_rejected(self, instr, enclave):
        instr.eadd(enclave, BASE)
        with pytest.raises(SgxError, match="EBLOCK required"):
            instr.ewb(enclave, BASE)

    def test_double_eblock_rejected(self, instr, enclave):
        instr.eadd(enclave, BASE)
        instr.eblock(enclave, BASE)
        with pytest.raises(SgxError):
            instr.eblock(enclave, BASE)

    def test_blocked_page_refuses_new_translations(self, instr, enclave):
        """A blocked page fails the EPCM walk check — no new fills."""
        from repro.errors import EpcmViolation
        from repro.sgx.params import AccessType
        pfn = instr.eadd(enclave, BASE)
        instr.eblock(enclave, BASE)
        with pytest.raises(EpcmViolation):
            instr.epcm.check_access(
                pfn, enclave.enclave_id, BASE, AccessType.READ
            )

    def test_ewb_with_stale_tlb_rejected(self, instr, enclave):
        """EWB refuses while any core still holds a translation — the
        ETRACK/IPI sequence the driver must complete first."""
        from repro.sgx.tlb import Tlb
        tlb = Tlb()
        instr.tlb = tlb
        pfn = instr.eadd(enclave, BASE)
        tlb.install(BASE, pfn, True, False)
        instr.eblock(enclave, BASE)
        with pytest.raises(SgxError, match="stale TLB"):
            instr.ewb(enclave, BASE)
        tlb.flush_page(BASE)  # the shootdown
        instr.ewb(enclave, BASE)

    def test_block_cleared_after_eviction_cycle(self, instr, enclave):
        instr.eadd(enclave, BASE, contents="x")
        sealed = evict(instr, enclave, BASE)
        pfn = instr.eldu(enclave, BASE, sealed)
        assert not instr.epcm.entry(pfn).blocked
