"""SGX driver tests: demand paging, quotas, Autarky IOCTLs, suspension."""

import pytest

from repro.errors import EpcExhausted, SgxError
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
