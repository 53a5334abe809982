"""Host-call channel and SGX1/SGX2 paging-op tests."""

from types import SimpleNamespace

import pytest

from repro.clock import Category
from repro.errors import AbortReason, ChaosAbort, HostCallDenied, SgxError
from repro.runtime.exitless import HostCallChannel
from repro.runtime.libos import EnclaveLayout, GrapheneRuntime
from repro.runtime.paging_ops import Sgx1PagingOps
from repro.runtime.policies import RateLimitPolicy
from repro.runtime.rate_limit import RateLimiter
from repro.sgx.params import AccessType, SgxVersion


class TestHostCallChannel:
    def test_exitless_charges_channel_cost(self, kernel):
        channel = HostCallChannel(kernel, exitless=True)
        enclave = kernel.driver.create_enclave(0x1000_0000, 16)
        before = kernel.clock.by_category[Category.EXITLESS]
        channel.call("ay_set_os_managed", enclave, [])
        assert kernel.clock.by_category[Category.EXITLESS] == \
            before + kernel.cost.exitless_call

    def test_exit_based_charges_transition_pair(self, kernel):
        channel = HostCallChannel(kernel, exitless=False)
        enclave = kernel.driver.create_enclave(0x1000_0000, 16)
        before = kernel.clock.by_category[Category.EENTER_EEXIT]
        channel.call("ay_set_os_managed", enclave, [])
        assert kernel.clock.by_category[Category.EENTER_EEXIT] == \
            before + kernel.cost.eexit + kernel.cost.eenter

    def test_unknown_syscall_rejected(self, kernel):
        channel = HostCallChannel(kernel)
        with pytest.raises(SgxError):
            channel.call("no_such_call")

    def test_call_counter(self, kernel):
        channel = HostCallChannel(kernel)
        enclave = kernel.driver.create_enclave(0x1000_0000, 16)
        channel.call("ay_set_os_managed", enclave, [])
        channel.call("ay_set_os_managed", enclave, [])
        assert channel.calls == 2


def launch(kernel, version):
    policy = RateLimitPolicy(RateLimiter(100_000))
    return GrapheneRuntime.launch(
        kernel, policy,
        layout=EnclaveLayout(runtime_pages=4, code_pages=8,
                             data_pages=8, heap_pages=256),
        quota_pages=512,
        enclave_managed_budget=128,
        sgx_version=version,
    )


@pytest.mark.parametrize("version", [SgxVersion.SGX1, SgxVersion.SGX2])
class TestPagingOpsRoundtrip:
    def test_fetch_evict_refetch(self, kernel, version):
        runtime = launch(kernel, version)
        heap = runtime.regions["heap"]
        pages = [heap.page(i) for i in range(4)]
        runtime.pager.fetch_unit(pages)
        assert all(runtime.pager.is_resident(p) for p in pages)
        runtime.pager.evict_all()
        assert not any(runtime.pager.is_resident(p) for p in pages)
        runtime.pager.fetch_unit(pages)
        assert all(runtime.pager.is_resident(p) for p in pages)

    def test_contents_survive_roundtrip(self, kernel, version):
        runtime = launch(kernel, version)
        heap = runtime.regions["heap"]
        page = heap.page(0)
        runtime.pager.fetch_unit([page])
        pfn = runtime.enclave.backed[page >> 12]
        kernel.epc.frame(pfn).contents = "precious"
        if version is SgxVersion.SGX2:
            # The SGX2 runtime mirrors contents at fetch/evict time.
            runtime.paging_ops._resident_contents[page] = "precious"
        runtime.pager.evict_all()
        runtime.pager.fetch_unit([page])
        pfn = runtime.enclave.backed[page >> 12]
        assert kernel.epc.frame(pfn).contents == "precious"

    def test_demand_paging_under_pressure(self, kernel, version):
        runtime = launch(kernel, version)
        heap = runtime.regions["heap"]
        for i in range(200):  # budget is 128
            runtime.access(heap.page(i), AccessType.WRITE)
        assert runtime.pager.resident_count() <= 128
        runtime.access(heap.page(0), AccessType.READ)  # refetch works

    def test_mapped_with_ad_bits_set(self, kernel, version):
        runtime = launch(kernel, version)
        heap = runtime.regions["heap"]
        runtime.pager.fetch_unit([heap.page(0)])
        assert kernel.page_table.read_accessed_dirty(heap.page(0)) == \
            (True, True)


class TestSgx2Specifics:
    def test_epcm_accepted_after_fetch(self, kernel):
        runtime = launch(kernel, SgxVersion.SGX2)
        heap = runtime.regions["heap"]
        runtime.pager.fetch_unit([heap.page(0)])
        pfn = runtime.enclave.backed[heap.page(0) >> 12]
        entry = kernel.epcm.entry(pfn)
        assert not entry.pending and not entry.modified

    def test_evict_frees_epc(self, kernel):
        runtime = launch(kernel, SgxVersion.SGX2)
        heap = runtime.regions["heap"]
        runtime.pager.fetch_unit([heap.page(0)])
        free_before = kernel.epc.free_pages
        runtime.pager.evict_all()
        assert kernel.epc.free_pages == free_before + 1

    def test_evict_unknown_page_rejected(self, kernel):
        runtime = launch(kernel, SgxVersion.SGX2)
        heap = runtime.regions["heap"]
        with pytest.raises(SgxError):
            runtime.paging_ops.evict_batch([heap.page(0)])

    def test_sgx2_fetch_costs_more_than_sgx1(self):
        """§7.1's conclusion: SGX1 paging instructions are cheaper."""
        from repro.host.kernel import HostKernel
        costs = {}
        for version in (SgxVersion.SGX1, SgxVersion.SGX2):
            kernel = HostKernel(epc_pages=2_048)
            runtime = launch(kernel, version)
            heap = runtime.regions["heap"]
            pages = [heap.page(i) for i in range(8)]
            runtime.pager.fetch_unit(pages)
            runtime.pager.evict_all()
            before = kernel.clock.cycles
            runtime.pager.fetch_unit(pages)
            costs[version] = kernel.clock.cycles - before
        assert costs[SgxVersion.SGX2] > costs[SgxVersion.SGX1]


class DenyingChannel:
    """A host channel that denies its first ``denials`` calls (every
    call when ``denials`` is None) and answers the rest; its clock
    records each charge in order."""

    def __init__(self, denials):
        self.denials = denials
        self.calls = []
        self.charges = []
        self.kernel = SimpleNamespace(clock=SimpleNamespace(
            charge=lambda cycles, category: self.charges.append(
                (cycles, category))))

    def call(self, name, *args):
        self.calls.append((name, args))
        if self.denials is None or len(self.calls) <= self.denials:
            raise HostCallDenied(f"denied #{len(self.calls)}")
        return ("answer", name, args)


class TestHostCallRetry:
    """``PagingOps._host_call``: bounded, cycle-charged backoff over a
    denying host, then fail-stop."""

    @pytest.mark.parametrize("denials", [0, 1, 2, 3])
    def test_denied_k_times_then_answered(self, denials):
        channel = DenyingChannel(denials)
        ops = Sgx1PagingOps("enclave", channel)
        ops.retried_calls = 5
        result = ops._host_call("ay_fetch_pages", [0x1000])
        assert result == ("answer", "ay_fetch_pages",
                          ("enclave", [0x1000]))
        assert len(channel.calls) == denials + 1
        assert ops.retried_calls == 5 + denials
        assert channel.charges == [
            (2_000 * 4 ** (i - 1), Category.BACKOFF)
            for i in range(1, denials + 1)
        ]

    def test_persistent_denial_fail_stops(self):
        channel = DenyingChannel(None)
        ops = Sgx1PagingOps("enclave", channel)
        with pytest.raises(ChaosAbort) as info:
            ops._host_call("ay_evict_pages", [0x2000])
        assert str(info.value) == (
            "enclave terminated: paging service 'ay_evict_pages' still "
            "failing after 4 attempts with backoff: denied #4"
        )
        assert info.value.reason is AbortReason.CHAOS_ABORT
        assert isinstance(info.value.__cause__, HostCallDenied)
        assert str(info.value.__cause__) == "denied #4"
        assert len(channel.calls) == 4
        assert ops.retried_calls == 0
        assert channel.charges == [
            (2_000, Category.BACKOFF), (8_000, Category.BACKOFF),
            (32_000, Category.BACKOFF),
        ]
        assert sum(cycles for cycles, _ in channel.charges) == 42_000
