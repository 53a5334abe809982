"""Host-kernel tests: fault dispatch, protocol enforcement, syscalls."""

import pytest

from repro.errors import SgxError
from repro.host.kernel import HostKernel
from repro.runtime.libos import EnclaveLayout, GrapheneRuntime
from repro.runtime.policies import RateLimitPolicy
from repro.runtime.rate_limit import RateLimiter
from repro.sgx.params import AccessType


def launch(kernel):
    return GrapheneRuntime.launch(
        kernel, RateLimitPolicy(RateLimiter(100_000)),
        layout=EnclaveLayout(runtime_pages=4, code_pages=8,
                             data_pages=8, heap_pages=256),
        quota_pages=512, enclave_managed_budget=256,
    )


class TestFaultDispatch:
    def test_fault_log_records_everything_the_os_saw(self, kernel,
                                                     launched):
        heap = launched.regions["heap"]
        for i in range(5):
            launched.access(heap.page(i), AccessType.WRITE)
        assert len(kernel.fault_log) == 5
        assert all(f.cycles > 0 for f in kernel.fault_log)

    def test_unaware_os_forced_into_protocol(self):
        """A kernel that tries the legacy silent resume first gets the
        architectural rejection, then must follow the protocol — the
        enclave still makes progress."""
        kernel = HostKernel(epc_pages=2_048, autarky_aware=False)
        runtime = launch(kernel)
        heap = runtime.regions["heap"]
        runtime.access(heap.page(0), AccessType.WRITE)
        assert runtime.handled_faults == 1
        assert not runtime.enclave.dead

    def test_syscall_dispatches_to_driver(self, kernel, launched):
        result = kernel.syscall(
            "ay_set_enclave_managed", launched.enclave, []
        )
        assert result == {}

    def test_unknown_syscall_rejected(self, kernel):
        with pytest.raises(SgxError):
            kernel.syscall("frobnicate")

    def test_syscall_charges_kernel_work(self, kernel, launched):
        before = kernel.clock.cycles
        kernel.syscall("ay_set_os_managed", launched.enclave, [])
        assert kernel.clock.cycles > before

    def test_attacker_hook_can_take_over(self, kernel, legacy):
        taken = []

        class Resolver:
            def on_enclave_fault(self, enclave, tcs, masked):
                taken.append(masked.vaddr)
                kernel.driver.os_resolve(enclave, masked.vaddr)
                return True

        kernel.attacker = Resolver()
        heap = legacy.regions["heap"]
        legacy.access(heap.page(0), AccessType.WRITE)
        assert taken == [heap.page(0)]


class TestTwoEnclaves:
    def test_isolated_fault_handling(self, kernel):
        a = launch(kernel)
        b = GrapheneRuntime.launch(
            kernel, RateLimitPolicy(RateLimiter(100_000)),
            layout=EnclaveLayout(base=0x20_0000_0000, runtime_pages=4,
                                 code_pages=8, data_pages=8,
                                 heap_pages=256),
            quota_pages=512, enclave_managed_budget=256,
        )
        a.access(a.regions["heap"].page(0), AccessType.WRITE)
        b.access(b.regions["heap"].page(0), AccessType.WRITE)
        assert a.handled_faults == 1
        assert b.handled_faults == 1

    def test_cross_enclave_frame_isolation(self, kernel):
        """Mapping enclave B's frame into enclave A's address space is
        caught by the EPCM and treated as an attack."""
        from repro.errors import AttackDetected
        a = launch(kernel)
        b = GrapheneRuntime.launch(
            kernel, RateLimitPolicy(RateLimiter(100_000)),
            layout=EnclaveLayout(base=0x20_0000_0000, runtime_pages=4,
                                 code_pages=8, data_pages=8,
                                 heap_pages=256),
            quota_pages=512, enclave_managed_budget=256,
        )
        page_a = a.regions["heap"].page(0)
        page_b = b.regions["heap"].page(0)
        a.access(page_a, AccessType.WRITE)
        b.access(page_b, AccessType.WRITE)
        # The hostile OS redirects A's PTE at B's frame.
        pte_a = kernel.page_table.lookup(page_a)
        pte_a.pfn = b.enclave.backed[page_b >> 12]
        kernel.page_table._shootdown(page_a)
        with pytest.raises(AttackDetected):
            a.access(page_a, AccessType.READ)

    def test_quota_contention_resolved_by_balloon(self, kernel):
        a = launch(kernel)
        heap = a.regions["heap"]
        for i in range(200):
            a.access(heap.page(i), AccessType.WRITE)
        used_before = kernel.epc.used_pages
        freed = kernel.request_memory_reduction(a.enclave, 50)
        assert freed > 0
        assert kernel.epc.used_pages == used_before - freed
