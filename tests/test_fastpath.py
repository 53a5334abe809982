"""Fast-path equivalence: the memoized translation engine is invisible.

Every test here runs the same deterministic scenario twice — once with
the epoch-guarded fast path enabled, once with it disabled — and
asserts the complete observable state is identical: returned PFNs,
fault sequences (order, addresses, kinds), A/D-bit state of every
mapped page, cycle totals per category, and all event counters.  The
fast path may only change wall-clock, never simulated behaviour — even
when the behaviour is an abort.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import SystemConfig
from repro.core.system import AutarkySystem
from repro.errors import EnclaveTerminated
from repro.host.kernel import HostKernel
from repro.runtime.rate_limit import ProgressKind
from repro.sgx.columnar import TIER_OFF, TIERS
from repro.sgx.epcm import Permissions
from repro.sgx.params import PAGE_SHIFT, PAGE_SIZE, AccessType, SgxVersion

POLICIES = ("baseline", "pin_all", "clusters", "rate_limit")


def build(policy, fastpath, **overrides):
    kwargs = dict(
        epc_pages=2_048,
        quota_pages=1_024,
        enclave_managed_budget=512,
        max_faults_per_progress=100_000,
        runtime_pages=4,
        code_pages=16,
        data_pages=16,
        heap_pages=512,
        fastpath=fastpath,
    )
    kwargs.update(overrides)
    return AutarkySystem(SystemConfig.for_policy(policy, **kwargs))


def observables(system):
    """Everything the simulation can be observed by."""
    kernel = system.kernel
    pt = kernel.page_table
    return {
        "cycles": kernel.clock.cycles,
        "by_category": dict(kernel.clock.by_category),
        "fault_count": kernel.cpu.fault_count,
        "aex": kernel.cpu.aex_count,
        "eenter": kernel.cpu.eenter_count,
        "eresume": kernel.cpu.eresume_count,
        "tlb_hits": kernel.tlb.hits,
        "walks": kernel.mmu.walks,
        "ad_checks": kernel.mmu.ad_checks,
        "fault_log": [
            (f.vaddr, f.write, f.exec_, f.present)
            for f in kernel.fault_log
        ],
        "ad_bits": {
            vpn: pt.read_accessed_dirty(vpn << PAGE_SHIFT)
            for vpn in sorted(pt.mapped_vpns())
        },
        "enclave_dead": system.enclave.dead,
    }


def both_modes(scenario, *args, **kwargs):
    """Run ``scenario(system, ...)`` at tier "off" and at "columnar";
    return both outcomes, the reference first.

    The scenario's return value and any :class:`EnclaveTerminated` it
    raises are part of the equivalence contract.
    """
    outcomes = []
    for fastpath in TIERS:
        system = scenario.build(fastpath, *args, **kwargs)
        try:
            result = scenario.drive(system)
            raised = None
        except EnclaveTerminated as exc:
            result = None
            raised = (type(exc).__name__,
                      exc.reason.value if exc.reason else None)
        outcomes.append({
            "result": result,
            "raised": raised,
            "state": observables(system),
        })
    return outcomes


class Scenario:
    """A (build, drive) pair run identically in both modes."""

    def __init__(self, build_fn, drive_fn):
        self.build = build_fn
        self.drive = drive_fn


def _pool(system, npages):
    if system.config.policy.name == "clusters":
        return system.runtime.allocator.alloc_pages(npages)
    heap = system.runtime.regions["heap"].start
    return [heap + i * PAGE_SIZE for i in range(npages)]


def _drive_mixed(system, npages=160, steps=400, seed=5):
    """Random single + batched accesses with paging churn."""
    runtime = system.runtime
    engine = system.engine()
    pool = _pool(system, npages)
    rng = random.Random(seed)
    pfns = []
    for i in range(steps):
        vaddr = rng.choice(pool)
        access = (AccessType.WRITE if rng.random() < 0.3
                  else AccessType.READ)
        pfns.append(runtime.access(vaddr, access))
        if i % 5 == 4:
            run = [rng.choice(pool) for _ in range(6)]
            pfns.extend(system.kernel.cpu.access_run(
                runtime.enclave, runtime.tcs, run, AccessType.READ))
        if i % 16 == 15:
            engine.progress(ProgressKind.SYSCALL)
    return pfns


class TestPolicyEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_mixed_workload(self, policy):
        slow, fast = both_modes(Scenario(
            lambda fp: build(policy, fp), _drive_mixed,
        ))
        assert slow == fast

    @pytest.mark.parametrize("policy", POLICIES)
    def test_eviction_churn(self, policy):
        """Working set larger than the paging budget: every access may
        trigger eviction, so the memo is invalidated constantly."""
        slow, fast = both_modes(Scenario(
            lambda fp: build(policy, fp, enclave_managed_budget=96,
                             quota_pages=128),
            lambda system: _drive_mixed(system, npages=160, steps=250,
                                        seed=17),
        ))
        assert slow == fast

    def test_oram_policy(self):
        def drive(system):
            engine = system.engine()
            heap = system.runtime.regions["heap"].start
            rng = random.Random(23)
            for i in range(200):
                vaddr = heap + rng.randrange(48) * PAGE_SIZE
                engine.data_access(vaddr, write=(i % 4 == 0))
            return None

        slow, fast = both_modes(Scenario(
            lambda fp: build("oram", fp, oram_tree_pages=64,
                             oram_cache_pages=8),
            drive,
        ))
        assert slow == fast


class TestInvalidationEquivalence:
    def test_tlb_capacity_evictions(self):
        """A tiny TLB forces capacity evictions (epoch bumps) on nearly
        every access."""
        slow, fast = both_modes(Scenario(
            lambda fp: build("clusters", fp, tlb_capacity=8),
            lambda system: _drive_mixed(system, npages=64, steps=250,
                                        seed=29),
        ))
        assert slow == fast

    def test_legacy_pte_tampering(self):
        """The classic controlled-channel probes (unmap, A/D clearing)
        against a legacy enclave: faults and re-walks must replay
        identically."""
        def drive(system):
            runtime = system.runtime
            kernel = system.kernel
            heap = runtime.regions["heap"].start
            pool = [heap + i * PAGE_SIZE for i in range(32)]
            rng = random.Random(31)
            pfns, touched = [], []
            for i in range(300):
                vaddr = rng.choice(pool)
                touched.append(vaddr)
                pfns.append(runtime.access(
                    vaddr,
                    AccessType.WRITE if i % 4 == 0 else AccessType.READ,
                ))
                if i % 13 == 7:
                    kernel.page_table.set_accessed_dirty(
                        rng.choice(touched), accessed=False, dirty=False,
                    )
                if i % 29 == 11:
                    kernel.page_table.unmap(rng.choice(touched))
                if i % 6 == 5:
                    pfns.extend(kernel.cpu.access_run(
                        runtime.enclave, runtime.tcs,
                        [rng.choice(touched) for _ in range(4)],
                        AccessType.READ,
                    ))
            return pfns

        slow, fast = both_modes(Scenario(
            lambda fp: build("baseline", fp), drive,
        ))
        assert slow == fast

    def test_chaos_ad_clear_aborts_identically(self):
        """Clearing A/D under a self-paging enclave is an attack: both
        modes must detect it at the same access and abort with the
        same reason and state."""
        def drive(system):
            engine = system.engine()
            pool = _pool(system, 16)
            for vaddr in pool:
                engine.data_access(vaddr)
            target = pool[3]
            system.kernel.page_table.set_accessed_dirty(
                target, accessed=False, dirty=False,
            )
            engine.data_access(target)   # must raise EnclaveTerminated
            return "survived"

        slow, fast = both_modes(Scenario(
            lambda fp: build("clusters", fp), drive,
        ))
        assert slow["raised"] is not None
        assert slow == fast

    def test_emodpr_restriction(self):
        """SGX2 permission reduction: the memoized translation must die
        with the shootdown, and the restricted write must behave
        identically (including a possible abort)."""
        def drive(system):
            runtime = system.runtime
            kernel = system.kernel
            heap = runtime.regions["heap"].start
            vaddr = heap
            out = [runtime.access(vaddr, AccessType.WRITE)]
            out.append(runtime.access(vaddr, AccessType.READ))
            kernel.driver.sgx2_modpr_batch(
                system.enclave, [vaddr], Permissions.R,
            )
            kernel.instr.eaccept(system.enclave, vaddr)
            out.append(runtime.access(vaddr, AccessType.READ))
            out.append(runtime.access(vaddr, AccessType.WRITE))
            return out

        slow, fast = both_modes(Scenario(
            lambda fp: build("rate_limit", fp,
                             sgx_version=SgxVersion.SGX2),
            drive,
        ))
        assert slow == fast


class TestMemoUnit:
    """Direct unit checks of the memo's epoch protocol."""

    def _host_kernel(self, **kwargs):
        return HostKernel(epc_pages=64, **kwargs)

    def _map_and_warm(self, kernel, vaddr, pfn):
        kernel.page_table.map(vaddr, pfn, accessed=True, dirty=True)
        return kernel.mmu.translate(vaddr, AccessType.READ)

    def test_fast_hit_after_translate(self):
        kernel = self._host_kernel()
        pfn = self._map_and_warm(kernel, 0x5000, 7)
        assert kernel.mmu.fast_hit(0x5000, AccessType.READ) == pfn

    def test_fast_hit_counts_as_tlb_hit(self):
        kernel = self._host_kernel()
        self._map_and_warm(kernel, 0x5000, 7)
        hits = kernel.tlb.hits
        cycles = kernel.clock.cycles
        kernel.mmu.fast_hit(0x5000, AccessType.READ)
        assert kernel.tlb.hits == hits + 1
        assert kernel.clock.cycles == cycles   # hits charge nothing

    def test_pte_mutation_drops_memo(self):
        kernel = self._host_kernel()
        self._map_and_warm(kernel, 0x5000, 7)
        kernel.page_table.unmap(0x5000)
        assert kernel.mmu.fast_hit(0x5000, AccessType.READ) is None

    def test_tlb_flush_drops_memo(self):
        kernel = self._host_kernel()
        self._map_and_warm(kernel, 0x5000, 7)
        kernel.tlb.flush()
        assert kernel.mmu.fast_hit(0x5000, AccessType.READ) is None

    def test_access_types_memoized_separately(self):
        kernel = self._host_kernel()
        self._map_and_warm(kernel, 0x5000, 7)
        assert kernel.mmu.fast_hit(0x5000, AccessType.WRITE) is None

    def _map_run(self, kernel, n, first_pfn=10):
        # Map everything up front: map() itself bumps the epoch, so
        # interleaving map and translate would drop earlier memos.
        vaddrs = [0x10000 + i * PAGE_SIZE for i in range(n)]
        for i, vaddr in enumerate(vaddrs):
            kernel.page_table.map(vaddr, first_pfn + i,
                                  accessed=True, dirty=True)
        for vaddr in vaddrs:
            kernel.mmu.translate(vaddr, AccessType.READ)
        return vaddrs

    def test_probe_run_all_or_nothing(self):
        kernel = self._host_kernel()
        vaddrs = self._map_run(kernel, 4)
        assert kernel.mmu.probe_run(vaddrs, AccessType.READ) == \
            [10, 11, 12, 13]
        assert kernel.mmu.probe_run(
            vaddrs + [0x90000], AccessType.READ,
        ) is None

    def test_probe_run_dropped_by_epoch_bump(self):
        kernel = self._host_kernel()
        vaddrs = self._map_run(kernel, 4)
        kernel.page_table.set_protection(vaddrs[0], writable=False)
        assert kernel.mmu.probe_run(vaddrs, AccessType.READ) is None

    def test_tlb_capacity_eviction_bumps_epoch(self):
        kernel = self._host_kernel(tlb_capacity=2)
        vaddrs = self._map_run(kernel, 3)
        # The third TLB install evicted the first entry → epoch bump →
        # the whole memo (not just the evicted page) was dropped.
        assert kernel.mmu.probe_run(vaddrs[:2], AccessType.READ) is None

    def test_fastpath_disabled_is_inert(self):
        kernel = HostKernel(epc_pages=64, fastpath=TIER_OFF)
        kernel.page_table.map(0x5000, 7, accessed=True, dirty=True)
        kernel.mmu.translate(0x5000, AccessType.READ)
        assert kernel.mmu.fast_hit(0x5000, AccessType.READ) is None
        assert kernel.mmu.probe_run([0x5000], AccessType.READ) is None
