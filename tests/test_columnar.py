"""Columnar-tier equivalence: the batch interpreter is invisible.

Every scenario here runs identically at both fast-path tiers ("off",
the reference semantics, and "columnar") plus the per-address call
structure of :class:`LegacyEngine`, and asserts the complete
observable state is identical: returned values, fault sequences, A/D
bits, per-category cycle totals, all event counters.  The columnar
interpreter may only change wall-clock, never simulated behaviour — the
same contract tests/test_fastpath.py pins for the per-page memo,
extended to whole compiled runs.

Direct unit tests of the plan (:class:`PageRun`) and the
compile/execute engine cover the pieces the end-to-end sweeps cannot
isolate: packing, iteration, compiling read and write runs over
read-only and writable mappings, all-or-nothing compilation, and stamp
invalidation on epoch bumps.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.memcached import Memcached
from repro.errors import EnclaveTerminated
from repro.host.kernel import HostKernel
from repro.sgx.columnar import (
    TIER_COLUMNAR,
    TIER_OFF,
    TIERS,
    PageRun,
    normalize_tier,
    pack_column,
)
from repro.sgx.epcm import Permissions
from repro.sgx.params import PAGE_SHIFT, PAGE_SIZE, AccessType, SgxVersion
from tests.test_fastpath import POLICIES, _pool, build, observables


class LegacyEngine:
    """The per-address engine call structure, on today's stack.

    One ``data_access`` per page and one ``runtime.compute`` per
    charge — no batching, no bulk accounting, no planned traces.
    Simulated behaviour is identical to the batched paths (same
    accesses in the same order, same totals); only the Python call
    count differs.
    """

    def __init__(self, engine):
        self._engine = engine
        self.runtime = engine.runtime

    def data_access(self, vaddr, write=False):
        self._engine.data_access(vaddr, write=write)

    def data_access_run(self, vaddrs, write=False):
        for vaddr in vaddrs:
            self._engine.data_access(vaddr, write=write)

    def make_run(self, vaddrs, write=False):
        return list(vaddrs), write

    def replay(self, trace):
        (vaddrs, write), cycles = trace
        for vaddr in vaddrs:
            self._engine.data_access(vaddr, write=write)
        self.runtime.compute(cycles)

    def compute(self, cycles):
        self.runtime.compute(cycles)

    def progress(self, kind):
        self._engine.progress(kind)

    def region(self, name):
        return self._engine.region(name)


def tier_outcomes(build_fn, drive_fn, legacy=True):
    """Run ``drive_fn(system, engine)`` at every tier (plus the legacy
    per-address engine on the "off" tier) and return the outcomes."""
    modes = [(tier, False) for tier in TIERS]
    if legacy:
        modes.append(("legacy", True))
    outcomes = {}
    for name, wrap in modes:
        system = build_fn(TIER_OFF if wrap else name)
        engine = system.engine()
        if wrap:
            engine = LegacyEngine(engine)
        try:
            result = drive_fn(system, engine)
            raised = None
        except EnclaveTerminated as exc:
            result = None
            raised = (type(exc).__name__,
                      exc.reason.value if exc.reason else None)
        outcomes[name] = {
            "result": result,
            "raised": raised,
            "state": observables(system),
        }
    return outcomes


def assert_equivalent(outcomes):
    reference = outcomes[TIER_OFF]
    for name, outcome in outcomes.items():
        assert outcome == reference, f"tier {name!r} diverges"
    return reference


def _drive_traces(system, engine, npages=96, traces=32, replays=400,
                  seed=3, churn=None):
    """Plan a set of repeating page traces and replay them heavily,
    interleaving single accesses; ``churn(system, i)`` may perturb
    translation state mid-stream."""
    pool = _pool(system, npages)
    rng = random.Random(seed)
    cached = []
    for _ in range(traces):
        pages = [rng.choice(pool) for _ in range(rng.randrange(1, 8))]
        run = engine.make_run(pages)
        cached.append((run, 37 * len(pages)))
    for i in range(replays):
        engine.replay(rng.choice(cached))
        if i % 7 == 6:
            engine.data_access(rng.choice(pool),
                               write=(i % 14 == 13))
        if churn is not None:
            churn(system, i)
    return None


def _drive_store(system, engine, requests=600, seed=41):
    """Memcached GETs and SETs (about one in three) over a 16-key
    store, while the host flushes the TLB and maps a store item page
    read-only, which the next GET of a key on it re-walks for a read;
    returns the request counts."""
    server = Memcached(engine, system.heap_start(), 16 * 1024)
    if system.config.policy.name == "clusters":
        system.runtime.allocator.alloc_pages(server.total_pages)
    kernel = system.kernel
    rng = random.Random(seed)
    for i in range(requests):
        key = rng.randrange(server.n_keys)
        if rng.random() < 0.3:
            server.set(key)
        else:
            server.get(key)
        if i % 41 == 40:
            kernel.tlb.flush()
        if i % 47 == 46:
            vaddr = server.item_page(rng.randrange(server.n_keys))
            if vaddr >> PAGE_SHIFT in kernel.page_table.mapped_vpns():
                kernel.page_table.set_protection(vaddr, writable=False)
    return server.gets, server.sets


class TestTraceEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_steady_state_replays(self, policy):
        assert_equivalent(tier_outcomes(
            lambda tier: build(policy, tier),
            _drive_traces,
        ))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_eviction_churn(self, policy):
        """Working set larger than the paging budget: replays fault
        mid-run, fall back sequentially, and recompile after."""
        assert_equivalent(tier_outcomes(
            lambda tier: build(policy, tier, enclave_managed_budget=96,
                               quota_pages=128),
            lambda system, engine: _drive_traces(
                system, engine, npages=160, replays=250, seed=17,
            ),
        ))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_memcached_sets(self, policy):
        """A SET's index and item page writes fault, re-walk and hit
        on every tier as the per-page write path does, also on a page
        the host mapped read-only after a read filled its TLB entry."""
        assert_equivalent(tier_outcomes(
            lambda tier: build(policy, tier), _drive_store,
        ))

    def test_oram_policy(self):
        """ORAM data accesses bypass the MMU, so traces replay
        per-address through the ORAM on every tier."""
        def drive(system, engine):
            heap = system.runtime.regions["heap"].start
            rng = random.Random(23)
            cached = []
            for _ in range(12):
                pages = [heap + rng.randrange(48) * PAGE_SIZE
                         for _ in range(rng.randrange(1, 5))]
                cached.append((engine.make_run(pages), 91 * len(pages)))
            for _ in range(120):
                engine.replay(rng.choice(cached))
            return None

        # No legacy mode: LegacyEngine routes data accesses through the
        # MMU, which is a different machine than the ORAM engine.
        assert_equivalent(tier_outcomes(
            lambda tier: build("oram", tier, oram_tree_pages=64,
                               oram_cache_pages=8),
            drive, legacy=False,
        ))

    def test_tiny_tlb_capacity_evictions(self):
        """A tiny TLB forces capacity evictions (epoch bumps) between
        nearly every replay — compiled columns die constantly."""
        assert_equivalent(tier_outcomes(
            lambda tier: build("clusters", tier, tlb_capacity=8),
            lambda system, engine: _drive_traces(
                system, engine, npages=64, replays=250, seed=29,
            ),
        ))

    def test_mid_run_epoch_bumps(self):
        """PTE tampering (A/D clears, unmaps) against a legacy enclave
        while traces replay: faults and re-walks must land at the same
        points on every tier."""
        def churn(system, i):
            pt = system.kernel.page_table
            rng = random.Random(1000 + i)
            # Tamper only with pages the enclave has actually touched
            # (the OS can only perturb PTEs that exist).
            mapped = sorted(pt.mapped_vpns())
            if not mapped:
                return
            if i % 13 == 7:
                pt.set_accessed_dirty(
                    rng.choice(mapped) << PAGE_SHIFT,
                    accessed=False, dirty=False,
                )
            if i % 29 == 11:
                pt.unmap(rng.choice(mapped) << PAGE_SHIFT)

        assert_equivalent(tier_outcomes(
            lambda tier: build("baseline", tier),
            lambda system, engine: _drive_traces(
                system, engine, npages=64, replays=250, seed=31,
                churn=churn,
            ),
        ))

    def test_ad_clear_aborts_identically(self):
        """Clearing A/D under a self-paging enclave is an attack: every
        tier must detect it at the same replay and abort with the same
        reason and state."""
        def drive(system, engine):
            pool = _pool(system, 16)
            trace = (engine.make_run(pool), 55 * len(pool))
            engine.replay(trace)
            engine.replay(trace)
            system.kernel.page_table.set_accessed_dirty(
                pool[3], accessed=False, dirty=False,
            )
            engine.replay(trace)   # must raise EnclaveTerminated
            return "survived"

        reference = assert_equivalent(tier_outcomes(
            lambda tier: build("clusters", tier), drive,
        ))
        assert reference["raised"] is not None

    def test_emodpr_restriction(self):
        """SGX2 permission reduction mid-stream: the compiled column
        dies with the shootdown, and post-EACCEPT replays (and the
        restricted write) behave identically on every tier."""
        def drive(system, engine):
            runtime = system.runtime
            kernel = system.kernel
            heap = runtime.regions["heap"].start
            pages = [heap + i * PAGE_SIZE for i in range(4)]
            out = [runtime.access(pages[0], AccessType.WRITE)]
            trace = (engine.make_run(pages), 70)
            engine.replay(trace)
            engine.replay(trace)
            kernel.driver.sgx2_modpr_batch(
                system.enclave, [pages[0]], Permissions.R,
            )
            kernel.instr.eaccept(system.enclave, pages[0])
            engine.replay(trace)   # read replay is still legal
            out.append(runtime.access(pages[0], AccessType.READ))
            out.append(runtime.access(pages[0], AccessType.WRITE))
            return out

        assert_equivalent(tier_outcomes(
            lambda tier: build("rate_limit", tier,
                               sgx_version=SgxVersion.SGX2),
            drive,
        ))


class TestChaosDigests:
    def test_jobs_sharding_is_invisible(self):
        """The chaos campaign digests are identical under --jobs 2 and
        --jobs 1 (and the columnar tier does not perturb them)."""
        from repro.chaos.campaign import run_campaign
        serial = run_campaign(range(3), check_determinism=False, jobs=1)
        sharded = run_campaign(range(3), check_determinism=False, jobs=2)
        digest = lambda res: {
            f"{r.seed}/{r.policy}": r.digest for r in res.runs
        }
        assert digest(serial) == digest(sharded)
        assert len(serial.violations) == len(sharded.violations)


class TestPageRunUnit:
    def test_packing(self):
        vaddrs = [0x10000, 0x23000, 0x10000]
        run = PageRun(vaddrs)
        assert run.n == 3
        assert list(run.vpns) == [v >> PAGE_SHIFT for v in vaddrs]
        assert pack_column([1, 2])[1] == 2

    def test_sequence_protocol(self):
        vaddrs = (0x10000, 0x23000)
        run = PageRun(vaddrs)
        assert list(run) == list(vaddrs)
        assert "PageRun" in repr(run)

    def test_normalize_tier(self):
        assert TIERS == (TIER_OFF, TIER_COLUMNAR)
        assert normalize_tier(TIER_OFF) == TIER_OFF
        assert normalize_tier(None) == TIER_COLUMNAR
        for retired in (True, False, "memo", "warp-speed"):
            with pytest.raises(ValueError):
                normalize_tier(retired)

    # -- compile/execute against a real machine -------------------------

    def _kernel(self, **kwargs):
        kernel = HostKernel(epc_pages=64, fastpath=TIER_COLUMNAR,
                            **kwargs)
        assert kernel.cpu.columnar is not None
        return kernel

    def _map_and_warm(self, kernel, vaddrs, writable=True,
                      executable=False):
        for i, vaddr in enumerate(vaddrs):
            kernel.page_table.map(vaddr, 10 + i, writable=writable,
                                  executable=executable,
                                  accessed=True, dirty=True)
        for vaddr in vaddrs:
            kernel.mmu.translate(vaddr, AccessType.READ)

    def test_execute_counts_bulk_hits_and_charges_nothing(self):
        kernel = self._kernel()
        vaddrs = [0x10000 + i * PAGE_SIZE for i in range(4)]
        self._map_and_warm(kernel, vaddrs)
        run = PageRun(vaddrs)
        engine = kernel.cpu.columnar
        hits, cycles = kernel.tlb.hits, kernel.clock.cycles
        assert engine.execute(run) is True     # compiles and stamps
        assert engine.execute(run) is True     # stamp hit
        assert kernel.tlb.hits == hits + 2 * run.n
        assert kernel.clock.cycles == cycles    # hits charge nothing

    def test_stamp_invalidated_by_epoch_bump(self):
        kernel = self._kernel()
        vaddrs = [0x10000 + i * PAGE_SIZE for i in range(4)]
        self._map_and_warm(kernel, vaddrs)
        run = PageRun(vaddrs)
        engine = kernel.cpu.columnar
        assert engine.execute(run) is True
        stamp = run.stamp
        kernel.page_table.unmap(vaddrs[2])      # bumps the epoch
        assert kernel.epoch.value != stamp
        # Recompile fails all-or-nothing: one page left the TLB.
        assert engine.execute(run) is False

    def test_compile_checks_permissions(self):
        kernel = self._kernel()
        vaddrs = [0x10000 + i * PAGE_SIZE for i in range(3)]
        self._map_and_warm(kernel, vaddrs, writable=False)
        engine = kernel.cpu.columnar
        hits = kernel.tlb.hits
        # A write needs a writable entry: over a read-only mapping the
        # write run does not compile, with no effect, and the read run
        # over the same pages does.
        write = PageRun(vaddrs, write=True)
        assert engine.execute(write) is False
        assert write.stamp == -1 and kernel.tlb.hits == hits
        assert engine.execute(PageRun(vaddrs)) is True

    def test_write_run_compiles_over_writable_entries(self):
        kernel = self._kernel()
        vaddrs = [0x10000 + i * PAGE_SIZE for i in range(3)]
        self._map_and_warm(kernel, vaddrs)
        run = PageRun(vaddrs, write=True)
        assert run.write and not PageRun(vaddrs).write
        hits = kernel.tlb.hits
        assert kernel.cpu.columnar.execute(run) is True
        assert run.stamp == kernel.epoch.value
        assert kernel.tlb.hits == hits + run.n

    def test_compile_all_or_nothing(self):
        kernel = self._kernel()
        vaddrs = [0x10000 + i * PAGE_SIZE for i in range(3)]
        self._map_and_warm(kernel, vaddrs)
        hits = kernel.tlb.hits
        stranger = PageRun(vaddrs + [0x90000])   # last page not mapped
        assert kernel.cpu.columnar.execute(stranger) is False
        assert kernel.tlb.hits == hits           # miss has no effects

    def test_off_tier_has_no_columnar_engine(self):
        kernel = HostKernel(epc_pages=64, fastpath=TIER_OFF)
        assert kernel.cpu.columnar is None
        assert kernel.mmu.probe_run([0x5000], AccessType.READ) is None

    def test_unset_tier_is_the_shipped_engine(self):
        assert HostKernel(epc_pages=64).fastpath == TIER_COLUMNAR
        kernel = HostKernel(epc_pages=64, fastpath=None)
        assert kernel.fastpath == TIER_COLUMNAR
        assert kernel.cpu.columnar is not None
