"""Windowed ``Memcached.serve`` is the per-request loop, observably.

``serve`` hands its key stream to the engine's ``serve_window``, which
on the columnar tier settles each run of *settled hits* (a planned
trace whose read run is stamped with the current epoch, on a live
enclave) in one bulk step.  The reference semantics is the per-request
loop ``for key in keys: engine.progress(kind); server.get(key)``.

Hypothesis generates programs of GET windows (hot, cold and
out-of-range keys) with SETs and host actions between them (TLB
flushes, balloon requests, an unmap of a resident page, a store page
mapped read-only, killing the enclave), and runs each on twin systems:
one serves every window through ``serve`` and every SET through
``Memcached.set``, the other through the reference loop and the
per-page write path a SET is specified by (:func:`reference_set`).
After every step the exception raised, if any, and every observable of
the contract must agree: clock cycles per category, TLB hits, MMU
walks, the fault log (with the cycle of each fault), pager fetches and
evictions, ``gets`` and ``sets``, the rate limiter's counters, journal
records and whether the enclave is alive.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.memcached import Memcached
from repro.core.config import SystemConfig
from repro.core.system import AutarkySystem
from repro.errors import EnclaveCrashed
from repro.recovery.manager import RecoveryManager
from repro.runtime.rate_limit import ProgressKind, RateLimiter
from repro.sgx.columnar import TIER_COLUMNAR, TIERS
from repro.sgx.params import PAGE_SHIFT, PAGE_SIZE

POLICIES = ("baseline", "clusters", "rate_limit")

#: 128 KiB of 1 KiB items: 32 item pages and one index page.
DATA_BYTES = 128 * 1024
N_KEYS = DATA_BYTES // 1024
HOT_KEYS = tuple(range(8))
BAD_KEYS = (N_KEYS, N_KEYS + 71, -1)
#: (managed budget, quota): the whole store fits, or it pages.
BUDGETS = {"resident": (96, 128), "paging": (18, 24)}


def boot(policy, tier, budget):
    """A small system with a loaded store (every page written once,
    each after an allocation progress event) whose hot keys were
    served twice, request by request: their traces are planned and, on
    the columnar tier, compiled."""
    managed, quota = BUDGETS[budget]
    system = AutarkySystem(SystemConfig.for_policy(
        policy, cluster_pages=2, max_faults_per_progress=1,
        grace_faults=64, epc_pages=256, quota_pages=quota,
        enclave_managed_budget=managed, runtime_pages=2, code_pages=2,
        data_pages=2, heap_pages=64, fastpath=tier,
    ))
    engine = system.engine()
    server = Memcached(engine, system.heap_start(), DATA_BYTES)
    if policy == "clusters":
        system.runtime.allocator.alloc_pages(server.total_pages)
    heap = system.heap_start()
    for page in range(server.total_pages):
        engine.progress(ProgressKind.ALLOCATION)
        engine.data_access(heap + page * PAGE_SIZE, write=True)
    reference_serve(engine, server, HOT_KEYS * 2)
    return system, engine, server


def reference_serve(engine, server, keys, kind=ProgressKind.IO):
    """The reference semantics of ``Memcached.serve``."""
    for key in keys:
        engine.progress(kind)
        server.get(key)


def reference_set(engine, server, keys):
    """The reference semantics of a burst of SET requests: for each
    key a progress event, then the range check, a request charge, a
    write of the index page and of the item page, one access each, and
    the copy charge."""
    for key in keys:
        engine.progress(ProgressKind.IO)
        if not 0 <= key < server.n_keys:
            raise KeyError(key)
        server.sets += 1
        engine.compute(server.REQUEST_COMPUTE)
        engine.data_access(server.index_page(key), write=True)
        engine.data_access(server.item_page(key), write=True)
        engine.compute(server.ITEM_COMPUTE)


def observables(system, server, manager=None):
    kernel = system.kernel
    pager = system.runtime.pager
    limiter = getattr(system.policy, "limiter", None)
    return {
        "cycles": kernel.clock.cycles,
        "by_category": {cat: n for cat, n
                        in kernel.clock.by_category.items() if n},
        "tlb_hits": kernel.tlb.hits,
        "walks": kernel.mmu.walks,
        "fault_count": kernel.cpu.fault_count,
        "fault_log": [(f.cycles, f.vaddr, f.write, f.exec_, f.present)
                      for f in kernel.fault_log],
        "fetches": pager.fetches,
        "evictions": pager.evictions,
        "gets": server.gets,
        "sets": server.sets,
        "limiter": None if limiter is None else (
            limiter.progress_events, limiter.window_faults,
            limiter.total_faults, limiter.tripped,
        ),
        "journal": None if manager is None else [
            (blob.kind, blob.payload) for blob in manager.journal.records
        ],
        "dead": system.enclave.dead,
    }


def outcome(fn, *args):
    """What ``fn(*args)`` raised, with the process-global enclave id
    (which differs between twins) taken out of the message."""
    try:
        fn(*args)
    except Exception as exc:  # the twins must raise alike
        return type(exc).__name__, re.sub(r"enclave \d+", "enclave #",
                                          str(exc))
    return None


def windowed_serve(engine, server, keys):
    server.serve(keys)


def windowed_set(engine, server, keys):
    for key in keys:
        engine.progress(ProgressKind.IO)
        server.set(key)


#: Request steps: name -> (the windowed twin's way, the reference's).
REQUESTS = {
    "get": (windowed_serve, reference_serve),
    "set": (windowed_set, reference_set),
}


class Twins:
    """Two identical systems: ``windowed`` serves through
    ``Memcached.serve`` and ``Memcached.set``, ``reference`` through
    the per-request loop and :func:`reference_set`.  Counts what the
    windowed twin served in bulk and request by request, and how its
    SETs that returned were served: settled (the write run's stamp
    held), compiled, or replayed access by access."""

    def __init__(self, policy, tier, budget):
        self.windowed = boot(policy, tier, budget)
        self.reference = boot(policy, tier, budget)
        self.tally = Counter()
        system, engine, server = self.windowed
        window = engine.serve_window
        get = server.get
        set_ = server.set
        writes = server._write_cache
        epoch = system.kernel.epoch

        def counted_set(key):
            trace = writes.get(key)
            settled = (trace is not None and not system.enclave.dead
                       and trace[0].stamp == epoch.value)
            set_(key)
            if settled:
                self.tally["set_settled"] += 1
            elif writes[key][0].stamp == epoch.value:
                self.tally["set_compiled"] += 1
            else:
                self.tally["set_sequential"] += 1

        def counted_window(keys, traces, request_cycles, kind):
            served, key = window(keys, traces, request_cycles, kind)
            self.tally["bulk"] += served
            self.tally["windows"] += served > 0
            return served, key

        def counted_get(key):
            self.tally["per_request"] += 1
            return get(key)

        engine.serve_window = counted_window
        server.get = counted_get
        server.set = counted_set

    def step(self, action):
        name = action[0]
        results = []
        for role, (system, engine, server) in (
                ("windowed", self.windowed),
                ("reference", self.reference)):
            if name in REQUESTS:
                serve = REQUESTS[name][role == "reference"]
                result = outcome(serve, engine, server, action[1])
            else:
                result = outcome(HOST_ACTIONS[name], system, engine,
                                 server, *action[1:])
            results.append((result, observables(system, server)))
        assert results[0] == results[1], f"twins diverge after {action}"


def _flush(system, engine, server):
    system.kernel.tlb.flush()


def _balloon(system, engine, server, pages):
    system.kernel.request_memory_reduction(system.enclave, pages)


def _unmap(system, engine, server):
    """Drop the PTE of the lowest resident store page (the
    controlled-channel probe)."""
    first = system.heap_start() >> PAGE_SHIFT
    resident = [vpn for vpn in system.kernel.page_table.mapped_vpns()
                if first <= vpn < first + server.total_pages]
    if resident:
        system.kernel.page_table.drop(min(resident) << PAGE_SHIFT)


def _protect(system, engine, server, key):
    """Map the item page of ``key`` read-only if it is mapped, then GET
    ``key``: the GET re-walks the page for a read, which leaves a
    read-only TLB entry that a SET to the page must not hit."""
    vaddr = server.item_page(key)
    if vaddr >> PAGE_SHIFT in system.kernel.page_table.mapped_vpns():
        system.kernel.page_table.set_protection(vaddr, writable=False)
    engine.progress(ProgressKind.IO)
    server.get(key)


def _kill(system, engine, server):
    system.enclave.dead = True


HOST_ACTIONS = {
    "flush": _flush, "balloon": _balloon, "unmap": _unmap,
    "protect": _protect, "kill": _kill,
}


#: Where a drawn key comes from: mostly hot, some cold, a few outside
#: the store (a bad key ends its ``serve`` call with ``KeyError``).
KEY_SOURCES = ("hot",) * 67 + ("cold",) * 31 + ("bad",) * 2


@st.composite
def keys(draw):
    source = draw(st.sampled_from(KEY_SOURCES))
    if source == "bad":
        return draw(st.sampled_from(BAD_KEYS))
    if source == "hot":
        return draw(st.sampled_from(HOT_KEYS))
    return draw(st.integers(0, N_KEYS - 1))


STEP_KINDS = (("get",) * 11 + ("set",) * 4 + ("flush",) * 2
              + ("balloon",) * 2 + ("unmap",) + ("protect",) * 2
              + ("kill",) * 2)


@st.composite
def steps(draw):
    """Mostly GET windows; unmap and kill usually end a run (the
    enclave dies), so they are rare."""
    kind = draw(st.sampled_from(STEP_KINDS))
    if kind == "get":
        return ("get", draw(st.lists(keys(), min_size=1, max_size=24)))
    if kind == "set":
        return ("set", draw(st.lists(keys(), min_size=1, max_size=4)))
    if kind == "protect":
        return ("protect", draw(st.sampled_from(HOT_KEYS)))
    if kind == "balloon":
        return ("balloon", draw(st.integers(1, 4)))
    return (kind,)


#: A window of hot keys, settled hits right after ``boot``.
HOT = ("get", [0, 1, 2, 3, 0, 1])


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("policy", POLICIES)
def test_windowed_serve_matches_reference_loop(policy, tier):
    tally = Counter()

    # Derandomized, so the tally assertions below see the same
    # examples on every run.
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(budget=st.sampled_from(sorted(BUDGETS)),
           program=st.lists(steps(), min_size=2, max_size=10),
           generated=st.just(True))
    @example(budget="resident", program=[HOT, HOT, ("kill",), HOT],
             generated=False)
    @example(budget="resident", program=[HOT, ("flush",), HOT, HOT],
             generated=False)
    @example(budget="resident", program=[HOT, ("set", [2]), HOT],
             generated=False)
    @example(budget="paging", program=[HOT, HOT, ("unmap",), HOT],
             generated=False)
    # SETs: a settled one, one to a page a GET just re-walked
    # read-only, an out-of-range key twice, one on a dead enclave.
    @example(budget="resident",
             program=[HOT, ("set", [1, 1]), ("protect", 0), ("set", [2]),
                      HOT],
             generated=False)
    @example(budget="resident",
             program=[HOT, ("set", [N_KEYS]), ("set", [N_KEYS]),
                      ("set", [3]), ("kill",), ("set", [3])],
             generated=False)
    def check(budget, program, generated):
        twins = Twins(policy, tier, budget)
        for action in program:
            twins.step(action)
        if generated:
            tally.update(twins.tally)

    check()
    # The generated examples, not only the explicit ones, must take
    # both paths, and every path of a SET.
    assert tally["per_request"] > 0 and tally["set_sequential"] > 0
    if tier == TIER_COLUMNAR:
        assert tally["bulk"] > 0 and tally["windows"] > 0
        assert tally["set_settled"] > 0 and tally["set_compiled"] > 0
    else:
        # Off the columnar tier the window serves nothing in bulk, and
        # no SET is settled by a stamp or compiled.
        assert tally["bulk"] == 0
        assert tally["set_settled"] == tally["set_compiled"] == 0


def test_oram_engine_serves_nothing_in_bulk():
    config = SystemConfig.for_policy(
        "oram", oram_tree_pages=64, oram_cache_pages=16, epc_pages=512,
        quota_pages=256, enclave_managed_budget=128, runtime_pages=2,
        code_pages=2, data_pages=2, heap_pages=64, fastpath=TIER_COLUMNAR,
    )
    stream = [0, 1, 0, 1, 2, 0, 1, 2]
    twins = []
    for _ in range(2):
        system = AutarkySystem(config)
        engine = system.engine()
        twins.append((system, engine,
                      Memcached(engine, system.heap_start(), DATA_BYTES)))
    (system_a, engine_a, server_a), (system_b, engine_b, server_b) = twins
    served, _ = engine_a.serve_window(iter(stream), {}, 0, ProgressKind.IO)
    assert served == 0
    for _ in range(2):
        server_a.serve(stream)
        reference_serve(engine_b, server_b, stream)
    assert (observables(system_a, server_a)
            == observables(system_b, server_b))


@pytest.mark.parametrize("cache_pages", (16, 0))
def test_oram_set_is_the_per_address_writes(cache_pages):
    """On ``OramEngine`` a SET is the index-page and item-page ORAM
    writes, in that order, between its two compute charges, with or
    without the ORAM page cache."""
    config = SystemConfig.for_policy(
        "oram", oram_tree_pages=64, oram_cache_pages=cache_pages,
        epc_pages=512, quota_pages=256, enclave_managed_budget=128,
        runtime_pages=2, code_pages=2, data_pages=2, heap_pages=64,
        fastpath=TIER_COLUMNAR,
    )
    twins = []
    for _ in range(2):
        system = AutarkySystem(config)
        engine = system.engine()
        server = Memcached(engine, system.heap_start(), DATA_BYTES)
        log = []
        access = system.policy.access

        def recorded(vaddr, data=None, write=False, access=access, log=log):
            log.append((vaddr, write))
            return access(vaddr, data=data, write=write)

        system.policy.access = recorded
        twins.append((system, engine, server, log))
    (system_a, engine_a, server_a, log_a), (system_b, engine_b, server_b,
                                            log_b) = twins
    for key in (0, 5, 0, 70, 5, N_KEYS - 1, 0, N_KEYS):
        assert (outcome(windowed_set, engine_a, server_a, [key])
                == outcome(reference_set, engine_b, server_b, [key]))
        assert (outcome(server_a.get, key) == outcome(server_b.get, key))
        assert (observables(system_a, server_a)
                == observables(system_b, server_b))
    assert log_a == log_b
    assert log_a[:3] == [(server_a.index_page(0), True),
                         (server_a.item_page(0), True),
                         (server_a.index_page(0), False)]
    assert server_a.sets == 7
    assert (system_a.policy.instrumented_accesses
            == system_b.policy.instrumented_accesses)


@pytest.mark.parametrize("policy", ("clusters", "rate_limit"))
@pytest.mark.parametrize("crash_at", (1, 4, 9))
def test_crash_after_inside_a_window(policy, crash_at):
    """A recovery manager journals each progress event, and a crash at
    a journal position inside a run of hot GETs must leave exactly the
    requests before it served — so the window does not fold them."""
    twins = []
    for _ in range(2):
        system, engine, server = boot(policy, TIER_COLUMNAR, "resident")
        manager = RecoveryManager(system.runtime)
        manager.begin()
        twins.append((system, engine, server, manager))
    stream = [0, 1, 2, 3] * 3
    gets = []
    for role, (system, engine, server, manager) in zip(
            ("windowed", "reference"), twins):
        manager.crash_after = len(manager.journal) + crash_at
        gets.append(server.gets)
        serve = (server.serve if role == "windowed" else
                 lambda keys, e=engine, s=server: reference_serve(e, s, keys))
        with pytest.raises(EnclaveCrashed):
            serve(stream)
    (system_a, _, server_a, manager_a), (system_b, _, server_b,
                                         manager_b) = twins
    assert server_b.gets - gets[1] == crash_at - 1
    assert (observables(system_a, server_a, manager_a)
            == observables(system_b, server_b, manager_b))


def test_window_settles_hits_in_bulk_without_a_manager():
    """The twin of the crash case with no manager attached: the same
    stream settles in bulk, as one counted progress event."""
    system, engine, server = boot("rate_limit", TIER_COLUMNAR, "resident")
    events = system.policy.limiter.progress_events
    served, key = engine.serve_window(
        iter([0, 1, 2, 3, 0, 1, 99]), server._trace_cache,
        server.REQUEST_COMPUTE, ProgressKind.IO,
    )
    assert (served, key) == (6, 99)
    assert system.policy.limiter.progress_events == events + 6


KINDS = st.sampled_from(tuple(ProgressKind))


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.one_of(st.none(), st.sets(KINDS, min_size=1)),
    events=st.lists(st.one_of(
        st.tuples(st.just("progress"), KINDS, st.integers(1, 6)),
        st.tuples(st.just("fault")),
    ), max_size=30),
)
def test_counted_progress_equals_single_events(kinds, events):
    counted = RateLimiter(2, grace_faults=5, kinds=kinds)
    single = RateLimiter(2, grace_faults=5, kinds=kinds)
    for event in events:
        if event[0] == "fault":
            assert outcome(counted.note_fault) == outcome(single.note_fault)
            continue
        _, kind, count = event
        counted.note_progress(kind, count)
        for _ in range(count):
            single.note_progress(kind)
        assert vars(counted) == vars(single)
    assert vars(counted) == vars(single)


def single_events(runtime, count):
    for _ in range(count):
        runtime.progress(ProgressKind.SYSCALL)


@pytest.mark.parametrize("attach_manager,crash_at",
                         ((False, None), (True, None), (True, 3)))
def test_runtime_counted_progress_equals_single_events(attach_manager,
                                                        crash_at):
    """``GrapheneRuntime.progress(kind, count)`` is ``count`` single
    events: journal records included when a manager is attached, and a
    crash at the third record stops both at the same event."""
    twins = []
    for _ in range(2):
        system, _engine, server = boot("rate_limit", TIER_COLUMNAR,
                                       "resident")
        manager = None
        if attach_manager:
            manager = RecoveryManager(system.runtime)
            manager.begin()
            if crash_at is not None:
                manager.crash_after = len(manager.journal) + crash_at
        twins.append((system, server, manager))
    (system_a, server_a, manager_a), (system_b, server_b, manager_b) = twins
    assert (outcome(system_a.runtime.progress, ProgressKind.SYSCALL, 5)
            == outcome(single_events, system_b.runtime, 5))
    assert (observables(system_a, server_a, manager_a)
            == observables(system_b, server_b, manager_b))
