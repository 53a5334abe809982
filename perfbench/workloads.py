"""The four benchmark workloads, driven through the shipped public APIs.

Each workload has the same shape, which ``run.py`` drives:

* ``setup(seed)`` — everything before the measured phase (boot, load,
  input generation, warm-up).  ``run.py`` repeats it and keeps the last.
* ``check()`` — fixed work whose outputs are compared with recorded
  references; returns ``(ops, failed_ops)``.  It also collects the
  simulated metrics, which depend on the seed only.
* ``units()`` / ``run_unit(unit, cal)`` — one round of measured work,
  repeated until the run's time is up; ``cal`` (or ``None``) is the
  :class:`measure.Calibrator` to sample inside long units.  ``run_unit`` returns
  ``(ops, failed_ops)``; every execution of a unit is checked.
* ``kernel_counters()`` — monotonic TLB/MMU/epoch totals, for the
  traced run's per-op figures.

All four run in one process, single-threaded, at ``jobs=1``.
"""

from __future__ import annotations

import json
import os
import random
import sys

from repro.apps.memcached import Memcached
from repro.core.config import SystemConfig
from repro.core.system import AutarkySystem
from repro.modelcheck import explorer
from repro.runtime.rate_limit import ProgressKind
from repro.service.metrics import (
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    OUTCOME_DEGRADED,
    OUTCOME_SHED,
    LatencyWindow,
    ServiceMetrics,
)
from repro.service.router import EnclaveService
from repro.service.sweep import SWEEP_POLICIES, pool_sweep_config
from repro.sgx.params import PAGE_SIZE
from repro.workloads.ycsb import make_generator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")

#: Input variants per workload: ``--seed`` selects variant
#: ``seed % VARIANTS``, and references are recorded for every variant.
VARIANTS = 16

def load_references():
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def kernel_counters(kernel):
    return {
        "tlb_hits": kernel.tlb.hits,
        "mmu_walks": kernel.mmu.walks,
        "epoch": kernel.epoch.value,
    }


def _add(total, counters, sign=1):
    for name, value in counters.items():
        total[name] = total.get(name, 0) + sign * value


class SimTally:
    """Simulated (deterministic) figures of a workload's checked work."""

    def __init__(self):
        self.ops = 0
        self.cycles = 0
        self.categories = {}
        self.latencies = []
        self.shed = 0
        self.admitted = 0
        self.queue_waits = []

    def add_clock(self, cycles, categories):
        self.cycles += cycles
        _add(self.categories, categories)


def category_delta(before, after):
    return {cat: after.get(cat, 0) - before.get(cat, 0)
            for cat in set(before) | set(after)
            if after.get(cat, 0) != before.get(cat, 0)}


# -- kv_resident / kv_paging ------------------------------------------------

class KvWorkload:
    """Memcached (``repro.apps.memcached``) under YCSB, one closed-loop
    client: each request starts when the previous one completes.

    The store uses the paper's 10-page cluster policy (the slab change of
    §7.3).  One pass replays the seed's request list: GET runs are served
    through ``Memcached.serve`` and each SET is a progress event plus
    ``Memcached.set``.  ``check`` replays the list once request by
    request (simulated latencies) and once as the measured passes do, then
    compares the end-of-pass fingerprint with the tier-``off`` reference.
    """

    ITEM_SIZE = 1024

    def __init__(self, name, data_mib, budget_pages, distribution,
                 set_fraction, pass_requests, unit_requests):
        self.name = name
        self.data_bytes = data_mib << 20
        self.budget_pages = budget_pages
        self.distribution = distribution
        self.set_fraction = set_fraction
        self.pass_requests = pass_requests
        #: Requests per measured unit: a pass is timed in slices of this
        #: size, so a slow pass yields several samples, not one.
        self.unit_requests = unit_requests
        self.sim = SimTally()

    # -- inputs --------------------------------------------------------

    def make_inputs(self, seed):
        """The request list: ``(is_set, key)`` pairs from ``seed``."""
        rng = random.Random(seed % VARIANTS)
        n_keys = self.data_bytes // self.ITEM_SIZE
        keys = make_generator(self.distribution, n_keys,
                              rng=rng).keys(self.pass_requests)
        return [(rng.random() < self.set_fraction, key) for key in keys]

    @staticmethod
    def segments(ops):
        """Consecutive GETs grouped into runs for ``Memcached.serve``."""
        out = []
        run = []
        for is_set, key in ops:
            if is_set:
                if run:
                    out.append((False, run))
                    run = []
                out.append((True, key))
            else:
                run.append(key)
        if run:
            out.append((False, run))
        return out

    def slices(self):
        """The request list cut into measured units: ``(plan, gets,
        sets)`` per slice of ``unit_requests`` requests."""
        out = []
        for start in range(0, len(self.ops), self.unit_requests):
            ops = self.ops[start:start + self.unit_requests]
            sets = sum(1 for is_set, _ in ops if is_set)
            out.append((self.segments(ops), len(ops) - sets, sets))
        return out

    # -- phases --------------------------------------------------------

    def setup(self, seed, fastpath=None):
        # Drop the previous system first, so a repeated set-up never
        # holds two stores at once.
        self.system = self.engine = self.server = None
        self.variant = seed % VARIANTS
        self.ops = self.make_inputs(seed)
        self.units_plan = self.slices()
        budget = self.budget_pages
        self.system = AutarkySystem(SystemConfig.for_policy(
            "clusters", cluster_pages=10,
            epc_pages=budget + 4_096,
            quota_pages=budget + 1_024,
            enclave_managed_budget=budget,
            heap_pages=self.data_bytes // PAGE_SIZE * 2 + 512,
            code_pages=32, data_pages=32, runtime_pages=8,
            fastpath=fastpath,
        ))
        self.engine = self.system.engine()
        heap = self.system.heap_start()
        self.server = Memcached(self.engine, heap, self.data_bytes,
                                item_size=self.ITEM_SIZE)
        # The slab-allocation change: item and index pages flow through
        # the clustering allocator in allocation order.
        self.system.runtime.allocator.alloc_pages(self.server.total_pages)
        # Load phase: every page written once after an allocation event.
        for page in range(self.server.total_pages):
            self.engine.progress(ProgressKind.ALLOCATION)
            self.engine.data_access(heap + page * PAGE_SIZE, write=True)
        self._pass()

    def _pass(self):
        for plan, _gets, _sets in self.units_plan:
            self._serve(plan)

    def _serve(self, plan):
        server = self.server
        engine = self.engine
        for is_set, item in plan:
            if is_set:
                engine.progress(ProgressKind.IO)
                server.set(item)
            else:
                server.serve(item)

    def fingerprint(self):
        kernel = self.system.kernel
        pager = self.system.runtime.pager
        return {
            "cycles": kernel.clock.cycles,
            "by_category": {cat: cycles for cat, cycles
                            in sorted(kernel.clock.by_category.items())
                            if cycles},
            "faults": kernel.cpu.fault_count,
            "tlb_hits": kernel.tlb.hits,
            "mmu_walks": kernel.mmu.walks,
            "fetches": pager.fetches,
            "evictions": pager.evictions,
            "gets": self.server.gets,
            "sets": self.server.sets,
        }

    def check(self):
        """The checked work; its fingerprint must equal the tier-``off``
        reference recorded for this input variant."""
        reference = load_references()[self.name][str(self.variant)]
        ops = 2 * len(self.ops)
        return ops, 0 if self.checked_fingerprint() == reference else ops

    def checked_fingerprint(self):
        """Latency pass (request by request, simulated latencies), then
        one measured-style pass; returns the fingerprint after both."""
        clock = self.system.kernel.clock
        engine, server = self.engine, self.server
        sim = self.sim = SimTally()
        cycles0 = clock.cycles
        categories0 = dict(clock.by_category)
        for is_set, key in self.ops:
            start = clock.cycles
            if is_set:
                engine.progress(ProgressKind.IO)
                server.set(key)
            else:
                server.serve((key,))
            sim.latencies.append(clock.cycles - start)
        sim.ops = len(self.ops)
        sim.add_clock(clock.cycles - cycles0,
                      category_delta(categories0, clock.by_category))
        self._pass()
        self.last_fingerprint = self.fingerprint()
        return self.last_fingerprint

    def units(self):
        return list(range(len(self.units_plan)))

    def run_unit(self, unit, cal):
        plan, gets, sets = self.units_plan[unit]
        gets0, sets0 = self.server.gets, self.server.sets
        self._serve(plan)
        ok = (self.server.gets - gets0 == gets
              and self.server.sets - sets0 == sets)
        return gets + sets, 0 if ok else gets + sets

    def kernel_counters(self):
        return kernel_counters(self.system.kernel)

    def outputs(self):
        return self.last_fingerprint


# -- svc_pool -----------------------------------------------------------------

class SvcPoolWorkload:
    """``repro.service`` as ``serve --sweep --pool`` runs it: one point
    per service seed × policy, each a fresh four-tenant, two-replica
    fleet on a 448-page EPC driven for 20 ticks under the seed's fault
    plan.  An open loop in simulated time: tenants offer 2–3 arrivals
    per tick whatever the completions, plus burst faults.  One op is one
    submitted request; every point's digest is checked."""

    name = "svc_pool"
    #: 56 of 64 service seeds per run: fewer make the pooled figures
    #: swing with which seeds happen to carry stalls and tamper ladders.
    SEEDS_PER_RUN = 56
    SEED_SPACE = 64

    def __init__(self):
        self.sim = SimTally()
        self.totals = {}
        self._collect = False
        self._last_latency = None
        self._originals = None

    @classmethod
    def service_seeds(cls, seed):
        """The run's service seeds, drawn by the input variant."""
        return sorted(random.Random(seed % VARIANTS).sample(
            range(cls.SEED_SPACE), cls.SEEDS_PER_RUN))

    @staticmethod
    def committed_references():
        """``(seed, policy) -> digest`` from ``BENCH_service.json``'s
        pool frontier (seeds 0–5)."""
        bench = os.path.join(ROOT, "BENCH_service.json")
        with open(bench, encoding="utf-8") as handle:
            return {(point["seed"], point["policy"]): point["digest"]
                    for point in json.load(handle)["pool_frontier"]["points"]}

    def references(self):
        refs = self.committed_references()
        for key, digest in load_references()[self.name].items():
            seed, policy = key.split(":")
            refs.setdefault((int(seed), policy), digest)
        return refs

    def setup(self, seed):
        self.points = [(s, policy) for s in self.service_seeds(seed)
                       for policy in SWEEP_POLICIES]
        self.refs = self.references()
        self.ops_of = {}
        self.digests = {}
        self.sim = SimTally()
        self._observe()
        # Warm-up: the first seed's point under each policy.
        for point in self.points[:len(SWEEP_POLICIES)]:
            EnclaveService(pool_sweep_config(*point)).run()

    def _observe(self):
        """Observers on the service's own latency/outcome records (the
        sim metrics); they read, never change, what is recorded."""
        if self._originals is not None:
            return
        record_latency = LatencyWindow.record
        record_result = ServiceMetrics.record
        workload = self

        def latency(window, cycles):
            if workload._collect:
                workload.sim.latencies.append(cycles)
                workload._last_latency = cycles
            return record_latency(window, cycles)

        def result(metrics, request):
            if workload._collect and request.outcome in (
                    OUTCOME_COMPLETED, OUTCOME_DEGRADED):
                workload.sim.queue_waits.append(
                    workload._last_latency - request.cycles)
            return record_result(metrics, request)

        LatencyWindow.record = latency
        ServiceMetrics.record = result
        self._originals = (record_latency, record_result)

    def close(self):
        if self._originals is not None:
            LatencyWindow.record, ServiceMetrics.record = self._originals
            self._originals = None

    def check(self):
        return 0, 0

    def units(self):
        return self.points

    def run_unit(self, unit, cal):
        first = unit not in self.ops_of
        self._collect = first
        service = EnclaveService(pool_sweep_config(*unit))
        try:
            result = service.run()
        finally:
            self._collect = False
        counts = result.outcome_counts
        ops = sum(counts.values())
        _add(self.totals, kernel_counters(service.kernel))
        if first:
            self.ops_of[unit] = ops
            self.digests[unit] = result.digest
            sim = self.sim
            sim.ops += ops
            sim.add_clock(result.cycles, service.kernel.clock.by_category)
            sim.shed += counts[OUTCOME_SHED] + counts[OUTCOME_ABORTED]
            sim.admitted += service.metrics.admitted
        ok = (result.digest == self.refs.get(unit)
              and not result.violations)
        return ops, 0 if ok else ops

    def kernel_counters(self):
        return dict(self.totals)

    def outputs(self):
        return {f"{seed}:{policy}": digest
                for (seed, policy), digest in sorted(self.digests.items())}


# -- explore ------------------------------------------------------------------

class ExploreWorkload:
    """``repro.modelcheck.explorer.explore`` at depth 3 over every
    single-enclave world and the pool world: exhaustive, so the seed is
    ignored.  A closed loop; one op is one transition.

    Explore runs through a ``domain_for`` shim that resolves the domain
    functions at call time and observes ``successor``: each transition's
    simulated cycles (child clock minus parent clock) and kernel counter
    deltas.  The observer also takes the calibration samples inside a
    world's exploration, which can run for seconds."""

    name = "explore"
    WORLDS = ("pin_all", "clusters", "rate_limit", "rate_limit_sgx2",
              "oram", "pool")
    DEPTH = 3
    MAX_STATES = 400

    def __init__(self):
        self.sim = SimTally()
        self.totals = {}
        self.results = {}
        self._collect = False
        self._cal = None
        self._original_domain_for = None

    def setup(self, seed):
        self.refs = load_references()[self.name]
        self.sim = SimTally()
        self.results = {}
        self._install()
        # Warm-up: a depth-2 sweep of every world, so the first measured
        # exploration does not pay for cold code paths and heap growth.
        for world in self.WORLDS:
            explorer.explore(world, depth=self.DEPTH - 1,
                             max_states=self.MAX_STATES)

    def _install(self):
        if self._original_domain_for is not None:
            return
        original = explorer.domain_for
        self._original_domain_for = original
        observe = self._observe

        def domain_for(policy_name):
            live = tuple(
                getattr(sys.modules[fn.__module__], fn.__name__)
                for fn in original(policy_name)
            )
            boot, replay, enabled, successor, check = live
            return boot, replay, enabled, observe(successor), check

        explorer.domain_for = domain_for

    def _observe(self, successor):
        workload = self

        def observed(world, action):
            parent = world.kernel
            before = (parent.clock.cycles, dict(parent.clock.by_category),
                      kernel_counters(parent))
            child = successor(world, action)
            kernel = child.kernel
            _add(workload.totals, kernel_counters(kernel))
            _add(workload.totals, before[2], sign=-1)
            if workload._collect:
                cycles = kernel.clock.cycles - before[0]
                workload.sim.latencies.append(cycles)
                workload.sim.add_clock(
                    cycles, category_delta(before[1],
                                           kernel.clock.by_category))
            if workload._cal is not None:
                workload._cal.maybe_sample()
            return child
        return observed

    def close(self):
        if self._original_domain_for is not None:
            explorer.domain_for = self._original_domain_for
            self._original_domain_for = None

    def check(self):
        return 0, 0

    def units(self):
        return list(self.WORLDS)

    def run_unit(self, unit, cal):
        first = unit not in self.results
        self._collect = first
        self._cal = cal
        try:
            result = explorer.explore(unit, depth=self.DEPTH,
                                      max_states=self.MAX_STATES)
        finally:
            self._collect = False
            self._cal = None
        ref = self.refs[unit]
        if first:
            self.results[unit] = result
            self.sim.ops += result.transitions
        ok = (result.ok and not result.truncated
              and result.digest[:16] == ref["digest"]
              and result.states == ref["states"]
              and result.transitions == ref["transitions"])
        return result.transitions, 0 if ok else result.transitions

    def kernel_counters(self):
        return dict(self.totals)

    def outputs(self):
        return {world: result.digest[:16]
                for world, result in sorted(self.results.items())}


def make(name):
    if name == "kv_resident":
        # YCSB-B: 95% GET / 5% SET, zipfian(0.99); 16 MiB of 1 KiB items
        # (4,128 pages) fits the 6,000-page managed budget.
        return KvWorkload(name, data_mib=16, budget_pages=6_000,
                          distribution="zipf", set_fraction=0.05,
                          pass_requests=20_000, unit_requests=20_000)
    if name == "kv_paging":
        # YCSB-C: 100% GET, uniform; 50 MiB (12,900 pages) is 2.1x the
        # 6,080-page budget, Figure 8's leftmost column at 1/8 scale.
        return KvWorkload(name, data_mib=50, budget_pages=6_080,
                          distribution="uniform", set_fraction=0.0,
                          pass_requests=2_000, unit_requests=500)
    if name == "svc_pool":
        return SvcPoolWorkload()
    if name == "explore":
        return ExploreWorkload()
    raise ValueError(f"unknown workload {name!r}")
