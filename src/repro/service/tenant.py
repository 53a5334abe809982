"""Tenants: per-client enclaves multiplexed over one shared EPC.

Each tenant is one paying client of the service: its own enclave (own
layout base, own paging policy, own quota), its own YCSB-style key
distribution, and its own admission state (token bucket, paging
budget, circuit breaker).  All tenants' enclaves live on the *same*
:class:`~repro.host.kernel.HostKernel` and contend for the same EPC —
the regime the paper never measured and the one where the robustness
machinery earns its keep.

Tenants are launched and restored through
:class:`~repro.recovery.supervisor.RecoverySupervisor`, so an aborted
tenant goes through the full bounded-restart / verified-replay /
quarantine pipeline rather than being silently relaunched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.config import SMALL_POLICIES, small_config
from repro.core.system import EnclaveProgram, HeapWarmup
from repro.runtime.rate_limit import ProgressKind
from repro.service.admission import TokenBucket
from repro.service.breaker import CircuitBreaker
from repro.service.metrics import LatencyWindow
from repro.sgx.params import PAGE_SIZE
from repro.workloads.ycsb import make_generator

#: Address-space stride between tenant enclaves (distinct bases, the
#: multi-enclave idiom from experiments/multi_enclave.py).
BASE_STRIDE = 0x10_0000_0000

#: Hard ceiling on pool width; fixes the replica address-space grid so
#: a tenant's replica bases never collide with another tenant's,
#: whatever mix of pool sizes a config chooses.
MAX_REPLICAS = 4

#: Heap pages each tenant's workload churns over.  Larger than any
#: tenant's resident budget, so every tenant pages under load.
POOL_PAGES = 96

#: Pages a pin_all tenant preloads and seals (its whole working set —
#: pinned tenants do not page after seal and are never balloon-shrunk).
PINNED_POOL_PAGES = 40

#: Floor for balloon-shrunk resident budgets: below this a tenant
#: cannot hold its pinned runtime region and shrinking becomes an
#: attack, not a negotiation.
BUDGET_FLOOR = 24


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant."""

    name: str
    policy: str = "rate_limit"          # one of SMALL_POLICIES
    distribution: str = "uniform"       # YCSB generator name
    #: Requests this tenant submits per router tick (its offered load).
    arrivals_per_tick: int = 2
    #: Ops per request (key accesses against the tenant's pool).
    ops_per_request: int = 8
    #: Per-enclave EPC quota; the sum across tenants may exceed the
    #: shared EPC (that over-commit is the point).
    quota_pages: int = 128
    #: Token-bucket admission: burst capacity and refill period.
    bucket_capacity: int = 8
    cycles_per_token: int = 40_000
    #: Paging budget: fetch allowance and regeneration period.
    paging_capacity: int = 256
    cycles_per_page: int = 2_000
    #: Deadline per request, charged in simulated cycles.
    deadline_cycles: int = 60_000_000
    #: Breaker trip threshold (consecutive structured aborts).
    breaker_trip_after: int = 2
    #: Pool width: replica enclaves booted for this tenant.  Requests
    #: run on the elected primary and fail over to siblings when it is
    #: down, suspended, or quarantined.
    replicas: int = 1
    #: SLO: p95 latency target on the simulated clock.  A tenant whose
    #: sliding-window p95 exceeds this sheds its own new arrivals
    #: (structured, ``slo-pressure``) before healthy tenants degrade.
    slo_p95_cycles: int = 50_000_000
    #: Latency samples required before the SLO check can fire (a cold
    #: window must not shed the first requests of the run).
    slo_min_samples: int = 8
    #: Sliding-window size for the latency percentiles.
    slo_window: int = 32

    def __post_init__(self):
        if self.policy not in SMALL_POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if not 1 <= self.replicas <= MAX_REPLICAS:
            raise ValueError(
                f"pool width must be 1..{MAX_REPLICAS}, "
                f"got {self.replicas}"
            )

    @property
    def pinned(self):
        """pin_all tenants hold sealed working sets: never balloon-
        shrunk (tier 1) and never evicted (tier 2 rejects instead)."""
        return self.policy == "pin_all"


@dataclass(frozen=True)
class Request:
    """One admitted unit of work."""

    tenant: str
    request_id: int
    keys: tuple                  # pool indices to touch, in order
    writes: tuple                # parallel write flags
    issued_cycles: int
    deadline_cycles: int         # absolute simulated-cycle deadline
    #: Extra compute charged per op while the tenant is stalled
    #: (TENANT_STALL fault) — drives the request into its deadline.
    stall_cycles: int = 0
    #: ``(replica_index, vaddr)`` the first op must touch
    #: (TENANT_TAMPER probe), or None.  Replica-scoped because the
    #: vaddr only exists in the forged replica's address space.
    probe_vaddr: Optional[tuple] = None

    def __init__(self, tenant, request_id, keys, writes, issued_cycles,
                 deadline_cycles, stall_cycles=0, probe_vaddr=None):
        # One per request: see repro.sgx.crypto.SealedPage.__init__.
        self.__dict__.update(
            tenant=tenant, request_id=request_id, keys=keys,
            writes=writes, issued_cycles=issued_cycles,
            deadline_cycles=deadline_cycles, stall_cycles=stall_cycles,
            probe_vaddr=probe_vaddr)


class Tenant:
    """Runtime state of one tenant inside the service."""

    def __init__(self, spec, index, service_seed):
        self.spec = spec
        self.index = index
        self.pool_pages = (
            PINNED_POOL_PAGES if spec.pinned else POOL_PAGES
        )
        # Workload randomness: one stream per tenant, decoupled from
        # every other tenant and from the fault plan.
        self._rng = random.Random(
            (service_seed << 16) ^ (index * 0x9E37) ^ 0x5E21
        )
        self._generator = make_generator(
            spec.distribution, self.pool_pages, rng=self._rng
        )
        self.bucket = TokenBucket(
            capacity=spec.bucket_capacity,
            cycles_per_token=spec.cycles_per_token,
        )
        self.paging = TokenBucket(
            capacity=spec.paging_capacity,
            cycles_per_token=spec.cycles_per_page,
        )
        self.breaker = CircuitBreaker(trip_after=spec.breaker_trip_after)
        self.latency = LatencyWindow(capacity=spec.slo_window)
        # Fault-plan state (set by the service chaos layer).
        self.burst_until_tick = -1
        self.burst_factor = 1
        self.stall_until_tick = -1
        self.stall_cycles = 0
        #: Pending integrity probe: ``(replica_index, vaddr)``.  The
        #: vaddr lives in one replica's address space; a request that
        #: fails over to a sibling must *skip* the probe (and the
        #: router re-arms it) rather than touch a foreign address.
        self.pending_probe = None
        #: Retired mid-run (live churn): no new arrivals, no faults.
        self.departed = False
        # Degradation bookkeeping (tier-1 balloon shrink, restorable).
        self.shrunk_pages = 0
        # Lifetime counters.
        self.requests_issued = 0
        self.ops_executed = 0
        self.aborts = 0
        self.recoveries = 0

    # -- launch ------------------------------------------------------------

    def base(self, replica=0):
        """Base address of one replica.  Replicas occupy a fixed grid
        of ``MAX_REPLICAS`` slots per tenant so a request address
        unambiguously names ``(tenant, replica)``."""
        return BASE_STRIDE * (self.index * MAX_REPLICAS + replica + 1)

    def replica_name(self, replica):
        return f"{self.spec.name}/r{replica}"

    def program(self, epc_pages, replica=0):
        """The relaunchable recipe the recovery supervisor drives for
        one replica.  All replicas share the tenant's config and
        warmup, so any replica can serve any request verbatim."""
        return EnclaveProgram(
            config=small_config(
                self.spec.policy, epc_pages, self.spec.quota_pages
            ),
            base=self.base(replica),
            warmup=HeapWarmup(self.spec.policy, self.pool_pages),
            name=self.replica_name(replica),
        )

    def pool(self, runtime):
        """The heap addresses requests touch (index ↔ vaddr)."""
        heap = runtime.regions["heap"]
        return [
            heap.start + i * PAGE_SIZE for i in range(self.pool_pages)
        ]

    # -- request generation ------------------------------------------------

    def arrivals(self, tick):
        """How many requests this tenant offers this tick."""
        n = self.spec.arrivals_per_tick
        if tick <= self.burst_until_tick:
            n *= self.burst_factor
        return n

    def make_request(self, now_cycles, tick):
        """Draw the next deterministic request from the tenant's
        generator stream."""
        spec = self.spec
        next_key = self._generator.next
        draw = self._rng.random
        keys = tuple([next_key() for _ in range(spec.ops_per_request)])
        writes = tuple([draw() < 0.25 for _ in range(spec.ops_per_request)])
        stall = self.stall_cycles if tick <= self.stall_until_tick else 0
        self.requests_issued += 1
        return Request(
            tenant=spec.name,
            request_id=self.requests_issued,
            keys=keys,
            writes=writes,
            issued_cycles=now_cycles,
            deadline_cycles=now_cycles + spec.deadline_cycles,
            stall_cycles=stall,
        )

    # -- execution helper --------------------------------------------------

    def progress_if_due(self, engine):
        """rate_limit tenants must report real progress or their own
        limiter kills them; every tenant reports uniformly so policies
        see identical op streams."""
        if self.ops_executed % 8 == 7:
            engine.progress(ProgressKind.SYSCALL)

    # -- observability -----------------------------------------------------

    def canonical(self):
        """Deterministic per-tenant tuple for run digests (never
        includes enclave ids — those are ambient across reruns)."""
        return (
            self.spec.name,
            self.spec.policy,
            self.requests_issued,
            self.ops_executed,
            self.aborts,
            self.recoveries,
            self.shrunk_pages,
            self.breaker.snapshot(),
            self.latency.snapshot(),
        )


def default_tenants(n, policies=("rate_limit", "clusters", "pin_all"),
                    replicas=1):
    """A deterministic fleet of ``n`` tenants: ``policies`` (the three
    paper policies by default) round-robin across them, with varied
    distributions and loads."""
    distributions = ("zipf", "uniform", "hotspot90", "hotspot99")
    return [
        TenantSpec(
            name=f"tenant-{i}",
            policy=policies[i % len(policies)],
            distribution=distributions[i % len(distributions)],
            arrivals_per_tick=2 + (i % 2),
            quota_pages=128,
            replicas=replicas,
        )
        for i in range(n)
    ]
