"""The multi-tenant enclave service: a deterministic request router.

One long-lived front door admits YCSB-style traffic from many tenants,
each backed by a *pool* of replica enclaves on one shared kernel, all
contending for one EPC.  The robustness core, in admission order:

1. **degradation tier 2** — under extreme EPC pressure new work is
   rejected with a structured ``SERVICE_OVERLOADED`` (reject *before*
   evicting pinned tenants — suspension is never used on a sealed
   working set);
2. **SLO pressure** — a tenant whose sliding-window p95 latency
   exceeds its target sheds its *own* new arrivals, so an SLO
   violator pays for its backlog before healthy tenants degrade;
3. **paging budget** — a tenant still in paging debt from earlier
   thrashing may not submit;
4. **token bucket** — per-tenant request-rate admission;
5. **bounded run queue** — a full queue sheds with ``QUEUE_FULL``
   instead of growing without bound;
6. **circuit breaker** — checked *last* so a half-open probe, once
   admitted, is never lost to a cheaper rejection downstream.

Degradation tier 1 (moderate pressure) shrinks non-pinned replicas'
balloon targets — cooperative ballooning, §5.2.1 — before anything is
rejected; tier 0 restores the loans once pressure subsides.

Every replica is launched, attested and retired through one
:class:`~repro.recovery.supervisor.RecoverySupervisor`.  Each tenant's
requests run on the pool's elected primary
(:mod:`repro.service.pool`); an aborted replica goes through that
supervisor's bounded-restart / verified-replay pipeline while
election fails the *next* request over to a healthy sibling.  Only an
exhausted pool (every replica down, suspended, or quarantined) latches
the tenant's breaker.  Tenants also arrive and retire mid-run: arrival
balloons headroom and boots a fresh pool (refusing structurally when
the EPC cannot hold it), departure drains the tenant's queued requests
within a budget — completed or shed ``tenant-retired``, never dropped —
then tears the pool down with EPC page parity checked.

Every request ends in exactly one of the four terminal outcomes (see
:mod:`repro.service.metrics`); anything else is recorded as an
invariant violation and fails the run.

Everything runs on the simulated clock with seeded randomness only, so
a full service run is double-run digest-identical and ``--jobs N``
bit-identical under :mod:`repro.parallel`.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.clock import Category
from repro.core.digest import canonical_digest
from repro.core.invariants import masked_faults
from repro.errors import (
    ChaosAbort,
    EnclaveCrashed,
    EnclaveTerminated,
    HostCallDenied,
    IntegrityAbort,
    IntegrityError,
    Quarantined,
    SgxError,
    abort_reason,
)
from repro.host import adversary
from repro.host.kernel import HostKernel
from repro.recovery.supervisor import RUNNING, RecoverySupervisor
from repro.service.chaos import ServiceFaultKind, ServiceFaultPlan
from repro.service.metrics import (
    BREAKER_OPEN,
    DEADLINE,
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    OUTCOME_DEGRADED,
    OUTCOME_SHED,
    OUTCOMES,
    PAGING_BUDGET,
    POOL_UNAVAILABLE,
    QUEUE_FULL,
    RATE_LIMITED,
    SERVICE_OVERLOADED,
    SLO_PRESSURE,
    TENANT_RETIRED,
    RequestResult,
    ServiceMetrics,
    epc_pressure_milli,
)
from repro.service.pool import TenantPool
from repro.service.tenant import BUDGET_FLOOR, Tenant, default_tenants

#: Compute cycles per request op (matches the chaos campaign's rhythm).
OP_COMPUTE_CYCLES = 1_000

#: Free EPC frames the router balloons for before asking the recovery
#: supervisor to relaunch a tenant (eager launch footprint + warm-up).
RELAUNCH_HEADROOM_PAGES = 64

#: Requests dispatched per tick.
DISPATCH_PER_TICK = 8
#: Simulated cycles the router charges per tick (time always advances,
#: so token buckets refill and cooldowns elapse even when no work runs).
TICK_CYCLES = 400_000
#: Degradation thresholds, EPC occupancy in thousandths.
TIER1_PRESSURE_MILLI = 800
TIER2_PRESSURE_MILLI = 920
#: Balloon pages requested per tier-1 shrink step.
SHRINK_STEP_PAGES = 16


@dataclass
class ServiceConfig:
    """Everything needed to boot and drive one service run."""

    seed: int = 0
    tenants: list = field(default_factory=lambda: default_tenants(4))
    #: Shared EPC.  Deliberately smaller than the fleet's combined
    #: working-set demand (over-commit) so cross-tenant pressure
    #: actually occurs: the default mixed 4-tenant fleet peaks around
    #: 900‰ occupancy here, deep in the tier-1 ballooning band.
    epc_pages: int = 192
    #: Ticks of arrival traffic (dispatch continues until drained).
    ticks: int = 24
    #: Bounded run queue — the only place requests wait.
    queue_capacity: int = 16
    #: Fault plan; None generates one from the seed, and a
    #: ServiceFaultPlan with no events disables faults.
    fault_plan: Optional[ServiceFaultPlan] = None
    #: Live churn: ``(tick, TenantSpec)`` pairs booted mid-run and
    #: ``(tick, name)`` pairs retired mid-run (drain-before-retire).
    arrivals: tuple = ()
    departures: tuple = ()
    #: Queued requests a departing tenant may still *execute* during
    #: its drain; the rest shed structured (``tenant-retired``).
    drain_budget: int = 8


@dataclass(frozen=True)
class ServiceResult:
    """Outcome of one full service run."""

    seed: int
    ticks: int
    outcome_counts: dict
    shed_by_reason: dict
    abort_reasons: dict
    metrics: tuple           # ServiceMetrics.canonical()
    tenants: tuple           # per-tenant canonical tuples
    pools: tuple             # per-pool canonical tuples
    breaker_trips: int
    breaker_closes: int
    recoveries: int
    quarantines: int
    failovers: int
    cycles: int
    violations: tuple
    digest: str

    @property
    def safe(self):
        return not self.violations


class EnclaveService:
    """One bootable instance of the router (one kernel, one fleet)."""

    def __init__(self, config=None):
        self.config = config or ServiceConfig()
        cfg = self.config
        self.kernel = HostKernel(epc_pages=cfg.epc_pages)
        self.recovery = RecoverySupervisor(self.kernel)
        self.tenants = [
            Tenant(spec, i, cfg.seed)
            for i, spec in enumerate(cfg.tenants)
        ]
        self._next_index = len(self.tenants)
        self.plan = cfg.fault_plan
        if self.plan is not None:
            # A plan from outside must not pass on events that can
            # never fire: the run's clock is its arrival ticks, and its
            # tenants are the fleet and the tenants arriving mid-run.
            fleet = len(cfg.tenants) + len(cfg.arrivals)
            for event in self.plan.events:
                where = f"{event.kind.value}@tick{event.at_tick}"
                if not 0 <= event.at_tick < cfg.ticks:
                    raise ValueError(
                        f"{where}: at_tick is outside the run's ticks "
                        f"0..{cfg.ticks - 1}"
                    )
                if not 0 <= event.tenant_index < fleet:
                    raise ValueError(
                        f"{where}: tenant_index is outside the run's "
                        f"tenants 0..{fleet - 1}"
                    )
        else:
            max_width = max(
                [t.spec.replicas for t in self.tenants], default=1
            )
            self.plan = ServiceFaultPlan.generate(
                cfg.seed, cfg.ticks, len(self.tenants),
                tamperable=tuple(
                    t.index for t in self.tenants if not t.spec.pinned
                ),
                replicas=max_width,
            )
        self._queue = deque()
        self._engines = {}
        self._first_incarnations = {}
        self._addr_pools = {}
        self._tenant_pools = {}
        self._retired_pools = []
        self.metrics = ServiceMetrics()
        self.results = []
        self.violations = []
        self.skipped_events = []
        self.tier = 0
        self.tick = 0
        self._shrink_cursor = 0
        self._restore_cursor = 0
        self._booted = False

    # -- lifecycle ---------------------------------------------------------

    def boot(self):
        """Launch every tenant's pool through the recovery supervisor's
        launch/attest/seal pipeline."""
        for tenant in self.tenants:
            self._boot_pool(tenant)
        self._booted = True
        return self

    def _boot_pool(self, tenant):
        """Boot every replica of one tenant and register the pool."""
        pool = TenantPool(
            tenant.spec.name,
            [tenant.replica_name(r) for r in range(tenant.spec.replicas)],
            self.recovery,
        )
        for handle in pool.replicas:
            name = handle.member_name
            program = tenant.program(self.config.epc_pages, handle.index)
            record = self.recovery.launch(name, program)
            self._first_incarnations[name] = record.runtime.enclave
            self._bind_replica(tenant, handle)
        self._tenant_pools[tenant.spec.name] = pool

    def _bind_replica(self, tenant, handle):
        """(Re)build the engine and address pool for one replica's
        current incarnation — at boot and after every recovery."""
        record = self.recovery.member(handle.member_name)
        program = record.program
        self._engines[handle.member_name] = program.engine(record.runtime)
        self._addr_pools[handle.member_name] = tenant.pool(record.runtime)

    def shutdown(self):
        """Tear the fleet down and verify EPC parity.  Each replica
        still booted has its first incarnation reclaimed a second time
        (:meth:`_reclaim_first_incarnation`)."""
        self.recovery.shutdown()
        for member in list(self._first_incarnations):
            self._reclaim_first_incarnation(member)
        self._booted = False
        if self.kernel.epc.free_pages != self.kernel.epc.total_pages:
            self.violations.append(
                f"EPC leak after shutdown: {self.kernel.epc.free_pages} "
                f"free of {self.kernel.epc.total_pages}"
            )

    def _skip(self, *what):
        """Record an event that could not apply at this tick; the
        records enter the run digest."""
        self.skipped_events.append((self.tick, *what))

    # -- live churn --------------------------------------------------------

    def _arrive(self, spec):
        """Boot a new tenant mid-run.  Headroom is ballooned first; a
        boot the EPC cannot hold is *refused* structurally (partial
        pool reclaimed, counter bumped) — never a crash."""
        tenant = Tenant(spec, self._next_index, self.config.seed)
        self._next_index += 1
        self.tenants.append(tenant)
        self._make_headroom(RELAUNCH_HEADROOM_PAGES * spec.replicas)
        try:
            self._boot_pool(tenant)
        except (SgxError, EnclaveTerminated, EnclaveCrashed,
                HostCallDenied) as exc:
            for r in range(spec.replicas):
                self._teardown(tenant.replica_name(r))
            self._tenant_pools.pop(spec.name, None)
            tenant.departed = True
            self.metrics.arrival_refusals += 1
            self._skip("arrive-refused", spec.name, type(exc).__name__)
            return False
        self.metrics.arrivals += 1
        return True

    def _retire(self, name):
        """Drain-before-retire: every queued request of the departing
        tenant ends terminal (executed within the drain budget or shed
        ``tenant-retired``), the half-open probe is cancelled so the
        breaker cannot wedge, and the pool is torn down with EPC page
        parity checked."""
        tenant = next(
            (t for t in self.tenants if t.spec.name == name), None
        )
        if tenant is None or tenant.departed:
            self._skip("retire", name)
            return
        tenant.departed = True
        self.metrics.departures += 1
        kept = deque()
        drained = []
        for queued_tenant, request in self._queue:
            if queued_tenant is tenant:
                drained.append(request)
            else:
                kept.append((queued_tenant, request))
        self._queue = kept
        for i, request in enumerate(drained):
            if i < self.config.drain_budget:
                self._finish(self._execute(tenant, request))
            else:
                self._finish(self._shed(request, TENANT_RETIRED))
        # A probe lost to departure must not wedge the breaker
        # half-open (the satellite regression this PR fixes).
        tenant.breaker.cancel_probe()
        tenant.pending_probe = None
        pool = self._tenant_pools.pop(name, None)
        if pool is None:
            return
        free_before = self.kernel.epc.free_pages
        held = 0
        fleet_names = {r.name for r in self.recovery.fleet()}
        for handle in pool.replicas:
            member = handle.member_name
            if member in fleet_names:
                record = self.recovery.member(member)
                if record.runtime is not None:
                    held += len(record.runtime.enclave.backed)
            self._teardown(member)
        freed = self.kernel.epc.free_pages - free_before
        if freed != held:
            self.violations.append(
                f"EPC parity broken retiring {name}: pool held {held} "
                f"pages but teardown freed {freed}"
            )
        self._retired_pools.append(pool)

    def _teardown(self, member):
        """Reclaim one replica and drop its engine and pool."""
        self.recovery.teardown(member)
        self._reclaim_first_incarnation(member)
        self._engines.pop(member, None)
        self._addr_pools.pop(member, None)

    def _reclaim_first_incarnation(self, member):
        """Reclaim a retired replica's first incarnation once more.

        The recovery supervisor has already freed it, so this frees
        nothing, but it charges a syscall (1,500 cycles a replica) that
        every pinned service digest includes.  The digest re-record of
        ROADMAP item 1 deletes this call and the map behind it."""
        enclave = self._first_incarnations.pop(member, None)
        if enclave is not None:
            self.kernel.driver.reclaim_enclave(enclave)

    # -- probes ------------------------------------------------------------

    def ready(self):
        """Readiness: booted and at least one tenant serving."""
        if not self._booted:
            return False
        return any(
            record.state == RUNNING for record in self.recovery.fleet()
        )

    def health(self):
        """Liveness/health snapshot (sorted keys, JSON-safe)."""
        fleet_states = {
            record.name: record.state for record in self.recovery.fleet()
        }
        latched = sum(
            1 for t in self.tenants if t.breaker.latched
        )
        if self.tier >= 2:
            status = "overloaded"
        elif self.tier == 1 or latched:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "ready": self.ready(),
            "tier": self.tier,
            "epc_pressure_milli": epc_pressure_milli(self.kernel),
            "queue_depth": len(self._queue),
            "tenants": dict(sorted(fleet_states.items())),
            "breakers": {
                t.spec.name: t.breaker.state
                for t in sorted(self.tenants, key=lambda t: t.spec.name)
            },
            "pools": {
                name: self._tenant_pools[name].healthy_count()
                for name in sorted(self._tenant_pools)
            },
        }

    # -- the drive loop ----------------------------------------------------

    def run(self):
        """Drive the configured number of arrival ticks, then drain the
        queue, then shut down; returns a :class:`ServiceResult`."""
        if not self._booted:
            self.boot()
        events = self.plan.by_tick()
        arrivals_at = {}
        for at_tick, spec in self.config.arrivals:
            arrivals_at.setdefault(at_tick, []).append(spec)
        departures_at = {}
        for at_tick, name in self.config.departures:
            departures_at.setdefault(at_tick, []).append(name)
        for tick in range(self.config.ticks):
            self.tick = tick
            self.kernel.clock.charge(TICK_CYCLES, Category.OS)
            for name in departures_at.get(tick, ()):
                self._retire(name)
            for spec in arrivals_at.get(tick, ()):
                self._arrive(spec)
            for event in events.get(tick, ()):
                self._apply_fault(event)
            self._evaluate_tiers()
            self._admit_arrivals(tick)
            self._dispatch()
        # Drain: no new arrivals, dispatch until the bounded queue is
        # empty (provably <= capacity ticks since DISPATCH_PER_TICK>=1).
        for _ in range(self.config.queue_capacity + 1):
            if not self._queue:
                break
            self.tick += 1
            self.kernel.clock.charge(TICK_CYCLES, Category.OS)
            self._evaluate_tiers()
            self._dispatch()
        self.shutdown()
        self._check_invariants()
        return self._result()

    # -- fault application -------------------------------------------------

    def _apply_fault(self, event):
        if not 0 <= event.tenant_index < len(self.tenants):
            self._skip(event.kind.value, "no-such-tenant")
            return
        tenant = self.tenants[event.tenant_index]
        if tenant.departed:
            self._skip(event.kind.value, "departed")
            return
        if event.kind is ServiceFaultKind.TENANT_BURST:
            tenant.burst_until_tick = self.tick + event.duration
            tenant.burst_factor = max(2, event.param)
        elif event.kind is ServiceFaultKind.TENANT_STALL:
            tenant.stall_until_tick = self.tick + event.duration
            tenant.stall_cycles = event.param
        elif event.kind is ServiceFaultKind.TENANT_TAMPER:
            self._tamper(tenant, event)
        elif event.kind is ServiceFaultKind.AEX_STORM:
            self._aex_storm(tenant, event)
        elif event.kind is ServiceFaultKind.REPLICA_SUSPEND:
            self._suspend_replica(tenant, event)
        elif event.kind is ServiceFaultKind.REPLICA_RESUME:
            self._resume_replica(tenant, event)
        else:
            raise ValueError(f"unhandled service fault {event.kind}")

    def _primary_runtime(self, tenant, what):
        """The pool primary's (handle, record) for a fault target, or
        ``None`` (with a skipped-event record) when nothing can serve."""
        pool = self._tenant_pools.get(tenant.spec.name)
        handle = pool.elect_primary() if pool is not None else None
        if handle is None:
            self._skip(what, "pool-down")
            return None
        record = self._running(handle, what)
        return None if record is None else (handle, record)

    def _running(self, handle, what):
        """The replica's running record, or ``None`` (with a ``down``
        skipped-event record for ``what``)."""
        record = self.recovery.member(handle.member_name)
        if record.runtime is None or record.state != RUNNING:
            self._skip(what, "down")
            return None
        return record

    def _tamper(self, tenant, event):
        """Forge one swapped-out heap blob of the tenant's primary; the
        tenant's next request on that replica probes it first, which
        must fail stop."""
        target_pair = self._primary_runtime(tenant, "tamper")
        if target_pair is None:
            return
        handle, record = target_pair
        runtime = record.runtime
        backing = runtime.paging_ops.store
        swapped = adversary.swapped_out(
            self.kernel, runtime.enclave, backing, runtime.regions["heap"]
        )
        if not swapped:
            self._skip("tamper", "nothing-swapped")
            return
        adversary.tamper(backing, runtime.enclave, swapped[0])
        tenant.pending_probe = (handle.index, swapped[0])

    def _aex_storm(self, tenant, event):
        """A train of host interrupts against the primary — the §3.2
        interrupt channel.  Must cost only cycles, never correctness."""
        target_pair = self._primary_runtime(tenant, "aex-storm")
        if target_pair is None:
            return
        _, record = target_pair
        runtime = record.runtime
        rounds = max(1, event.param)
        adversary.aex_storm(self.kernel, runtime.enclave, runtime.tcs,
                            rounds)
        self.metrics.aex_interrupts += rounds

    def _suspend_replica(self, tenant, event):
        """§5.2.1 whole-enclave swap of one replica: every page is
        evicted and the replica is unhealthy until resumed, so the
        pool must carry the tenant on siblings."""
        if tenant.spec.pinned:
            # Suspension is never used on a sealed working set.
            self._skip("suspend", "pinned")
            return
        pool = self._tenant_pools.get(tenant.spec.name)
        if pool is None:
            self._skip("suspend", "no-pool")
            return
        idx = event.param if 0 <= event.param < len(pool.replicas) else 0
        handle = pool.replicas[idx]
        if handle.suspended:
            self._skip("suspend", "already-suspended")
            return
        record = self._running(handle, "suspend")
        if record is None:
            return
        self.kernel.driver.suspend_enclave(record.runtime.enclave)
        handle.suspended = True
        self.metrics.replica_suspends += 1

    def _resume_replica(self, tenant, event):
        """Resume a suspended replica: every suspend-set page must be
        restored (verbatim, MAC-checked) before it serves again."""
        pool = self._tenant_pools.get(tenant.spec.name)
        if pool is None:
            self._skip("resume", "no-pool")
            return
        idx = event.param if 0 <= event.param < len(pool.replicas) else 0
        handle = pool.replicas[idx]
        if not handle.suspended:
            self._skip("resume", "not-suspended")
            return
        record = self._running(handle, "resume")
        if record is None:
            return
        enclave = record.runtime.enclave
        need = len(self.kernel.driver.state(enclave).suspend_set)
        self._make_headroom(need)
        try:
            self.kernel.driver.resume_enclave(enclave)
        except SgxError:
            # EPC could not hold the restore; the replica stays
            # suspended (still structurally unhealthy, still counted).
            self._skip("resume", "epc-full")
            return
        handle.suspended = False
        self.metrics.replica_resumes += 1

    # -- degradation tiers -------------------------------------------------

    def _evaluate_tiers(self):
        pressure = epc_pressure_milli(self.kernel)
        self.metrics.peak_epc_pressure_milli = max(
            self.metrics.peak_epc_pressure_milli, pressure
        )
        if pressure >= TIER2_PRESSURE_MILLI:
            tier = 2
        elif pressure >= TIER1_PRESSURE_MILLI:
            tier = 1
        else:
            tier = 0
        if tier != self.tier:
            self.metrics.tier_changes += 1
            self.tier = tier
        if tier >= 1:
            self._shrink_one()
        elif tier == 0:
            self._restore_one()

    def _shrinkable(self):
        """(tenant, replica handle) pairs that can balloon down:
        non-pinned, not departed, replica RUNNING and not suspended."""
        pairs = []
        for tenant in self.tenants:
            if tenant.spec.pinned or tenant.departed:
                continue
            pool = self._tenant_pools.get(tenant.spec.name)
            if pool is None:
                continue
            for handle in pool.replicas:
                if pool.healthy(handle):
                    pairs.append((tenant, handle))
        return pairs

    def _shrink_one(self):
        """Tier 1: ask one non-pinned replica (round-robin) to balloon
        down one step.  Pinned tenants are exempt by definition."""
        candidates = self._shrinkable()
        if not candidates:
            return
        tenant, handle = candidates[self._shrink_cursor % len(candidates)]
        self._shrink_cursor += 1
        record = self.recovery.member(handle.member_name)
        runtime = record.runtime
        freed = self.kernel.request_memory_reduction(
            runtime.enclave, SHRINK_STEP_PAGES
        )
        if freed <= 0:
            return
        state = self.kernel.driver.state(runtime.enclave)
        state.quota_pages = max(BUDGET_FLOOR, state.quota_pages - freed)
        runtime.pager.budget_pages = max(
            BUDGET_FLOOR, runtime.pager.budget_pages - freed
        )
        handle.shrunk_pages += freed
        tenant.shrunk_pages += freed
        self.metrics.balloon_reclaimed_pages += freed

    def _make_headroom(self, pages):
        """Tier-1 ballooning in service of recovery: a relaunch under a
        full EPC cannot even pin its runtime, so shrink the surviving
        non-pinned replicas (bounded rounds) until ``pages`` frames are
        free.  Falling short is survivable — the supervisor's
        pre-flight check fails the attempt cleanly and quarantines the
        replica once the restart budget is gone."""
        for _ in range(8 * max(1, len(self.tenants))):
            if self.kernel.epc.free_pages >= pages:
                return
            before = self.metrics.balloon_reclaimed_pages
            self._shrink_one()
            if self.metrics.balloon_reclaimed_pages == before:
                return  # nobody can give any more

    def _restore_one(self):
        """Tier 0: repay one shrunk replica (round-robin) one step."""
        shrunk = []
        for tenant in self.tenants:
            if tenant.departed:
                continue
            pool = self._tenant_pools.get(tenant.spec.name)
            if pool is None:
                continue
            for handle in pool.replicas:
                if handle.shrunk_pages > 0 and pool.healthy(handle):
                    shrunk.append((tenant, handle))
        if not shrunk:
            return
        tenant, handle = shrunk[self._restore_cursor % len(shrunk)]
        self._restore_cursor += 1
        back = min(SHRINK_STEP_PAGES, handle.shrunk_pages)
        record = self.recovery.member(handle.member_name)
        runtime = record.runtime
        self.kernel.driver.state(runtime.enclave).quota_pages += back
        runtime.pager.budget_pages += back
        handle.shrunk_pages -= back
        tenant.shrunk_pages -= back

    # -- admission ---------------------------------------------------------

    def _admit_arrivals(self, tick):
        now = self.kernel.clock.cycles
        for tenant in self.tenants:
            if tenant.departed:
                continue
            for _ in range(tenant.arrivals(tick)):
                request = tenant.make_request(now, tick)
                self.metrics.submitted += 1
                reason = self._admit(tenant, request, now)
                if reason is None:
                    self.metrics.admitted += 1
                else:
                    self._finish(self._shed(request, reason))

    def _slo_violated(self, tenant):
        """Whether the tenant's own served-latency p95 exceeds its SLO
        (with enough samples that a cold window cannot fire)."""
        if len(tenant.latency) < tenant.spec.slo_min_samples:
            return False
        p95 = tenant.latency.percentile(950)
        return p95 is not None and p95 > tenant.spec.slo_p95_cycles

    def _admit(self, tenant, request, now):
        """The admission chain; returns a shed reason or None.

        The breaker is checked last: once it admits a half-open probe,
        nothing cheaper may shed it (a lost probe would wedge the
        breaker half-open)."""
        if self.tier >= 2:
            return SERVICE_OVERLOADED
        if self._slo_violated(tenant):
            return SLO_PRESSURE
        if not tenant.paging.admits(now):
            return PAGING_BUDGET
        if not tenant.bucket.try_take(now):
            return RATE_LIMITED
        if len(self._queue) >= self.config.queue_capacity:
            return QUEUE_FULL
        if not tenant.breaker.allow(now):
            return BREAKER_OPEN
        if tenant.pending_probe is not None:
            # Attach the tamper probe only once a request is actually
            # admitted — a probe consumed by a shed request would leave
            # the forged blob waiting on an organic touch that may
            # never come.
            request = dataclasses.replace(
                request, probe_vaddr=tenant.pending_probe
            )
            tenant.pending_probe = None
        self._queue.append((tenant, request))
        self.metrics.peak_queue_depth = max(
            self.metrics.peak_queue_depth, len(self._queue)
        )
        return None

    # -- dispatch and execution --------------------------------------------

    def _dispatch(self):
        for _ in range(DISPATCH_PER_TICK):
            if not self._queue:
                return
            tenant, request = self._queue.popleft()
            self._finish(self._execute(tenant, request))

    def _execute(self, tenant, request):
        """Run one admitted request to a terminal outcome on the pool's
        elected primary."""
        name = tenant.spec.name
        pool = self._tenant_pools.get(name)
        handle = pool.elect_primary() if pool is not None else None
        if handle is None:
            # Every replica is down, suspended, or quarantined: the
            # structured all-unhealthy outcome (never a blind retry).
            tenant.breaker.cancel_probe()
            return self._shed(request, POOL_UNAVAILABLE)
        member = handle.member_name
        record = self.recovery.member(member)
        engine = self._engines[member]
        addr_pool = self._addr_pools[member]
        runtime = record.runtime
        clock = self.kernel.clock
        start = clock.cycles
        fetches0 = runtime.pager.fetches
        degradations0 = runtime.pager.degradations
        retried0 = runtime.paging_ops.retried_calls
        try:
            if request.probe_vaddr is not None:
                probe_replica, probe_vaddr = request.probe_vaddr
                if probe_replica == handle.index:
                    engine.data_access(probe_vaddr)
                else:
                    # The probe names a page in another replica's
                    # address space; a failed-over request must skip
                    # it, not touch a foreign vaddr.  The forged blob
                    # stays armed for that replica's next access.
                    self.metrics.skipped_probes += 1
                    self._skip("probe", "failover")
            for key, write in zip(request.keys, request.writes):
                if clock.cycles > request.deadline_cycles:
                    tenant.breaker.cancel_probe()
                    self._charge_paging(tenant, runtime, fetches0)
                    return self._shed(
                        request, DEADLINE,
                        cycles=clock.cycles - start,
                        fetches=runtime.pager.fetches - fetches0,
                    )
                engine.data_access(addr_pool[key], write=write)
                engine.compute(OP_COMPUTE_CYCLES + request.stall_cycles)
                tenant.ops_executed += 1
                tenant.progress_if_due(engine)
        except (EnclaveTerminated, IntegrityError) as exc:
            return self._handle_abort(tenant, handle, request, exc, start)
        tenant.breaker.record_success()
        self._charge_paging(tenant, runtime, fetches0)
        tenant.latency.record(clock.cycles - request.issued_cycles)
        absorbed = (
            runtime.pager.degradations > degradations0
            or runtime.paging_ops.retried_calls > retried0
        )
        return RequestResult(
            tenant=name,
            request_id=request.request_id,
            outcome=OUTCOME_DEGRADED if absorbed else OUTCOME_COMPLETED,
            reason="",
            cycles=clock.cycles - start,
            fetches=runtime.pager.fetches - fetches0,
        )

    def _charge_paging(self, tenant, runtime, fetches0):
        tenant.paging.charge(max(0, runtime.pager.fetches - fetches0))

    def _shed(self, request, reason, cycles=0, fetches=0):
        return RequestResult(
            tenant=request.tenant,
            request_id=request.request_id,
            outcome=OUTCOME_SHED,
            reason=reason,
            cycles=cycles,
            fetches=fetches,
        )

    def _handle_abort(self, tenant, handle, request, exc, start):
        """Structured abort on one replica: report to the tenant's
        breaker, route the *replica* through the recovery supervisor,
        and latch the breaker only when the whole pool is exhausted —
        a quarantined primary with a healthy sibling is a failover,
        not an outage."""
        member = handle.member_name
        clock = self.kernel.clock
        tenant.aborts += 1
        reason = abort_reason(exc)
        tenant.breaker.record_failure(clock.cycles)
        self.recovery.mark_down(member, exc)
        self._make_headroom(RELAUNCH_HEADROOM_PAGES)
        quarantined = False
        try:
            self.recovery.recover(member)
            self._bind_replica(tenant, handle)
            tenant.recoveries += 1
            self.metrics.recoveries += 1
        except Quarantined:
            quarantined = True
        except IntegrityAbort:
            # Tamper/rollback evidence during restore itself: retrying
            # cannot launder it — take the replica out of rotation.
            quarantined = True
        except (EnclaveCrashed, ChaosAbort, HostCallDenied):
            quarantined = True
        if quarantined:
            self.metrics.quarantines += 1
            pool = self._tenant_pools.get(tenant.spec.name)
            if pool is None or pool.healthy_count() == 0:
                # No replica left to fail over to: only now does the
                # tenant itself go dark.
                tenant.breaker.latch_open()
        return RequestResult(
            tenant=tenant.spec.name,
            request_id=request.request_id,
            outcome=OUTCOME_ABORTED,
            reason=reason,
            cycles=clock.cycles - start,
            fetches=0,
        )

    def _finish(self, result):
        if result.outcome not in OUTCOMES:
            self.violations.append(
                f"request {result.tenant}#{result.request_id} ended in "
                f"non-terminal outcome {result.outcome!r}"
            )
        self.metrics.record(result)
        self.results.append(result)

    # -- invariants and reporting ------------------------------------------

    def _check_invariants(self):
        terminal = (
            self.metrics.completed + self.metrics.degraded
            + self.metrics.shed + self.metrics.aborted
        )
        if terminal != self.metrics.submitted:
            self.violations.append(
                f"request accounting leak: {self.metrics.submitted} "
                f"submitted but {terminal} terminal outcomes"
            )
        if self._queue:
            self.violations.append(
                f"{len(self._queue)} requests left on the queue after "
                f"drain"
            )
        fleet_names = {r.name for r in self.recovery.fleet()}
        for tenant in self.tenants:
            for r in range(tenant.spec.replicas):
                if tenant.replica_name(r) in fleet_names:
                    self.violations.append(
                        f"replica {tenant.replica_name(r)} survived "
                        f"shutdown"
                    )
        bases = {
            tenant.base(r)
            for tenant in self.tenants
            for r in range(tenant.spec.replicas)
        }
        self.violations += masked_faults(self.kernel, bases)

    def _pool_canonicals(self):
        pools = list(self._retired_pools) + [
            self._tenant_pools[name]
            for name in sorted(self._tenant_pools)
        ]
        return tuple(sorted(p.canonical() for p in pools))

    def _result(self):
        stats = self.recovery.stats()
        self.metrics.failovers = sum(
            p.failovers for p in self._retired_pools
        ) + sum(
            p.failovers for p in self._tenant_pools.values()
        )
        fingerprint = (
            self.config.seed,
            self.config.ticks,
            self.plan.canonical(),
            self.metrics.canonical(),
            tuple(t.canonical() for t in self.tenants),
            self._pool_canonicals(),
            tuple(sorted(stats.items())),
            self.kernel.clock.cycles,
            self.tier,
            tuple(self.skipped_events),
            tuple(self.violations),
        )
        return ServiceResult(
            seed=self.config.seed,
            ticks=self.config.ticks,
            outcome_counts=self.metrics.outcome_counts(),
            shed_by_reason=dict(sorted(
                self.metrics.shed_by_reason.items()
            )),
            abort_reasons=dict(sorted(
                self.metrics.abort_reasons.items()
            )),
            metrics=self.metrics.canonical(),
            tenants=tuple(t.canonical() for t in self.tenants),
            pools=self._pool_canonicals(),
            breaker_trips=sum(t.breaker.trips for t in self.tenants),
            breaker_closes=sum(t.breaker.closes for t in self.tenants),
            recoveries=self.metrics.recoveries,
            quarantines=self.metrics.quarantines,
            failovers=self.metrics.failovers,
            cycles=self.kernel.clock.cycles,
            violations=tuple(self.violations),
            digest=canonical_digest(fingerprint)[:16],
        )


def run_service(config=None):
    """Boot, drive, drain, and shut down one service; returns the
    :class:`ServiceResult`."""
    return EnclaveService(config).run()
