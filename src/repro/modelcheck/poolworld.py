"""The pool world: two tenants, two replicas each, one shared EPC.

The single-enclave model (:mod:`repro.modelcheck.model`) checks the
paging protocol; this world checks the *service* layer above it — the
tenant-pool failover, live-churn, and suspend/resume machinery of
:mod:`repro.service` — on the smallest system where those behaviours
exist: two tenants of two replica enclaves each, supervised by the
real :class:`~repro.recovery.supervisor.RecoverySupervisor` on one
shared kernel.  Each tenant is a shipped
:class:`~repro.service.pool.TenantPool`, so primary election, replica
health, and failover counts are the service's own code, not a model
of it.

Actions are the service's fault family shrunk to determinism: a
request against either tenant (served by the elected primary, failed
over to the sibling, or structurally shed when the whole pool is
down), an AEX storm against tenant 0's primary, suspending and
resuming the lowest eligible replica (§5.2.1 whole-enclave swap),
forging a suspended replica's suspend-set blob (resume must reject
it), and retiring / re-admitting tenant 1 (live churn with EPC-parity
teardown).  Invariants assert what the service promises: request
accounting balances, no request runs on a suspended replica, EPC
frames are never lost or double-owned, faults leak only masked
addresses, and a pool with no healthy replica sheds instead of
crashing.

Exhaustive at depth 3 this covers every interleaving of failover
around suspension, churn, and integrity aborts — the schedules the
seeded chaos runs sample but cannot enumerate.
"""

from __future__ import annotations

import dataclasses

from repro.core.digest import canonical_digest
from repro.core.invariants import epc_parity, masked_faults
from repro.core.system import EnclaveProgram
from repro.errors import (
    EnclaveCrashed,
    EnclaveTerminated,
    IntegrityAbort,
    IntegrityError,
    Quarantined,
    SgxError,
)
from repro.host import adversary
from repro.host.kernel import HostKernel
from repro.modelcheck.copier import clone
from repro.modelcheck.model import tiny_config
from repro.recovery.state import canonical_state
from repro.recovery.supervisor import (
    RUNNING,
    RecoverySupervisor,
    RestartPolicy,
)
from repro.service.pool import TenantPool
from repro.sgx.params import PAGE_SIZE

#: Policy names this module implements (the explorer's dispatch key).
WORLDS = ("pool",)

N_TENANTS = 2
N_REPLICAS = 2

#: Heap pages each request cycles over (two touches per request walk
#: the pool, so every page is exercised within two requests).
POOL_PAGES = 3

#: Shared EPC: four tiny enclaves fit with headroom — pool failover,
#: not paging pressure, is what this world explores (the single-
#: enclave model owns the pressure story).
EPC_PAGES = 96

#: Address-space stride between replica enclaves (the service's
#: multi-enclave grid, shrunk).
STRIDE = 0x10_0000_0000

#: Interrupt/resume rounds one ``storm`` action fires (§3.2).
STORM_ROUNDS = 2

#: Free frames required before ``arrive`` re-admits tenant 1 (a tiny
#: replica's eager footprint is ~8 frames; two replicas plus margin).
ARRIVE_HEADROOM = 24

#: One restart per replica before quarantine: the smallest budget
#: where depth-3 traces can reach both a recovery *and* a quarantine-
#: driven failover.
MAX_RESTARTS = 1


class PoolWorld:
    """One explored state of the two-tenant pool service."""

    policy_name = "pool"

    def __init__(self):
        self.kernel = HostKernel(epc_pages=EPC_PAGES)
        self.recovery = RecoverySupervisor(
            self.kernel,
            restart_policy=RestartPolicy(max_restarts=MAX_RESTARTS),
        )
        self.engines = {}
        #: The shipped pools: election, health, and failover counts
        #: are :class:`~repro.service.pool.TenantPool`'s own.
        self.pools = [
            TenantPool(
                f"t{t}", [f"t{t}/r{r}" for r in range(N_REPLICAS)],
                self.recovery,
            )
            for t in range(N_TENANTS)
        ]
        #: Members whose suspend-set blob was forged while suspended;
        #: their resume must fail integrity verification.
        self.forged = set()
        #: Enclave base addresses ever booted — the masked-fault
        #: invariant accepts exactly these vaddrs in the fault log.
        self.bases = set()
        self.departed = [False] * N_TENANTS
        self.issued = [0] * N_TENANTS
        self.served = [0] * N_TENANTS
        self.shed = [0] * N_TENANTS
        self.aborts = [0] * N_TENANTS
        self.recoveries = [0] * N_TENANTS
        self.quarantines = [0] * N_TENANTS
        self.ops = [0] * N_TENANTS
        self.aex = 0
        self.arrivals = 0
        self.departures = 0
        self.arrival_refusals = 0
        self.outcome = "running"
        self.reason = ""
        self.violations = []
        for tenant, handle in self.handles():
            self._boot_replica(tenant, handle)

    # -- boot ----------------------------------------------------------------

    def _program(self, tenant, handle):
        grid = tenant * N_REPLICAS + handle.index
        return EnclaveProgram(
            config=dataclasses.replace(tiny_config("rate_limit"),
                                       epc_pages=EPC_PAGES),
            base=STRIDE * (grid + 1),
            name=handle.member_name,
        )

    def _boot_replica(self, tenant, handle):
        record = self.recovery.launch(
            handle.member_name, self._program(tenant, handle))
        self.engines[handle.member_name] = record.program.engine(
            record.runtime)
        self.bases.add(record.runtime.enclave.base)

    # -- derived state -------------------------------------------------------

    @property
    def terminal(self):
        return bool(self.violations)

    def handles(self):
        """``(tenant, replica handle)`` pairs in canonical order."""
        return [
            (tenant, handle)
            for tenant, pool in enumerate(self.pools)
            for handle in pool.replicas
        ]

    def _member(self, handle):
        """The supervisor record, or ``None`` after teardown."""
        try:
            return self.recovery.member(handle.member_name)
        except KeyError:
            return None

    def _live_runtime(self, handle):
        record = self._member(handle)
        if record is None or record.runtime is None:
            return None
        if record.runtime.enclave.dead:
            return None
        return record.runtime

    def _pool_addrs(self, runtime):
        heap = runtime.regions["heap"].start
        return [heap + i * PAGE_SIZE for i in range(POOL_PAGES)]

    def _tamper_target(self):
        """The lowest replica with a forgeable sealed pool blob: a
        suspended replica's suspend set, or a swapped-out pool page.
        Pure — used by both enabling and dispatch."""
        kernel = self.kernel
        for tenant, handle in self.handles():
            runtime = self._live_runtime(handle)
            if runtime is None:
                continue
            record = self._member(handle)
            if record.state != RUNNING:
                continue
            enclave = runtime.enclave
            pool = set(self._pool_addrs(runtime))
            if handle.suspended:
                if handle.member_name in self.forged:
                    continue
                # Prefer a workload page; fall back to any suspend-set
                # blob (runtime/TCS) — resume must verify them all.
                candidates = (
                    adversary.suspended_pages(kernel, enclave, pool)
                    or adversary.suspended_pages(kernel, enclave))
            else:
                candidates = adversary.swapped_out(
                    kernel, enclave, kernel.backing, pool)
            if candidates:
                return tenant, handle, candidates[0]
        return None

    def state_key(self):
        """Canonical identity for dedup and the jobs digest."""
        tenants = tuple(
            (self.departed[t], self.issued[t], self.served[t],
             self.shed[t], self.aborts[t], self.recoveries[t],
             self.quarantines[t], pool.failovers,
             pool.last_primary, self.ops[t])
            for t, pool in enumerate(self.pools)
        )
        replicas = []
        for _, handle in self.handles():
            name = handle.member_name
            record = self._member(handle)
            if record is None:
                replicas.append((name, "gone"))
                continue
            runtime = self._live_runtime(handle)
            body = (canonical_state(runtime)
                    if runtime is not None else ("dead",))
            replicas.append((
                name, record.state, handle.suspended,
                name in self.forged, record.restarts, body,
            ))
        return canonical_digest((
            tenants,
            tuple(replicas),
            self.kernel.epc.free_pages,
            self.aex,
            self.arrivals,
            self.departures,
            self.arrival_refusals,
            tuple(self.violations),
        ))


# -- the action alphabet -----------------------------------------------------

def enabled_actions(world):
    """Host/service actions applicable in ``world``, canonical order.
    Pure: enabling checks never mutate the world."""
    if world.terminal:
        return []
    actions = []
    for t in range(N_TENANTS):
        # A request against a pool with no healthy replica is enabled
        # on purpose: the structured shed *is* the behaviour under
        # check (the unguarded-failover case).
        if not world.departed[t]:
            actions.append(f"req:{t}")
    if world.pools[0].healthy_count():
        actions.append("storm")
    if any(pool.healthy_count() for pool in world.pools):
        actions.append("suspend")
    if any(handle.suspended and world._live_runtime(handle) is not None
           for _, handle in world.handles()):
        actions.append("resume")
    if world._tamper_target() is not None:
        actions.append("tamper")
    if not world.departed[1]:
        actions.append("retire")
    elif world.kernel.epc.free_pages >= ARRIVE_HEADROOM:
        actions.append("arrive")
    return actions


def apply_action(world, action):
    """Apply one action.  The pool world handles structured aborts
    *inside* the actions (the service recovers and fails over rather
    than ending the run); an exception escaping to here is itself an
    invariant violation."""
    try:
        _dispatch(world, action)
    except (EnclaveTerminated, IntegrityError, EnclaveCrashed,
            SgxError) as exc:
        world.violations.append(
            f"{action}: {type(exc).__name__} escaped the pool's "
            f"failover path: {exc}")
    return world


def _dispatch(world, action):
    if action.startswith("req:"):
        _request(world, int(action.split(":", 1)[1]))
        return
    if action == "storm":
        _storm(world)
        return
    if action == "suspend":
        _suspend(world)
        return
    if action == "resume":
        _resume(world)
        return
    if action == "tamper":
        _tamper(world)
        return
    if action == "retire":
        _retire(world)
        return
    if action == "arrive":
        _arrive(world)
        return
    raise SgxError(f"unknown pool action {action!r}")


def _request(world, tenant):
    """One request: elect a primary, touch two pool pages, fail over
    on abort.  No healthy replica → structured shed, never a crash."""
    world.issued[tenant] += 1
    handle = world.pools[tenant].elect_primary()
    if handle is None:
        world.shed[tenant] += 1
        return
    if handle.suspended:
        world.violations.append(
            f"request ran on suspended replica {handle.member_name}")
    runtime = world._live_runtime(handle)
    pool = world._pool_addrs(runtime)
    k = world.ops[tenant]
    engine = world.engines[handle.member_name]
    try:
        engine.data_access(pool[k % POOL_PAGES])
        engine.data_access(pool[(k + 1) % POOL_PAGES], write=True)
    except (EnclaveTerminated, IntegrityError) as exc:
        world.aborts[tenant] += 1
        world.shed[tenant] += 1
        _recover_replica(world, tenant, handle, exc)
        return
    world.ops[tenant] += 2
    world.served[tenant] += 1


def _recover_replica(world, tenant, handle, cause):
    """The service's abort pipeline: mark down, bounded restart,
    quarantine on exhausted budget.  The pool carries the tenant
    either way — a quarantined replica just stays unhealthy."""
    name = handle.member_name
    world.recovery.mark_down(name, cause)
    try:
        world.recovery.recover(name)
    except (Quarantined, IntegrityAbort):
        world.quarantines[tenant] += 1
        return
    world.recoveries[tenant] += 1
    record = world.recovery.member(name)
    world.engines[name] = record.program.engine(record.runtime)
    handle.suspended = False
    world.forged.discard(name)


def _storm(world):
    """A train of asynchronous exits against tenant 0's primary — the
    §3.2 interrupt channel.  Costs cycles, never correctness."""
    handle = world.pools[0].elect_primary()
    if handle is None:
        return
    runtime = world._live_runtime(handle)
    adversary.aex_storm(world.kernel, runtime.enclave, runtime.tcs,
                        STORM_ROUNDS)
    world.aex += STORM_ROUNDS


def _suspend(world):
    """Suspend the lowest healthy replica (§5.2.1 whole-enclave swap):
    its pool must route around it until resume."""
    for tenant, handle in world.handles():
        if world.pools[tenant].healthy(handle):
            runtime = world._live_runtime(handle)
            world.kernel.driver.suspend_enclave(runtime.enclave)
            handle.suspended = True
            return


def _resume(world):
    """Resume the lowest suspended replica.  A blob forged while it
    was suspended must fail ELDU verification — that abort is
    structured (the replica recovers or is quarantined); resuming
    *onto* the forged state is the violation."""
    for tenant, handle in world.handles():
        runtime = world._live_runtime(handle)
        if not handle.suspended or runtime is None:
            continue
        tampered = handle.member_name in world.forged
        world.forged.discard(handle.member_name)
        try:
            world.violations += adversary.resume(
                world.kernel, runtime.enclave, forged=tampered)
        except (IntegrityError, EnclaveTerminated) as exc:
            handle.suspended = False
            world.aborts[tenant] += 1
            _recover_replica(world, tenant, handle, exc)
            return
        handle.suspended = False
        return


def _tamper(world):
    """Forge the lowest forgeable sealed pool blob.  Against a running
    replica the next touch consumes it (immediate, like the model's
    ``tamper``); against a suspended replica the forgery is silent and
    ``resume`` is the consumption point."""
    found = world._tamper_target()
    if found is None:
        return
    tenant, handle, target = found
    runtime = world._live_runtime(handle)
    adversary.tamper(world.kernel.backing, runtime.enclave, target)
    if handle.suspended:
        world.forged.add(handle.member_name)
        return
    try:
        world.engines[handle.member_name].data_access(target)
    except (EnclaveTerminated, IntegrityError) as exc:
        world.aborts[tenant] += 1
        _recover_replica(world, tenant, handle, exc)
        return
    world.violations.append(
        f"enclave resumed on tampered page {target:#x} without "
        "aborting")


def _retire(world):
    """Live churn, departure half: tear tenant 1's replicas down and
    assert EPC parity — every frame they held comes back, none of
    anyone else's do."""
    held = 0
    before = world.kernel.epc.free_pages
    for handle in world.pools[1].replicas:
        record = world._member(handle)
        if record is None:
            continue
        runtime = world._live_runtime(handle)
        if runtime is not None:
            held += len(runtime.enclave.backed)
        world.recovery.teardown(handle.member_name)
        world.engines.pop(handle.member_name, None)
        handle.suspended = False
        world.forged.discard(handle.member_name)
    freed = world.kernel.epc.free_pages - before
    if freed != held:
        world.violations.append(
            f"EPC parity broken retiring tenant 1: freed {freed} "
            f"frames, replicas held {held}")
    world.departed[1] = True
    world.departures += 1


def _arrive(world):
    """Live churn, arrival half: re-admit tenant 1 with a fresh pool.
    A boot failure under EPC pressure is a structured refusal — the
    partial pool is reclaimed and the tenant stays departed."""
    pool = world.pools[1]
    booted = []
    try:
        for handle in pool.replicas:
            # _retire cleared each handle's suspended/forged state.
            world._boot_replica(1, handle)
            booted.append(handle.member_name)
    except (SgxError, EnclaveTerminated, EnclaveCrashed):
        for name in booted:
            world.recovery.teardown(name)
            world.engines.pop(name, None)
        world.arrival_refusals += 1
        return
    world.departed[1] = False
    # The re-admitted pool keeps its lifetime failover count; only
    # the primary resets, as it would for a freshly booted pool.
    pool.last_primary = 0
    world.arrivals += 1


# -- invariants --------------------------------------------------------------

def _accounting_balance(world):
    out = []
    for t in range(N_TENANTS):
        if world.served[t] + world.shed[t] != world.issued[t]:
            out.append(
                f"tenant {t} accounting broken: {world.served[t]} "
                f"served + {world.shed[t]} shed != "
                f"{world.issued[t]} issued")
    return out


def _suspension_consistency(world):
    out = []
    for _, handle in world.handles():
        runtime = world._live_runtime(handle)
        if runtime is None:
            continue
        record = world._member(handle)
        if record.state != RUNNING:
            # A quarantined corpse may die mid-resume; it is out of
            # the election and its driver flag no longer matters.
            continue
        state = world.kernel.driver.state(runtime.enclave)
        if state.suspended != handle.suspended:
            out.append(
                f"replica {handle.member_name} suspension state "
                f"diverged: driver={state.suspended} "
                f"pool={handle.suspended}")
    return out


def check_world(world):
    """All invariant violations of one pool world (empty when safe)."""
    return (
        _accounting_balance(world)
        + epc_parity(world.kernel)
        + masked_faults(world.kernel, world.bases)
        + _suspension_consistency(world)
    )


# -- explorer entry points ---------------------------------------------------

def boot(policy_name):
    if policy_name not in WORLDS:
        raise SgxError(
            f"poolworld does not implement {policy_name!r}")
    return PoolWorld()


def replay(policy_name, trace):
    world = boot(policy_name)
    for action in trace:
        if world.terminal:
            break
        apply_action(world, action)
    return world


def successor(world, action):
    """The world after ``action``, leaving ``world`` untouched."""
    child = clone(world)
    return apply_action(child, action)
