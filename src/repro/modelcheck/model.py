"""The small-model world: tiny systems, host actions, outcome classes.

One :class:`World` is a fully booted Autarky stack — kernel, enclave,
runtime, policy, recovery manager — over a deliberately tiny EPC, with
the lifecycle oracle attached, plus the bookkeeping the invariant layer
needs (outcome class, violations, pending quota restores).  The model
checker explores the tree of *host action* interleavings over such
worlds; every action drives the same runtime code paths the chaos
campaign and the experiments use — the model is the implementation.

Actions mirror :mod:`repro.chaos.campaign`'s fault applications but are
fully deterministic (targets are chosen by lowest address, never by
RNG) so that a state is a pure function of its action trace.  The four
safe outcome classes are the campaign's: ``completed`` (still running,
nothing absorbed), ``degraded`` (hardening absorbed faults within
budget), ``aborted`` (structured fail-stop), ``recovered`` (verified
crash restore).  Anything else is an invariant violation.
"""

from __future__ import annotations

from repro.analysis.passes.lifecycle.oracle import LifecycleOracle
from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultEvent, FaultKind, FaultPlan
from repro.core.config import SystemConfig
from repro.core.digest import canonical_digest
from repro.core.system import AutarkySystem
from repro.errors import (
    AbortReason,
    EnclaveCrashed,
    EnclaveTerminated,
    IntegrityError,
    PolicyError,
    SgxError,
)
from repro.modelcheck.copier import clone
from repro.recovery.manager import RecoveryManager
from repro.recovery.program import EnclaveProgram
from repro.recovery.state import canonical_state
from repro.recovery.state import fingerprint as state_fingerprint
from repro.runtime.rate_limit import ProgressKind
from repro.sgx.params import PAGE_SIZE, SgxVersion

#: Policies ``--policy all`` sweeps: the paper's four designs plus the
#: SGX2 variant of rate limiting, whose eviction path exercises the
#: EMODPR/EACCEPT protocol half.  ``broken`` (the seeded-bug toy from
#: :mod:`repro.modelcheck.toys`) is opt-in only.
POLICIES = ("pin_all", "clusters", "rate_limit", "rate_limit_sgx2",
            "oram")

#: Workload pages the actions churn over (three is enough to force
#: eviction under the tiny quota while keeping the branching factor
#: exhaustive-explorable).
N_POOL = 3

#: Quota pages one squeeze action takes away (restored by unsqueeze).
SQUEEZE_CUT = 2

#: Quota floor for the tiny config: below this the enclave could not
#: hold its pinned runtime — a config error, not a survivable fault.
QUOTA_FLOOR = 12

OUTCOME_RUNNING = "running"
OUTCOME_ABORTED = "aborted"


def tiny_config(policy_name):
    """A validated tiny system: boots in ~1 ms, pages under pressure.

    ``enclave_managed_budget`` must stay >= ``runtime_pages`` plus the
    driver's eviction batch, and the quota floor must cover the pinned
    bootstrap set; these are the smallest values that boot every
    policy.
    """
    common = dict(
        epc_pages=64,
        quota_pages=18,
        runtime_pages=2,
        code_pages=2,
        data_pages=2,
        heap_pages=8,
    )
    if policy_name == "pin_all":
        return SystemConfig.for_policy(
            "pin_all", enclave_managed_budget=18, **common)
    if policy_name == "clusters":
        return SystemConfig.for_policy(
            "clusters", cluster_pages=2, enclave_managed_budget=18,
            **common)
    if policy_name in ("rate_limit", "broken"):
        return SystemConfig.for_policy(
            "rate_limit", max_faults_per_progress=8, grace_faults=16,
            enclave_managed_budget=18, **common)
    if policy_name == "rate_limit_sgx2":
        return SystemConfig.for_policy(
            "rate_limit", max_faults_per_progress=8, grace_faults=16,
            enclave_managed_budget=18, sgx_version=SgxVersion.SGX2,
            **common)
    if policy_name == "oram":
        return SystemConfig.for_policy(
            "oram", oram_tree_pages=8, oram_cache_pages=4,
            enclave_managed_budget=18, **common)
    raise PolicyError(f"model checker does not cover {policy_name!r}")


def _bootstrap(runtime, policy_name):
    """The deterministic pre-``begin`` warm-up, shared verbatim between
    first boot and post-crash relaunch (the sealed base checkpoint's
    fingerprint depends on the two being bit-identical)."""
    heap = runtime.regions["heap"]
    if policy_name == "pin_all":
        for i in range(N_POOL):
            runtime.access(heap.start + i * PAGE_SIZE)
        runtime.policy.seal()
    elif policy_name == "clusters":
        runtime.allocator.alloc_pages(N_POOL)


class World:
    """One explored state: a live tiny system plus model bookkeeping."""

    def __init__(self, policy_name):
        self.policy_name = policy_name
        config = tiny_config(policy_name)
        self.system = AutarkySystem(config)
        self.kernel = self.system.kernel
        self.runtime = self.system.runtime
        self.enclave = self.system.enclave
        self.program = EnclaveProgram(
            config=config,
            warmup=_Warmup(policy_name),
            name=f"modelcheck-{policy_name}",
        )
        _bootstrap(self.runtime, policy_name)
        if policy_name == "broken":
            from repro.modelcheck.toys import break_policy
            break_policy(self.runtime)
        if policy_name == "clusters":
            heap = self.runtime.regions["heap"]
            # alloc_pages returned the same deterministic addresses the
            # relaunch warm-up will produce.
            self.pool = [heap.start + i * PAGE_SIZE
                         for i in range(N_POOL)]
        else:
            heap = self.runtime.regions["heap"]
            self.pool = [heap.start + i * PAGE_SIZE
                         for i in range(N_POOL)]
        #: One page outside the pool for claim/release round trips.
        self.spare = heap.start + (config.heap_pages - 1) * PAGE_SIZE
        self.engine = self.system.engine()
        self.oracle = LifecycleOracle().install(self.kernel)
        self.manager = RecoveryManager(self.runtime, keep_trace=True)
        self.oracle.watch_manager(self.manager)
        self.manager.begin()
        #: Outcome class: "running" until a structured abort ends the
        #: world (terminal states are never expanded).
        self.outcome = OUTCOME_RUNNING
        self.reason = ""
        self.recoveries = 0
        self.violations = []
        #: Quota pages taken by squeeze actions, owed back by unsqueeze.
        self.squeezed = 0
        #: Whole-enclave suspension (§5.2.1): while True the enclave
        #: cannot run and the host's only moves are resume, forging
        #: the suspend-set blobs, or killing it.
        self.suspended = False
        #: A suspend-set blob was forged while suspended; the next
        #: resume must reject it (ELDU integrity) or the world is
        #: unsafe.
        self.suspend_tampered = False
        #: Fault kinds fired through the per-action injector, and pages
        #: whose tainted blobs were consumed without an abort.
        self.silent_consumption = []

    # -- derived state ------------------------------------------------------

    @property
    def terminal(self):
        return self.outcome is not OUTCOME_RUNNING or bool(self.violations)

    def driver_state(self):
        return self.kernel.driver.state(self.enclave)

    def resident_pool(self):
        return [v for v in self.pool
                if self.kernel.driver.resident(self.enclave, v)]

    def swapped_pool(self):
        sealed = getattr(self.runtime.paging_ops, "_sealed", None)
        if sealed is not None:
            # SGX2: sealed blobs live in runtime-owned untrusted memory,
            # not the kernel backing store.
            swapped = set(sealed)
        else:
            swapped = set(self.kernel.backing.swapped_pages(
                self.enclave.enclave_id))
        return [v for v in self.pool
                if v in swapped
                and not self.kernel.driver.resident(self.enclave, v)]

    def state_key(self):
        """Canonical identity of this state, for dedup and the
        jobs-determinism digest.  Extends the recovery layer's
        canonical runtime state with everything else the model lets
        the host vary: quota, EPC occupancy, journal length, outcome
        class, and oracle verdicts."""
        runtime_state = (canonical_state(self.runtime)
                         if not self.enclave.dead else ("dead",))
        try:
            quota = self.driver_state().quota_pages
        except KeyError:
            # Aborted mid-recovery: the dead incarnation was reclaimed
            # and no successor was adopted.
            quota = None
        return canonical_digest((
            self.policy_name,
            runtime_state,
            quota,
            self.kernel.epc.free_pages,
            self.manager.records_written,
            len(self.manager.checkpoints),
            self.outcome,
            self.reason,
            self.recoveries,
            self.squeezed,
            self.suspended,
            self.suspend_tampered,
            tuple(self.violations),
            tuple(self.oracle.violations),
        ))


class _Warmup:
    """Picklable relaunch warm-up closure for :class:`EnclaveProgram`."""

    def __init__(self, policy_name):
        self.policy_name = policy_name

    def __call__(self, runtime):
        _bootstrap(runtime, self.policy_name)


# -- the action alphabet ----------------------------------------------------

#: Canonical action order: exploration, dedup-truncation, and digests
#: all follow it, which is what makes ``--jobs N`` bit-identical.
def enabled_actions(world):
    """Host actions applicable in ``world``, in canonical order."""
    if world.terminal:
        return []
    policy = world.policy_name
    if world.suspended:
        # §5.2.1: a suspended enclave cannot run.  The host's only
        # moves are resuming it, forging its suspend-set blobs, or
        # killing it outright.
        actions = ["resume"]
        if policy not in ("pin_all", "oram") and \
                not world.suspend_tampered:
            actions.append("tamper")
        actions.append("crash")
        return actions
    actions = [f"touch:{i}" for i in range(len(world.pool))]
    actions.append("progress")
    pager = world.runtime.pager
    if not pager.is_managed(world.spare):
        actions.append("claim")
    else:
        actions.append("release")
    # Late clustering (regroup) is an enclave-side idiom of the paging
    # policies; regrouping pin_all's sealed set would self-sabotage.
    if policy not in ("pin_all", "oram") and \
            len(world.resident_pool()) >= 2:
        actions.append("regroup")
    actions.append("balloon")
    quota = world.driver_state().quota_pages
    if quota - SQUEEZE_CUT >= QUOTA_FLOOR:
        actions.append("squeeze")
    if world.squeezed:
        actions.append("unsqueeze")
    if policy != "oram" and world.resident_pool():
        actions.append("unmap")
    if policy not in ("pin_all", "oram") and world.swapped_pool():
        actions.append("tamper")
    if policy not in ("pin_all", "oram") and world.swapped_pool():
        actions.append("deny:2")
        actions.append("deny:6")
    # Whole-enclave suspension is the OS's §5.2.1 big hammer; it is
    # never used on a sealed (pin_all) working set, and the ORAM
    # policy's tree pages are not suspend-restorable in the model.
    if policy not in ("pin_all", "oram"):
        actions.append("suspend")
    actions.append("crash")
    actions.append("rollback")
    return actions


def apply_action(world, action):
    """Apply one host action, classifying the outcome the way the
    chaos campaign does: structured aborts are safe terminals, any
    other escape is an invariant violation."""
    try:
        _dispatch(world, action)
    except EnclaveTerminated as exc:
        world.outcome = OUTCOME_ABORTED
        world.reason = exc.reason.value if exc.reason else "unclassified"
    except IntegrityError:
        # Host-side rejection (ELDU refused a forged blob): the enclave
        # never ran on the bad state.
        world.outcome = OUTCOME_ABORTED
        world.reason = AbortReason.INTEGRITY.value
    except EnclaveCrashed:
        world.violations.append(
            f"{action}: crash escaped the supervisor restore path")
    except (SgxError, PolicyError) as exc:
        world.outcome = OUTCOME_ABORTED
        world.reason = f"unclassified({type(exc).__name__})"
    _post_checks(world, action)
    return world


def _dispatch(world, action):
    if action.startswith("touch:"):
        index = int(action.split(":", 1)[1])
        world.engine.data_access(world.pool[index],
                                 write=(index % 2 == 1))
        return
    if action == "progress":
        world.engine.progress(ProgressKind.SYSCALL)
        return
    if action == "claim":
        world.runtime.claim([world.spare])
        return
    if action == "release":
        world.runtime.release([world.spare])
        return
    if action == "regroup":
        world.runtime.pager.regroup(world.resident_pool()[:2])
        return
    if action == "balloon":
        world.kernel.request_memory_reduction(world.enclave, 2)
        return
    if action == "squeeze":
        world.driver_state().quota_pages -= SQUEEZE_CUT
        world.squeezed += SQUEEZE_CUT
        return
    if action == "unsqueeze":
        world.driver_state().quota_pages += world.squeezed
        world.squeezed = 0
        return
    if action == "unmap":
        _unmap_resident(world)
        return
    if action == "tamper":
        if world.suspended:
            _tamper_suspend_set(world)
        else:
            _tamper_backing(world)
        return
    if action == "suspend":
        world.kernel.driver.suspend_enclave(world.enclave)
        world.suspended = True
        return
    if action == "resume":
        _resume_suspended(world)
        return
    if action.startswith("deny:"):
        _deny_fetch(world, int(action.split(":", 1)[1]))
        return
    if action == "crash":
        _crash_and_recover(world)
        return
    if action == "rollback":
        _rollback_attack(world)
        return
    raise PolicyError(f"unknown model action {action!r}")


def _unmap_resident(world):
    """The controlled-channel probe: clobber the PTE of a page the
    enclave believes resident, then touch it.  The fault must be
    diagnosed as an attack — servicing it is the leak."""
    target = min(world.resident_pool())
    world.kernel.page_table.drop(target)
    world.engine.data_access(target)
    world.violations.append(
        f"OS-induced fault on resident page {target:#x} was serviced "
        "instead of detected")


def _tamper_backing(world):
    """Forge the sealed blob of a swapped-out page, then touch it; the
    reload must fail integrity verification.  On SGX1 the blob sits in
    the kernel's backing store; on SGX2 it sits in untrusted memory the
    runtime owns (``paging_ops._sealed``) — a Byzantine host can scribble
    on either."""
    import dataclasses

    target = min(world.swapped_pool())
    sealed = getattr(world.runtime.paging_ops, "_sealed", None)
    if sealed is not None:
        sealed[target] = dataclasses.replace(
            sealed[target], mac="forged-by-model")
    else:
        world.kernel.backing.forge(
            world.enclave.enclave_id, target, "forged-by-model")
    world.engine.data_access(target)
    world.violations.append(
        f"enclave resumed on tampered page {target:#x} without aborting")


def _tamper_suspend_set(world):
    """Forge one sealed blob of a *suspended* enclave.  Suspension
    (§5.2.1) evicts the whole working set into the kernel backing
    store — under either SGX version, since the driver's big hammer
    bypasses enclave-managed paging — so the consumption point is the
    resume's ELDU train, not a page fault.  The forgery itself is
    silent; ``resume`` must reject it."""
    state = world.driver_state()
    in_pool = [base for base in state.suspend_set if base in world.pool]
    target = min(in_pool) if in_pool else min(state.suspend_set)
    world.kernel.backing.forge(
        world.enclave.enclave_id, target, "forged-by-model")
    world.suspend_tampered = True


def _resume_suspended(world):
    """Resume a suspended enclave: every suspend-set blob is ELDU-
    restored, and a blob forged while suspended must fail integrity
    verification there — resuming onto forged state is the leak."""
    tampered = world.suspend_tampered
    world.kernel.driver.resume_enclave(world.enclave)
    world.suspended = False
    world.suspend_tampered = False
    if tampered:
        world.violations.append(
            "resume restored a forged suspend-set blob without "
            "aborting")


#: Single-event plans for the deny actions, one per SGX version: the
#: same scripted refusal the chaos campaign arms, straddling the paging
#: retry budget (param 2 is absorbed, param 6 exhausts it).
def _deny_fetch(world, count):
    kind = (FaultKind.DENY_SGX2
            if world.policy_name == "rate_limit_sgx2"
            else FaultKind.DENY_FETCH)
    plan = FaultPlan(seed=0, events=(
        FaultEvent(kind=kind, at_op=0, param=count),))
    injector = FaultInjector(plan, world.kernel, world.enclave).install()
    target = min(p for p in world.pool
                 if not world.kernel.driver.resident(world.enclave, p))
    try:
        injector.advance_to_op(0)
        world.engine.data_access(target)
    finally:
        world.silent_consumption.extend(injector.silent_consumption)
        injector.uninstall()


def _crash_and_recover(world):
    """The host kills the enclave; the supervisor path reclaims the
    corpse, relaunches, replays the journal, and verifies the restored
    state against the uncrashed witness trace."""
    manager = world.manager
    try:
        manager.crash()
    except EnclaveCrashed:
        pass  # the model *is* the host script that killed it
    world.kernel.driver.reclaim_enclave(world.enclave)
    runtime = world.program.launch(world.kernel)
    applied = manager.restore(runtime)
    if state_fingerprint(runtime) != manager.trace[applied]:
        world.violations.append(
            f"recovered state diverged from the uncrashed witness at "
            f"journal position {applied}")
    _adopt(world, runtime)
    world.recoveries += 1


def _rollback_attack(world):
    """Seal a fresh checkpoint, have the host drop it, then crash: the
    restore must detect the rollback via the monotonic counter and
    fail stop with an integrity abort."""
    manager = world.manager
    manager.seal_checkpoint()
    manager.checkpoints.blobs.pop()
    try:
        manager.crash()
    except EnclaveCrashed:
        pass
    world.kernel.driver.reclaim_enclave(world.enclave)
    runtime = world.program.launch(world.kernel)
    manager.restore(runtime)  # must raise IntegrityAbort
    _adopt(world, runtime)
    world.violations.append(
        "restore accepted a rolled-back checkpoint set")


def _adopt(world, runtime):
    """Point every handle at the restored incarnation (the model's
    version of the campaign's ``_adopt``)."""
    world.runtime = runtime
    world.enclave = runtime.enclave
    world.system.runtime = runtime
    world.system.policy = runtime.policy
    if world.policy_name == "broken":
        from repro.modelcheck.toys import break_policy
        break_policy(runtime)
    world.engine = world.program.engine(runtime)
    # Pending quota restores belonged to the dead incarnation, and the
    # relaunched incarnation boots unsuspended (any forged suspend-set
    # blob died with the old enclave id).
    world.squeezed = 0
    world.suspended = False
    world.suspend_tampered = False


def _post_checks(world, action):
    """Per-action safety checks that cannot wait for the global
    invariant pass (they need the action's context)."""
    if world.silent_consumption:
        pages = [hex(v) for v in world.silent_consumption]
        world.violations.append(
            f"tainted blobs consumed without abort: {pages}")
        world.silent_consumption = []


# -- replay -----------------------------------------------------------------

def boot(policy_name):
    """A fresh world for ``policy_name`` (trace position zero)."""
    return World(policy_name)


def replay(policy_name, trace):
    """Deterministically rebuild the world at the end of ``trace``."""
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
