"""The small-model world: tiny systems, host actions, outcome classes.

One :class:`World` is a fully booted Autarky stack — kernel, enclave,
runtime, policy, recovery manager — over a deliberately tiny EPC, with
the lifecycle oracle attached, plus the bookkeeping the invariant layer
needs (outcome class, violations, pending quota restores).  The model
checker explores the tree of *host action* interleavings over such
worlds; every action drives the same runtime code paths the chaos
campaign and the experiments use — the model is the implementation.

Actions are the host acts of :mod:`repro.host.adversary`, applied
through :class:`~repro.recovery.scripted.ScriptedEnclave` as the chaos
campaign applies them, but the model chooses its own targets: the
lowest address, never an RNG, so that a state is a pure function of
its action trace.  The four safe outcome classes are the campaign's:
``completed`` (still running, nothing absorbed), ``degraded``
(hardening absorbed faults within budget), ``aborted`` (structured
fail-stop), ``recovered`` (verified crash restore).  Anything else is
an invariant violation.
"""

from __future__ import annotations

from repro.analysis.passes.lifecycle.oracle import LifecycleOracle
from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultEvent, FaultKind, FaultPlan
from repro.core.config import SystemConfig
from repro.core.digest import canonical_digest
from repro.core.system import HeapWarmup
from repro.errors import (
    EnclaveCrashed,
    EnclaveTerminated,
    PolicyError,
    SgxError,
    abort_reason,
)
from repro.host import adversary
from repro.modelcheck.copier import clone
from repro.modelcheck.toys import break_policy
from repro.recovery.manager import RecoveryManager
from repro.recovery.scripted import ScriptedEnclave
from repro.recovery.state import canonical_state
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


class World(ScriptedEnclave):
    """One explored state: a live tiny system plus model bookkeeping."""

    def __init__(self, policy_name):
        self.policy_name = policy_name
        super().__init__(tiny_config(policy_name),
                         HeapWarmup(policy_name, N_POOL),
                         f"modelcheck-{policy_name}")
        self.warm_up()
        if policy_name == "broken":
            break_policy(self.runtime)
        heap = self.runtime.regions["heap"]
        # The warm-up's cluster allocation covers these same pages.
        self.pool = [heap.start + i * PAGE_SIZE for i in range(N_POOL)]
        #: One page outside the pool for claim/release round trips.
        self.spare = heap.start + (heap.npages - 1) * PAGE_SIZE
        self.oracle = LifecycleOracle().install(self.kernel)
        self.manager = RecoveryManager(self.runtime, keep_trace=True)
        self.oracle.watch_manager(self.manager)
        self.manager.begin()
        #: Outcome class: "running" until a structured abort ends the
        #: world (terminal states are never expanded).
        self.outcome = OUTCOME_RUNNING
        self.reason = ""
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
        """Pool pages with a forgeable sealed blob: in the kernel's
        backing store on SGX1, in the runtime's own store on SGX2."""
        return adversary.swapped_out(self.kernel, self.enclave,
                                     self.runtime.paging_ops.store,
                                     self.pool)

    def adopt(self, runtime):
        super().adopt(runtime)
        if self.policy_name == "broken":
            break_policy(runtime)
        # Pending quota restores belonged to the dead incarnation, and
        # the relaunched incarnation boots unsuspended (any forged
        # suspend-set blob died with the old enclave id).
        self.squeezed = 0
        self.suspended = False
        self.suspend_tampered = False

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
    except EnclaveCrashed:
        world.violations.append(
            f"{action}: crash escaped the supervisor restore path")
    except (EnclaveTerminated, SgxError, PolicyError) as exc:
        world.outcome = OUTCOME_ABORTED
        world.reason = abort_reason(exc)
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
        world.clobber(min(world.resident_pool()))
        return
    if action == "tamper":
        if world.suspended:
            _tamper_suspend_set(world)
        else:
            world.tamper(world.runtime.paging_ops.store,
                         min(world.swapped_pool()))
        return
    if action == "suspend":
        world.kernel.driver.suspend_enclave(world.enclave)
        world.suspended = True
        return
    if action == "resume":
        world.violations += adversary.resume(
            world.kernel, world.enclave, forged=world.suspend_tampered)
        # Cleared only once the resume returned: a rejected resume
        # leaves the world suspended with its forgery.
        world.suspended = False
        world.suspend_tampered = False
        return
    if action.startswith("deny:"):
        _deny_fetch(world, int(action.split(":", 1)[1]))
        return
    if action == "crash":
        world.crash_and_restore()
        return
    if action == "rollback":
        world.rollback()
        return
    raise PolicyError(f"unknown model action {action!r}")


def _tamper_suspend_set(world):
    """Forge one sealed blob of a *suspended* enclave.  Suspension
    (§5.2.1) evicts the whole working set into the kernel backing
    store — under either SGX version, since the driver's big hammer
    bypasses enclave-managed paging — so the consumption point is the
    resume's ELDU train, not a page fault.  The forgery itself is
    silent; ``resume`` must reject it."""
    kernel, enclave = world.kernel, world.enclave
    target = (adversary.suspended_pages(kernel, enclave, world.pool)
              or adversary.suspended_pages(kernel, enclave))[0]
    adversary.tamper(kernel.backing, enclave, target)
    world.suspend_tampered = True


#: Single-event plans for the deny actions, one per SGX version: the
#: same scripted refusal the chaos campaign arms, straddling the paging
#: retry budget (param 2 is absorbed, param 6 exhausts it).
def _deny_fetch(world, count):
    kind = (FaultKind.DENY_SGX2
            if world.policy_name == "rate_limit_sgx2"
            else FaultKind.DENY_FETCH)
    plan = FaultPlan(seed=0, events=(
        FaultEvent(kind=kind, at_op=0, param=count),))
    injector = FaultInjector(plan, world.kernel, world.enclave,
                             world.runtime.paging_ops.store).install()
    target = min(p for p in world.pool
                 if not world.kernel.driver.resident(world.enclave, p))
    try:
        injector.advance_to_op(0)
        world.engine.data_access(target)
    finally:
        injector.uninstall()
        world.silent_consumption.extend(injector.silent_consumption)


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
