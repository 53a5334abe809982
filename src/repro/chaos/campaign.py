"""The chaos campaign: fault plans × paging policies × seeds.

Each run boots a fresh system, installs a
:class:`~repro.chaos.injector.FaultInjector` scripted by the seed's
:class:`~repro.chaos.plan.FaultPlan`, and drives a deterministic
workload while the plan's hostile acts land.  Every run must end in one
of four safe states:

* **completed** — the workload finished and nothing the host did left
  a trace in the enclave's results;
* **degraded** — the workload finished, but only because a hardening
  mechanism absorbed faults within its declared budget (bounded
  retry-with-backoff, bounded self-eviction under quota pressure,
  cooperative ballooning);
* **aborted** — the runtime failed stop with a structured
  :class:`~repro.errors.AbortReason`;
* **recovered** — the host killed the enclave outright (possibly
  tearing the journal tail) and the supervisor restored it from the
  sealed checkpoint + journal to state *verified bit-identical* to an
  uncrashed witness, after which the workload finished.

Anything else — computing on a tampered page, leaking an unmasked
fault address, degrading past a budget, dying while claiming success —
is recorded as a safety-invariant violation and fails the campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import CRASH_KINDS, FaultKind, FaultPlan
from repro.core.config import SMALL_POLICIES, small_config
from repro.core.digest import canonical_digest
from repro.core.invariants import (
    dead_enclave,
    degradation_budget,
    masked_faults,
)
from repro.core.metrics import AbortStats
from repro.core.system import HeapWarmup
from repro.errors import (
    EnclaveTerminated,
    PolicyError,
    SgxError,
    abort_reason,
)
from repro.host import adversary
from repro.parallel import Sweep
from repro.recovery.journal import Journal
from repro.recovery.manager import RecoveryManager
from repro.recovery.scripted import ScriptedEnclave
from repro.runtime.rate_limit import ProgressKind
from repro.sgx.params import PAGE_SIZE

#: Operations per run — long enough for every scheduled event to land
#: and its consequences to surface, short enough for CI smoke sweeps.
N_OPS = 240

#: Configurations the campaign sweeps by default, every policy
#: ``small_config`` sizes: the three secure paging policies over SGX1,
#: plus rate limiting over the SGX2 paging ops so the SGX2-only fault
#: kinds (DENY_SGX2, EAUG_REFUSE against in-enclave paging) get a
#: target.  ORAM is out of scope: its accesses never reach the paging
#: path the chaos plans attack.
DEFAULT_POLICIES = SMALL_POLICIES

#: Ops after which a quota squeeze is released.
QUOTA_RESTORE_AFTER = 30

#: The squeezed quota never drops below this (the enclave could not
#: even hold its pinned runtime otherwise — a config error, not a
#: survivable fault).
QUOTA_FLOOR = 24

OUTCOME_COMPLETED = "completed"
OUTCOME_DEGRADED = "degraded"
OUTCOME_ABORTED = "aborted"
OUTCOME_RECOVERED = "recovered"
OUTCOMES = (OUTCOME_COMPLETED, OUTCOME_DEGRADED, OUTCOME_ABORTED,
            OUTCOME_RECOVERED)

#: Journal records between automatic checkpoint seals during a run.
CHECKPOINT_EVERY = 64


@dataclass(frozen=True)
class RunResult:
    """Outcome of one (seed, policy) chaos run."""

    seed: int
    policy: str
    outcome: str
    reason: str          # AbortReason value, or "" unless aborted
    ops_done: int
    cycles: int
    fired_kinds: tuple   # FaultKind values that actually fired
    degradations: int
    retried_calls: int
    balloon_freed: int
    recoveries: int      # verified crash recoveries during the run
    violations: tuple    # safety-invariant breaches (must be empty)
    digest: str          # determinism fingerprint of the whole run

    @property
    def safe(self):
        return not self.violations


class CampaignResult(Sweep):
    """The chaos sweep: one :class:`RunResult` per point."""

    @property
    def runs(self):
        return [run for _, _, run in self.points]

    @property
    def abort_stats(self):
        """policy → :class:`AbortStats` of its runs' structured
        aborts, in sweep order."""
        stats = {}
        for _, policy, run in self.points:
            stats.setdefault(policy, AbortStats())
            if run.outcome == OUTCOME_ABORTED:
                stats[policy].record(run.reason)
        return stats

    @property
    def fired_kinds(self):
        return {kind for run in self.runs for kind in run.fired_kinds}

    @property
    def recoveries(self):
        return sum(run.recoveries for run in self.runs)

    def outcome_counts(self):
        return self.count(attrgetter("outcome"))


#: Heap pages the pin-all workload warms (and seals) / the others churn.
_PIN_ALL_POOL = 48
_CHURN_POOL = 160

#: Journal tears by crash kind (a plain crash leaves the journal whole).
_TEARS = {
    FaultKind.JOURNAL_TORN_TAIL: Journal.truncate_tail,
    FaultKind.JOURNAL_CORRUPT_TAIL: Journal.corrupt_tail,
}


def check_plan(plan):
    """Reject an event the campaign's clock can never fire: one outside
    the run's operations, or one with no magnitude."""
    for event in plan.events:
        if not 0 <= event.at_op < N_OPS:
            raise ValueError(f"{event.describe()}: at_op is outside the "
                             f"run's operations 0..{N_OPS - 1}")
        if event.param < 1:
            raise ValueError(f"{event.describe()}: param must be >= 1")


class _ChaosRun(ScriptedEnclave):
    """One seeded run of one policy under one fault plan."""

    def __init__(self, seed, policy_name, exclude=(), plan=None):
        self.seed = seed
        self.policy_name = policy_name
        #: An explicit plan (a model-checker witness, a frozen
        #: regression) replaces the seed-generated one verbatim.
        self.plan = (plan if plan is not None
                     else FaultPlan.generate(seed, N_OPS, exclude=exclude))
        check_plan(self.plan)
        pages = _PIN_ALL_POOL if policy_name == "pin_all" else _CHURN_POOL
        super().__init__(small_config(policy_name),
                         HeapWarmup(policy_name, pages),
                         f"chaos-{policy_name}-{seed}")
        heap = self.runtime.regions["heap"]
        #: The heap pages the workload churns over.
        self.pool = [heap.start + i * PAGE_SIZE for i in range(pages)]
        self.injector = FaultInjector(
            self.plan, self.kernel, self.enclave,
            self.runtime.paging_ops.store,
        ).install()
        # Workload randomness is decoupled from plan randomness so the
        # same plan hits an identical access stream on every policy.
        self.rng = random.Random((seed << 16) ^ 0xC7A05)
        self.ops_done = 0
        self.event = None
        self._quota_restores = {}

    # -- driving -----------------------------------------------------------

    def execute(self):
        self.warm_up()
        self.manager = RecoveryManager(
            self.runtime,
            auto_checkpoint_every=CHECKPOINT_EVERY,
            # The witness trace costs a fingerprint per record; keep it
            # only when this plan can actually crash the enclave.
            keep_trace=bool(set(CRASH_KINDS) & self.plan.kinds()),
        )
        self.manager.begin()
        op_events = {}
        for event in self.plan.op_events():
            op_events.setdefault(event.at_op, []).append(event)
        outcome, reason = OUTCOME_COMPLETED, ""
        try:
            for i in range(N_OPS):
                self.injector.advance_to_op(i)
                self._release_quota(i)
                for event in op_events.get(i, ()):
                    self._apply(event)
                vaddr = self.rng.choice(self.pool)
                self.engine.data_access(vaddr,
                                        write=self.rng.random() < 0.25)
                self.engine.compute(1_000)
                if i % 8 == 7:
                    self.engine.progress(ProgressKind.SYSCALL)
                self.ops_done += 1
        except (EnclaveTerminated, SgxError, PolicyError) as exc:
            # A structured abort, or a host-side rejection such as ELDU
            # refusing a forged blob during a resume: fail-stop either
            # way, the enclave never ran on the bad state.
            outcome, reason = OUTCOME_ABORTED, abort_reason(exc)
        finally:
            self.injector.uninstall()
        if outcome == OUTCOME_COMPLETED and self._absorbed_faults():
            outcome = OUTCOME_DEGRADED
        if outcome != OUTCOME_ABORTED and self.recoveries:
            # The run survived at least one scripted kill via verified
            # restore — the fourth legal terminal state.
            outcome = OUTCOME_RECOVERED
        self._check_invariants(outcome)
        return self._result(outcome, reason)

    def _absorbed_faults(self):
        pager = self.runtime.pager
        balloon = self.runtime.balloon
        return (
            pager.degradations > 0
            or self.runtime.paging_ops.retried_calls > 0
            or (balloon is not None and balloon.pages_surrendered > 0)
        )

    # -- op-level fault application ---------------------------------------

    def record(self, detail):
        self.injector.record_op_event(self.event, detail)

    def _skip(self, why):
        self.injector.record_skipped(self.event, why)

    def _apply(self, event):
        self.event = event
        kind = event.kind
        heap = self.runtime.regions["heap"]
        if kind is FaultKind.QUOTA_SQUEEZE:
            self._squeeze_quota(event)
        elif kind is FaultKind.BALLOON_REQUEST:
            freed = self.kernel.request_memory_reduction(
                self.enclave, event.param
            )
            self.record(f"requested {event.param}, freed {freed}")
        elif kind in (FaultKind.TAMPER_BACKING, FaultKind.REPLAY_STALE):
            replay = kind is FaultKind.REPLAY_STALE
            # Where this runtime's sealed pages live: the kernel's EWB
            # store on SGX1, the runtime's own on SGX2.
            backing = self.runtime.paging_ops.store
            targets = adversary.swapped_out(
                self.kernel, self.enclave, backing, heap, stale=replay)
            if not targets:
                self._skip("no swapped-out heap page to attack")
                return
            self.tamper(backing, self.rng.choice(targets), replay)
        elif kind is FaultKind.AEX_STORM:
            adversary.aex_storm(self.kernel, self.enclave, self.runtime.tcs,
                                event.param)
            self.record(f"{event.param} interrupt round trips")
        elif kind is FaultKind.SPURIOUS_EENTER:
            self.record("EENTER out of protocol")
            self.kernel.cpu.eenter(self.enclave, self.runtime.tcs)
            self.violations.append(
                "spurious EENTER was dispatched instead of rejected"
            )
        elif kind is FaultKind.SUSPEND_RESUME:
            self.kernel.driver.suspend_enclave(self.enclave)
            self.kernel.driver.resume_enclave(self.enclave)
            self.record("suspended and restored")
        elif kind is FaultKind.SUSPEND_TAMPER:
            self._suspend_tamper(heap)
        elif kind in (FaultKind.UNMAP_RESIDENT, FaultKind.AD_CLEAR):
            resident = [v for v in self.runtime.pager.resident_pages()
                        if heap.contains(v)]
            if not resident:
                self._skip("no resident heap page")
                return
            self.clobber(self.rng.choice(resident),
                         clear_ad=kind is FaultKind.AD_CLEAR)
        elif kind in CRASH_KINDS:
            if kind is not FaultKind.CRASH_ENCLAVE and \
                    not self.manager.journal:
                self._skip("no journal tail to tear")
                return
            self.crash_and_restore(_TEARS.get(kind))
        else:
            raise PolicyError(f"unhandled op-level fault {kind}")

    def adopt(self, runtime):
        super().adopt(runtime)
        self.injector.enclave = runtime.enclave
        self.injector.store = runtime.paging_ops.store
        # Pending quota restores belonged to the dead incarnation; the
        # relaunch starts from the full configured quota.
        self._quota_restores.clear()

    def _squeeze_quota(self, event):
        state = self.kernel.driver.state(self.enclave)
        cut = min(event.param, max(0, state.quota_pages - QUOTA_FLOOR))
        if cut <= 0:
            self._skip("quota already minimal")
            return
        state.quota_pages -= cut
        restore_at = min(N_OPS - 1, event.at_op + QUOTA_RESTORE_AFTER)
        self._quota_restores[restore_at] = (
            self._quota_restores.get(restore_at, 0) + cut
        )
        self.record(f"quota cut by {cut} to {state.quota_pages}")

    def _release_quota(self, op_index):
        back = self._quota_restores.pop(op_index, 0)
        if back:
            self.kernel.driver.state(self.enclave).quota_pages += back

    def _suspend_tamper(self, heap):
        """Suspend, forge one heap page of the suspend set, resume: ELDU
        must reject the forged page during the restore.  Only pages
        evicted by this suspend are sure to be reloaded by the resume —
        forging anything else just leaves a tainted blob for a later
        fetch to trip over."""
        self.kernel.driver.suspend_enclave(self.enclave)
        targets = adversary.suspended_pages(self.kernel, self.enclave, heap)
        if not targets:
            self.kernel.driver.resume_enclave(self.enclave)
            self._skip("nothing swapped to forge")
            return
        adversary.tamper(self.kernel.backing, self.enclave,
                         self.rng.choice(targets))
        self.record("suspended, forged a suspend-set blob, resuming")
        self.violations += adversary.resume(self.kernel, self.enclave,
                                            forged=True)

    # -- invariants and reporting ------------------------------------------

    def _check_invariants(self, outcome):
        self.violations += masked_faults(self.kernel, (self.enclave.base,))
        if self.injector.silent_consumption:
            pages = [hex(v) for v in self.injector.silent_consumption]
            self.violations.append(
                f"tainted blobs consumed without abort: {pages}"
            )
        self.violations += degradation_budget(self.runtime.pager)
        self.violations += dead_enclave(
            self.enclave, outcome == OUTCOME_ABORTED
        )

    def _result(self, outcome, reason):
        pager = self.runtime.pager
        balloon = self.runtime.balloon
        fired = tuple(sorted(k.value for k in self.injector.fired_kinds))
        fingerprint = (
            self.seed, self.policy_name, outcome, reason, self.ops_done,
            self.kernel.clock.cycles, fired, pager.degradations,
            self.runtime.paging_ops.retried_calls,
            len(self.kernel.fault_log), len(self.injector.events),
            self.recoveries, self.manager.records_written,
            self.manager.records_replayed, tuple(self.violations),
        )
        return RunResult(
            seed=self.seed,
            policy=self.policy_name,
            outcome=outcome,
            reason=reason,
            ops_done=self.ops_done,
            cycles=self.kernel.clock.cycles,
            fired_kinds=fired,
            degradations=pager.degradations,
            retried_calls=self.runtime.paging_ops.retried_calls,
            balloon_freed=(
                balloon.pages_surrendered if balloon is not None else 0
            ),
            recoveries=self.recoveries,
            violations=tuple(self.violations),
            digest=canonical_digest(fingerprint)[:16],
        )


def run_one(seed, policy_name, exclude=()):
    """Run one seed against one policy; returns a :class:`RunResult`."""
    return _ChaosRun(seed, policy_name, exclude=exclude).execute()


def run_plan(plan, policy_name):
    """Replay an explicit :class:`~repro.chaos.plan.FaultPlan` against
    one policy; returns a :class:`RunResult`.

    This is the replay half of the model checker's counterexample
    export: a minimized violation (or safety witness) serialized as a
    plan must drive the full campaign workload to the same outcome
    class it had inside the checker.
    """
    return _ChaosRun(plan.seed, policy_name, plan=plan).execute()


def run_campaign(seeds, policies=DEFAULT_POLICIES,
                 check_determinism=True, jobs=1, exclude=()):
    """Sweep ``seeds`` × ``policies``; returns a :class:`CampaignResult`.

    With ``check_determinism`` every run executes twice from scratch
    and the two digests must agree — the property that makes a chaos
    failure replayable from nothing but its seed.

    ``jobs > 1`` fans the independent ``(seed, policy)`` points over a
    process pool; results are merged in the canonical seed-outer,
    policy-inner order, so the campaign result — every run, digest,
    and aggregate — is identical to the serial sweep.

    ``exclude`` removes fault kinds from every generated plan (the
    ``--no-crash`` switch passes :data:`~repro.chaos.plan.CRASH_KINDS`).
    """
    return CampaignResult.run_grid(
        partial(run_one, exclude=tuple(exclude)), seeds, policies,
        check_determinism, jobs)
