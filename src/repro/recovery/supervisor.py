"""The multi-enclave recovery supervisor.

Drives a fleet of enclave programs on one kernel, restoring crashed or
aborted members instead of dying with them:

state machine per enclave (see docs/recovery.md)::

    RUNNING --crash/abort--> DOWN --restore ok--> RUNNING
                              |  (bounded restarts, exponential
                              |   backoff, re-attestation, verified
                              |   checkpoint+journal replay)
                              +--budget exhausted--> QUARANTINED

Quarantine is deliberate, not a failure mode: restart churn is itself
a signal (§5.3 — one bit of leakage per restart), so an enclave that
keeps dying is taken out of rotation with a structured
``AbortReason.QUARANTINED`` instead of being restarted forever.  The
restart loop is bounded and each wait is charged to the simulated
clock — the analyzer's ``robustness/unbounded-restart`` rule holds this
module to the same standard it imposes on everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import Category
from repro.errors import (
    ChaosAbort,
    EnclaveCrashed,
    EnclaveTerminated,
    EpcExhausted,
    HostCallDenied,
    IntegrityAbort,
    Quarantined,
    SgxError,
)
from repro.recovery.manager import RecoveryManager
from repro.runtime.attestation import AttestationService
from repro.runtime.backoff import RetryPolicy

RUNNING = "running"
DOWN = "down"
QUARANTINED = "quarantined"


@dataclass
class RestartPolicy:
    """Bounded restarts with exponential, cycle-charged backoff."""

    max_restarts: int = 3
    backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=4, base_cycles=50_000, multiplier=4
        )
    )


@dataclass
class SupervisedEnclave:
    """Supervisor bookkeeping for one fleet member."""

    name: str
    program: object
    runtime: object
    manager: RecoveryManager
    attestation: AttestationService
    state: str = RUNNING
    restarts: int = 0
    failures: list = field(default_factory=list)


class RecoverySupervisor:
    """Launch, supervise, restore, and quarantine enclaves on one kernel."""

    def __init__(self, kernel, restart_policy=None,
                 auto_checkpoint_every=64, keep_trace=False):
        self.kernel = kernel
        self.restart_policy = restart_policy or RestartPolicy()
        self.auto_checkpoint_every = auto_checkpoint_every
        self.keep_trace = keep_trace
        self._fleet = {}
        # Lifetime counters surfaced by :meth:`stats` (callers — the
        # service breaker, metrics endpoints — read these instead of
        # poking private fields or summing over a fleet that shrinks
        # as members are torn down).
        self._restarts_retired = 0
        self._backoff_cycles = 0
        self._recoveries = 0
        self._quarantines = 0

    # -- lifecycle ---------------------------------------------------------

    def launch(self, name, program):
        """Launch a program, attest it, seal its base checkpoint.

        A launch that dies mid-build (warm-up cannot pin its pages
        under EPC pressure, the program's own policy aborts it) or
        fails attestation (a legacy enclave without the self-paging
        attribute) leaves no handle behind — reclaim the partial
        enclave before re-raising, exactly like a failed restore, or
        its frames leak until kernel shutdown."""
        before = set(self.kernel.instr.enclaves)
        try:
            runtime = program.launch(self.kernel)
            manager = RecoveryManager(
                runtime,
                auto_checkpoint_every=self.auto_checkpoint_every,
                keep_trace=self.keep_trace,
            )
            service = AttestationService(
                runtime.enclave.measurement.digest(), self.kernel.clock
            )
            service.attest(runtime.enclave)
            manager.begin()
        except (EnclaveTerminated, EnclaveCrashed, HostCallDenied,
                SgxError):
            self._reclaim_new_incarnations(before)
            raise
        record = SupervisedEnclave(
            name=name,
            program=program,
            runtime=runtime,
            manager=manager,
            attestation=service,
        )
        self._fleet[name] = record
        return record

    def member(self, name):
        return self._fleet[name]

    def fleet(self):
        return list(self._fleet.values())

    # -- recovery ----------------------------------------------------------

    def mark_down(self, name, cause):
        """Record that an enclave crashed or aborted."""
        record = self._fleet[name]
        if record.state != QUARANTINED:
            record.state = DOWN
        record.failures.append(str(cause))
        return record

    def recover(self, name):
        """Restore a DOWN enclave: bounded restart attempts, each with
        backoff, reclamation, relaunch, re-attestation, and verified
        replay.  Raises :class:`Quarantined` once the budget is gone,
        :class:`IntegrityAbort` immediately on tamper/rollback evidence
        (retrying cannot launder a rollback)."""
        record = self._fleet[name]
        if record.state == QUARANTINED:
            raise Quarantined(
                f"enclave {name!r} is quarantined after "
                f"{record.restarts} restarts"
            )
        policy = self.restart_policy
        last = None
        for attempt in range(1, policy.max_restarts + 1):
            if record.restarts >= policy.max_restarts:
                break
            record.restarts += 1
            wait = policy.backoff.wait_cycles(attempt)
            self._backoff_cycles += wait
            self.kernel.clock.charge(wait, Category.BACKOFF)
            try:
                self._restore_once(record)
                record.state = RUNNING
                self._recoveries += 1
                return record.runtime
            except IntegrityAbort:
                raise
            except (EnclaveCrashed, EnclaveTerminated, ChaosAbort,
                    HostCallDenied, EpcExhausted) as exc:
                # EpcExhausted is the multi-tenant case: the corpse is
                # gone but the *other* enclaves hold every frame, so a
                # relaunch cannot even pin its runtime.  Transient —
                # retry under backoff like any other restart failure.
                last = exc
                record.failures.append(str(exc))
        record.state = QUARANTINED
        self._quarantines += 1
        raise Quarantined(
            f"enclave {name!r} exhausted its restart budget "
            f"({policy.max_restarts}); refusing further restarts "
            f"(restart churn is a termination-channel signal)"
        ) from last

    #: Free-EPC margin required beyond a relaunch's eager footprint
    #: (TCS page + pinned runtime region) before we attempt it.
    RELAUNCH_MARGIN_PAGES = 4

    def _restore_once(self, record):
        """One restart attempt: reclaim, relaunch, attest, restore."""
        corpse = record.runtime
        if corpse is not None:
            self.kernel.driver.reclaim_enclave(corpse.enclave)
            record.runtime = None
        # Pre-flight: a relaunch eagerly EADDs its TCS and pins its
        # runtime region.  Starting that with too few free frames would
        # die halfway and strand the partial enclave's pages (no handle
        # to reclaim them by) — check first, fail whole.
        build_layout = getattr(record.program, "build_layout", None)
        if build_layout is not None:
            layout = build_layout()
            needed = (
                1 + layout.runtime_pages + self.RELAUNCH_MARGIN_PAGES
            )
            if self.kernel.epc.free_pages < needed:
                raise EpcExhausted(
                    f"relaunch of {record.name!r} needs {needed} free "
                    f"EPC pages, only {self.kernel.epc.free_pages} "
                    f"available"
                )
        before = set(self.kernel.instr.enclaves)
        try:
            runtime = record.program.launch(self.kernel)
            record.attestation.attest(runtime.enclave)
            record.manager.restore(runtime)
        except (EnclaveTerminated, EnclaveCrashed, HostCallDenied,
                SgxError):
            # The attempt died mid-build or mid-replay (e.g. its
            # warm-up could not pin pages under EPC pressure, or the
            # replay itself aborted).  Reclaim the new incarnation
            # before re-raising, or its frames leak — ``record`` never
            # gets a handle to find them by later.
            self._reclaim_new_incarnations(before)
            raise
        record.runtime = runtime

    def _reclaim_new_incarnations(self, before):
        """Reclaim every enclave built since the ``before`` snapshot of
        the kernel's enclave table (failed launch/restore cleanup)."""
        for eid in set(self.kernel.instr.enclaves) - before:
            self.kernel.driver.reclaim_enclave(
                self.kernel.instr.enclaves[eid]
            )

    # -- observability -----------------------------------------------------

    def stats(self):
        """Lifetime counter snapshot (survives member teardown).

        Plain sorted-key dict so service breakers, health endpoints,
        and run digests can consume it without reaching into private
        supervisor state."""
        fleet = list(self._fleet.values())
        return {
            "backoff_cycles": self._backoff_cycles,
            "down": sum(1 for r in fleet if r.state == DOWN),
            "fleet": len(fleet),
            "quarantines": self._quarantines,
            "recoveries": self._recoveries,
            "restarts": (
                self._restarts_retired
                + sum(r.restarts for r in fleet)
            ),
            "running": sum(1 for r in fleet if r.state == RUNNING),
        }

    # -- teardown ----------------------------------------------------------

    def teardown(self, name):
        """Remove one enclave and reclaim every host resource it held
        (the dead-enclave bookkeeping leak fix: EPC frames, driver
        state, fifo slots all go).  Idempotent: tearing down a member
        that is already gone is a no-op, and the underlying reclaim
        never double-frees EPC."""
        record = self._fleet.pop(name, None)
        if record is None:
            return None
        self._restarts_retired += record.restarts
        if record.runtime is not None:
            self.kernel.driver.reclaim_enclave(record.runtime.enclave)
            record.runtime = None
        return record

    def shutdown(self):
        """Tear down the whole fleet."""
        for name in list(self._fleet):
            self.teardown(name)
