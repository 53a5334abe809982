"""Graphene-style multi-process mode (§3): a parent enclave supervises
its children's lifecycle.

"A local parent enclave (as in Graphene-SGX's multi-process mode)
could manage its children's lifecycle.  In either case, users or
trusted services could detect unusually frequent restarts."

The supervisor launches children through a caller-provided factory,
attests each one at spawn (measurement and the self-paging attribute),
and enforces a restart budget: a controlled-channel attacker grinding
the termination channel — one bit per restart, §5.3 — runs out of
restarts long before extracting anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AttackDetected, EnclaveTerminated, SgxError
from repro.runtime.attestation import quote


@dataclass
class ChildRecord:
    """Lifecycle bookkeeping for one supervised child."""

    child_id: int
    runtime: object
    restarts: int = 0
    terminations: list = field(default_factory=list)


class LockdownError(SgxError):
    """The supervisor refused to restart a child (budget exhausted)."""


class EnclaveSupervisor:
    """Parent-enclave logic: spawn, attest, restart-or-lockdown."""

    def __init__(self, child_factory, expected_measurement=None,
                 max_restarts=3):
        """``child_factory()`` must return a fresh child runtime.

        ``expected_measurement=None`` pins the first child's
        measurement (trust-on-first-launch); pass an explicit value for
        a pre-provisioned deployment.
        """
        self._factory = child_factory
        self.expected_measurement = expected_measurement
        self.max_restarts = max_restarts
        self._children = {}
        self._next_id = 0
        self.locked_down = False

    # -- lifecycle ---------------------------------------------------------

    def spawn(self):
        """Launch and attest one child."""
        if self.locked_down:
            raise LockdownError("supervisor is locked down")
        runtime = self._factory()
        self._attest(runtime.enclave)
        record = ChildRecord(child_id=self._next_id, runtime=runtime)
        self._next_id += 1
        self._children[record.child_id] = record
        return record

    def run_child(self, record, workload):
        """Run ``workload(runtime)``; on termination, restart within
        budget or lock down.  Returns the workload's result."""
        while True:
            try:
                return workload(record.runtime)
            except EnclaveTerminated as exc:
                record.terminations.append(str(exc))
                if record.restarts >= self.max_restarts:
                    self.locked_down = True
                    raise LockdownError(
                        f"child {record.child_id} terminated "
                        f"{record.restarts + 1} times — refusing to "
                        f"restart (termination-attack churn)"
                    ) from exc
                record.restarts += 1
                self._reclaim(record)
                record.runtime = self._factory()
                self._attest(record.runtime.enclave)

    def _reclaim(self, record):
        """Free the dead incarnation's host resources (EPC frames,
        page-table entries, driver paging state) before a replacement
        launches — restart churn must not leak EPC."""
        runtime = record.runtime
        if runtime is not None:
            runtime.kernel.driver.reclaim_enclave(runtime.enclave)
            record.runtime = None

    def teardown(self, record):
        """Retire one child and reclaim everything it held."""
        self._children.pop(record.child_id, None)
        self._reclaim(record)

    def shutdown(self):
        """Retire the whole brood (supervisor teardown)."""
        for record in list(self._children.values()):
            self.teardown(record)

    # -- attestation -------------------------------------------------------

    def _attest(self, enclave):
        child_quote = quote(enclave, nonce=0)
        if not child_quote.self_paging:
            raise AttackDetected(
                "child launched without the self-paging attribute"
            )
        if self.expected_measurement is None:
            self.expected_measurement = child_quote.measurement
        elif child_quote.measurement != self.expected_measurement:
            raise AttackDetected(
                "child measurement mismatch (tampered binary?)"
            )

    # -- queries -----------------------------------------------------------

    def total_restarts(self):
        return sum(r.restarts for r in self._children.values())

    def children(self):
        return list(self._children.values())
