"""Remote attestation and restart-attack detection (§3).

The paper rules termination/restart attacks out of scope *because*
known defenses exist: "the enclave could perform remote attestation at
startup ... users or trusted services could detect unusually frequent
restarts."  This module implements that machinery:

* :func:`quote` — a (model) SGX quote over the enclave's measurement
  and attested attributes.  Autarky's ``SELF_PAGING`` bit is part of
  the attributes (§5.1.1), so a verifier can refuse enclaves running
  in legacy (insecure) mode.
* :class:`AttestationService` — the trusted relying party: verifies
  quotes against an expected measurement, requires the self-paging
  attribute, and tracks per-measurement launch times so the
  termination attack's restart churn (≈1 bit of leakage per restart)
  raises an alarm long before it amounts to anything.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import AttackDetected, SgxError
from repro.immutable import share


@dataclass(frozen=True)
class Quote:
    """An attestation quote (modelled, but structurally faithful)."""

    __deepcopy__ = share

    measurement: int
    self_paging: bool
    nonce: int
    signature: int

    @staticmethod
    def _sign(measurement, self_paging, nonce):
        data = f"{measurement}:{self_paging}:{nonce}".encode()
        return int.from_bytes(
            hashlib.sha256(data).digest()[:8], "big"
        )


def quote(enclave, nonce):
    """Produce a quote for a launched enclave (EREPORT/quoting model)."""
    if not enclave.initialized:
        raise SgxError("cannot quote an uninitialized enclave")
    if enclave.dead:
        raise SgxError("cannot quote a terminated enclave")
    measurement = enclave.measurement.digest()
    return Quote(
        measurement=measurement,
        self_paging=enclave.self_paging,
        nonce=nonce,
        signature=Quote._sign(measurement, enclave.self_paging, nonce),
    )


@dataclass
class VerificationResult:
    accepted: bool
    reason: str = ""


class AttestationService:
    """A trusted relying party monitoring an enclave fleet.

    ``restart_window_s`` / ``max_restarts_per_window`` implement the
    frequent-restart alarm: a controlled-channel attacker grinding the
    termination channel needs a fresh launch per probe, and each launch
    attests here first.
    """

    def __init__(self, expected_measurement, clock,
                 require_self_paging=True,
                 restart_window_s=60.0, max_restarts_per_window=3):
        self.expected_measurement = expected_measurement
        self.clock = clock
        self.require_self_paging = require_self_paging
        self.restart_window_s = restart_window_s
        self.max_restarts_per_window = max_restarts_per_window
        self._nonces = set()
        self._launch_times = []
        self.alarms = []

    def fresh_nonce(self):
        nonce = len(self._nonces) * 2_654_435_761 % (1 << 32)
        self._nonces.add(nonce)
        return nonce

    def verify(self, presented, nonce):
        """Verify a quote; records the launch and may raise an alarm."""
        if nonce not in self._nonces:
            return VerificationResult(False, "unknown nonce (replay?)")
        if presented.nonce != nonce:
            return VerificationResult(False, "nonce mismatch")
        if presented.signature != Quote._sign(
            presented.measurement, presented.self_paging,
            presented.nonce,
        ):
            return VerificationResult(False, "bad signature")
        if presented.measurement != self.expected_measurement:
            return VerificationResult(False, "wrong measurement")
        if self.require_self_paging and not presented.self_paging:
            return VerificationResult(
                False, "enclave launched without the self-paging "
                       "attribute (legacy mode is insecure)"
            )

        now = self.clock.seconds()
        self._launch_times.append(now)
        recent = [
            t for t in self._launch_times
            if now - t <= self.restart_window_s
        ]
        if len(recent) > self.max_restarts_per_window:
            self.alarms.append(
                (now, f"{len(recent)} launches within "
                      f"{self.restart_window_s}s — possible "
                      f"termination-attack restart churn")
            )
        return VerificationResult(True)

    def attest(self, enclave):
        """One full attestation round for a (re)launched enclave.

        Issues a fresh nonce, obtains the quote, and verifies it; a
        rejected quote raises :class:`AttackDetected` — the recovery
        supervisor must never resume traffic to an unattested restart.
        """
        nonce = self.fresh_nonce()
        result = self.verify(quote(enclave, nonce), nonce)
        if not result.accepted:
            raise AttackDetected(
                f"re-attestation rejected: {result.reason}"
            )
        return result

    @property
    def under_attack(self):
        return bool(self.alarms)
