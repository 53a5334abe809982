"""Exception hierarchy shared across the Autarky reproduction.

The simulator distinguishes three families of failures:

* :class:`SgxError` — architectural rule violations raised by the SGX
  hardware model (EPCM mismatches, illegal instruction operands, ...).
  These model the #GP / #PF semantics of the real instructions and are
  bugs in the *caller* (OS, runtime, or test), never silent.

* :class:`PageFault` — the one "expected" hardware event.  It is used as
  a control-flow signal between the MMU and the CPU's asynchronous-exit
  logic, exactly like a real #PF vectors into the kernel.

* :class:`EnclaveTerminated` — raised when trusted in-enclave software
  decides to kill the enclave (e.g. the Autarky fault handler detected a
  controlled-channel attack, or a rate limit was exceeded).  Every
  termination carries a structured :class:`AbortReason` so experiments
  and the chaos harness can aggregate aborts without string matching.

* :class:`HostCallDenied` — the untrusted host refused or failed a
  paging service call.  Unlike :class:`SgxError` this is *legal*
  behaviour for a Byzantine host: the trusted runtime must absorb it
  (bounded retry) or fail stop, never hang or trust a partial result.
"""

from __future__ import annotations

import enum


class AbortReason(enum.Enum):
    """Why trusted software terminated the enclave (fail-stop taxonomy)."""

    ATTACK_DETECTED = "attack-detected"   # OS-induced fault (§5.2.1)
    RATE_LIMIT = "rate-limit"             # §5.2.4 bounded-leakage trip
    LIVELOCK_GUARD = "livelock-guard"     # paging loop made no progress
    INTEGRITY = "integrity"               # tampered/replayed page detected
    CHAOS_ABORT = "chaos-abort"           # host failure budget exhausted
    QUARANTINED = "quarantined"           # restart budget exhausted (flap)


class ReproError(Exception):
    """Base class for every error raised by this package."""


class SgxError(ReproError):
    """An SGX architectural rule was violated (models #GP/#UD faults)."""


class EpcmViolation(SgxError):
    """An EPCM security check failed (wrong owner, address, or perms)."""


class EpcExhausted(SgxError):
    """No free EPC frame is available for an allocation."""


class IntegrityError(SgxError):
    """Paging crypto detected tampering or replay of swapped contents."""


class PageFault(ReproError):
    """A hardware page fault (#PF) during enclave or host execution.

    Attributes mirror the x86 error-code information the OS would see.
    For self-paging (Autarky) enclaves the CPU masks ``vaddr`` and
    ``write``/``exec`` before the fault is delivered to the OS; the raw
    values remain visible only in the SSA frame (see :mod:`repro.sgx.ssa`).

    Faults are built on every faulting walk and mostly never printed, so
    the message is formatted only when asked for.
    """

    def __init__(self, vaddr, write=False, exec_=False, present=False,
                 reason=""):
        super().__init__(vaddr, write, exec_, present, reason)
        self.vaddr = vaddr
        self.write = write
        self.exec_ = exec_
        self.present = present
        self.reason = reason

    def __str__(self):
        return (
            f"#PF at {self.vaddr:#x} (write={self.write}, "
            f"exec={self.exec_}, present={self.present}, "
            f"reason={self.reason!r})"
        )


class EnclaveTerminated(ReproError):
    """Trusted enclave software aborted execution.

    ``reason`` is the structured :class:`AbortReason`; subclasses pin
    their own default so every raise site stays classifiable.
    """

    default_reason = None

    def __init__(self, cause, reason=None):
        self.cause = cause
        self.reason = reason if reason is not None else self.default_reason
        super().__init__(f"enclave terminated: {cause}")


class AttackDetected(EnclaveTerminated):
    """The self-paging runtime identified an OS-induced fault."""

    default_reason = AbortReason.ATTACK_DETECTED


class RateLimitExceeded(EnclaveTerminated):
    """The bounded-leakage policy observed too many faults per progress."""

    default_reason = AbortReason.RATE_LIMIT


class LivelockGuard(EnclaveTerminated):
    """A bounded paging loop stopped making progress (diagnosable
    fail-stop instead of spinning forever against a Byzantine host)."""

    default_reason = AbortReason.LIVELOCK_GUARD


class ChaosAbort(EnclaveTerminated):
    """The runtime exhausted its retry/degradation budget against a
    failing or hostile host and chose fail-stop over livelock."""

    default_reason = AbortReason.CHAOS_ABORT


class EnclaveCrashed(ReproError):
    """The host killed the enclave outright (power loss, OOM-kill of
    the hosting process, scripted chaos crash).

    Unlike :class:`EnclaveTerminated` this is not a decision of trusted
    software — the enclave simply ceases to exist mid-flight.  Recovery
    (:mod:`repro.recovery`) restores a crashed enclave from its sealed
    checkpoint and journal; everything else treats the crash like any
    other loss of the enclave."""


class Quarantined(EnclaveTerminated):
    """The recovery supervisor refused further restarts of a
    flap-looping enclave: the restart budget is exhausted, and restart
    churn is itself a signal (one bit per restart, §5.3)."""

    default_reason = AbortReason.QUARANTINED


class HostCallDenied(ReproError):
    """The untrusted host refused or failed a paging service call.

    Raised by the (possibly fault-injected) host, observed by the
    trusted runtime — which may retry with backoff, degrade, or abort
    with :class:`ChaosAbort`, but must never block forever.
    """


class PolicyError(ReproError):
    """A secure-paging policy was misused (bad cluster, bad region, ...)."""


class PinnedExhaustion(LivelockGuard, PolicyError):
    """Every eviction candidate is pinned while more room is required.

    Doubles as a :class:`PolicyError` (a misconfigured budget reaches
    the same state as a hostile quota squeeze) and as an
    :class:`EnclaveTerminated` with the ``livelock-guard`` reason, so
    both the configuration tests and the chaos harness classify it.
    """


class IntegrityAbort(EnclaveTerminated, IntegrityError):
    """Fail-stop on detected tampering: the runtime converts a paging
    :class:`IntegrityError` into enclave termination so execution can
    never continue past a tampered or replayed page."""

    default_reason = AbortReason.INTEGRITY


def abort_reason(exc):
    """The reason key a fail-stop is reported under: the structured
    :class:`AbortReason` an abort carries, ``integrity`` for a
    host-side integrity rejection (ELDU refused a forged blob, so the
    enclave never ran on it), else "unclassified" with the exception
    type."""
    if isinstance(exc, EnclaveTerminated) and exc.reason:
        return exc.reason.value
    if isinstance(exc, IntegrityError):
        return AbortReason.INTEGRITY.value
    return f"unclassified({type(exc).__name__})"
