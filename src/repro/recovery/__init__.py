"""Crash-consistent checkpoint/restore and supervised recovery.

Autarky's fail-safe design answers a misbehaving host with fail-stop
(PR 3's abort taxonomy); this package answers fail-stop with recovery:

* :mod:`repro.recovery.state` — the canonical paging state and its
  fingerprint (the bit-identical-restore criterion);
* :mod:`repro.recovery.journal` — the sealed, hash-chained write-ahead
  journal of paging-state inputs;
* :mod:`repro.recovery.checkpoint` — sealed verification anchors with
  monotonic-counter freshness (rollback rejection);
* :mod:`repro.recovery.manager` — recording, crash injection hooks,
  and verified restore/replay;
* :mod:`repro.recovery.supervisor` — the multi-enclave restart /
  re-attest / restore / quarantine layer.

See docs/recovery.md for formats and the supervisor state machine.
"""

from repro.recovery.checkpoint import CheckpointStore, MonotonicCounter
from repro.recovery.journal import Journal, validated_records
from repro.recovery.manager import RecoveryManager
from repro.recovery.state import canonical_state, fingerprint
from repro.recovery.supervisor import (
    RecoverySupervisor,
    RestartPolicy,
    SupervisedEnclave,
)

__all__ = [
    "CheckpointStore",
    "MonotonicCounter",
    "Journal",
    "validated_records",
    "RecoveryManager",
    "canonical_state",
    "fingerprint",
    "RecoverySupervisor",
    "RestartPolicy",
    "SupervisedEnclave",
]
