"""Top-level API: assemble a machine, an enclave, a policy, and run.

Most users need only :class:`~repro.core.system.AutarkySystem`:

>>> from repro.core import AutarkySystem, SystemConfig
>>> system = AutarkySystem(SystemConfig.for_policy("rate_limit"))
>>> engine = system.engine()

and the metrics helpers in :mod:`repro.core.metrics`.
"""

from repro.core.config import PolicyConfig, SystemConfig
from repro.core.metrics import Measurement, RunMetrics, geomean, slowdown
from repro.core.system import (
    AutarkySystem,
    DirectEngine,
    EnclaveProgram,
    OramEngine,
)
from repro.core.leakage import (
    cluster_guess_probability,
    distinguishable_secrets,
    termination_attack_bits,
)
from repro.core.trace import TraceRecorder, adversary_view
from repro.core.threads import ThreadScheduler
from repro.core.validation import ConfigError, check, validate
from repro.core.inspect import audit, page_view, system_summary

__all__ = [
    "PolicyConfig",
    "SystemConfig",
    "Measurement",
    "RunMetrics",
    "geomean",
    "slowdown",
    "AutarkySystem",
    "DirectEngine",
    "EnclaveProgram",
    "OramEngine",
    "cluster_guess_probability",
    "distinguishable_secrets",
    "termination_attack_bits",
    "TraceRecorder",
    "adversary_view",
    "ThreadScheduler",
    "ConfigError",
    "check",
    "validate",
    "audit",
    "page_view",
    "system_summary",
]
