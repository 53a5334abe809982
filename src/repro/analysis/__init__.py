"""Static analysis of the reproduction's own source tree.

Autarky's security argument is a *layering invariant*: the untrusted
host observes only page-granular, rate-limited state, while
enclave-private state (true fault addresses, SSA contents, EPCM
metadata) stays behind the ISA.  The simulator mirrors that split
across ``repro.sgx`` / ``repro.host`` / ``repro.attacks`` — but Python
enforces none of it.  This package machine-checks the conventions the
model depends on, in the spirit of Guardian's static validation of
enclave interface orderliness:

* ``trust-boundary``      — host/attack code must not read
  enclave-private state except through the sanctioned driver surface
  (§5.1.2, §5.1.3 of the paper).
* ``mutation-discipline`` — EPC/EPCM/TLB state is mutated only by the
  ISA-model layer (§2.1, §5.1.4).
* ``determinism``         — cycle-accounted code must be
  bit-reproducible: no wall-clock reads, no unseeded randomness, no
  ``PYTHONHASHSEED``-dependent hashing.
* ``cycle-accounting``    — every modeled fault/paging path charges the
  simulated clock before returning (Figures 5–8 depend on it).
* ``leakage``             — secrets (app inputs, ORAM block ids,
  ``# repro: secret`` declarations) must not flow into page addresses,
  container indices in app code, or branches that guard paging — the
  controlled channel itself, tracked interprocedurally over the
  project call graph (``repro.analysis.callgraph``).
* ``lifecycle``           — SGX ISA call sites respect the launch
  (ECREATE→EADD→EINIT→EENTER), evict (EBLOCK→shootdown→EWB), and
  resume (AEX→ERESUME) protocols.

Intentional exceptions carry a ``# repro: allow[RULE]`` annotation so
the analyzer doubles as documentation of the threat model.  Run it with
``python -m repro analyze [--strict] [--format text|json|sarif]``; the
pytest gate (``tests/test_analysis.py``) keeps the tree at zero
unsuppressed findings.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.walker import (
    analyze_paths,
    analyze_source,
    analyze_tree,
)

__all__ = [
    "Finding",
    "analyze_paths",
    "analyze_source",
    "analyze_tree",
]
