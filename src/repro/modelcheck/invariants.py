"""Machine-checked invariants, evaluated at every explored state.

:func:`check_world` returns every violation message of one world.  Its
safety checks are :mod:`repro.core.invariants`, the functions the chaos
campaign and the service run once per run, here asserted on *every*
reachable state; the tainted-consumption and lifecycle checks are the
model's own:

* **three-way safety** — the world is running cleanly, degraded within
  its declared budget, or ended in a structured abort; a dead enclave
  in a non-aborted world is the classic unsafe state;
* **no silent tainted consumption** — a forged or replayed blob that
  reached enclave memory without an abort (tracked per action);
* **masked faults only** — every fault the OS observed carries the
  enclave base address and no access-type bits (§5.1.2);
* **EPC page parity** — free frames plus every enclave's backed pages
  equal the configured EPC size (no lost or double-owned frames);
* **lifecycle protocol** — the runtime oracle's automata (the same
  spec the static analyzer runs) observed no out-of-order ISA,
  eviction, resume, or recovery step.
"""

from __future__ import annotations

from repro.core.invariants import (
    dead_enclave,
    degradation_budget,
    epc_parity,
    masked_faults,
)
from repro.modelcheck.model import OUTCOME_ABORTED


def lifecycle_protocol(world):
    return [
        f"lifecycle oracle: [{rule}] {message}"
        for rule, _seq, message in world.oracle.violations
    ]


def check_world(world):
    """All invariant violations of one world (empty when safe)."""
    return (
        degradation_budget(world.runtime.pager)
        + dead_enclave(world.enclave, world.outcome == OUTCOME_ABORTED)
        + masked_faults(world.kernel, (world.enclave.base,))
        + epc_parity(world.kernel)
        + lifecycle_protocol(world)
    )
