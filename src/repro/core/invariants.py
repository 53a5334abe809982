"""The safety invariants every driver asserts, each defined once.

The chaos campaign checks them once per run, the model checker at
every explored state, and the multi-tenant service once per run.  Each
check returns a list of violation messages, empty when it holds:

* **masked faults only** — every fault the OS observed carries an
  enclave base address and no access-type bits (§5.1.2);
* **EPC page parity** — free frames plus every enclave's backed pages
  equal the configured EPC size (no lost or double-owned frames);
* **degradation budget** — hardening absorbed no more faults than the
  pager declared it may;
* **no silent death** — an enclave that died in a run that did not
  abort is the classic unsafe state.
"""

from __future__ import annotations


def masked_faults(kernel, bases):
    """The first fault in the OS's log that is not a bare enclave base
    address from ``bases``."""
    for fault in kernel.fault_log:
        if (fault.vaddr not in bases or fault.write or fault.exec_
                or fault.present):
            return [
                f"unmasked fault leaked to the OS: {fault.vaddr:#x} "
                f"(write={fault.write}, present={fault.present})"
            ]
    return []


def epc_parity(kernel):
    epc = kernel.epc
    backed = sum(
        len(enclave.backed) for enclave in kernel.instr.enclaves.values()
    )
    if epc.free_pages + backed != epc.total_pages:
        return [
            f"EPC parity broken: {epc.free_pages} free + {backed} "
            f"backed != {epc.total_pages} total"
        ]
    return []


def degradation_budget(pager):
    if pager.degradations > pager.max_degradations:
        return [
            f"degradations ({pager.degradations}) exceeded the declared "
            f"budget ({pager.max_degradations})"
        ]
    return []


def dead_enclave(enclave, aborted):
    if enclave.dead and not aborted:
        return ["enclave is dead but the run did not abort"]
    return []
