"""A2 — ablation: host-call and hardware-path choices.

Dimensions swept on the Figure 5 microbenchmark workload:

* exitless host calls vs synchronous EEXIT/EENTER OCALLs (§6 uses
  exitless calls following Eleos/SCONE/HotCalls);
* SGX1 (driver EWB/ELDU) vs SGX2 (in-enclave dynamic memory
  management) paging mechanisms (§7.1 picks SGX1);
* the §5.1.3 hardware optimizations: in-enclave resume, AEX elision —
  the latter makes secure paging cheaper than an unprotected fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SystemConfig
from repro.core.system import AutarkySystem
from repro.experiments.formatting import render_table
from repro.sgx.params import (
    PAGE_SIZE,
    AccessType,
    ArchOptimizations,
    SgxVersion,
)


@dataclass
class PathRow:
    variant: str
    cycles_per_fault: float


VARIANTS = {
    "sgx1 exitless (default)": dict(),
    "sgx1 exit-based ocalls": dict(exitless=False),
    "sgx2 exitless": dict(sgx_version=SgxVersion.SGX2),
    "sgx2 exit-based ocalls": dict(sgx_version=SgxVersion.SGX2,
                                   exitless=False),
    "sgx1 + in-enclave resume": dict(
        arch_opts=ArchOptimizations(in_enclave_resume=True)
    ),
    "sgx1 + elide AEX": dict(
        arch_opts=ArchOptimizations(in_enclave_resume=True,
                                    elide_aex=True)
    ),
    "unprotected baseline": dict(policy="baseline"),
}


def reload_fault_cycles(faults, policy="rate_limit", **overrides):
    """Cycles per fault of ``faults`` reload faults under ``policy``;
    ``overrides`` are further :class:`SystemConfig` fields.

    Touches ``faults`` heap pages, evicts every one, then times
    touching them again, so the measured faults exercise the reload
    paths (ELDU vs decrypt+EACCEPTCOPY) where the SGX versions
    actually differ — not the identical zero-fill path.
    """
    kwargs = dict(
        epc_pages=2 * faults + 4_096,
        quota_pages=2 * faults + 512,
        enclave_managed_budget=faults + 64,
        heap_pages=4 * faults + 1_024,
        code_pages=16,
        data_pages=16,
        runtime_pages=8,
    )
    if policy != "baseline":
        kwargs["max_faults_per_progress"] = 10 * faults
    kwargs.update(overrides)
    system = AutarkySystem(SystemConfig.for_policy(policy, **kwargs))
    heap = system.runtime.regions["heap"]
    pages = [heap.start + i * PAGE_SIZE for i in range(faults)]
    for page in pages:
        system.runtime.access(page, AccessType.WRITE)
    if policy == "baseline":
        for page in pages:
            system.kernel.driver.evict_page(system.enclave, page)
    else:
        system.runtime.pager.evict_all()

    with system.measure() as m:
        for page in pages:
            system.runtime.access(page, AccessType.READ)
    return m.metrics(ops=faults).cycles_per_op


def run(faults=800):
    return [
        PathRow(name, reload_fault_cycles(faults, **overrides))
        for name, overrides in VARIANTS.items()
    ]


def format_table(rows):
    base = next(
        (r for r in rows if r.variant == "unprotected baseline"), None
    )
    out = []
    for r in rows:
        rel = f"{r.cycles_per_fault / base.cycles_per_fault:.2f}x" \
            if base else "-"
        out.append((r.variant, f"{r.cycles_per_fault:,.0f}", rel))
    return render_table(
        ["variant", "cycles/fault", "vs unprotected"],
        out,
        title="A2: host-call and hardware-path ablation "
              "(reload faults)",
    )


def main():
    rows = run()
    print(format_table(rows))
    return rows


if __name__ == "__main__":
    main()
