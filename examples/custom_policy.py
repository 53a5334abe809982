#!/usr/bin/env python3
"""Writing your own secure paging policy.

The policy interface (`repro.runtime.policies.SecurePagingPolicy`) is
three methods; this example builds a *working-set window* policy:
demand paging where every fetch brings the faulting page **plus its K
spatial neighbours**, so the attacker cannot tell which page in the
window faulted — a sliding, overlap-friendly cousin of page clusters
that needs no cluster setup at all.

Security: like clusters with window-size ambiguity (the faulting page
is one of 2K+1 candidates); unlike clusters, windows overlap, so
repeated faults can narrow the candidate set — a real tradeoff, and a
measurable one, which this example measures.

Run:  python examples/custom_policy.py
"""

import random

from repro.core import AutarkySystem, SystemConfig
from repro.errors import AttackDetected
from repro.runtime.policies import SecurePagingPolicy
from repro.sgx.params import PAGE_SIZE, AccessType


class WindowPolicy(SecurePagingPolicy):
    """Fetch the faulting page plus K neighbours on each side."""

    name = "window"

    def __init__(self, region_start, region_pages, k=4):
        super().__init__()
        self.region_start = region_start
        self.region_pages = region_pages
        self.k = k

    def on_fault(self, vaddr, access):
        self._check_not_resident(vaddr)  # the universal attack check
        self.legit_faults += 1
        index = (vaddr - self.region_start) // PAGE_SIZE
        window = [
            self.region_start + i * PAGE_SIZE
            for i in range(max(0, index - self.k),
                           min(self.region_pages, index + self.k + 1))
        ]
        fetched = self.pager.fetch_unit(window)
        self.pages_fetched += len(fetched)


def build(k):
    # Build with a placeholder policy, then swap in ours — policies
    # are plain objects attached to the pager.
    system = AutarkySystem(SystemConfig.for_policy(
        "rate_limit", max_faults_per_progress=1_000_000,
        epc_pages=4_096, quota_pages=1_024,
        enclave_managed_budget=512,
        heap_pages=2_048, code_pages=16, data_pages=16, runtime_pages=8,
    ))
    heap = system.runtime.regions["heap"]
    policy = WindowPolicy(heap.start, heap.npages, k=k)
    policy.attach(system.runtime.pager)
    system.runtime.policy = policy
    return system, heap


def main():
    rng = random.Random(9)
    workload = [rng.randrange(1_500) for _ in range(600)]

    print("window K | faults | pages fetched | cycles/op | ambiguity")
    print("---------+--------+---------------+-----------+----------")
    for k in (0, 2, 4, 8, 16):
        system, heap = build(k)
        with system.measure() as m:
            for index in workload:
                system.runtime.access(heap.page(index),
                                      AccessType.READ)
        metrics = m.metrics(ops=len(workload))
        print(f"{k:>8} | {metrics.faults:>6} | "
              f"{metrics.pages_fetched:>13} | "
              f"{metrics.cycles_per_op:>9,.0f} | "
              f"1 of {2 * k + 1}")

    # The universal check still fires: unmap a resident page...
    system, heap = build(4)
    system.runtime.access(heap.page(0), AccessType.READ)
    system.kernel.page_table.unmap(heap.page(0))
    try:
        system.runtime.access(heap.page(0), AccessType.READ)
    except AttackDetected as exc:
        print(f"\nattack check inherited for free: {exc}")


if __name__ == "__main__":
    main()
