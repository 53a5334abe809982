"""E9 (extension) — multiple distrusting enclaves sharing one EPC.

§8 closes with: "Using similar approaches to coordinate memory demands
between the OS and multiple distrusting enclaves is an open research
topic."  This experiment explores the design space our stack supports:

* **static** — fixed equal quotas: the loaded enclave thrashes while
  the idle one wastes its slice (the only option when enclaves do not
  cooperate at all);
* **balloon** — the §5.2.1-extension upcalls: the OS asks the idle
  enclave to shrink and re-grants the quota to the loaded one — secure
  (only whole eviction units move) and dramatically better;
* **suspend** — the OS's big hammer: swap the idle enclave out
  entirely and give its whole slice to the loaded one (maximum
  memory, but the idle enclave pays a full restore on next use).

Both enclaves run the Memcached model; "loaded" serves a uniform GET
stream over a working set larger than its static slice, "idle" serves
a trickle over a small hot set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.memcached import Memcached
from repro.core.config import SystemConfig
from repro.core.system import EnclaveProgram
from repro.experiments.formatting import render_table
from repro.host.kernel import HostKernel
from repro.sgx.params import PAGE_SIZE
from repro.workloads.ycsb import UniformGenerator

STRATEGIES = ("static", "balloon", "suspend")


@dataclass
class MultiEnclaveRow:
    strategy: str
    loaded_throughput: float
    idle_throughput: float
    loaded_faults: int
    epc_moved: int


def _launch_pair(epc_pages, quota_each):
    """Two rate-limited enclaves on one kernel; returns the kernel and
    their ``(runtime, engine)`` pairs."""
    config = SystemConfig.for_policy(
        "rate_limit", max_faults_per_progress=1_000_000,
        cluster_pages=None, epc_pages=epc_pages, quota_pages=quota_each,
        enclave_managed_budget=quota_each - 64,
        runtime_pages=4, code_pages=8, data_pages=8, heap_pages=16_384,
    )
    kernel = HostKernel(epc_pages=epc_pages)
    pair = []
    for base in (0x10_0000_0000, 0x20_0000_0000):
        program = EnclaveProgram(config, base=base)
        runtime = program.launch(kernel)
        pair.append((runtime, program.engine(runtime)))
    return kernel, pair


def _grant_quota(kernel, runtime, extra_pages):
    """OS raises an enclave's quota and tells its runtime (the grant
    half of cooperative ballooning)."""
    state = kernel.driver.state(runtime.enclave)
    state.quota_pages += extra_pages
    runtime.pager.budget_pages += extra_pages


def run_strategy(strategy, requests=1_500, seed=53):
    epc_pages = 4_096
    quota_each = 1_800
    kernel, pair = _launch_pair(epc_pages, quota_each)
    (loaded_rt, loaded_engine), (idle_rt, idle_engine) = pair

    loaded = Memcached(loaded_engine, loaded_rt.regions["heap"].start,
                       24 * 1024 * 1024)     # 6,144 pages >> quota
    idle = Memcached(idle_engine, idle_rt.regions["heap"].start,
                     8 * 1024 * 1024)        # fills its slice, but cold

    # Warm both stores.
    for server, runtime in ((loaded, loaded_rt), (idle, idle_rt)):
        for i in range(server.total_pages):
            server.engine.data_access(
                runtime.regions["heap"].start + i * PAGE_SIZE,
                write=True,
            )

    epc_moved = 0
    if strategy == "balloon":
        # The per-request fraction cap means the OS negotiates in
        # rounds until the enclave stops giving (floor/pinned pages).
        target, freed_total = 1_200, 0
        while freed_total < target:
            freed = kernel.request_memory_reduction(
                idle_rt.enclave, target - freed_total
            )
            if freed == 0:
                break
            freed_total += freed
        _grant_quota(kernel, loaded_rt, freed_total)
        state = kernel.driver.state(idle_rt.enclave)
        state.quota_pages -= freed_total
        idle_rt.pager.budget_pages = max(
            64, idle_rt.pager.budget_pages - freed_total
        )
        epc_moved = freed_total
    elif strategy == "suspend":
        kernel.driver.suspend_enclave(idle_rt.enclave)
        moved = quota_each - 64
        _grant_quota(kernel, loaded_rt, moved)
        epc_moved = moved

    gen = UniformGenerator(loaded.n_keys, seed=seed)
    keys = gen.keys(requests)
    clock0 = kernel.clock.cycles
    faults0 = kernel.cpu.fault_count
    for key in keys:
        loaded.get(key)
    loaded_cycles = kernel.clock.cycles - clock0
    loaded_faults = kernel.cpu.fault_count - faults0

    # The idle enclave gets a trickle of traffic afterwards; under
    # "suspend" the loan must be repaid first (the loaded enclave
    # balloons back down), then the idle enclave pays its full restore.
    if strategy == "suspend":
        repaid = 0
        while repaid < epc_moved:
            freed = kernel.request_memory_reduction(
                loaded_rt.enclave, epc_moved - repaid
            )
            if freed == 0:
                break
            repaid += freed
        _grant_quota(kernel, loaded_rt, -epc_moved)
    idle_gen = UniformGenerator(idle.n_keys, seed=seed + 1)
    clock0 = kernel.clock.cycles
    if strategy == "suspend":
        # The restore of every suspended page is the price of the big
        # hammer, and the idle enclave pays it on wake-up.
        kernel.driver.resume_enclave(idle_rt.enclave)
    idle_keys = idle_gen.keys(max(50, requests // 10))
    for key in idle_keys:
        idle.get(key)
    idle_cycles = kernel.clock.cycles - clock0

    # Retire both enclaves before returning: without the explicit
    # reclaim their EPC frames and driver paging state would outlive
    # the row (the dead-enclave bookkeeping leak).
    for runtime in (loaded_rt, idle_rt):
        kernel.driver.reclaim_enclave(runtime.enclave)
    assert kernel.epc.free_pages == epc_pages, (
        f"EPC leak after teardown: {kernel.epc.free_pages} free of "
        f"{epc_pages}"
    )

    hz = kernel.clock.frequency_hz
    return MultiEnclaveRow(
        strategy=strategy,
        loaded_throughput=requests / (loaded_cycles / hz),
        idle_throughput=len(idle_keys) / (idle_cycles / hz),
        loaded_faults=loaded_faults,
        epc_moved=epc_moved,
    )


def run(requests=1_500):
    return [run_strategy(s, requests=requests) for s in STRATEGIES]


def format_table(rows):
    return render_table(
        ["strategy", "loaded req/s", "idle req/s", "loaded faults",
         "EPC pages moved"],
        [
            (r.strategy, f"{r.loaded_throughput:,.0f}",
             f"{r.idle_throughput:,.0f}", r.loaded_faults, r.epc_moved)
            for r in rows
        ],
        title="E9 (extension): two enclaves sharing EPC — "
              "coordination strategies",
    )


def main():
    rows = run()
    print(format_table(rows))
    return rows


if __name__ == "__main__":
    main()
