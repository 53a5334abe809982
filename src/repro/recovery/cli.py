"""``python -m repro recover`` — the crash/recovery demonstration.

Walks every self-paging policy through the full recovery story on a
small enclave:

1. **crash + verified restore** — the host kills the enclave mid-run;
   the supervisor reclaims the corpse, relaunches, re-attests, and
   replays the sealed journal; the restored state's fingerprint must be
   bit-identical to the witness fingerprint an uncrashed reference
   recorded at the same journal position;
2. **torn tail** — the crash interrupts the final journal append; the
   one mangled tail record is forgiven and the enclave restores to the
   last *completed* operation;
3. **rollback rejection** — the host re-presents a stale checkpoint
   set; the monotonic-counter freshness check refuses with
   ``IntegrityAbort`` instead of silently resurrecting old state;
4. **quarantine** — a host that keeps killing the relaunch exhausts
   the bounded restart budget and the enclave is taken out of rotation
   (``Quarantined``), because restart churn is itself a §5.3 signal.

All numbers are simulated cycles; the demo is deterministic.
"""

from __future__ import annotations

import argparse
import json

from repro.cli import at_least
from repro.clock import Category
from repro.core.config import SystemConfig
from repro.core.system import EnclaveProgram
from repro.errors import EnclaveCrashed, IntegrityAbort, Quarantined
from repro.host.kernel import HostKernel
from repro.recovery.state import fingerprint
from repro.recovery.supervisor import RecoverySupervisor
from repro.runtime.rate_limit import ProgressKind

POLICIES = ("pin_all", "clusters", "rate_limit", "oram")

EPC_PAGES = 1_024

#: The fewest ops at which every demo stages its attack: below it the
#: rollback demo's journal never reaches the 8 records that seal its
#: second checkpoint (so a rollback to the first changes nothing), and
#: at 2 or fewer the crash injection never fires.
MIN_OPS = 9


def make_program(policy):
    """A small, fully deterministic enclave program for ``policy``."""
    common = dict(
        epc_pages=EPC_PAGES,
        runtime_pages=8,
        code_pages=8,
        data_pages=8,
        heap_pages=96,
    )
    if policy == "pin_all":
        cfg = SystemConfig.for_policy(policy, quota_pages=256, **common)
    elif policy == "clusters":
        cfg = SystemConfig.for_policy(
            policy, quota_pages=96, enclave_managed_budget=48,
            cluster_pages=8, **common,
        )
    elif policy == "rate_limit":
        cfg = SystemConfig.for_policy(
            policy, quota_pages=96, enclave_managed_budget=48,
            cluster_pages=8, **common,
        )
    elif policy == "oram":
        cfg = SystemConfig.for_policy(
            policy, quota_pages=512, oram_tree_pages=256,
            oram_cache_pages=32, **common,
        )
    else:
        raise SystemExit(f"unknown policy {policy!r}")
    return EnclaveProgram(config=cfg, warmup=_warmup, name=policy)


def _warmup(runtime):
    # Clustered policies require full heap coverage: allocate the whole
    # heap up front so every page joins an automatic data cluster.
    if runtime.allocator is not None and runtime.allocator.cluster_pages:
        runtime.allocator.alloc_pages(runtime.allocator.heap_pages)
    heap = runtime.regions["heap"]
    runtime.preload([heap.page(i) for i in range(8)])


def _drive(runtime, engine, ops, start=0):
    """The deterministic workload: strided data accesses with periodic
    progress beacons and host balloon requests."""
    heap = runtime.regions["heap"]
    for i in range(start, start + ops):
        engine.data_access(heap.page((i * 7) % heap.npages),
                           write=bool(i % 3))
        if i % 11 == 5:
            runtime.progress(ProgressKind.IO)
        if i % 23 == 17:
            runtime.kernel.request_memory_reduction(runtime.enclave, 4)


def _witness_trace(program, ops):
    """Uncrashed reference run; ``trace[j]`` = fingerprint after ``j``
    journal records."""
    supervisor = RecoverySupervisor(HostKernel(epc_pages=EPC_PAGES),
                                    keep_trace=True)
    record = supervisor.launch("ref", program)
    _drive(record.runtime, program.engine(record.runtime), ops)
    supervisor.shutdown()
    return record.manager.trace


def demo_policy(policy, ops):
    program = make_program(policy)
    trace = _witness_trace(program, ops)
    total_records = len(trace) - 1
    crash_at = max(1, total_records // 2)

    # Crash mid-run, recover, verify against the witness.
    kernel = HostKernel(epc_pages=EPC_PAGES)
    supervisor = RecoverySupervisor(kernel)
    record = supervisor.launch(policy, program)
    record.manager.crash_after = crash_at
    try:
        _drive(record.runtime, program.engine(record.runtime), ops)
        raise AssertionError("crash injection did not fire")
    except EnclaveCrashed as exc:
        supervisor.mark_down(policy, exc)
    cycles_before = kernel.clock.by_category.get(Category.RECOVERY, 0)
    runtime = supervisor.recover(policy)
    recovery_cycles = (
        kernel.clock.by_category.get(Category.RECOVERY, 0) - cycles_before
    )
    verified = fingerprint(runtime) == trace[crash_at]

    # The survivor keeps serving: drive a fresh batch post-restore.
    _drive(runtime, program.engine(runtime), ops // 4, start=ops)

    # Torn tail: the final append is mangled by the crash; replay
    # forgives exactly that record and lands on the last completed op.
    kernel2 = HostKernel(epc_pages=EPC_PAGES)
    supervisor2 = RecoverySupervisor(kernel2)
    record2 = supervisor2.launch(policy, program)
    record2.manager.crash_after = crash_at
    try:
        _drive(record2.runtime, program.engine(record2.runtime), ops)
    except EnclaveCrashed as exc:
        supervisor2.mark_down(policy, exc)
    record2.manager.journal.corrupt_tail()
    torn_ok = (fingerprint(supervisor2.recover(policy))
               == trace[crash_at - 1])
    supervisor.shutdown()
    supervisor2.shutdown()

    return {
        "policy": policy,
        "journal_records": total_records,
        "crash_at": crash_at,
        "restored_verified": verified,
        "torn_tail_forgiven": torn_ok,
        "restarts": record.restarts,
        "recovery_cycles": recovery_cycles,
    }


def demo_rollback(ops):
    """A host re-presenting stale checkpoints must be caught."""
    program = make_program("rate_limit")
    supervisor = RecoverySupervisor(HostKernel(epc_pages=EPC_PAGES),
                                    auto_checkpoint_every=8)
    record = supervisor.launch("victim", program)
    record.manager.crash_after = 24
    try:
        _drive(record.runtime, program.engine(record.runtime), ops)
    except EnclaveCrashed as exc:
        supervisor.mark_down("victim", exc)
    record.manager.checkpoints.rollback_to(0)
    try:
        supervisor.recover("victim")
    except IntegrityAbort as exc:
        return {"rollback_rejected": True, "reason": str(exc)}
    return {"rollback_rejected": False, "reason": "NOT DETECTED"}


class _HostileHost:
    """A launch recipe the host keeps killing (for the quarantine demo)."""

    def __init__(self, program):
        self._program = program

    def launch(self, kernel):
        raise EnclaveCrashed("host killed the enclave during relaunch")


def demo_quarantine(ops):
    program = make_program("rate_limit")
    supervisor = RecoverySupervisor(HostKernel(epc_pages=EPC_PAGES))
    record = supervisor.launch("victim", program)
    record.manager.crash_after = 10
    try:
        _drive(record.runtime, program.engine(record.runtime), ops)
    except EnclaveCrashed as exc:
        supervisor.mark_down("victim", exc)
    record.program = _HostileHost(program)
    try:
        supervisor.recover("victim")
    except Quarantined as exc:
        return {
            "quarantined": True,
            "restarts_spent": record.restarts,
            "reason": str(exc),
        }
    return {"quarantined": False, "restarts_spent": record.restarts,
            "reason": "NOT QUARANTINED"}


def run(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro recover",
        description="crash-consistent checkpoint/restore demonstration",
    )
    parser.add_argument("--ops", type=at_least(MIN_OPS), default=60,
                        metavar="N",
                        help="workload operations per enclave, at least "
                             f"{MIN_OPS} (default: 60)")
    parser.add_argument("--policies", nargs="+", default=list(POLICIES),
                        choices=POLICIES, metavar="P",
                        help=f"policies to demo (default: all of "
                             f"{', '.join(POLICIES)})")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    args = parser.parse_args(argv)

    rows = [demo_policy(p, args.ops) for p in args.policies]
    rollback = demo_rollback(args.ops)
    quarantine = demo_quarantine(args.ops)

    ok = (all(r["restored_verified"] and r["torn_tail_forgiven"]
              for r in rows)
          and rollback["rollback_rejected"] and quarantine["quarantined"])

    if args.format == "json":
        print(json.dumps({"policies": rows, "rollback": rollback,
                          "quarantine": quarantine, "ok": ok}, indent=2))
        return 0 if ok else 1

    print("crash/recovery demonstration "
          "(sealed journal + checkpoints, supervised restore)\n")
    header = (f"  {'policy':<12} {'records':>7} {'crash@':>6} "
              f"{'restored':>9} {'torn tail':>9} {'cycles':>10}")
    print(header)
    print("  " + "-" * (len(header) - 2))
    for r in rows:
        print(f"  {r['policy']:<12} {r['journal_records']:>7} "
              f"{r['crash_at']:>6} "
              f"{'bit-identical' if r['restored_verified'] else 'MISMATCH':>9} "
              f"{'forgiven' if r['torn_tail_forgiven'] else 'BROKEN':>9} "
              f"{r['recovery_cycles']:>10,}")
    print()
    print(f"  rollback attack : "
          f"{'rejected (IntegrityAbort)' if rollback['rollback_rejected'] else 'MISSED'}")
    print(f"  hostile relaunch: "
          f"{'quarantined after ' + str(quarantine['restarts_spent']) + ' bounded restarts' if quarantine['quarantined'] else 'NOT QUARANTINED'}")
    print()
    print("  all recovery invariants hold" if ok
          else "  RECOVERY INVARIANT VIOLATION")
    return 0 if ok else 1


if __name__ == "__main__":
    import sys
    sys.exit(run())
