"""Benchmark runner: one workload, end-to-end or traced, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload kv_resident --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload kv_paging --seed 1 --seconds 10 --trace 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced, once under cProfile, then again with timing wrappers
on every layer's entry points, and prints the per-layer metrics.  The
last line of standard output is always the JSON result.  See README.md
in this directory for every workload and metric.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import sys
import time
from collections import defaultdict
from statistics import median

from measure import (
    REFERENCE_CALIBRATION_S,
    Calibrator,
    Stopwatch,
    nearest_rank,
    peak_rss_mib,
    rate_from_units,
)
from tracing import (
    LAYERS,
    Tracer,
    cross_check,
    profile_layer_shares,
    span_layer_shares,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("kv_resident", "kv_paging", "svc_pool", "explore")

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles_per_op", "cycles"),
    ("sim_p50_cycles", "cycles"),
    ("sim_p95_cycles", "cycles"),
)

#: Clock categories reported as ``sim.<category>_per_op``.
CATEGORIES = ("compute", "tlb_fill", "aex_eresume", "eenter_eexit",
              "autarky_handler", "sgx_paging", "os", "exitless", "backoff",
              "recovery", "oram", "oblivious_scan")

PER_LAYER = tuple(
    [(f"{layer}.self_us_per_op", "us") for layer in LAYERS]
    + [(f"{layer}.calls_per_op", "calls") for layer in LAYERS]
    + [
        ("apps.plan_reuse_ratio", "ratio"),
        ("clock.charges_per_op", "calls"),
        ("sgx.replay_stamp_hit_ratio", "ratio"),
        ("sgx.probe_run_hit_ratio", "ratio"),
        ("sgx.tlb_hit_ratio", "ratio"),
        ("sgx.epoch_bumps_per_op", "count"),
        ("sgx.faults_per_op", "count"),
        ("sgx.ewb_per_op", "count"),
        ("sgx.eldu_per_op", "count"),
        ("sgx.crypto_us_per_op", "us"),
        ("host.syscalls_per_op", "count"),
        ("host.os_faults_per_op", "count"),
        ("host.fetch_batch_pages", "pages"),
        ("host.evict_batch_pages", "pages"),
        ("runtime.handled_faults_per_op", "count"),
        ("runtime.fetches_per_op", "pages"),
        ("runtime.evictions_per_op", "pages"),
        ("runtime.retries", "count"),
        ("runtime.degradations", "count"),
        ("recovery.journal_appends_per_op", "count"),
        ("recovery.launches", "count"),
        ("recovery.restores", "count"),
        ("recovery.restore_ms", "ms"),
        ("service.admit_ratio", "ratio"),
        ("service.boot_share", "ratio"),
        ("service.sim_queue_wait_p50_cycles", "cycles"),
        ("modelcheck.successor_us", "us"),
        ("modelcheck.replay_us", "us"),
        ("modelcheck.check_us", "us"),
        ("modelcheck.state_key_us", "us"),
        ("modelcheck.new_state_ratio", "ratio"),
    ]
    + [(f"sim.{cat}_per_op", "cycles") for cat in CATEGORIES]
    + [
        ("sim_shed_fraction", "fraction"),
        ("trace.overhead", "ratio"),
    ]
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics; "
                    "the last output line is the JSON result.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0; 1 is held out)")
    parser.add_argument("--seconds", type=int, default=10,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# -- phases -------------------------------------------------------------------

class Phase:
    """Outcome of one measured phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unit_ops = {}
        self.unit_times = defaultdict(list)
        self.raw_s = 0.0

    def rate(self):
        return rate_from_units(self.unit_ops, self.unit_times)

    def raw_rate(self):
        return self.attempted / self.raw_s


def measure_phase(workload, seconds, cal):
    """Cycle through the workload's units until ``seconds`` have passed
    and every unit ran at least once."""
    phase = Phase()
    units = workload.units()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        unit = units[i % len(units)]
        watch = Stopwatch(cal)
        ops, failed = workload.run_unit(unit, cal)
        raw, ref = watch.stop()
        phase.unit_ops[unit] = ops
        phase.unit_times[unit].append(ref)
        phase.raw_s += raw
        phase.attempted += ops
        phase.failed += failed
        i += 1
        if i >= len(units) and time.perf_counter() >= deadline:
            return phase


def profile_rounds(workload, profile, seconds):
    """Whole rounds of units under ``profile`` for at least ``seconds``,
    without calibration samples (they would show up as unwrapped
    time)."""
    units = workload.units()
    deadline = time.perf_counter() + seconds
    while True:
        profile.enable()
        for unit in units:
            workload.run_unit(unit, None)
        profile.disable()
        if time.perf_counter() >= deadline:
            return


def timed_setups(workload, seed, cal, repeats):
    samples = []
    for _ in range(repeats):
        watch = Stopwatch(cal)
        workload.setup(seed)
        samples.append(watch.stop()[1])
    return median(samples)


def end_to_end(workload, phase, setup_s):
    sim = workload.sim
    p50 = nearest_rank(sim.latencies, 500)
    p95 = nearest_rank(sim.latencies, 950)
    if p50 is None or p95 is None:
        raise RuntimeError(
            f"{len(sim.latencies)} latency samples are too few for p95")
    return {
        "ops_per_s": phase.rate(),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mib(),
        "sim_cycles_per_op": sim.cycles / sim.ops,
        "sim_p50_cycles": p50,
        "sim_p95_cycles": p95,
    }


def per_layer(workload, tracer, ops, sim, counters, untraced, traced):
    calls, total = tracer.calls, tracer.total_s
    c = tracer.counters
    selfs = tracer.layer_self_s()
    layer_calls = tracer.layer_calls()

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_us_per_op"] = selfs[layer] * 1e6 / ops
        m[f"{layer}.calls_per_op"] = layer_calls[layer] / ops
    # Only GETs plan page runs on the kv workloads (SETs take the
    # per-page write path), so every PageRun built is a GET's plan.
    gets = calls("memcached.Memcached.get")
    m["apps.plan_reuse_ratio"] = \
        1.0 - ratio(c["columnar.PageRun.__init__"], gets) if gets else 0.0
    m["clock.charges_per_op"] = c["clock.Clock.charge"] / ops
    m["sgx.replay_stamp_hit_ratio"] = ratio(
        c["replay_stamp_hits"], calls("columnar.ReplayFrontend.replay"))
    m["sgx.probe_run_hit_ratio"] = ratio(
        c["probe_run_hits"], calls("mmu.Mmu.probe_run"))
    hits, walks = counters.get("tlb_hits", 0), counters.get("mmu_walks", 0)
    m["sgx.tlb_hit_ratio"] = ratio(hits, hits + walks)
    m["sgx.epoch_bumps_per_op"] = counters.get("epoch", 0) / ops
    m["sgx.faults_per_op"] = calls("cpu.Cpu.deliver_fault") / ops
    m["sgx.ewb_per_op"] = calls("instructions.SgxInstructions.ewb") / ops
    m["sgx.eldu_per_op"] = calls("instructions.SgxInstructions.eldu") / ops
    m["sgx.crypto_us_per_op"] = (total("crypto.PagingCrypto.seal")
                                 + total("crypto.PagingCrypto.unseal")) \
        * 1e6 / ops
    m["host.syscalls_per_op"] = calls("kernel.HostKernel.syscall") / ops
    m["host.os_faults_per_op"] = \
        calls("kernel.HostKernel.on_enclave_fault") / ops
    m["host.fetch_batch_pages"] = ratio(
        c["fetch_batch_pages"], calls("driver.SgxDriver.ay_fetch_pages"))
    m["host.evict_batch_pages"] = ratio(
        c["evict_batch_pages"], calls("driver.SgxDriver.ay_evict_pages"))
    m["runtime.handled_faults_per_op"] = \
        calls("libos.GrapheneRuntime.handle_fault") / ops
    m["runtime.fetches_per_op"] = c["fetched_pages"] / ops
    m["runtime.evictions_per_op"] = c["evicted_pages"] / ops
    m["runtime.retries"] = c["retries"]
    m["runtime.degradations"] = c["degradations"]
    m["recovery.journal_appends_per_op"] = \
        calls("journal.Journal.append") / ops
    m["recovery.launches"] = calls("supervisor.RecoverySupervisor.launch")
    restores = calls("supervisor.RecoverySupervisor.recover")
    m["recovery.restores"] = restores
    m["recovery.restore_ms"] = ratio(
        total("supervisor.RecoverySupervisor.recover") * 1e3, restores)
    m["service.admit_ratio"] = ratio(sim.admitted, sim.ops)
    m["service.boot_share"] = ratio(total("router.EnclaveService.boot"),
                                    total("router.EnclaveService.run"))
    m["service.sim_queue_wait_p50_cycles"] = \
        nearest_rank(sim.queue_waits, 500) or 0
    m["modelcheck.successor_us"] = (total("model.successor")
                                    + total("poolworld.successor")) \
        * 1e6 / ops
    m["modelcheck.replay_us"] = (total("model.replay")
                                 + total("poolworld.replay")) * 1e6 / ops
    m["modelcheck.check_us"] = (total("invariants.check_world")
                                + total("poolworld.check_world")) \
        * 1e6 / ops
    m["modelcheck.state_key_us"] = (
        total("model.World.state_key")
        + total("poolworld.PoolWorld.state_key")) * 1e6 / ops
    results = getattr(workload, "results", {})
    m["modelcheck.new_state_ratio"] = ratio(
        sum(r.states - 1 for r in results.values()),
        sum(r.transitions for r in results.values()))
    for cat in CATEGORIES:
        m[f"sim.{cat}_per_op"] = sim.categories.get(cat, 0) / sim.ops
    m["sim_shed_fraction"] = ratio(sim.shed, sim.ops)
    m["trace.overhead"] = 1.0 - traced / untraced
    return m


def traced_run(workload, args, cal, untraced_phase, untraced_outputs):
    """cProfile pass, then the traced phase; returns ``(metrics,
    attempted, failed, report)``."""
    untraced = untraced_phase.rate()
    sim = workload.sim

    profile = cProfile.Profile()
    profile_rounds(workload, profile, min(3, args.seconds))
    profile_shares = profile_layer_shares(profile)

    tracer = Tracer().install()
    try:
        workload.setup(args.seed)
        attempted, failed = workload.check()
        counters0 = workload.kernel_counters()
        tracer.enabled = True
        start = time.perf_counter()
        overhead0 = cal.overhead_s
        phase = measure_phase(workload, args.seconds, cal)
        measured_s = time.perf_counter() - start - (cal.overhead_s
                                                    - overhead0)
        tracer.enabled = False
        counters1 = workload.kernel_counters()
    finally:
        tracer.uninstall()
    leftover = tracer.leftover()
    attempted += phase.attempted
    failed += phase.failed
    same = workload.outputs() == untraced_outputs
    if not same or leftover:
        failed = attempted
    counters = {k: counters1.get(k, 0) - counters0.get(k, 0)
                for k in counters1}
    metrics = per_layer(workload, tracer, phase.attempted, sim, counters,
                        untraced, phase.rate())
    shares = span_layer_shares(tracer, measured_s)
    rows = cross_check(shares, profile_shares)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_ops": phase.attempted,
        "traced_seconds": measured_s,
        "median_unit_reference_s": {
            str(unit): median(times)
            for unit, times in phase.unit_times.items()},
        "outputs_match_untraced": same,
        "wrappers_left_installed": leftover,
        "cross_check": [
            {"layer": layer, "span_share": s, "cprofile_share": p,
             "flagged": flag}
            for layer, s, p, flag in rows],
        "trace": tracer.export(),
    }
    return metrics, attempted, failed, report


def emit(metrics, units, attempted, failed):
    for name, unit in units:
        print(f"{name:38s} {metrics[name]:>18.6g} {unit}")
    print(f"{'error_rate':38s} {failed / attempted:>18.6g} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources at {SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import workloads  # the simulator's imports count as set-up
    import_s = time.perf_counter() - start
    cal = Calibrator()
    import_ref = import_s * REFERENCE_CALIBRATION_S / cal.sample()

    workload = workloads.make(args.workload)
    try:
        setup_s = import_ref + timed_setups(
            workload, args.seed, cal, 1 if args.trace else SETUP_REPEATS)
        attempted, failed = workload.check()
        phase = measure_phase(workload, args.seconds, cal)
        attempted += phase.attempted
        failed += phase.failed
        print(f"# {args.workload} seed={args.seed}: {phase.attempted} ops "
              f"measured, raw {phase.raw_rate():.6g} ops/s, "
              f"{len(cal.samples)} calibration samples")
        if not args.trace:
            emit(end_to_end(workload, phase, setup_s), END_TO_END,
                 attempted, failed)
            return 0
        outputs = workload.outputs()
        metrics, t_attempted, t_failed, report = traced_run(
            workload, args, cal, phase, outputs)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    attempted += t_attempted
    failed += t_failed
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    print(f"# spans and aggregates written to {os.path.relpath(path)}")
    print("# layer        span share   cProfile share")
    for row in report["cross_check"]:
        flag = "  MISSING WRAPPER?" if row["flagged"] else ""
        print(f"# {row['layer']:12s} {row['span_share']:10.3f} "
              f"{row['cprofile_share']:10.3f}{flag}")
    emit(metrics, PER_LAYER, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
