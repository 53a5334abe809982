"""``python -m repro serve`` — drive the multi-tenant enclave service.

Three modes, one per run (argparse refuses a second):

* ``--smoke`` (also the CI gate): boot a 4-tenant fleet, drive ~200
  requests of mixed-policy traffic with the seed's fault plan, probe
  health/readiness, then re-run from scratch and require digest
  equality.  Exit 0 only if every request ended in a terminal outcome,
  no invariant fell, the breaker both tripped and recovered, and the
  two digests match.

* ``--sweep``: the cross-tenant contention sweep (seeds × the three
  paper policies, over-committed EPC), with ``--jobs N`` fan-out that
  must be bit-identical to serial, writing its report to ``--output``
  (default ``service-sweep.json``, never the committed
  ``BENCH_service.json`` that perfbench's svc_pool reads its reference
  digests from).
  With ``--pool`` it also runs the pool-failover sweep (two-replica
  pools under tamper ladders, AEX storms, and suspend/resume) and
  embeds the throughput/fairness frontier as ``pool_frontier``.

* ``--plan FILE``: replay a frozen service fault plan (mirrors the
  chaos ``--plan`` envelope) — the promotion path for model-checker
  witnesses and hand-frozen failover regressions under
  ``tests/fixtures/chaos/``.

``--baseline FILE`` gates any sweep output against a committed
``BENCH_service.json``: per-point digests must match bit-for-bit.  A
baseline that cannot be read or pins no point is refused (exit 2)
before any point runs.  A flag its mode would ignore is refused (exit
2) before anything runs: ``--seed``, ``--tenants`` and ``--ticks``
apply only to ``--smoke``; ``--seeds``, ``--jobs``,
``--no-determinism-check``, ``--pool``, ``--baseline`` and ``--output``
only to ``--sweep``; ``--plan`` reads none of them, and ``--format``
applies to every mode.  A fleet that cannot boot (``--smoke`` or
``--plan``) is one ``cannot boot`` line and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.chaos.plan import check_keys, from_json, read_plan_file
from repro.cli import positive_int, writable
from repro.core.digest import pin_mismatches, read_pinned
from repro.errors import (
    EnclaveCrashed,
    EnclaveTerminated,
    HostCallDenied,
    SgxError,
)
from repro.service.chaos import ServiceFaultPlan
from repro.service.router import EnclaveService, ServiceConfig, run_service
from repro.service.sweep import (
    RUN_CLASSES,
    SWEEP_POLICIES,
    classify,
    pool_report,
    run_pool_sweep,
    run_sweep,
    sweep_report,
)
from repro.service.tenant import TenantSpec, default_tenants

#: Smoke sizing: 4 tenants × (2+3+2+3) arrivals/tick × 20 ticks = 200.
SMOKE_TENANTS = 4
SMOKE_TICKS = 20

#: The flags only one mode reads: flag -> (that mode, its default).
#: They parse to ``None`` when absent, so :func:`run` can refuse one
#: given to a mode that would ignore it and fill in the default.
MODE_FLAGS = {
    "--seed": ("--smoke", 0),
    "--tenants": ("--smoke", SMOKE_TENANTS),
    "--ticks": ("--smoke", SMOKE_TICKS),
    "--seeds": ("--sweep", 6),
    "--jobs": ("--sweep", 1),
    "--no-determinism-check": ("--sweep", False),
    "--pool": ("--sweep", False),
    "--baseline": ("--sweep", None),
    "--output": ("--sweep", "service-sweep.json"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="deterministic multi-tenant enclave service",
    )
    # One mode per run: a second one would be silently dropped.
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument(
        "--smoke", action="store_true",
        help="boot 4 tenants, drive ~200 requests, probe health, "
             "verify double-run digest equality",
    )
    modes.add_argument(
        "--sweep", action="store_true",
        help="cross-tenant EPC contention sweep (seeds x policies), "
             "emitting a JSON report",
    )
    modes.add_argument(
        "--plan", metavar="FILE",
        help="replay a frozen service fault plan (JSON envelope with "
             "plan/config/expected_outcome, or a bare plan)",
    )
    # Each flag below applies to one mode (MODE_FLAGS); its default is
    # filled in by run().
    parser.add_argument(
        "--pool", action="store_true", default=None,
        help="with --sweep: also run the pool-failover sweep "
             "(2-replica pools) and embed the throughput/fairness "
             "frontier in the report",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="with --sweep: gate the sweep report against a committed "
             "BENCH_service.json (per-point digest equality)",
    )
    parser.add_argument(
        "--seed", type=int, metavar="N",
        help="with --smoke: service seed (default: 0)",
    )
    parser.add_argument(
        "--seeds", type=positive_int, metavar="N",
        help="with --sweep: sweep seeds 0..N-1 (default: 6)",
    )
    parser.add_argument(
        "--tenants", type=positive_int, metavar="N",
        help=f"with --smoke: fleet size (default: {SMOKE_TENANTS})",
    )
    parser.add_argument(
        "--ticks", type=positive_int, metavar="N",
        help=f"with --smoke: arrival ticks to drive "
             f"(default: {SMOKE_TICKS})",
    )
    parser.add_argument(
        "--jobs", type=positive_int, metavar="N",
        help="with --sweep: worker processes; results are identical "
             "to --jobs 1 (default: 1)",
    )
    parser.add_argument(
        "--no-determinism-check", action="store_true", default=None,
        help="with --sweep: run each point once instead of twice",
    )
    parser.add_argument(
        "--output", metavar="PATH",
        help="with --sweep: report path (default: service-sweep.json; "
             "pass BENCH_service.json to re-record the committed "
             "baseline)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    return parser


def booted(service, subject):
    """Boot ``service``, or print one ``cannot boot`` line on stderr and
    return False: a fleet its EPC cannot hold fails with the errors a
    mid-run arrival that does not fit is refused on
    (``EnclaveService._arrive``), and that is a bad configuration, not
    a run to report."""
    try:
        service.boot()
    except (SgxError, EnclaveTerminated, EnclaveCrashed,
            HostCallDenied) as exc:
        print(f"repro serve: cannot boot {subject}: {exc}", file=sys.stderr)
        return False
    return True


def _smoke_config(args):
    return ServiceConfig(
        seed=args.seed,
        tenants=default_tenants(args.tenants),
        ticks=args.ticks,
    )


def run_smoke(args):
    """One full service run, probed, then replayed for digest equality."""
    from repro.service.router import EnclaveService

    service = EnclaveService(_smoke_config(args))
    if not booted(service, f"{args.tenants} tenants on "
                           f"{service.config.epc_pages} EPC pages"):
        return 2
    boot_ready = service.ready()
    boot_health = service.health()
    result = service.run()
    final_ready = service.ready()
    rerun = run_service(_smoke_config(args))

    checks = {
        "booted_ready": boot_ready,
        "boot_health_ok": boot_health["status"] == "ok",
        "drained_not_ready": not final_ready,
        "no_violations": result.safe and rerun.safe,
        "breaker_tripped": result.breaker_trips >= 1,
        "breaker_recovered": result.breaker_closes >= 1,
        "digest_equal": result.digest == rerun.digest,
    }
    ok = all(checks.values())
    payload = {
        "ok": ok,
        "checks": checks,
        "seed": args.seed,
        "tenants": args.tenants,
        "ticks": args.ticks,
        "outcomes": result.outcome_counts,
        "shed_by_reason": result.shed_by_reason,
        "abort_reasons": result.abort_reasons,
        "recoveries": result.recoveries,
        "quarantines": result.quarantines,
        "boot_health": boot_health,
        "violations": list(result.violations),
        "digest": result.digest,
        "rerun_digest": rerun.digest,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        total = sum(result.outcome_counts.values())
        print(f"service smoke: seed={args.seed} tenants={args.tenants} "
              f"ticks={args.ticks} requests={total}")
        for outcome, count in result.outcome_counts.items():
            print(f"  {outcome:18s} {count}")
        for reason, count in result.shed_by_reason.items():
            print(f"  shed[{reason}]: {count}")
        for reason, count in result.abort_reasons.items():
            print(f"  abort[{reason}]: {count}")
        print(f"  recoveries={result.recoveries} "
              f"quarantines={result.quarantines} "
              f"breaker trips={result.breaker_trips} "
              f"closes={result.breaker_closes}")
        print(f"  digest={result.digest} rerun={rerun.digest}")
        for name, passed in checks.items():
            if not passed:
                print(f"  CHECK FAILED: {name}")
        for violation in result.violations:
            print(f"  VIOLATION: {violation}")
        print("verdict:", "OK" if ok else "FAIL")
    return 0 if ok else 1


def sweep_pins(report):
    """Per-point digests of a sweep report, keyed ``(section, seed,
    policy)``: the contention points and the pool frontier's."""
    pool = report.get("pool_frontier") or {}
    return {
        (section, p["seed"], p["policy"]): p["digest"]
        for section, block in (("contention", report),
                               ("pool_frontier", pool))
        for p in block.get("points", ())
    }


def _baseline_gate(report, baseline):
    """Compare per-point digests (contention + pool frontier) against
    a committed report; returns a list of mismatch messages."""
    fresh, frozen = sweep_pins(report), sweep_pins(baseline)
    return pin_mismatches(
        fresh, frozen,
        lambda key: f"{key[0]} point seed={key[1]} policy={key[2]}",
    ) + [
        f"{section}: baseline has points, run has none"
        for section in sorted({key[0] for key in frozen}
                              - {key[0] for key in fresh})
    ]


def run_contention_sweep(args):
    baseline = None
    if args.baseline:
        try:
            baseline = read_pinned(args.baseline, sweep_pins)
        except ValueError as exc:
            print(f"repro serve: cannot gate against {args.baseline}: "
                  f"{exc}", file=sys.stderr)
            return 2
    seeds = range(args.seeds)
    check = not args.no_determinism_check
    sweep = run_sweep(
        seeds,
        policies=SWEEP_POLICIES,
        check_determinism=check,
        jobs=args.jobs,
    )
    report = sweep_report(sweep, list(seeds), list(SWEEP_POLICIES),
                          args.jobs)
    pool_sweep = None
    if args.pool:
        pool_sweep = run_pool_sweep(
            seeds,
            policies=SWEEP_POLICIES,
            check_determinism=check,
            jobs=args.jobs,
        )
        report["pool_frontier"] = pool_report(
            pool_sweep, list(seeds), list(SWEEP_POLICIES), args.jobs
        )
    baseline_mismatches = []
    if baseline is not None:
        baseline_mismatches = _baseline_gate(report, baseline)
    ok = sweep.ok and not baseline_mismatches
    if pool_sweep is not None:
        ok = ok and pool_sweep.ok
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"service contention sweep: {len(sweep.points)} points "
              f"({args.seeds} seeds x {len(SWEEP_POLICIES)} policies, "
              f"jobs={args.jobs})")
        for klass, count in sweep.class_counts().items():
            print(f"  {klass:24s} {count}")
        print(f"  breaker trips={sweep.breaker_trips()} "
              f"closes={sweep.breaker_closes()}")
        for line in sweep.failure_lines():
            print(line)
        if pool_sweep is not None:
            print(f"pool-failover frontier: {len(pool_sweep.points)} "
                  f"points, classes {pool_sweep.class_counts()}")
            for policy, row in report["pool_frontier"]["frontier"].items():
                print(f"  {policy:12s} "
                      f"tp={row['mean_throughput_milli_per_mcycle']} "
                      f"fair={row['mean_fairness_milli']} "
                      f"failovers={row['failovers']}")
            for line in pool_sweep.failure_lines("POOL SWEEP VIOLATIONS"):
                print(line)
        for message in baseline_mismatches:
            print(f"BASELINE MISMATCH: {message}")
        print(f"  report written to {args.output}")
        print("verdict:", "OK" if ok else "FAIL")
    return 0 if ok else 1


# -- frozen-plan replay ------------------------------------------------------

#: What a ``repro serve --plan`` envelope holds beside its ``plan``.
ENVELOPE_KEYS = ("config", "expected_outcome", "description", "source")

#: ``expected_outcome`` floors: key -> the result's count it bounds.
_FLOORS = {
    "min_failovers": lambda result: result.failovers,
    "min_quarantines": lambda result: result.quarantines,
    "min_recoveries": lambda result: result.recoveries,
    "min_completed": lambda result: result.outcome_counts["completed"],
    "min_breaker_trips": lambda result: result.breaker_trips,
}


def _config_from_json(payload, plan):
    check_keys(payload, ("seed", "tenants", "epc_pages", "ticks"), "config")
    tenants = [
        from_json(TenantSpec, entry, f"config.tenants[{i}]")
        for i, entry in enumerate(payload.get("tenants", ()))
    ] or default_tenants(4, replicas=2)
    return ServiceConfig(
        seed=int(payload.get("seed", plan.seed)),
        tenants=tenants,
        epc_pages=int(payload.get("epc_pages", 320)),
        ticks=int(payload.get("ticks", plan.ticks)),
        fault_plan=plan,
    )


def run_plan(args):
    """Replay a frozen service fault plan and check its expectations —
    exit 0 only if the run is safe, deterministic, and every expected
    floor (failovers, quarantines, completions...) holds."""
    try:
        plan, envelope = read_plan_file(args.plan, ServiceFaultPlan,
                                        ENVELOPE_KEYS)
        expected = envelope.get("expected_outcome", {})
        check_keys(expected, (*_FLOORS, "outcome_class"),
                   "expected_outcome")
        floors = {key: int(expected[key])
                  for key in _FLOORS if key in expected}
        if "outcome_class" in expected and \
                expected["outcome_class"] not in RUN_CLASSES:
            raise ValueError(f"unknown outcome_class "
                             f"{expected['outcome_class']!r}")
        services = [
            EnclaveService(
                _config_from_json(envelope.get("config", {}), plan))
            for _ in range(2)
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"repro serve: cannot replay {args.plan}: {exc}",
              file=sys.stderr)
        return 2
    results = []
    for service in services:
        if not booted(service, args.plan):
            return 2
        results.append(service.run())
    result, rerun = results
    checks = {
        "safe": result.safe,
        "digest_equal": result.digest == rerun.digest,
    }
    for key, floor in floors.items():
        checks[key] = _FLOORS[key](result) >= floor
    if "outcome_class" in expected:
        checks["outcome_class"] = (
            classify(result) == expected["outcome_class"]
        )
    ok = all(checks.values())
    report = {
        "ok": ok,
        "plan": args.plan,
        "checks": checks,
        "outcomes": result.outcome_counts,
        "shed_by_reason": result.shed_by_reason,
        "failovers": result.failovers,
        "quarantines": result.quarantines,
        "recoveries": result.recoveries,
        "violations": list(result.violations),
        "digest": result.digest,
    }
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"service plan replay: {args.plan}")
        print(f"  outcomes={result.outcome_counts}")
        print(f"  failovers={result.failovers} "
              f"quarantines={result.quarantines} "
              f"recoveries={result.recoveries}")
        for name, passed in checks.items():
            if not passed:
                print(f"  CHECK FAILED: {name}")
        for violation in result.violations:
            print(f"  VIOLATION: {violation}")
        print("verdict:", "OK" if ok else "FAIL")
    return 0 if ok else 1


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    mode = "--plan" if args.plan else "--sweep" if args.sweep else "--smoke"
    for flag, (reader, default) in MODE_FLAGS.items():
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif reader != mode:
            parser.error(f"{flag} applies only to {reader}")
    if args.plan:
        return run_plan(args)
    if args.sweep:
        writable(parser, "--output", args.output)
        return run_contention_sweep(args)
    # --smoke is also the default mode.
    return run_smoke(args)
