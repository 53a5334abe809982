"""``python -m repro serve`` — drive the multi-tenant enclave service.

Two modes:

* ``--smoke`` (also the CI gate): boot a 4-tenant fleet, drive ~200
  requests of mixed-policy traffic with the seed's fault plan, probe
  health/readiness, then re-run from scratch and require digest
  equality.  Exit 0 only if every request ended in a terminal outcome,
  no invariant fell, the breaker both tripped and recovered, and the
  two digests match.

* ``--sweep``: the cross-tenant contention sweep (seeds × the three
  paper policies, over-committed EPC), with ``--jobs N`` fan-out that
  must be bit-identical to serial, emitting ``BENCH_service.json``.
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
before any point runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.chaos.plan import check_keys
from repro.cli import positive_int, writable
from repro.core.digest import pin_mismatches, read_pinned
from repro.service.chaos import ServiceFaultPlan
from repro.service.router import EnclaveService, ServiceConfig, run_service
from repro.service.sweep import (
    SWEEP_POLICIES,
    pool_report,
    run_pool_sweep,
    run_sweep,
    sweep_report,
)
from repro.service.tenant import TenantSpec, default_tenants

#: Smoke sizing: 4 tenants × (2+3+2+3) arrivals/tick × 20 ticks = 200.
SMOKE_TENANTS = 4
SMOKE_TICKS = 20


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="deterministic multi-tenant enclave service",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="boot 4 tenants, drive ~200 requests, probe health, "
             "verify double-run digest equality",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="cross-tenant EPC contention sweep (seeds x policies), "
             "emitting a JSON report",
    )
    parser.add_argument(
        "--pool", action="store_true",
        help="with --sweep: also run the pool-failover sweep "
             "(2-replica pools) and embed the throughput/fairness "
             "frontier in the report",
    )
    parser.add_argument(
        "--plan", metavar="FILE",
        help="replay a frozen service fault plan (JSON envelope with "
             "plan/config/expected_outcome, or a bare plan)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="gate the sweep report against a committed "
             "BENCH_service.json (per-point digest equality)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="service seed (default: 0)",
    )
    parser.add_argument(
        "--seeds", type=positive_int, default=6, metavar="N",
        help="sweep seeds 0..N-1 (default: 6)",
    )
    parser.add_argument(
        "--tenants", type=positive_int, default=SMOKE_TENANTS,
        metavar="N",
        help=f"fleet size (default: {SMOKE_TENANTS})",
    )
    parser.add_argument(
        "--ticks", type=positive_int, default=SMOKE_TICKS, metavar="N",
        help=f"arrival ticks to drive (default: {SMOKE_TICKS})",
    )
    parser.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="worker processes for the sweep; results are identical "
             "to --jobs 1 (default: 1)",
    )
    parser.add_argument(
        "--no-determinism-check", action="store_true",
        help="run each sweep point once instead of twice",
    )
    parser.add_argument(
        "--output", default="BENCH_service.json", metavar="PATH",
        help="sweep report path (default: BENCH_service.json)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    return parser


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
    service.boot()
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

_SPEC_FIELDS = {f.name for f in dataclasses.fields(TenantSpec)}

#: ``expected_outcome`` floors: key -> the result's count it bounds.
_FLOORS = {
    "min_failovers": lambda result: result.failovers,
    "min_quarantines": lambda result: result.quarantines,
    "min_recoveries": lambda result: result.recoveries,
    "min_completed": lambda result: result.outcome_counts["completed"],
    "min_breaker_trips": lambda result: result.breaker_trips,
}


def _spec_from_json(payload):
    check_keys(payload, _SPEC_FIELDS, "tenant")
    return TenantSpec(**payload)


def _config_from_json(payload, plan):
    check_keys(payload, ("seed", "tenants", "epc_pages", "ticks"), "config")
    tenants = [
        _spec_from_json(entry) for entry in payload.get("tenants", ())
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
        with open(args.plan, encoding="utf-8") as handle:
            payload = json.load(handle)
        envelope = payload if "plan" in payload else {"plan": payload}
        check_keys(envelope, ("plan", "config", "expected_outcome",
                              "description", "source"), "envelope")
        plan = ServiceFaultPlan.from_json(envelope["plan"])
        expected = envelope.get("expected_outcome", {})
        check_keys(expected, (*_FLOORS, "outcome_class"),
                   "expected_outcome")
        floors = {key: int(expected[key])
                  for key in _FLOORS if key in expected}
        services = [
            EnclaveService(
                _config_from_json(envelope.get("config", {}), plan))
            for _ in range(2)
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"repro serve: cannot replay {args.plan}: {exc}",
              file=sys.stderr)
        return 2
    result, rerun = [service.run() for service in services]
    checks = {
        "safe": result.safe,
        "digest_equal": result.digest == rerun.digest,
    }
    for key, floor in floors.items():
        checks[key] = _FLOORS[key](result) >= floor
    if "outcome_class" in expected:
        from repro.service.sweep import classify
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
    if args.plan:
        return run_plan(args)
    if args.sweep:
        writable(parser, "--output", args.output)
        return run_contention_sweep(args)
    # --smoke is also the default mode.
    return run_smoke(args)
