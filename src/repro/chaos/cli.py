"""``python -m repro chaos`` — run a Byzantine-host chaos campaign.

Exit status is the campaign verdict: 0 only when every run landed in a
safe state (completed / degraded-within-budget / structured abort),
every seed reproduced its own digest, and the sweep exercised enough
distinct fault kinds to mean something.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.chaos.campaign import (
    DEFAULT_POLICIES,
    OUTCOMES,
    check_plan,
    run_campaign,
    run_plan,
)
from repro.chaos.plan import (
    CRASH_KINDS,
    WITNESS_KEYS,
    FaultKind,
    FaultPlan,
    read_plan_file,
    to_json,
)
from repro.cli import name_list, positive_int

#: A sweep must fire at least this many distinct fault kinds, or the
#: campaign is not exercising the surface it claims to.
MIN_DISTINCT_KINDS = 8


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="deterministic Byzantine-host fault-injection sweep",
    )
    parser.add_argument(
        "--seeds", type=positive_int, default=20, metavar="N",
        help="number of seeds to sweep, 0..N-1 (default: 20)",
    )
    parser.add_argument(
        "--policies", default=",".join(DEFAULT_POLICIES),
        help="comma-separated paging policies "
             f"(default: {','.join(DEFAULT_POLICIES)})",
    )
    parser.add_argument(
        "--no-determinism-check", action="store_true",
        help="run each seed once instead of twice (faster, weaker)",
    )
    parser.add_argument(
        "--crash", action=argparse.BooleanOptionalAction, default=True,
        help="include the crash-and-recover fault kinds "
             "(crash-enclave, journal-torn-tail, journal-corrupt-tail); "
             "--no-crash removes them from every plan (default: on)",
    )
    parser.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="worker processes for the sweep; results are identical "
             "to --jobs 1 (default: 1)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--plan", metavar="FILE",
        help="replay one serialized FaultPlan (a model-checker witness "
             "or frozen regression) instead of sweeping seeds; the file "
             "is a bare plan, or an envelope holding it under \"plan\" "
             "beside " + ", ".join(WITNESS_KEYS),
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print one line per run",
    )
    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    policies = name_list(parser, "--policies", args.policies,
                         DEFAULT_POLICIES)
    if args.plan:
        return _replay_plan(args, policies)
    result = run_campaign(
        range(args.seeds),
        policies=policies,
        check_determinism=not args.no_determinism_check,
        jobs=args.jobs,
        exclude=() if args.crash else CRASH_KINDS,
    )
    kinds_fired = len(result.fired_kinds)
    enough_kinds = kinds_fired >= min(
        MIN_DISTINCT_KINDS, len(FaultKind)
    )
    ok = result.ok and enough_kinds

    if args.format == "json":
        print(json.dumps(_as_json(result, args, ok), indent=2,
                         sort_keys=True))
    else:
        _print_text(result, args, ok, kinds_fired)
    return 0 if ok else 1


def _replay_plan(args, policies):
    """Replay one serialized plan; exit 0 iff every run was safe and —
    when the file carries an ``expected_outcome`` — the outcome class
    matched it."""
    try:
        plan, envelope = read_plan_file(args.plan, FaultPlan, WITNESS_KEYS)
        policy = envelope.get("policy")
        if policy:
            if policy not in DEFAULT_POLICIES:
                raise ValueError(f"unknown policy {policy!r}")
            policies = (policy,)
        expected = envelope.get("expected_outcome")
        if expected not in (None, *OUTCOMES):
            raise ValueError(f"unknown expected_outcome {expected!r}")
        check_plan(plan)
    except (OSError, ValueError, TypeError) as exc:
        print(f"repro chaos: cannot replay {args.plan}: {exc}",
              file=sys.stderr)
        return 2
    ok = True
    runs = []
    for policy in policies:
        run_ = run_plan(plan, policy)
        matched = expected is None or run_.outcome == expected
        ok = ok and run_.safe and matched
        runs.append((policy, run_, matched))
    if args.format == "json":
        print(json.dumps({
            "ok": ok,
            "plan": to_json(plan),
            "expected_outcome": expected,
            "runs": [
                {
                    "policy": policy,
                    "outcome": run_.outcome,
                    "reason": run_.reason,
                    "matched_expected": matched,
                    "violations": list(run_.violations),
                    "digest": run_.digest,
                }
                for policy, run_, matched in runs
            ],
        }, indent=2, sort_keys=True))
    else:
        print(f"replay {plan.describe()}")
        for policy, run_, matched in runs:
            extra = f" reason={run_.reason}" if run_.reason else ""
            verdict = "" if matched else \
                f"  EXPECTED {expected}, GOT {run_.outcome}"
            print(f"  {policy:14s} {run_.outcome:9s}{extra}"
                  f" digest={run_.digest}{verdict}")
            for violation in run_.violations:
                print(f"    VIOLATION: {violation}")
        print("verdict:", "OK" if ok else "FAIL")
    return 0 if ok else 1


def _print_text(result, args, ok, kinds_fired):
    if args.verbose:
        for run_ in result.runs:
            extra = f" reason={run_.reason}" if run_.reason else ""
            print(
                f"seed={run_.seed:3d} {run_.policy:10s} "
                f"{run_.outcome:9s}{extra} "
                f"kinds={','.join(run_.fired_kinds) or '-'} "
                f"digest={run_.digest}"
            )
        print()
    counts = result.outcome_counts()
    total = len(result.runs)
    print(f"chaos campaign: {total} runs "
          f"({args.seeds} seeds x {len(result.abort_stats)} policies)")
    for outcome, count in counts.items():
        print(f"  {outcome:9s} {count}")
    for policy, stats in result.abort_stats.items():
        if stats.total:
            detail = ", ".join(
                f"{reason}={count}"
                for reason, count in stats.as_dict().items()
            )
            print(f"  aborts[{policy}]: {detail}")
    print(f"  distinct fault kinds fired: {kinds_fired}")
    if result.recoveries:
        print(f"  verified crash recoveries: {result.recoveries}")
    for line in result.failure_lines():
        print(line)
    if kinds_fired < MIN_DISTINCT_KINDS:
        print(f"INSUFFICIENT COVERAGE: only {kinds_fired} distinct "
              f"fault kinds fired (need {MIN_DISTINCT_KINDS})")
    print("verdict:", "OK" if ok else "FAIL")


def _as_json(result, args, ok):
    return {
        "ok": ok,
        "seeds": args.seeds,
        "policies": sorted(result.abort_stats),
        "outcomes": result.outcome_counts(),
        "abort_reasons": {
            policy: stats.as_dict()
            for policy, stats in result.abort_stats.items()
        },
        "fired_kinds": sorted(result.fired_kinds),
        "recoveries": result.recoveries,
        **result.failure_report(),
        "runs": [
            {
                "seed": run_.seed,
                "policy": run_.policy,
                "outcome": run_.outcome,
                "reason": run_.reason,
                "ops_done": run_.ops_done,
                "fired_kinds": list(run_.fired_kinds),
                "degradations": run_.degradations,
                "retried_calls": run_.retried_calls,
                "balloon_freed": run_.balloon_freed,
                "recoveries": run_.recoveries,
                "digest": run_.digest,
            }
            for run_ in result.runs
        ],
    }
