"""``python -m repro modelcheck`` — bounded exhaustive state search.

Explores every host-action interleaving up to ``--depth`` over each
requested policy's tiny system, checking the full invariant set at
every state.  Exit status 0 only when *no* explored state violates an
invariant (``--policy broken`` is therefore expected to exit 1 — it
exists to prove the checker finds seeded bugs).

Violating traces are minimized before reporting; ``--export DIR``
writes each terminal-class witness (and each minimized violation) that
the chaos campaign can replay as a ``repro chaos --plan`` envelope, and
names each one it leaves out, with the reason, in one stderr line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.cli import name_list, positive_int, writable
from repro.modelcheck.explorer import explore
from repro.modelcheck.export import export_witnesses
from repro.modelcheck.minimize import minimize
from repro.modelcheck.model import POLICIES
from repro.modelcheck.poolworld import WORLDS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro modelcheck",
        description="bounded exhaustive exploration of host-action "
                    "interleavings over tiny real systems",
    )
    parser.add_argument(
        "--policy", default="all",
        help="world to explore: one of "
             f"{', '.join(POLICIES)}, 'pool' (two-tenant pool-"
             "failover world), 'broken' (seeded-bug toy, expected to "
             "fail), or 'all' (the paging policies; default)",
    )
    parser.add_argument(
        "--depth", type=positive_int, default=3, metavar="N",
        help="maximum trace length to explore (default: 3)",
    )
    parser.add_argument(
        "--max-states", type=positive_int, default=400, metavar="N",
        help="distinct-state budget per policy; the cut is "
             "deterministic (default: 400)",
    )
    parser.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="worker processes for frontier expansion; results are "
             "bit-identical to --jobs 1 (default: 1)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--export", metavar="DIR",
        help="write each witness trace and minimized violation that "
             "the chaos campaign can replay as a 'repro chaos --plan' "
             "JSON file under DIR; each one left out (its world has no "
             "campaign counterpart, or no action maps to a fault-plan "
             "event) is named on stderr",
    )
    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.policy == "all":
        policies = POLICIES
    else:
        policies = name_list(parser, "--policy", args.policy,
                             POLICIES + WORLDS + ("broken",))
    if args.export:
        writable(parser, "--export", args.export, directory=True)
    results = []
    for policy in policies:
        result = explore(policy, depth=args.depth,
                         max_states=args.max_states, jobs=args.jobs)
        minimized = [
            minimize(policy, trace) for trace, _ in result.violations
        ]
        results.append((result, minimized))
        if args.export:
            _export(args.export, result, minimized)
    ok = all(result.ok for result, _ in results)
    if args.format == "json":
        print(json.dumps(_as_json(results, args, ok), indent=2,
                         sort_keys=True))
    else:
        _print_text(results, args, ok)
    return 0 if ok else 1


def _export(directory, result, minimized):
    os.makedirs(directory, exist_ok=True)
    payloads, skipped = export_witnesses(result, minimized)
    for label, trace, reason in skipped:
        print(f"repro modelcheck: not exported: {result.policy} {label} "
              f"{list(trace)}: {reason}", file=sys.stderr)
    for label, payload in payloads.items():
        name = f"{result.policy}-{label.replace('/', '-')}.json"
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)


def _print_text(results, args, ok):
    for result, minimized in results:
        status = "OK" if result.ok else "UNSAFE"
        truncated = " (truncated)" if result.truncated else ""
        print(f"{result.policy:15s} {status:6s} "
              f"states={result.states} "
              f"transitions={result.transitions} "
              f"depth={result.depth_reached}/{result.depth}"
              f"{truncated} digest={result.digest[:16]}")
        for label, count in sorted(result.terminals.items()):
            print(f"  terminal {label}: {count}")
        for (trace, messages), (short, short_messages) in zip(
                result.violations, minimized):
            print(f"  VIOLATION via {list(trace)}")
            print(f"    minimized: {list(short)}")
            for message in short_messages:
                print(f"    {message}")
    print("verdict:", "OK" if ok else "FAIL")


def _as_json(results, args, ok):
    return {
        "ok": ok,
        "depth": args.depth,
        "max_states": args.max_states,
        "policies": [
            {
                **result.as_json(),
                "minimized_violations": [
                    {"trace": list(short), "messages": list(messages)}
                    for short, messages in minimized
                ],
            }
            for result, minimized in results
        ],
    }
