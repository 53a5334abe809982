"""Command-line interface: ``python -m repro <experiment> [options]``.

Lists and runs the reproduction experiments without writing any code:

    python -m repro list
    python -m repro fig6 --requests 800
    python -m repro all
    python -m repro analyze --strict

Wall-clock reads in this module are progress chatter only — simulated
results always come from :class:`repro.clock.Clock` (the ``analyze``
subcommand's determinism pass enforces exactly that, and exempts this
module by configuration).
"""

from __future__ import annotations

import argparse
import sys
import time

EXPERIMENTS = {
    "e1": ("arch_overhead", "nbench A/D-check overhead (§7)"),
    "fig5": ("fig5_microbench", "Figure 5: paging latency breakdown"),
    "fig6": ("fig6_uthash", "Figure 6: uthash clusters vs ORAM"),
    "fig7": ("fig7_rate_limit", "Figure 7: Phoenix/PARSEC rate limiting"),
    "table2": ("table2_apps", "Table 2: libjpeg/Hunspell/FreeType"),
    "fig8": ("fig8_memcached", "Figure 8: Memcached + YCSB"),
    "attacks": ("attack_mitigation", "published attacks vs Autarky"),
    "leakage": ("leakage_analysis", "§5.3 leakage bounds"),
    "a1": ("ablation_eviction", "ablation: FIFO vs fault-frequency"),
    "a2": ("ablation_paths", "ablation: host-call/hardware paths"),
    "e9": ("multi_enclave", "extension: multi-enclave EPC coordination"),
    "e10": ("software_defense_cmp",
            "extension: software-only defenses vs Autarky (§4)"),
    "e11": ("sensitivity",
            "extension: cost-model sensitivity analysis"),
    "a3": ("ablation_posmap",
           "extension: ORAM position-map strategies"),
}

ALIASES = {
    "e2": "fig5", "e3": "fig6", "e4": "fig7", "e5": "table2",
    "e6": "fig8", "e7": "attacks", "e8": "leakage",
}


def positive_int(text):
    """argparse ``type`` for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def name_list(parser, flag, text, known):
    """The comma-separated names in ``flag``'s value ``text``; a list
    that names nothing, or a name outside ``known``, is refused as an
    argparse error (exit 2)."""
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    if not names or any(name not in known for name in names):
        parser.error(f"{flag} {text!r}: choose from {', '.join(known)}")
    return names


def _resolve(name):
    name = ALIASES.get(name, name)
    if name not in EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {name!r}; try: python -m repro list"
        )
    module_name, _ = EXPERIMENTS[name]
    import importlib
    return importlib.import_module(f"repro.experiments.{module_name}")


def cmd_list():
    width = max(len(k) for k in EXPERIMENTS)
    print("available experiments (see EXPERIMENTS.md for details):\n")
    for key, (module, description) in EXPERIMENTS.items():
        print(f"  {key.ljust(width)}  {description}  "
              f"[repro.experiments.{module}]")
    print("\n  all" + " " * (width - 3) + "  run everything, in order")
    print("\nother subcommands: verify, report [path], "
          "analyze [--strict] [--format text|json], "
          "chaos [--seeds N] [--policies ...] [--jobs N], "
          "modelcheck [--policy all] [--depth N] [--jobs N], "
          "recover [--ops N] [--policies ...], "
          "serve [--smoke|--sweep] [--jobs N], "
          "bench [--baseline] [--no-write] [--output path]")


def cmd_run(names, quiet=False, jobs=1):
    import inspect
    for name in names:
        module = _resolve(name)
        started = time.time()
        if not quiet:
            print(f"=== {name}: repro.experiments."
                  f"{module.__name__.split('.')[-1]} ===")
        # Sweep-style experiments accept jobs=; single-point ones don't.
        if "jobs" in inspect.signature(module.main).parameters:
            module.main(jobs=jobs)
        else:
            module.main()
        if not quiet:
            print(f"--- done in {time.time() - started:.1f}s ---\n")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "analyze":
        # The analyzer has its own flags (--strict, --format); hand the
        # rest of the command line straight to its parser.
        from repro.analysis.cli import run as analyze_run
        return analyze_run(argv[1:])
    if argv and argv[0] == "chaos":
        # Same pattern for the fault-injection campaign runner.
        from repro.chaos.cli import run as chaos_run
        return chaos_run(argv[1:])
    if argv and argv[0] == "modelcheck":
        # Bounded exhaustive exploration of host-action interleavings.
        from repro.modelcheck.cli import run as modelcheck_run
        return modelcheck_run(argv[1:])
    if argv and argv[0] == "recover":
        # Crash-consistent checkpoint/restore demonstration.
        from repro.recovery.cli import run as recover_run
        return recover_run(argv[1:])
    if argv and argv[0] == "serve":
        # The multi-tenant enclave service (smoke + contention sweep).
        from repro.service.cli import run as serve_run
        return serve_run(argv[1:])
    if argv and argv[0] == "bench":
        # Wall-clock A/B of the translation fast path (tier off vs columnar).
        from repro.bench import run as bench_run
        return bench_run(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Autarky (EuroSys 2020) reproduction harness",
    )
    parser.add_argument(
        "experiment", nargs="*",
        help="experiment id(s): e1, fig5..fig8, table2, attacks, "
             "leakage, a1, a2, all, 'list', or the analyze/verify/"
             "report subcommands",
    )
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress chatter")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep-style experiments; output is "
             "identical to --jobs 1 (default: 1)",
    )
    args = parser.parse_args(argv)

    if not args.experiment or args.experiment == ["list"]:
        cmd_list()
        return 0
    if args.experiment[0] == "verify":
        from repro.experiments.verify_claims import main as verify_main
        verify_main()
        return 0
    if args.experiment[0] == "report":
        from repro.experiments.report import generate
        out = args.experiment[1] if len(args.experiment) > 1 \
            else "autarky_report.md"
        generate(path=out, echo=not args.quiet)
        print(f"report written to {out}")
        return 0
    names = args.experiment
    if names == ["all"]:
        names = list(EXPERIMENTS)
    cmd_run(names, quiet=args.quiet, jobs=args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
