"""Command-line interface: ``python -m repro <experiment> [options]``.

Lists and runs the reproduction experiments without writing any code:

    python -m repro list
    python -m repro fig6 --requests 800
    python -m repro all
    python -m repro analyze --strict

Wall-clock reads in this module are progress chatter only — simulated
results always come from :class:`repro.clock.Clock` (the ``analyze``
subcommand's determinism pass enforces exactly that, and exempts this
module: ``DETERMINISM_EXEMPT`` in :mod:`repro.analysis.config`).
"""

from __future__ import annotations

import argparse
import importlib
import os
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

#: Subcommands that parse their own flags: name → (the module whose
#: ``run(argv)`` takes the rest of the command line, its purpose).
SUBCOMMANDS = {
    "analyze": ("repro.analysis.cli", "static checks of the source tree"),
    "chaos": ("repro.chaos.cli", "Byzantine-host fault-injection campaign"),
    "modelcheck": ("repro.modelcheck.cli", "bounded host-action search"),
    "recover": ("repro.recovery.cli", "crash/restore demonstration"),
    "serve": ("repro.service.cli", "multi-tenant service: smoke, sweeps"),
    "bench": ("repro.bench", "wall-clock A/B of the translation fast path"),
}


def at_least(minimum):
    """argparse ``type`` for a count that must be at least ``minimum``."""
    def count(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return count


positive_int = at_least(1)


def name_list(parser, flag, text, known):
    """The comma-separated names in ``flag``'s value ``text``; a list
    that names nothing, or a name outside ``known``, is refused as an
    argparse error (exit 2)."""
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    if not names or any(name not in known for name in names):
        parser.error(f"{flag} {text!r}: choose from {', '.join(known)}")
    return names


def writable(parser, flag, path, directory=False):
    """Refuse, as an argparse error (exit 2), an output ``path`` the
    run could not write when it ends: a file path that is a directory
    or whose directory does not exist, or with ``directory`` a path
    that is, or lies under, something other than a directory."""
    if directory:
        probe = os.path.abspath(path)
        while not os.path.exists(probe):
            probe = os.path.dirname(probe)
        if not os.path.isdir(probe):
            parser.error(f"{flag} {path!r}: {probe!r} is not a directory")
    elif os.path.isdir(path):
        parser.error(f"{flag} {path!r}: is a directory")
    elif not os.path.isdir(os.path.dirname(path) or "."):
        parser.error(f"{flag} {path!r}: no such directory "
                     f"{os.path.dirname(path)!r}")


def _resolve(name):
    name = ALIASES.get(name, name)
    if name not in EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {name!r}; try: python -m repro list"
        )
    module_name, _ = EXPERIMENTS[name]
    return importlib.import_module(f"repro.experiments.{module_name}")


def cmd_list():
    width = max(len(k) for k in EXPERIMENTS)
    print("available experiments (see EXPERIMENTS.md for details):\n")
    for key, (module, description) in EXPERIMENTS.items():
        print(f"  {key.ljust(width)}  {description}  "
              f"[repro.experiments.{module}]")
    print("\n  all" + " " * (width - 3) + "  run everything, in order")
    print("\nother subcommands (repro <cmd> --help lists their flags):\n")
    rows = [("verify", "check every qualitative claim of the paper"),
            ("report", "write every experiment into one report [path]")]
    rows += [(name, purpose) for name, (_, purpose) in SUBCOMMANDS.items()]
    for name, purpose in rows:
        print(f"  {name:<10}  {purpose}")


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
    if argv and argv[0] in SUBCOMMANDS:
        module, _ = SUBCOMMANDS[argv[0]]
        return importlib.import_module(module).run(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Autarky (EuroSys 2020) reproduction harness",
    )
    parser.add_argument(
        "experiment", nargs="*",
        help="experiment id(s) or 'all', 'list', 'verify', "
             "'report [path]'; 'repro list' names them all",
    )
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress chatter")
    parser.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
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
        writable(parser, "report", out)
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
