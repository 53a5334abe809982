"""``python -m repro bench``: wall-clock A/B of the access engine.

Simulated results in this project are deterministic, so performance
work has exactly one observable: host wall-clock.  This harness times
three representative slices — the Figure 6 uthash serving loop, the
Figure 8 Memcached serving loop, and a chaos-campaign smoke sweep —
under two configurations:

* **baseline** — the pre-PR serial path: translation fast path
  disabled (tier "off"), one engine call per page, one compute charge
  per chain node, ``jobs=1``.  The legacy drivers below replay the
  exact pre-PR application call structure (see the git history of
  ``apps/uthash.py`` / ``apps/memcached.py``), so the baseline is the
  code this PR replaced, not a strawman.
* **optimized** — the shipped path at the selected fast-path tier
  (``--tier memo`` = the epoch-guarded per-page memo alone,
  ``--tier columnar`` = memo + the batch interpreter of
  :mod:`repro.sgx.columnar`, the default), batched
  ``data_access_run`` accesses, planned ``make_run``/``replay``
  traces, bulk compute charges, and ``--jobs N`` sharding for the
  chaos sweep.

Both configurations must produce **bit-identical simulated results** —
cycle totals, fault counts, TLB hits, walk counts, chaos digests.  The
harness asserts this per slice and refuses to report a speedup over a
baseline that computed something else.

Output is a **trajectory**: ``BENCH_simwall.json`` holds a list of
dated entries, one appended per run, so the committed file records the
performance history across PRs rather than a single overwritable
snapshot.  ``--baseline`` additionally gates the fresh run against the
trajectory: fingerprint drift from the last entry fails immediately,
and a per-slice speedup below ``REGRESSION_FLOOR`` (75%) of the median
over the trailing ``GATE_WINDOW`` (5) entries of the same tier fails as
a regression (slices below ``GATE_MIN_SPEEDUP`` are digest-gated
only).  See docs/performance.md for the schema.

Wall-clock and timestamp reads here are the *measurement*, not chatter
— this module is exempted from the determinism pass by configuration
(``repro.analysis.config.determinism_exempt``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import time

from repro.apps.memcached import Memcached
from repro.apps.uthash import UthashTable
from repro.core.config import SystemConfig, set_fastpath_default
from repro.core.system import AutarkySystem
from repro.sgx.columnar import TIER_COLUMNAR, TIER_MEMO, TIER_OFF
from repro.sgx.params import PAGE_SIZE

#: Requests per timed slice — large enough that per-request costs
#: dominate boot/warmup noise, small enough for a CI smoke job.
FIG6_REQUESTS = 200_000
FIG8_REQUESTS = 100_000
CHAOS_SEEDS = 3

#: ``--baseline`` fails when a slice's fresh speedup drops below this
#: fraction of the trajectory's median speedup for that slice.  The
#: margin is wide because shared-runner wall clocks routinely wobble
#: ±15%; the gate is for structural regressions (a broken or disabled
#: tier shows up as a 3x+ drop), while drift is visible in the
#: committed trajectory itself.
REGRESSION_FLOOR = 0.75
#: Trailing trajectory entries the median is taken over.
GATE_WINDOW = 5
#: Slices whose committed speedup is below this are not wall-clock
#: gated: they are not fast-path-bound (the chaos sweep hovers at
#: ~1x), so their regression signal is noise; their correctness is
#: still gated through the fingerprint digest.
GATE_MIN_SPEEDUP = 1.5


# -- the pre-PR serial baseline ------------------------------------------


class LegacyEngine:
    """The pre-PR engine call structure, replayed on today's stack.

    One ``runtime.access`` per page and one ``runtime.compute`` per
    charge — no batching, no bulk accounting, no planned traces.
    Simulated behaviour is identical to the batched path (same accesses
    in the same order, same totals); only the Python call count
    differs, which is the thing being measured.
    """

    def __init__(self, engine):
        self._engine = engine
        self.runtime = engine.runtime

    def data_access(self, vaddr, write=False):
        self._engine.data_access(vaddr, write=write)

    def data_access_run(self, vaddrs, write=False):
        for vaddr in vaddrs:
            self._engine.data_access(vaddr, write=write)

    def make_run(self, vaddrs):
        return list(vaddrs)

    def replay(self, trace):
        run, cycles = trace
        for vaddr in run:
            self._engine.data_access(vaddr)
        self.runtime.compute(cycles)

    def compute(self, cycles):
        self.runtime.compute(cycles)

    def progress(self, kind):
        self._engine.progress(kind)

    def region(self, name):
        return self._engine.region(name)


def _legacy_uthash_lookup(table, engine, item):
    """apps/uthash.py:lookup as it stood before the batched rewrite."""
    table.lookups += 1
    engine.data_access(table.bucket_page(table.bucket_of(item)))
    pos = table.chain_position(item)
    for node in table.chain_items(table.bucket_of(item), pos):
        engine.data_access(table.item_page(node))
        engine.compute(table.NODE_COMPUTE)
    return item


def _legacy_memcached_get(server, engine, key):
    """apps/memcached.py:get as it stood before the batched rewrite."""
    server.gets += 1
    engine.compute(server.REQUEST_COMPUTE)
    engine.data_access(server.index_page(key))
    engine.data_access(server.item_page(key))
    engine.compute(server.ITEM_COMPUTE)


# -- slices ----------------------------------------------------------------


def _best_of_two(one_pass):
    """Warmup pass (untimed), then two timed passes; returns the
    faster.  Host noise is strictly additive, so the minimum is the
    better estimate of the code's actual cost."""
    one_pass()
    started = time.perf_counter()
    one_pass()
    first = time.perf_counter() - started
    started = time.perf_counter()
    one_pass()
    return min(first, time.perf_counter() - started)


def _fingerprint(system, **extra):
    """The simulated observables a slice must reproduce exactly."""
    kernel = system.kernel
    fp = {
        "cycles": kernel.clock.cycles,
        "faults": kernel.cpu.fault_count,
        "tlb_hits": kernel.tlb.hits,
        "walks": kernel.mmu.walks,
    }
    fp.update(extra)
    return fp


def _fig6_slice(fast):
    """Steady-state uthash GETs under 8-page clusters.

    The budget covers the whole table, so after the warmup sweep the
    serving loop is translation-bound — the regime the fast path
    targets (the full Figure 6 sweep is paging-bound and is covered by
    the experiments themselves).
    """
    data_bytes = 8 * 1024 * 1024
    system = AutarkySystem(SystemConfig.for_policy(
        "clusters", cluster_pages=8,
        epc_pages=8_192, quota_pages=6_500, enclave_managed_budget=6_000,
        heap_pages=2_800, code_pages=32, data_pages=32, runtime_pages=8,
    ))
    engine = system.engine()
    if not fast:
        engine = LegacyEngine(engine)
    table = UthashTable(engine, system.heap_start(), data_bytes)
    system.runtime.allocator.alloc_pages(table.total_pages_after_rehash())
    heap = system.heap_start()
    engine.data_access_run(
        [heap + i * PAGE_SIZE for i in range(table.total_pages)]
    )

    rng = random.Random(7)
    keys = [rng.randrange(table.n_items) for _ in range(FIG6_REQUESTS)]
    # One untimed warmup pass (demand faults settle, caches fill), then
    # two timed steady-state passes over the same stream, keeping the
    # faster one (host noise only ever slows a pass down).  All passes
    # run in both modes, so the fingerprints cover identical work.
    if fast:
        def one_pass():
            for key in keys:
                table.lookup(key)
    else:
        def one_pass():
            for key in keys:
                _legacy_uthash_lookup(table, engine, key)
    elapsed = _best_of_two(one_pass)
    return elapsed, _fingerprint(system, lookups=table.lookups)


def _fig8_slice(fast):
    """Steady-state Memcached GETs (hotspot99) under 10-page clusters."""
    data_bytes = 16 * 1024 * 1024
    system = AutarkySystem(SystemConfig.for_policy(
        "clusters", cluster_pages=10,
        epc_pages=8_192, quota_pages=6_500, enclave_managed_budget=6_000,
        heap_pages=4_800, code_pages=32, data_pages=32, runtime_pages=8,
    ))
    engine = system.engine()
    if not fast:
        engine = LegacyEngine(engine)
    server = Memcached(engine, system.heap_start(), data_bytes)
    system.runtime.allocator.alloc_pages(server.total_pages)
    heap = system.heap_start()
    engine.data_access_run(
        [heap + i * PAGE_SIZE for i in range(server.total_pages)],
        write=True,
    )

    from repro.workloads.ycsb import make_generator
    keys = make_generator(
        "hotspot99", server.n_keys, seed=11
    ).keys(FIG8_REQUESTS)
    from repro.runtime.rate_limit import ProgressKind
    # Untimed warmup pass, then two timed steady-state passes, keeping
    # the faster one (see _fig6_slice).
    if fast:
        one_pass = lambda: server.serve(keys)
    else:
        def one_pass():
            for key in keys:
                engine.progress(ProgressKind.IO)
                _legacy_memcached_get(server, engine, key)
    elapsed = _best_of_two(one_pass)
    return elapsed, _fingerprint(system, gets=server.gets)


def _chaos_slice(fast, jobs):
    """Chaos smoke sweep; optimized mode also exercises ``--jobs``."""
    from repro.chaos.campaign import run_campaign
    started = time.perf_counter()
    result = run_campaign(
        range(CHAOS_SEEDS), check_determinism=False,
        jobs=jobs if fast else 1,
    )
    elapsed = time.perf_counter() - started
    digests = {
        f"{r.seed}/{r.policy}": r.digest for r in result.runs
    }
    return elapsed, {
        "digests": digests,
        "violations": len(result.violations),
    }


SLICES = (
    ("fig6_uthash", lambda fast, jobs: _fig6_slice(fast)),
    ("fig8_memcached", lambda fast, jobs: _fig8_slice(fast)),
    ("chaos_smoke", _chaos_slice),
)


# -- harness ---------------------------------------------------------------


def fingerprints_digest(slices):
    """SHA-256 over the canonical JSON of every slice fingerprint —
    one string that must match across tiers, job counts, and PRs."""
    canon = json.dumps(
        {s["name"]: s["fingerprint"] for s in slices},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def run_bench(jobs=1, tier=TIER_COLUMNAR):
    """Run every slice in both modes; returns one trajectory entry.

    The fast-path default is toggled around each run so freshly booted
    systems inherit the mode; it is restored before returning.
    """
    slices = []
    total_base = total_opt = 0.0
    identical = True
    prev = set_fastpath_default(tier)
    try:
        for name, fn in SLICES:
            set_fastpath_default(TIER_OFF)
            base_s, base_fp = fn(False, jobs)
            set_fastpath_default(tier)
            opt_s, opt_fp = fn(True, jobs)
            same = base_fp == opt_fp
            identical = identical and same
            total_base += base_s
            total_opt += opt_s
            slices.append({
                "name": name,
                "baseline_s": round(base_s, 4),
                "optimized_s": round(opt_s, 4),
                "speedup": round(base_s / opt_s, 2) if opt_s else None,
                "identical_results": same,
                "fingerprint": base_fp if same else {
                    "baseline": base_fp, "optimized": opt_fp,
                },
            })
    finally:
        set_fastpath_default(prev)
    return {
        "recorded_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "jobs": jobs,
        "tier": tier,
        "slices": slices,
        "total": {
            "baseline_s": round(total_base, 4),
            "optimized_s": round(total_opt, 4),
            "speedup": round(total_base / total_opt, 2)
            if total_opt else None,
        },
        "identical_results": identical,
        "fingerprints_sha256": fingerprints_digest(slices),
    }


# -- the trajectory file ---------------------------------------------------


def load_trajectory(path):
    """Read ``path`` as a trajectory, converting a pre-PR single-run
    snapshot (schema 1, a bare report dict) into a one-entry list."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {"schema": 2, "entries": []}
    if isinstance(data, dict) and data.get("schema") == 2:
        return data
    # Legacy snapshot: a bare report without timestamps or digest.
    entry = dict(data)
    entry.setdefault("recorded_at", None)
    entry.setdefault("tier", TIER_MEMO)
    if "fingerprints_sha256" not in entry:
        entry["fingerprints_sha256"] = fingerprints_digest(
            entry.get("slices", [])
        )
    return {"schema": 2, "entries": [entry]}


def append_entry(path, entry):
    """Append ``entry`` to the trajectory at ``path`` (created if
    missing); returns the updated trajectory."""
    traj = load_trajectory(path)
    traj["entries"].append(entry)
    with open(path, "w") as fh:
        json.dump(traj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return traj


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def check_against_baseline(entry, trajectory):
    """Gate a fresh ``entry`` against the committed trajectory.

    Returns a list of failure strings (empty = pass): any fingerprint
    digest divergence from the last entry (fingerprints are
    tier-independent by contract, so any entry is a valid reference),
    and any fast-path-bound slice whose speedup fell below
    ``REGRESSION_FLOOR`` of the median over the trailing
    ``GATE_WINDOW`` entries *of the same tier* (wall clock is only
    comparable within a tier; a tier with no committed history gets
    the digest gate alone).
    """
    if not trajectory["entries"]:
        return []
    last = trajectory["entries"][-1]
    window = [
        e for e in trajectory["entries"]
        if e.get("tier") == entry["tier"]
    ][-GATE_WINDOW:]
    failures = []
    if entry["fingerprints_sha256"] != last["fingerprints_sha256"]:
        failures.append(
            "fingerprint divergence: simulated results differ from the "
            f"committed baseline ({entry['fingerprints_sha256'][:12]} vs "
            f"{last['fingerprints_sha256'][:12]})"
        )
    for s in entry["slices"]:
        history = [
            old["speedup"]
            for e in window
            for old in e.get("slices", [])
            if old["name"] == s["name"] and old.get("speedup")
        ]
        if not history or not s["speedup"]:
            continue
        committed = _median(history)
        if committed < GATE_MIN_SPEEDUP:
            continue  # not fast-path-bound; digest-gated only
        floor = committed * REGRESSION_FLOOR
        if s["speedup"] < floor:
            failures.append(
                f"{s['name']}: speedup {s['speedup']:.2f}x below "
                f"{REGRESSION_FLOOR:.0%} of committed median "
                f"{committed:.2f}x"
            )
    return failures


# -- profiling -------------------------------------------------------------


def profile_slice(name, jobs=1, tier=TIER_COLUMNAR, top=25):
    """cProfile one slice's optimized run; prints top-N by cumulative
    time.  Profiling is observational — simulated results are the same
    as an unprofiled run, just slower on the wall clock."""
    import cProfile
    import pstats

    for slice_name, fn in SLICES:
        if slice_name == name:
            break
    else:
        raise SystemExit(
            f"unknown slice {name!r}; choose from "
            f"{', '.join(s[0] for s in SLICES)}"
        )
    prev = set_fastpath_default(tier)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        fn(True, jobs)
        profiler.disable()
    finally:
        set_fastpath_default(prev)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print(f"profile of {name} (tier={tier}), top {top} by cumulative:")
    stats.print_stats(top)


# -- CLI -------------------------------------------------------------------


def _print_report(report):
    width = max(len(s["name"]) for s in report["slices"])
    print(f"{'slice'.ljust(width)}  baseline   optimized  speedup  "
          f"identical")
    for s in report["slices"]:
        print(f"{s['name'].ljust(width)}  "
              f"{s['baseline_s']:7.3f}s   {s['optimized_s']:7.3f}s  "
              f"{s['speedup']:6.2f}x  {s['identical_results']}")
    total = report["total"]
    print(f"{'TOTAL'.ljust(width)}  "
          f"{total['baseline_s']:7.3f}s   {total['optimized_s']:7.3f}s  "
          f"{total['speedup']:6.2f}x")


def run(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="wall-clock A/B: fast-path engine + parallel "
                    "runner vs the pre-PR serial path",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the chaos slice's optimized run "
             "(default: 1)",
    )
    parser.add_argument(
        "--tier", choices=(TIER_MEMO, TIER_COLUMNAR),
        default=TIER_COLUMNAR,
        help="fast-path tier for the optimized runs "
             "(default: columnar)",
    )
    parser.add_argument(
        "--output", default="BENCH_simwall.json", metavar="PATH",
        help="trajectory file to append to "
             "(default: BENCH_simwall.json)",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="gate the fresh run against the trajectory: fail on "
             "fingerprint divergence from the last entry, or on a "
             f"per-slice speedup below {REGRESSION_FLOOR * 100:.0f}%% "
             f"of the median over the last {GATE_WINDOW} entries of "
             "the same tier",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="do not append the fresh entry to the trajectory file",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile one slice's optimized run instead of the A/B "
             "(see --profile-slice / --profile-top)",
    )
    parser.add_argument(
        "--profile-slice", default="fig6_uthash", metavar="NAME",
        help="slice to profile with --profile (default: fig6_uthash)",
    )
    parser.add_argument(
        "--profile-top", type=int, default=25, metavar="N",
        help="rows of profile output (default: 25)",
    )
    args = parser.parse_args(argv)

    if args.profile:
        profile_slice(args.profile_slice, jobs=args.jobs,
                      tier=args.tier, top=args.profile_top)
        return 0

    report = run_bench(jobs=args.jobs, tier=args.tier)
    _print_report(report)

    failures = []
    if args.baseline:
        failures = check_against_baseline(
            report, load_trajectory(args.output)
        )
        for failure in failures:
            print(f"FAIL: {failure}")
        if not failures:
            print("baseline gate: ok")

    if not args.no_write:
        traj = append_entry(args.output, report)
        print(f"entry {len(traj['entries'])} appended to {args.output}")

    if not report["identical_results"]:
        print("FAIL: simulated results differ between modes")
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    import sys
    sys.exit(run())
