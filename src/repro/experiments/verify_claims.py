"""Artifact self-check: every qualitative claim, verified in one run.

``python -m repro verify`` executes a fast pass over the whole
reproduction and prints PASS/FAIL per claim — the checklist an
artifact-evaluation committee would walk, runnable in about a minute.

Each claim is a named predicate over a (scaled-down) experiment run.
The paper-claim tests in ``benchmarks/`` do not share these
predicates: they check claims on their own runs with their own
thresholds, which may be stricter.  E3b here wants uncached ORAM more
than 30x slower than cached ORAM, while
``benchmarks/test_bench_fig6_clusters_oram.py`` asserts more than 50x.
So a PASS here is a quick interactive check, not the benchmark suite's
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.formatting import render_table


@dataclass
class Claim:
    claim_id: str
    statement: str
    passed: bool
    evidence: str


def _check_arch_overhead():
    from repro.experiments import arch_overhead
    rows, mean = arch_overhead.run(ops=800)
    yield Claim(
        "E1", "A/D fill check costs well under 1% (paper: 0.07%)",
        0.0 < mean < 0.005, f"geomean {mean:.3%}",
    )


def _check_fig5():
    from repro.experiments import fig5_microbench
    rows = fig5_microbench.run(iterations=200)
    totals = fig5_microbench.totals(rows)
    yield Claim(
        "E2a", "SGX1 paging is cheaper than SGX2 (§7.1)",
        totals[("fault", "SGX1")] < totals[("fault", "SGX2")],
        f"{totals[('fault', 'SGX1')]:,.0f} vs "
        f"{totals[('fault', 'SGX2')]:,.0f} cycles/fault",
    )
    transitions = sum(
        r.cycles_per_page for r in rows
        if (r.operation, r.version) == ("fault", "SGX1")
        and ("AEX" in r.component or "EENTER" in r.component)
    )
    share = transitions / totals[("fault", "SGX1")]
    yield Claim(
        "E2b", "transitions are 40-50% of fault latency",
        0.35 < share < 0.55, f"{share:.0%}",
    )


def _check_fig6():
    from repro.experiments import fig6_uthash
    scale = fig6_uthash.Fig6Scale(
        data_bytes=431 * 1024 * 1024 // 32,
        oram_tree_pages=262_144 // 32,
        oram_cache_pages=32_768 // 32,
        budget_pages=40_000 // 32,
    )
    points = fig6_uthash.run(scale=scale, requests=400)
    series = sorted(
        (p for p in points if p.series == "clusters"),
        key=lambda p: p.cluster_pages,
    )
    yield Claim(
        "E3a", "throughput is inversely proportional to cluster size",
        all(a.throughput > b.throughput
            for a, b in zip(series, series[1:])),
        f"{series[0].throughput:,.0f} -> {series[-1].throughput:,.0f} "
        "req/s across 1..100 pages",
    )
    oram = next(p.throughput for p in points if p.series == "oram")
    uncached = next(p.throughput for p in points
                    if p.series == "oram_uncached")
    yield Claim(
        "E3b", "uncached ORAM is orders of magnitude slower "
               "(paper: 232x)",
        oram / uncached > 30, f"{oram / uncached:,.0f}x",
    )


def _check_fig7():
    from repro.experiments import fig7_rate_limit
    row = fig7_rate_limit.run_app(
        fig7_rate_limit.SUITE_APPS[0], ops=150, scale=16,
    )
    yield Claim(
        "E4", "rate-limited paging costs a modest slowdown "
              "(paper: ~6% mean)",
        1.0 < row.slowdown < 1.30,
        f"kmeans {row.slowdown:.3f}x @ {row.fault_rate:,.0f} faults/s",
    )


def _check_attacks():
    from repro.experiments import attack_mitigation
    rows = attack_mitigation.run()
    vanilla = [r for r in rows if r.defense == "vanilla"]
    autarky = [r for r in rows if r.defense == "autarky"]
    yield Claim(
        "E7a", "published attacks recover secrets on vanilla SGX",
        all(r.recovery_accuracy > 0.3 for r in vanilla),
        f"recovery {min(r.recovery_accuracy for r in vanilla):.0%}"
        f"-{max(r.recovery_accuracy for r in vanilla):.0%} across "
        f"{len(vanilla)} scenarios",
    )
    yield Claim(
        "E7b", "Autarky blocks every attack with zero recovery",
        all(r.enclave_terminated and r.recovery_accuracy == 0.0
            for r in autarky),
        f"{len(autarky)}/{len(autarky)} scenarios terminated",
    )


def _check_leakage():
    from repro.core.leakage import cluster_guess_probability
    p = cluster_guess_probability(256, 10)
    yield Claim(
        "E8", "10-page clusters leave a 0.62% guess probability",
        abs(p - 0.00625) < 1e-9, f"{p:.3%}",
    )


def _check_software_defense():
    from repro.experiments import software_defense_cmp
    rows = software_defense_cmp.run()
    sw = [r for r in rows if "aex-rate" in r.defense]
    yield Claim(
        "E10", "AEX-rate defenses false-positive on benign paging or "
               "miss paced/silent attacks (§4)",
        any(not r.survived_benign for r in sw)
        and any(r.attack_pages_leaked > 0 and not r.attack_detected
                for r in sw),
        "false positive on benign paging; "
        f"{max(r.attack_pages_leaked for r in sw)} pages leaked "
        "undetected",
    )


CHECKS = (
    _check_arch_overhead,
    _check_fig5,
    _check_fig6,
    _check_fig7,
    _check_attacks,
    _check_leakage,
    _check_software_defense,
)


def run():
    claims = []
    for check in CHECKS:
        claims.extend(check())
    return claims


def format_table(claims):
    table = render_table(
        ["id", "claim", "verdict", "evidence"],
        [
            (c.claim_id, c.statement,
             "PASS" if c.passed else "FAIL", c.evidence)
            for c in claims
        ],
        title="Artifact self-check: the paper's qualitative claims",
    )
    passed = sum(1 for c in claims if c.passed)
    return table + f"\n{passed}/{len(claims)} claims hold"


def main():
    claims = run()
    print(format_table(claims))
    if not all(c.passed for c in claims):
        raise SystemExit(1)
    return claims


if __name__ == "__main__":
    main()
