"""Experiment-harness integration tests (small-scale invocations).

These check that each table/figure generator runs and that the paper's
qualitative claims hold at reduced scale; the full-scale numbers live
in benchmarks/ and EXPERIMENTS.md.
"""


import pytest

from repro.experiments import (
    ablation_eviction,
    ablation_paths,
    arch_overhead,
    attack_mitigation,
    fig5_microbench,
    fig6_uthash,
    fig7_rate_limit,
    fig8_memcached,
    leakage_analysis,
    sensitivity,
)


class TestArchOverhead:
    def test_runs_and_is_small(self):
        rows, mean = arch_overhead.run(ops=800)
        assert len(rows) == 10
        # The paper's headline: well under 1%, around 0.07%.
        assert 0.0 < mean < 0.005
        assert arch_overhead.format_table(rows, mean)


class TestFig5:
    def test_breakdown_shape(self):
        rows = fig5_microbench.run(iterations=200)
        totals = fig5_microbench.totals(rows)
        # SGX2 paths cost more than SGX1 (§7.1).
        assert totals[("fault", "SGX2")] > totals[("fault", "SGX1")]
        assert totals[("evict", "SGX2")] > totals[("evict", "SGX1")]
        # Transitions are 40-50% of fault latency.
        fault_rows = [r for r in rows
                      if (r.operation, r.version) == ("fault", "SGX1")]
        transitions = sum(
            r.cycles_per_page for r in fault_rows
            if "AEX" in r.component or "EENTER" in r.component
        )
        share = transitions / totals[("fault", "SGX1")]
        assert 0.35 < share < 0.55
        assert fig5_microbench.format_table(rows)

    def test_elide_aex_removes_transitions(self):
        fault, _evict = fig5_microbench.run_version(
            fig5_microbench.SgxVersion.SGX1, iterations=100,
            elide_aex=True,
        )
        assert fault["preempt (AEX+ERESUME)"] == 0
        assert fault["handler invoc. (EENTER+EEXIT)"] == 0


class TestFig6:
    @pytest.fixture(scope="class")
    def points(self):
        scale = fig6_uthash.Fig6Scale(
            data_bytes=431 * 1024 * 1024 // 32,
            oram_tree_pages=262_144 // 32,
            oram_cache_pages=32_768 // 32,
            budget_pages=40_000 // 32,
        )
        return fig6_uthash.run(scale=scale, requests=300)

    def test_cluster_size_monotone(self, points):
        series = sorted(
            (p for p in points if p.series == "clusters"),
            key=lambda p: p.cluster_pages,
        )
        assert all(
            a.throughput > b.throughput
            for a, b in zip(series, series[1:])
        )

    def test_rehash_improves(self, points):
        for pages in fig6_uthash.CLUSTER_SIZES:
            before = next(p for p in points if p.series == "clusters"
                          and p.cluster_pages == pages)
            after = next(p for p in points
                         if p.series == "clusters_rehashed"
                         and p.cluster_pages == pages)
            assert after.throughput > before.throughput

    def test_uncached_orders_of_magnitude_slower(self, points):
        oram = next(p for p in points if p.series == "oram")
        uncached = next(p for p in points
                        if p.series == "oram_uncached")
        assert oram.throughput / uncached.throughput > 30
        assert fig6_uthash.format_table(points)


class TestFig7:
    def test_single_app_slowdown_positive(self):
        app = fig7_rate_limit.SUITE_APPS[0]
        row = fig7_rate_limit.run_app(app, ops=120, scale=16)
        assert row.slowdown > 1.0
        assert row.fault_rate > 0

    def test_elision_cheaper(self):
        from repro.sgx.params import ArchOptimizations
        app = fig7_rate_limit.SUITE_APPS[6]  # btrack: fault heavy
        plain = fig7_rate_limit.run_app(app, ops=120, scale=16)
        elided = fig7_rate_limit.run_app(
            app, ops=120, scale=16,
            arch_opts=ArchOptimizations(in_enclave_resume=True,
                                        elide_aex=True),
        )
        assert elided.slowdown < plain.slowdown


class TestAttackMitigation:
    @pytest.fixture(scope="class")
    def rows(self):
        return attack_mitigation.run()

    def test_vanilla_attacks_succeed(self, rows):
        vanilla = [r for r in rows if r.defense == "vanilla"]
        assert all(not r.enclave_terminated for r in vanilla)
        # Each published attack recovers a substantial fraction.
        assert all(r.recovery_accuracy > 0.3 for r in vanilla)

    def test_autarky_blocks_everything(self, rows):
        autarky = [r for r in rows if r.defense == "autarky"]
        assert all(r.enclave_terminated for r in autarky)
        assert all(r.recovery_accuracy == 0.0 for r in autarky)

    def test_silent_resume_rejected_under_autarky(self, rows):
        tracer_rows = [r for r in rows if r.defense == "autarky"
                       and "fault tracer" in r.scenario]
        assert all(r.silent_resume_rejected for r in tracer_rows)

    def test_printed_columns_are_pinned(self, rows):
        # Every column the E7 table prints, exactly as the simulation
        # produced it; a refactor of the scenarios must not move one.
        assert [
            (r.scenario, r.defense, r.recovery_accuracy,
             r.enclave_terminated, r.silent_resume_rejected,
             r.observed_faults)
            for r in rows
        ] == [
            ("Hunspell word recovery (fault tracer)", "vanilla",
             0.7066666666666667, False, False, 680),
            ("Hunspell word recovery (fault tracer)", "autarky",
             0.0, True, True, 1),
            ("Hunspell word recovery (A/D-bit monitor)", "vanilla",
             0.425, False, False, 120),
            ("Hunspell word recovery (A/D-bit monitor)", "autarky",
             0.0, True, False, 0),
            ("libjpeg image recovery (fault tracer)", "vanilla",
             1.0, False, False, 1152),
            ("libjpeg image recovery (fault tracer)", "autarky",
             0.0, True, True, 1),
            ("FreeType text recovery (fault tracer)", "vanilla",
             1.0, False, False, 960),
            ("FreeType text recovery (fault tracer)", "autarky",
             0.0, True, True, 1),
            ("FreeType text recovery (protect tracer)", "vanilla",
             1.0, False, False, 960),
            ("FreeType text recovery (protect tracer)", "autarky",
             0.0, True, True, 1),
            ("Hunspell word recovery (remap tracer)", "vanilla",
             0.7066666666666667, False, False, 680),
            ("Hunspell word recovery (remap tracer)", "autarky",
             0.0, True, True, 1),
        ]


class TestLeakage:
    def test_cluster_probability_series(self):
        rows = leakage_analysis.run_cluster_probability()
        ten = next(r for r in rows if "10-page" in r.configuration)
        assert ten.value == pytest.approx(0.00625)

    def test_policy_ordering(self):
        rows = leakage_analysis.run_trace_distinguishability(
            n_words=2_000, vocabulary=200,
        )
        mi = {r.configuration: r.value for r in rows
              if r.analysis == "trace mutual information"}
        vanilla = next(v for k, v in mi.items() if "vanilla" in k)
        clusters = next(v for k, v in mi.items() if "cluster" in k)
        pinned = next(v for k, v in mi.items() if "pin-all" in k)
        assert vanilla > clusters > pinned == 0.0


class TestAblations:
    def test_frequency_beats_fifo_under_cold_traffic(self):
        from repro.runtime.self_paging import EvictionOrder
        fifo = ablation_eviction.run_config(
            EvictionOrder.FIFO, 0.5, requests=600,
        )
        freq = ablation_eviction.run_config(
            EvictionOrder.FAULT_FREQUENCY, 0.5, requests=600,
        )
        assert freq.faults < fifo.faults

    def test_path_ordering(self):
        rows = ablation_paths.run(faults=150)
        cost = {r.variant: r.cycles_per_fault for r in rows}
        assert cost["sgx1 exitless (default)"] < \
            cost["sgx1 exit-based ocalls"]
        assert cost["sgx1 exitless (default)"] < cost["sgx2 exitless"]
        assert cost["sgx1 + elide AEX"] < cost["unprotected baseline"]


class TestSensitivity:
    def test_small_grid_is_pinned(self):
        rows = sensitivity.run(fields=("aex", "eldu"), factors=(0.5, 2.0),
                               faults=150)
        assert [
            (r.field, r.factor, r.c1_sgx1_cheaper,
             r.c2_elide_beats_unprotected, r.c3_exitless_cheaper,
             r.c4_ad_check_small, r.c5_premium_bounded)
            for r in rows
        ] == [
            ("aex", 0.5, True, False, True, True, True),
            ("aex", 2.0, True, True, True, True, True),
            ("eldu", 0.5, True, True, True, True, True),
            ("eldu", 2.0, False, True, True, True, True),
        ]


class TestFig8Smoke:
    def test_one_policy_runs(self):
        scale = fig8_memcached.Fig8Scale(
            data_bytes=400 * 1024 * 1024 // 64,
            oram_tree_pages=262_144 // 64,
            oram_cache_pages=32_768 // 64,
            budget_pages=48_640 // 64,
        )
        points = fig8_memcached.run_policy("clusters", scale=scale,
                                           requests=200)
        assert len(points) == 4
        assert all(p.throughput > 0 for p in points)
