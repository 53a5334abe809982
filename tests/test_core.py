"""Core package tests: config, system assembly, metrics, leakage math."""

import doctest
import importlib
import math

import pytest

from repro.core.config import PolicyConfig, SystemConfig
from repro.core.leakage import (
    cluster_guess_probability,
    distinguishable_secrets,
    termination_attack_bits,
    trace_mutual_information,
)
from repro.core.metrics import RunMetrics, geomean, slowdown
from repro.core.system import AutarkySystem, DirectEngine, OramEngine
from repro.errors import PolicyError


class TestConfig:
    def test_for_policy_splits_kwargs(self):
        cfg = SystemConfig.for_policy(
            "clusters", cluster_pages=7, epc_pages=1_000,
        )
        assert cfg.policy.name == "clusters"
        assert cfg.policy.cluster_pages == 7
        assert cfg.epc_pages == 1_000

    def test_default_policy(self):
        assert SystemConfig().policy.name == "rate_limit"

    def test_unknown_policy_rejected_at_build(self):
        with pytest.raises(PolicyError):
            AutarkySystem(SystemConfig(policy=PolicyConfig(name="magic")))


class TestSystemAssembly:
    def test_policies_map_to_engines(self, small_system):
        assert isinstance(small_system("rate_limit").engine(),
                          DirectEngine)
        oram = small_system(
            "oram", oram_tree_pages=64, oram_cache_pages=8,
        )
        assert isinstance(oram.engine(), OramEngine)

    def test_baseline_has_no_policy(self, small_system):
        system = small_system("baseline")
        assert system.policy is None
        assert not system.enclave.self_paging

    def test_cluster_policy_gets_runtime_manager(self, small_system):
        system = small_system("clusters")
        assert system.policy.manager is system.runtime.clusters

    def test_oram_region_matches_heap(self, small_system):
        system = small_system(
            "oram", oram_tree_pages=64, oram_cache_pages=8,
        )
        assert system.policy.region_start == system.heap_start()

    def test_engine_region_lookup(self, small_system):
        engine = small_system("rate_limit").engine()
        assert engine.region("heap").npages > 0

    @pytest.mark.parametrize("package", ["repro", "repro.core"])
    def test_package_docstring_examples_run(self, package):
        # Each package docstring's API tour must run as written.
        result = doctest.testmod(importlib.import_module(package))
        assert result.attempted > 0
        assert result.failed == 0


class TestMetrics:
    def _metrics(self, cycles=3_500_000, ops=100):
        return RunMetrics(ops=ops, cycles=cycles,
                          seconds=cycles / 3.5e9, faults=10)

    def test_throughput(self):
        m = self._metrics()
        assert m.throughput == pytest.approx(100 / 0.001)

    def test_cycles_per_op(self):
        assert self._metrics().cycles_per_op == 35_000

    def test_fault_rate(self):
        assert self._metrics().fault_rate == pytest.approx(10_000)

    def test_slowdown(self):
        fast = self._metrics(cycles=1_000_000)
        slow = self._metrics(cycles=2_000_000)
        assert slowdown(fast, slow) == pytest.approx(2.0)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_measurement_delta(self, small_system):
        from repro.sgx.params import AccessType
        system = small_system("rate_limit")
        heap = system.runtime.regions["heap"]
        system.runtime.access(heap.page(0), AccessType.WRITE)
        with system.measure() as m:
            system.runtime.access(heap.page(1), AccessType.WRITE)
        metrics = m.metrics(ops=1)
        assert metrics.faults == 1  # only the in-window fault counted
        assert metrics.cycles > 0


class TestLeakageMath:
    def test_paper_example(self):
        """§7.2: 256-byte items, 10-page clusters → 0.62%."""
        p = cluster_guess_probability(256, 10)
        assert p == pytest.approx(0.00625)

    def test_probability_capped_at_one(self):
        assert cluster_guess_probability(10 ** 9, 1) == 1.0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            cluster_guess_probability(0, 10)

    def test_distinguishable_secrets(self):
        traces = {"a": (1,), "b": (1,), "c": (2,)}
        assert distinguishable_secrets(traces) == pytest.approx(1 / 3)

    def test_mi_extremes(self):
        unique = {i: (i,) for i in range(8)}
        assert trace_mutual_information(unique) == pytest.approx(3.0)
        constant = {i: () for i in range(8)}
        assert trace_mutual_information(constant) == pytest.approx(0.0)

    def test_mi_partial(self):
        half = {0: (0,), 1: (0,), 2: (1,), 3: (1,)}
        assert trace_mutual_information(half) == pytest.approx(1.0)

    def test_termination_bits(self):
        per_restart, ambiguity = termination_attack_bits(16, 1_000)
        assert per_restart == 1.0
        assert ambiguity == pytest.approx(math.log2(16))

    def test_termination_bad_set(self):
        with pytest.raises(ValueError):
            termination_attack_bits(0, 10)
        with pytest.raises(ValueError):
            termination_attack_bits(11, 10)
