"""Golden values: the deterministic numbers the docs quote.

The simulation is exactly reproducible, so these can be pinned to the
cycle.  If a cost-model or mechanism change moves them, this file
fails first — update EXPERIMENTS.md and docs/cost-model.md in the same
commit, deliberately.
"""

import pytest

from repro.sgx.params import AccessType, CostModel


class TestCostModelGoldens:
    def test_transition_pairs(self):
        cost = CostModel()
        assert cost.transition_pair_aex() == 7_000
        assert cost.transition_pair_call() == 8_200

    def test_fig5_component_constants(self):
        cost = CostModel()
        assert cost.eldu == 10_000
        assert cost.ewb == 9_000
        assert cost.autarky_ad_check == 10  # the paper's assumption


class TestFaultPathGoldens:
    """End-to-end cycles per fault for the canonical configurations —
    the numbers EXPERIMENTS.md's A2 table quotes."""

    @pytest.fixture(scope="class")
    def costs(self):
        from repro.experiments.ablation_paths import run
        return {r.variant: r.cycles_per_fault for r in run(faults=100)}

    def test_sgx1_reload_fault(self, costs):
        assert costs["sgx1 exitless (default)"] == pytest.approx(
            32_390, abs=1
        )

    def test_sgx2_reload_fault(self, costs):
        assert costs["sgx2 exitless"] == pytest.approx(34_890, abs=1)

    def test_unprotected_reload_fault(self, costs):
        assert costs["unprotected baseline"] == pytest.approx(
            18_280, abs=1
        )

    def test_elided_fault(self, costs):
        assert costs["sgx1 + elide AEX"] == pytest.approx(16_290, abs=1)

    def test_exit_based_reload_faults(self, costs):
        assert costs["sgx1 exit-based ocalls"] == pytest.approx(
            37_090, abs=1
        )
        assert costs["sgx2 exit-based ocalls"] == pytest.approx(
            39_590, abs=1
        )

    def test_in_enclave_resume_fault(self, costs):
        assert costs["sgx1 + in-enclave resume"] == pytest.approx(
            25_390, abs=1
        )


class TestLeakageGoldens:
    def test_paper_guess_probability(self):
        from repro.core.leakage import cluster_guess_probability
        assert cluster_guess_probability(256, 10) == 0.00625
        assert cluster_guess_probability(256, 1) == 0.0625

    def test_termination_bits(self):
        from repro.core.leakage import termination_attack_bits
        assert termination_attack_bits(16, 48_640) == (1.0, 4.0)


class TestDeterminism:
    """The property every golden relies on: identical runs, identical
    cycles."""

    def _run_once(self):
        from repro.core.config import SystemConfig
        from repro.core.system import AutarkySystem
        system = AutarkySystem(SystemConfig.for_policy(
            "clusters", cluster_pages=4,
            epc_pages=2_048, quota_pages=512,
            enclave_managed_budget=128,
            runtime_pages=4, code_pages=8, data_pages=8,
            heap_pages=512,
        ))
        pages = system.runtime.allocator.alloc_pages(256)
        for page in pages:
            system.runtime.access(page, AccessType.WRITE)
        for page in pages[::3]:
            system.runtime.access(page, AccessType.READ)
        return system.clock.cycles, dict(system.clock.by_category)

    def test_bit_identical_reruns(self):
        first = self._run_once()
        second = self._run_once()
        assert first == second

    def test_ycsb_streams_deterministic(self):
        from repro.workloads.ycsb import make_generator
        for name in ("uniform", "zipf", "hotspot90", "hotspot99"):
            a = make_generator(name, 10_000, seed=5).keys(50)
            b = make_generator(name, 10_000, seed=5).keys(50)
            assert a == b
