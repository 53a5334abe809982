"""Workload-generator tests: YCSB distributions, nbench, suite apps."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.nbench import NBENCH_KERNELS, run_kernel
from repro.workloads.suites import SUITE_APPS, app_by_name, run_suite_app
from repro.workloads.ycsb import (
    HotspotGenerator,
    UniformGenerator,
    ZipfianGenerator,
    make_generator,
    zipf_hit_estimate,
)


class TestUniform:
    def test_range(self):
        gen = UniformGenerator(100, seed=1)
        keys = gen.keys(1_000)
        assert all(0 <= k < 100 for k in keys)

    def test_roughly_flat(self):
        gen = UniformGenerator(10, seed=2)
        counts = collections.Counter(gen.keys(10_000))
        assert max(counts.values()) < 3 * min(counts.values())

    def test_deterministic_by_seed(self):
        assert UniformGenerator(50, seed=9).keys(20) == \
            UniformGenerator(50, seed=9).keys(20)


def fnv_per_byte(value):
    """YCSB's scramble one byte at a time: 64-bit FNV-1 over the eight
    low bytes of ``value``, least significant first."""
    h = ZipfianGenerator.FNV_OFFSET
    for _ in range(8):
        h = ((h ^ (value & 0xFF)) * ZipfianGenerator.FNV_PRIME) % 2 ** 64
        value >>= 8
    return h


#: Each byte-length boundary, the top of the 64-bit range and past it.
FNV_EDGES = sorted({
    max(0, (1 << 8 * k) + d) for k in range(10) for d in (-1, 0, 1)
} | {2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64 + 0x1234, 2 ** 100 + 7})


class TestZipfian:
    def test_scramble_matches_the_per_byte_fnv(self):
        # Every rank a 65,536-key store draws, and the edges.
        for value in [*range(1 << 16), *FNV_EDGES]:
            assert ZipfianGenerator._fnv(value) == fnv_per_byte(value)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 72))
    def test_scramble_matches_the_per_byte_fnv_anywhere(self, value):
        assert ZipfianGenerator._fnv(value) == fnv_per_byte(value)

    def test_range(self):
        gen = ZipfianGenerator(1_000, seed=3)
        assert all(0 <= k < 1_000 for k in gen.keys(2_000))

    def test_unscrambled_head_heavy(self):
        gen = ZipfianGenerator(1_000, seed=4, scrambled=False)
        keys = gen.keys(5_000)
        head = sum(1 for k in keys if k < 10)
        assert head / len(keys) > 0.25

    def test_scrambling_spreads_popularity(self):
        """Scrambled: the most popular keys are not the low keys."""
        gen = ZipfianGenerator(10_000, seed=5)
        counts = collections.Counter(gen.keys(20_000))
        top = [k for k, _ in counts.most_common(5)]
        assert any(k > 100 for k in top)

    def test_skew_exists_after_scrambling(self):
        gen = ZipfianGenerator(10_000, seed=6)
        counts = collections.Counter(gen.keys(20_000))
        top_mass = sum(c for _, c in counts.most_common(100))
        assert top_mass / 20_000 > 0.2

    def test_needs_two_items(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(1)

    def test_hit_estimate_monotone(self):
        small = zipf_hit_estimate(0.99, 10_000, 0.1)
        large = zipf_hit_estimate(0.99, 10_000, 0.5)
        assert 0 < small < large <= 1


class TestHotspot:
    def test_hot_fraction_respected(self):
        gen = HotspotGenerator(10_000, hot_set_fraction=0.01,
                               hot_opn_fraction=0.9, seed=7)
        keys = gen.keys(10_000)
        hot = sum(1 for k in keys if k < gen.hot_keys)
        assert 0.85 < hot / len(keys) < 0.95

    def test_cold_keys_outside_hot_set(self):
        gen = HotspotGenerator(1_000, hot_opn_fraction=0.0, seed=8)
        assert all(k >= gen.hot_keys for k in gen.keys(500))


class TestFactory:
    @pytest.mark.parametrize(
        "name", ["uniform", "zipf", "hotspot90", "hotspot99"]
    )
    def test_known_names(self, name):
        gen = make_generator(name, 1_000)
        assert 0 <= gen.next() < 1_000

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_generator("parabolic", 10)


class TestNbench:
    def test_ten_kernels(self):
        assert len(NBENCH_KERNELS) == 10
        assert len({k.name for k in NBENCH_KERNELS}) == 10

    def test_run_kernel_counts_fills(self, small_system):
        system = small_system("pin_all", tlb_capacity=64,
                              enclave_managed_budget=600)
        kernel_profile = NBENCH_KERNELS[0]
        heap = system.runtime.regions["heap"]
        system.runtime.preload(
            [heap.page(i) for i in range(kernel_profile.ws_pages)],
            pin=True,
        )
        system.policy.seal()
        cycles, fills, checks = run_kernel(
            system.runtime, kernel_profile, ops=300
        )
        assert cycles > 0
        assert fills > 0
        assert checks == fills  # self-paging: every fill checked

    def test_oversized_kernel_rejected(self, small_system):
        import dataclasses
        system = small_system("pin_all")
        huge = dataclasses.replace(NBENCH_KERNELS[0], ws_pages=10 ** 6)
        with pytest.raises(ValueError):
            run_kernel(system.runtime, huge)


class TestSuiteApps:
    def test_fourteen_apps(self):
        assert len(SUITE_APPS) == 14
        suites = {a.suite for a in SUITE_APPS}
        assert suites == {"phoenix", "parsec"}

    def test_lookup_by_name(self):
        assert app_by_name("btrack").suite == "parsec"
        with pytest.raises(KeyError):
            app_by_name("vips")  # does not run in Graphene

    def test_cold_touches_deterministic(self, small_system):
        import dataclasses
        system = small_system("rate_limit", max_faults_per_progress=512)
        app = dataclasses.replace(
            SUITE_APPS[0], ws_pages=400, hot_pages=64,
        )
        cold = run_suite_app(system.runtime, app, ops=80)
        assert cold == len(range(0, 80, app.cold_stride))

    def test_working_set_must_fit_heap(self, small_system):
        system = small_system("rate_limit")
        with pytest.raises(ValueError):
            run_suite_app(system.runtime, SUITE_APPS[0], ops=10)
