"""Deterministic fan-out: ``jobs N`` must equal ``jobs 1`` exactly.

``repro.parallel.run_indexed`` promises the parallel sweep is a pure
wall-clock optimisation — the merged result list is byte-identical to
the serial evaluation no matter how workers are scheduled.  These
tests pin that contract at the runner level and end-to-end through the
chaos campaign.
"""

from __future__ import annotations

import gc
import random
import time
import weakref

import pytest

from repro.chaos.campaign import run_campaign
from repro.parallel import default_jobs, run_indexed


def _square(x):
    return x * x


def _jittered(x):
    """Deliberately completion-order-hostile: later tasks finish first."""
    time.sleep(random.Random(x).random() / 200)
    return (x, x % 3)


def _boom(x):
    if x == 3:
        raise ValueError("point 3 exploded")
    return x


def _collector_enabled(_x):
    return gc.isenabled()


class _Cycle:
    """Refers to itself, so only the cyclic collector frees it."""

    def __init__(self):
        self.me = self


#: Weak references to the cycles ``_build_cycle`` tasks built.
_BUILT = []


def _build_cycle(x):
    cycle = _Cycle()
    _BUILT.append(weakref.ref(cycle))
    return x


@pytest.fixture
def collector():
    """Restores the collector's state after a test that changes it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestRunIndexed:
    def test_serial_matches_list_comprehension(self):
        items = list(range(20))
        assert run_indexed(_square, items, jobs=1) == \
            [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(24))
        serial = run_indexed(_square, items, jobs=1)
        assert run_indexed(_square, items, jobs=4) == serial

    def test_merge_is_canonical_under_jitter(self):
        # Workers finish in scrambled order; the merge must not care.
        items = list(range(16))
        serial = run_indexed(_jittered, items, jobs=1)
        for _ in range(3):
            assert run_indexed(_jittered, items, jobs=4) == serial

    def test_jobs_none_means_serial(self):
        assert run_indexed(_square, [1, 2, 3], jobs=None) == [1, 4, 9]

    def test_empty_and_singleton(self):
        assert run_indexed(_square, [], jobs=4) == []
        assert run_indexed(_square, [5], jobs=4) == [25]

    def test_accepts_any_iterable(self):
        assert run_indexed(_square, iter(range(4)), jobs=2) == \
            [0, 1, 4, 9]

    def test_worker_exception_propagates(self):
        for jobs in (1, 2):
            try:
                run_indexed(_boom, [1, 2, 3, 4], jobs=jobs)
            except ValueError as exc:
                assert "point 3" in str(exc)
            else:
                raise AssertionError("worker exception was swallowed")

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestCollector:
    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("enabled", (True, False))
    def test_tasks_run_paused_and_the_state_is_restored(
            self, collector, enabled, jobs):
        (gc.enable if enabled else gc.disable)()
        assert run_indexed(_collector_enabled, [1, 2], jobs=jobs) \
            == [False, False]
        assert gc.isenabled() is enabled

    def test_state_is_restored_after_a_task_raises(self, collector):
        gc.enable()
        with pytest.raises(ValueError, match="point 3"):
            run_indexed(_boom, [1, 2, 3, 4], jobs=1)
        assert gc.isenabled()

    def test_a_task_cycle_is_freed_when_the_task_returns(self, collector):
        gc.enable()
        _BUILT.clear()
        assert run_indexed(_build_cycle, [1, 2], jobs=1) == [1, 2]
        assert [ref() for ref in _BUILT] == [None, None]

    def test_a_disabled_collector_is_not_run(self, collector):
        gc.disable()
        _BUILT.clear()
        run_indexed(_build_cycle, [1], jobs=1)
        assert _BUILT[0]() is not None
        gc.collect()
        assert _BUILT[0]() is None


class TestCampaignParallel:
    def test_parallel_campaign_identical_to_serial(self):
        # The acceptance property, in miniature: same seeds, same
        # policies, different pool widths, identical campaign results.
        seeds = range(2)
        serial = run_campaign(seeds, check_determinism=False, jobs=1)
        fanned = run_campaign(seeds, check_determinism=False, jobs=2)
        assert [r.digest for r in fanned.runs] == \
            [r.digest for r in serial.runs]
        assert fanned.runs == serial.runs
        assert fanned.violations == serial.violations
        assert {p: s.by_reason for p, s in fanned.abort_stats.items()} \
            == {p: s.by_reason for p, s in serial.abort_stats.items()}
