"""The ``repro bench`` regression gate (``--baseline``).

The gate compares a fresh trajectory entry with the committed
``BENCH_simwall.json``: each slice fingerprint against the last entry's,
and each slice speedup against the median of the entries with the same
baseline tier.  The slices themselves take seconds, so the CLI tests
swap in stub slices; the gate logic runs on the committed history.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro import bench
from repro.sgx.columnar import TIER_OFF

TRAJECTORY = Path(__file__).parent.parent / "BENCH_simwall.json"


def legacy_history():
    """The committed entries timed against the hand-copied legacy
    drivers: a series of its own, with no ``baseline`` field."""
    entries = json.loads(TRAJECTORY.read_text())["entries"]
    return {"schema": 2,
            "entries": [e for e in entries if "baseline" not in e]}


def committed_fingerprints():
    return bench.pinned_fingerprints(legacy_history())


def fresh_entry(speedups, fingerprints=None, baseline=TIER_OFF):
    """A trajectory entry with the given per-slice speedups."""
    fingerprints = fingerprints or committed_fingerprints()
    return {
        "baseline": baseline,
        "slices": [
            {"name": name, "speedup": speedup,
             "fingerprint": fingerprints[name]}
            for name, speedup in speedups.items()
        ],
    }


def series(*fig6_speedups):
    """Entries of the tier-off series with the given fig6 speedups."""
    return [fresh_entry({"fig6_uthash": s, "fig8_memcached": 40.0})
            for s in fig6_speedups]


class TestGateLogic:
    def test_committed_history_pins_both_slices(self):
        pinned = committed_fingerprints()
        assert sorted(pinned) == ["fig6_uthash", "fig8_memcached"]
        assert pinned["fig6_uthash"]["cycles"] == 410_937_010
        assert pinned["fig8_memcached"]["cycles"] == 4_768_141_170

    def test_matching_fingerprints_pass(self):
        entry = fresh_entry({"fig6_uthash": 9.0, "fig8_memcached": 40.0})
        assert bench.check_against_baseline(entry, legacy_history()) == []

    def test_changed_fingerprint_fails(self):
        fingerprints = copy.deepcopy(committed_fingerprints())
        fingerprints["fig8_memcached"]["faults"] += 1
        entry = fresh_entry({"fig6_uthash": 9.0, "fig8_memcached": 40.0},
                            fingerprints)
        failures = bench.check_against_baseline(entry, legacy_history())
        assert len(failures) == 1
        assert failures[0].startswith("fig8_memcached fingerprint: ")
        assert "!= baseline" in failures[0]

    def test_speedup_below_floor_of_series_median_fails(self):
        trajectory = legacy_history()
        trajectory["entries"] += series(10.0, 12.0, 11.0)
        # Median 11.0x, so the floor is 8.25x.
        slow = fresh_entry({"fig6_uthash": 8.0, "fig8_memcached": 40.0})
        assert bench.check_against_baseline(slow, trajectory) == [
            "fig6_uthash: speedup 8.00x below 75% of committed median "
            "11.00x"
        ]
        fine = fresh_entry({"fig6_uthash": 8.5, "fig8_memcached": 40.0})
        assert bench.check_against_baseline(fine, trajectory) == []

    def test_window_is_the_trailing_entries_of_the_series(self):
        trajectory = legacy_history()
        trajectory["entries"] += series(
            *[30.0] * 3, *[10.0] * bench.GATE_WINDOW)
        entry = fresh_entry({"fig6_uthash": 8.0, "fig8_memcached": 40.0})
        assert bench.check_against_baseline(entry, trajectory) == []

    def test_other_baseline_entries_stay_out_of_the_window(self):
        # The legacy series' fig6 median is 14.02x (floor 10.5x); a
        # tier-off entry is held to the tier-off series alone, which
        # has no history at first.
        entry = fresh_entry({"fig6_uthash": 8.0, "fig8_memcached": 40.0})
        trajectory = legacy_history()
        assert bench.check_against_baseline(entry, trajectory) == []
        trajectory["entries"] += series(9.0)       # floor 6.75x
        assert bench.check_against_baseline(entry, trajectory) == []
        trajectory["entries"] += series(12.0, 12.0)  # floor 9.0x
        assert len(bench.check_against_baseline(entry, trajectory)) == 1

    def test_slice_only_one_entry_holds_is_not_compared(self):
        # The last committed entry also holds chaos_smoke, which the
        # fresh entry lacks; the fresh entry holds a slice no committed
        # entry has.
        assert "chaos_smoke" in {
            s["name"] for s in legacy_history()["entries"][-1]["slices"]}
        entry = fresh_entry({"fig6_uthash": 9.0, "fig8_memcached": 40.0})
        entry["slices"].append({"name": "new_slice", "speedup": 1.0,
                                "fingerprint": {"cycles": 1}})
        assert bench.check_against_baseline(entry, legacy_history()) == []


def stub_slices(fingerprints):
    """Instant slices: the baseline tier takes 1 s, the shipped 0.1 s."""
    def make(name):
        return lambda tier: (1.0 if tier == TIER_OFF else 0.1,
                             dict(fingerprints[name]))
    return tuple((name, make(name)) for name in sorted(fingerprints))


def write_history(path):
    path.write_text(json.dumps(legacy_history(), indent=2, sort_keys=True)
                    + "\n")


class TestBenchCli:
    def test_gated_run_appends_one_tier_off_entry(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(bench, "SLICES",
                            stub_slices(committed_fingerprints()))
        path = tmp_path / "trajectory.json"
        write_history(path)
        before = json.loads(path.read_text())["entries"]
        assert bench.run(["--baseline", "--output", str(path)]) == 0
        assert "baseline gate: ok" in capsys.readouterr().out
        entries = json.loads(path.read_text())["entries"]
        assert entries[:-1] == before
        fresh = entries[-1]
        assert fresh["baseline"] == TIER_OFF
        assert fresh["identical_results"] is True
        assert [s["speedup"] for s in fresh["slices"]] == [10.0, 10.0]

    def test_changed_fingerprint_fails_the_run(self, tmp_path, monkeypatch,
                                               capsys):
        fingerprints = copy.deepcopy(committed_fingerprints())
        fingerprints["fig6_uthash"]["walks"] += 1
        monkeypatch.setattr(bench, "SLICES", stub_slices(fingerprints))
        path = tmp_path / "trajectory.json"
        write_history(path)
        before = path.read_text()
        assert bench.run(["--baseline", "--no-write",
                          "--output", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL: fig6_uthash fingerprint: " in out
        assert path.read_text() == before

    @pytest.mark.parametrize("name, text", [
        ("missing.json", None),
        ("not-json.json", "not json"),
        ("empty.json", json.dumps({"schema": 2, "entries": []})),
        ("chaos-only.json", json.dumps({"schema": 2, "entries": [
            {"slices": [{"name": "chaos_smoke", "speedup": 1.0,
                         "fingerprint": {"digests": {}}}]}]})),
    ], ids=["missing", "not-json", "empty", "chaos-only"])
    def test_unusable_trajectory_is_one_error_line(self, tmp_path,
                                                   monkeypatch, capsys,
                                                   name, text):
        # A trajectory the gate cannot read, or that pins no slice it
        # runs, is refused before any slice runs, instead of passing a
        # gate that compared nothing.
        def refuse(*args, **kwargs):
            raise AssertionError("a slice ran before the refusal")

        monkeypatch.setattr(bench, "run_bench", refuse)
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert bench.run(["--baseline", "--output", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"repro bench: cannot gate against {path}")
        assert path.exists() == (text is not None)
