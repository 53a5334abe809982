"""Tests for the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    #  op ─┬─ a [0, 10] ─┬─ b [1, 4]
    #      │             └─ c [5, 9] ── d [6, 7]
    #      └─ e [10, 12]
    spans = [
        [1, "a", 0.0, 10.0, -1],
        [1, "b", 1.0, 4.0, 0],
        [1, "c", 5.0, 9.0, 0],
        [1, "d", 6.0, 7.0, 2],
        [1, "e", 10.0, 12.0, -1],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0, 2.0]


def test_tracer_self_time_matches_span_rows():
    calls = []

    class Leaf:
        def work(self):
            calls.append("leaf")

    tracer = tracing.Tracer(probes=())
    leaf = tracer._span_wrapper("leaf", Leaf.work, False, None, None)
    outer = tracer._span_wrapper("outer", lambda: [leaf(Leaf()) for _ in
                                                   range(3)], True, None,
                                 None)
    tracer.layer_of.update(outer="apps", leaf="sgx")
    tracer.enabled = True
    outer()
    outer()
    assert calls == ["leaf"] * 6
    assert tracer.op_id == 2
    assert [row[0] for row in tracer.spans] == [1] * 4 + [2] * 4
    rows = tracer.spans
    selfs = tracing.self_times(rows)
    outer_self = sum(s for row, s in zip(rows, selfs) if row[1] == "outer")
    assert tracer.stats["outer"][2] == pytest.approx(outer_self)
    assert tracer.stats["leaf"][0] == 6


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert measure.nearest_rank(samples, 500) == 500
    assert measure.nearest_rank(samples, 990) == 990     # 10 beyond
    assert measure.nearest_rank(samples, 991) is None    # 9 beyond
    assert measure.nearest_rank(samples[:999], 990) is None
    assert measure.nearest_rank([], 500) is None


def test_rate_uses_the_median_execution_of_each_unit():
    ops = {"a": 100, "b": 300}
    times = {"a": [1.0, 9.0, 1.0], "b": [3.0]}
    assert measure.rate_from_units(ops, times) == pytest.approx(100.0)


def test_a_different_seed_changes_the_kv_inputs():
    for name in ("kv_resident", "kv_paging"):
        workload = workloads.make(name)
        first = workload.make_inputs(0)
        assert workload.make_inputs(0) == first
        assert workload.make_inputs(1) != first
        assert len(first) == workload.pass_requests
    resident = workloads.make("kv_resident").make_inputs(0)
    sets = sum(1 for is_set, _ in resident if is_set)
    assert 0.03 < sets / len(resident) < 0.07
    svc = workloads.SvcPoolWorkload
    assert svc.service_seeds(0) != svc.service_seeds(1)
    assert len(set(svc.service_seeds(5))) == svc.SEEDS_PER_RUN


def test_output_check_fails_on_a_perturbed_fingerprint(monkeypatch):
    resident = workloads.make("kv_resident")
    resident.setup(0)
    ops, failed = resident.check()
    assert ops > 0 and failed == 0
    recorded = workloads.load_references()
    perturbed = dict(recorded["kv_resident"]["0"], tlb_hits=1)
    recorded["kv_resident"]["0"] = perturbed
    monkeypatch.setattr(workloads, "load_references", lambda: recorded)
    resident.setup(0)
    ops, failed = resident.check()
    assert failed == ops > 0


def test_tracing_never_changes_the_fingerprint_and_uninstalls():
    plain = workloads.make("kv_resident")
    plain.setup(3)
    expected = plain.checked_fingerprint()

    originals = {}
    for module, path, _layer, _mode in tracing.PROBES:
        owner, name = tracing._owner(module, path)
        originals[(module, path)] = owner.__dict__[name]
    tracer = tracing.Tracer().install()
    try:
        traced = workloads.make("kv_resident")
        traced.setup(3)
        tracer.enabled = True
        assert traced.checked_fingerprint() == expected
        traced.run_unit(0, None)
    finally:
        tracer.uninstall()
    assert tracer.calls("memcached.Memcached.get") > 0
    assert tracer.counters["clock.Clock.charge"] > 0
    assert tracer.leftover() == []
    for (module, path), original in originals.items():
        owner, name = tracing._owner(module, path)
        assert owner.__dict__[name] is original, path


def test_package_layer_buckets():
    assert tracing.package_layer("/x/src/repro/sgx/cpu.py") == "sgx"
    assert tracing.package_layer("/x/src/repro/modelcheck/model.py") \
        == "modelcheck"
    assert tracing.package_layer("/x/src/repro/clock.py") is None
    assert tracing.package_layer("/x/src/repro/sgx/params.py") is None
    assert tracing.package_layer("/usr/lib/python3.11/copy.py") is None


def test_runner_refuses_a_directory_without_sources(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "kv_resident", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_every_reported_metric():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
