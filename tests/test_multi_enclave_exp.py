"""E9 experiment tests: EPC-coordination strategies behave as designed."""

import pytest

from repro.experiments import multi_enclave


@pytest.fixture(scope="module")
def rows():
    return multi_enclave.run(requests=800)


def by_strategy(rows):
    return {r.strategy: r for r in rows}


def test_all_strategies_run(rows):
    assert {r.strategy for r in rows} == set(multi_enclave.STRATEGIES)
    assert all(r.loaded_throughput > 0 for r in rows)
    assert all(r.idle_throughput > 0 for r in rows)


def test_memory_helps_the_loaded_enclave(rows):
    s = by_strategy(rows)
    assert s["balloon"].loaded_throughput > \
        s["static"].loaded_throughput
    assert s["suspend"].loaded_throughput > \
        s["static"].loaded_throughput


def test_costs_land_on_the_idle_enclave(rows):
    s = by_strategy(rows)
    assert s["static"].idle_throughput > s["balloon"].idle_throughput
    assert s["balloon"].idle_throughput > s["suspend"].idle_throughput


def test_epc_actually_moved(rows):
    s = by_strategy(rows)
    assert s["static"].epc_moved == 0
    assert s["balloon"].epc_moved > 0
    assert s["suspend"].epc_moved >= s["balloon"].epc_moved


def test_fault_reduction_tracks_memory(rows):
    s = by_strategy(rows)
    assert s["balloon"].loaded_faults <= s["static"].loaded_faults


def test_table_renders(rows):
    out = multi_enclave.format_table(rows)
    assert "balloon" in out and "suspend" in out


def test_rows_are_pinned(rows):
    # The throughputs are exact quotients of integer cycle counts, so
    # they compare equal, not approximately.
    assert rows == [
        multi_enclave.MultiEnclaveRow(
            strategy="static", loaded_throughput=75039.96548161589,
            idle_throughput=157662.98410982353, loaded_faults=590,
            epc_moved=0),
        multi_enclave.MultiEnclaveRow(
            strategy="balloon", loaded_throughput=91298.88974028725,
            idle_throughput=77473.05044602342, loaded_faults=555,
            epc_moved=1200),
        multi_enclave.MultiEnclaveRow(
            strategy="suspend", loaded_throughput=91298.88974028725,
            idle_throughput=14655.12819573389, loaded_faults=555,
            epc_moved=1736),
    ]
