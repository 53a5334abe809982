"""The plan file format (``repro.chaos.plan``): one codec for chaos and
service plans, and the one reader behind ``chaos --plan`` and ``serve
--plan``.

Generated plans of both kinds must survive ``to_json`` → JSON text →
``from_json`` unchanged, the committed witnesses must re-serialize to
their committed bytes, and ``modelcheck --export`` must write what the
chaos reader reads.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.campaign import N_OPS
from repro.chaos.plan import (
    CRASH_KINDS,
    WITNESS_KEYS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    from_json,
    read_plan_file,
    to_json,
)
from repro.modelcheck.export import witness_payload
from repro.service.chaos import (
    ServiceFaultEvent,
    ServiceFaultKind,
    ServiceFaultPlan,
)
from repro.service.cli import ENVELOPE_KEYS
from repro.service.tenant import TenantSpec

FIXTURES = Path(__file__).parent / "fixtures" / "chaos"
CHAOS_WITNESSES = ("rate_limit_unmap_resident_witness.json",
                   "rate_limit_sgx2_tamper_witness.json")
SERVICE_WITNESS = "service_pool_failover_witness.json"

counts = st.integers(min_value=-2 ** 40, max_value=2 ** 40)

fault_plans = st.builds(
    FaultPlan, seed=counts, events=st.lists(st.builds(
        FaultEvent, kind=st.sampled_from(FaultKind), at_op=counts,
        param=counts)).map(tuple))

service_plans = st.builds(
    ServiceFaultPlan, seed=counts, ticks=counts, events=st.lists(st.builds(
        ServiceFaultEvent, kind=st.sampled_from(ServiceFaultKind),
        at_tick=counts, tenant_index=counts, param=counts,
        duration=counts)).map(tuple))


def round_trip(record):
    """``record`` through the codec and JSON text, as a file holds it."""
    text = json.dumps(to_json(record), indent=2, sort_keys=True)
    return from_json(type(record), json.loads(text), "plan")


class TestRoundTrip:
    @given(fault_plans)
    @settings(max_examples=200, deadline=None)
    def test_any_fault_plan(self, plan):
        assert round_trip(plan) == plan

    @given(service_plans)
    @settings(max_examples=200, deadline=None)
    def test_any_service_plan(self, plan):
        assert round_trip(plan) == plan

    @given(seed=st.integers(0, 2 ** 32), no_crash=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_generated_fault_plans(self, seed, no_crash):
        plan = FaultPlan.generate(seed, N_OPS,
                                  exclude=CRASH_KINDS if no_crash else ())
        assert round_trip(plan) == plan

    @given(seed=st.integers(0, 2 ** 32), ticks=st.integers(1, 64),
           tenants=st.integers(1, 8), replicas=st.integers(1, 4),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_generated_service_plans(self, seed, ticks, tenants, replicas,
                                     data):
        tamperable = data.draw(st.sets(st.integers(0, tenants - 1)))
        plan = ServiceFaultPlan.generate(seed, ticks, tenants,
                                         tamperable=tamperable,
                                         replicas=replicas)
        clone = round_trip(plan)
        assert clone == plan
        assert clone.canonical() == plan.canonical()


def committed(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def reserialized(envelope):
    return json.dumps(envelope, indent=2, sort_keys=True)


class TestCommittedWitnesses:
    @pytest.mark.parametrize("name", CHAOS_WITNESSES)
    def test_chaos_witness_reserializes_to_its_bytes(self, name):
        plan, envelope = read_plan_file(FIXTURES / name, FaultPlan,
                                        WITNESS_KEYS)
        text = reserialized({**envelope, "plan": to_json(plan)})
        assert text == committed(name).rstrip("\n")

    def test_service_witness_reserializes_to_its_bytes(self):
        plan, envelope = read_plan_file(FIXTURES / SERVICE_WITNESS,
                                        ServiceFaultPlan, ENVELOPE_KEYS)
        config = envelope["config"]
        tenants = [to_json(from_json(TenantSpec, entry, "tenant"))
                   for entry in config["tenants"]]
        text = reserialized({**envelope, "plan": to_json(plan),
                             "config": {**config, "tenants": tenants}})
        assert text == committed(SERVICE_WITNESS).rstrip("\n")

    def test_export_writes_the_committed_witness(self):
        # `modelcheck --export` writes the frozen witness byte for byte
        # (the export writer dumps without a trailing newline).
        payload = witness_payload("rate_limit", ("touch:0", "unmap"),
                                  "aborted")
        assert reserialized(payload) == committed(CHAOS_WITNESSES[0])


class TestReader:
    def test_bare_plan_comes_back_in_an_envelope(self, tmp_path):
        plan = FaultPlan.generate(3, N_OPS)
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(to_json(plan)))
        assert read_plan_file(path, FaultPlan, ()) == (
            plan, {"plan": to_json(plan)})

    @pytest.mark.parametrize("payload, error, match", [
        ({"plan": {"seed": 0, "events": []}, "polcy": "x"}, ValueError,
         "unknown key.* in envelope: polcy"),
        ({"events": []}, ValueError, "plan lacks the key seed"),
        ({"seed": 0, "events": {}}, TypeError,
         "plan.events must be a JSON list"),
        ({"seed": 0, "events": [{"kind": "deny-fetch"}]}, ValueError,
         r"plan.events\[0\] lacks the key at_op"),
        ({"seed": 0, "events": [{"kind": "nope", "at_op": 1}]}, ValueError,
         r"plan.events\[0\].kind: 'nope' is not a valid FaultKind"),
        ({"seed": "zero", "events": []}, ValueError,
         "plan.seed: invalid literal"),
        ({"seed": None, "events": []}, ValueError, "plan.seed: int()"),
        ([], TypeError, "plan must be a JSON object"),
    ])
    def test_unusable_payload_is_refused(self, tmp_path, payload, error,
                                         match):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(error, match=match):
            read_plan_file(path, FaultPlan, ("policy",))
