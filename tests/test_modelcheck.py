"""Model-checker tests (``repro.modelcheck``).

Covers the model layer (tiny worlds, deterministic actions, outcome
classification), bounded exploration (safety of the healthy policies,
``--jobs`` bit-identity, cycle dedup), the seeded-bug toy (the checker
must *find* the reopened controlled channel), the golden minimizer
behaviour, and the witness-export path replayed through the real chaos
campaign.
"""

import json

import pytest

from repro.chaos.campaign import run_plan
from repro.chaos.plan import FaultPlan, from_json
from repro.core.invariants import epc_parity
from repro.errors import SgxError
from repro.modelcheck import poolworld
from repro.recovery.supervisor import RUNNING
from repro.service.pool import TenantPool
from repro.modelcheck.explorer import domain_for, explore
from repro.modelcheck.export import (
    export_witnesses,
    plan_for_trace,
    witness_payload,
)
from repro.modelcheck.invariants import check_world
from repro.modelcheck.minimize import minimize, violation_messages
from repro.modelcheck.model import (
    POLICIES,
    apply_action,
    boot,
    enabled_actions,
    replay,
    successor,
)


# -- the model layer ---------------------------------------------------------

class TestWorld:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_boot_is_safe_and_reproducible(self, policy):
        first = boot(policy)
        assert check_world(first) == []
        assert not first.terminal
        assert first.state_key() == boot(policy).state_key()

    def test_successor_leaves_parent_untouched(self):
        world = boot("rate_limit")
        key = world.state_key()
        child = successor(world, "touch:0")
        assert world.state_key() == key
        assert child.state_key() != key

    def test_actions_are_deterministic(self):
        trace = ("touch:0", "touch:1", "balloon", "progress")
        assert (replay("clusters", trace).state_key()
                == replay("clusters", trace).state_key())

    def test_unmap_is_detected_as_attack(self):
        world = replay("rate_limit", ("touch:0", "unmap"))
        assert world.outcome == "aborted"
        assert world.reason == "attack-detected"
        assert world.violations == []

    def test_tamper_fail_stops(self):
        world = replay(
            "rate_limit", ("touch:0", "touch:1", "touch:2", "balloon"))
        assert world.swapped_pool()
        apply_action(world, "tamper")
        assert world.outcome == "aborted"
        assert world.violations == []

    def test_sgx2_tamper_hits_runtime_owned_blobs(self):
        world = replay(
            "rate_limit_sgx2",
            ("touch:0", "touch:1", "touch:2", "balloon"))
        # SGX2 seals into runtime-owned memory, not the kernel backing
        # store — the model must still find (and forge) the blobs.
        assert world.swapped_pool()
        assert not world.kernel.backing.swapped_pages(
            world.enclave.enclave_id)
        apply_action(world, "tamper")
        assert world.outcome == "aborted"
        assert world.reason == "integrity"

    def test_deny_straddles_retry_budget(self):
        base = replay(
            "rate_limit", ("touch:0", "touch:1", "touch:2", "balloon"))
        absorbed = successor(base, "deny:2")
        assert absorbed.outcome == "running"
        assert absorbed.violations == []
        exhausted = successor(base, "deny:6")
        assert exhausted.outcome == "aborted"
        assert exhausted.reason == "chaos-abort"

    def test_crash_recovers_bit_identically(self):
        world = replay("rate_limit", ("touch:0", "balloon", "crash"))
        assert world.outcome == "running"
        assert world.recoveries == 1
        assert world.violations == []
        assert check_world(world) == []

    @pytest.mark.parametrize("policy", POLICIES)
    def test_crash_leaves_only_the_live_incarnation_in_the_kernel(
            self, policy):
        # The reclaimed incarnation leaves the kernel's enclave table,
        # so no later copy of the world carries it.
        world = successor(boot(policy), "crash")
        assert world.recoveries == 1
        assert list(world.kernel.instr.enclaves.values()) \
            == [world.enclave]
        assert not world.enclave.dead
        assert epc_parity(world.kernel) == []

    def test_rollback_attack_is_detected(self):
        world = replay("rate_limit", ("rollback",))
        assert world.outcome == "aborted"
        assert world.reason == "integrity"
        assert world.violations == []

    def test_crash_then_eviction_keeps_oracle_clean(self):
        # Regression: eviction-protocol state must be per enclave
        # incarnation — the relaunched enclave's fresh EBLOCK/EWB over
        # the same addresses is not a protocol violation.
        world = replay("rate_limit", ("touch:0", "balloon", "crash"))
        apply_action(world, "balloon")
        assert world.oracle.violations == []
        assert check_world(world) == []

    @pytest.mark.parametrize("policy",
                             ("clusters", "rate_limit", "rate_limit_sgx2"))
    @pytest.mark.parametrize("last", ("crash", "rollback"))
    def test_relaunch_after_suspended_crash_keeps_oracle_clean(
            self, policy, last):
        # Regression: EAUG must reach the lifecycle oracle.  The
        # relaunched enclave backs pages by EAUG; unobserved, they kept
        # the dead incarnation as owner, and the next reclaim's
        # page-table drops were judged against the dead enclave's EWBs.
        world = replay(policy, ("suspend", "crash", last))
        assert world.oracle.violations == []
        assert check_world(world) == []

    @pytest.mark.xfail(strict=True, reason=(
        "PagingCrypto._mac hashes id(contents): a copied world re-creates "
        "the TCS page's contents object, so resuming a suspended copy "
        "fails its MAC check (aborted/integrity) while the replayed trace "
        "keeps running"))
    def test_successor_matches_replay(self):
        # A state should be a pure function of its action trace: the
        # copy-and-apply successor must equal the replayed trace.
        diverged = []
        for policy in POLICIES + poolworld.WORLDS:
            _, replay_, enabled_, successor_, _ = domain_for(policy)
            root = replay_(policy, ())
            for trace in [()] + [(a,) for a in enabled_(root)]:
                world = replay_(policy, trace)
                for action in enabled_(world):
                    if successor_(world, action).state_key() != \
                            replay_(policy, trace + (action,)).state_key():
                        diverged.append((policy, trace + (action,)))
        assert diverged == []


# -- whole-enclave suspend/resume (§5.2.1) -----------------------------------

class TestSuspendResume:
    def test_suspend_is_not_offered_to_sealed_policies(self):
        assert "suspend" not in enabled_actions(boot("pin_all"))
        assert "suspend" not in enabled_actions(boot("oram"))
        assert "suspend" in enabled_actions(boot("rate_limit"))

    def test_suspended_world_has_the_narrow_alphabet(self):
        world = replay("rate_limit", ("touch:0", "suspend"))
        assert world.suspended
        assert enabled_actions(world) == ["resume", "tamper", "crash"]

    def test_clean_suspend_resume_round_trip(self):
        world = replay("rate_limit", ("touch:0", "suspend", "resume"))
        assert world.outcome == "running"
        assert not world.suspended
        assert world.violations == []
        assert check_world(world) == []

    def test_tamper_while_suspended_is_silent_until_resume(self):
        world = replay("rate_limit", ("touch:0", "suspend", "tamper"))
        assert world.outcome == "running"   # consumption point: resume
        assert world.suspend_tampered
        # Only one blob can be forged per suspension window.
        assert "tamper" not in enabled_actions(world)

    def test_tampered_suspend_set_fail_stops_on_resume(self):
        world = replay(
            "rate_limit", ("touch:0", "suspend", "tamper", "resume"))
        assert world.outcome == "aborted"
        assert world.reason == "integrity"
        assert world.violations == []

    def test_crash_while_suspended_recovers_clean(self):
        world = replay("rate_limit", ("touch:0", "suspend", "crash"))
        assert world.outcome == "running"
        assert world.recoveries == 1
        assert not world.suspended
        assert world.violations == []
        assert check_world(world) == []


# -- bounded exploration -----------------------------------------------------

class TestExplorer:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_healthy_policies_are_safe(self, policy):
        result = explore(policy, depth=2, max_states=300, jobs=1)
        assert result.ok
        assert not result.truncated
        assert result.states > 20
        # Every terminal class is a structured abort.
        assert all(label.startswith("aborted/")
                   for label in result.terminals)

    def test_jobs_two_is_bit_identical_to_jobs_one(self):
        serial = explore("rate_limit", depth=2, max_states=300, jobs=1)
        fanned = explore("rate_limit", depth=2, max_states=300, jobs=2)
        assert serial.digest == fanned.digest
        assert serial.as_json() == fanned.as_json()

    def test_state_budget_truncates_deterministically(self):
        small = explore("rate_limit", depth=2, max_states=20, jobs=1)
        assert small.truncated
        assert small.states == 20
        again = explore("rate_limit", depth=2, max_states=20, jobs=2)
        assert small.digest == again.digest

    def test_dedup_bounds_the_state_count(self):
        # squeeze/unsqueeze and claim/release loop back to known
        # states: distinct states must stay well under the transition
        # count (the cycle detector at work).
        result = explore("rate_limit", depth=2, max_states=500, jobs=1)
        assert result.states < result.transitions

    def test_bfs_witness_is_shortest(self):
        result = explore("pin_all", depth=2, max_states=300, jobs=1)
        witness = result.witnesses["aborted/attack-detected"]
        assert witness == ("unmap",)


# -- the seeded bug ----------------------------------------------------------

class TestBrokenPolicy:
    def test_checker_finds_the_reopened_channel(self):
        result = explore("broken", depth=2, max_states=300, jobs=1)
        assert not result.ok
        traces = [trace for trace, _ in result.violations]
        assert ("touch:0", "unmap") in traces

    def test_healthy_twin_is_safe_on_the_same_bound(self):
        result = explore("rate_limit", depth=2, max_states=300, jobs=1)
        assert result.ok


# -- minimization ------------------------------------------------------------

class TestMinimizer:
    def test_golden_counterexample(self):
        trace, messages = minimize("broken", ("touch:0", "unmap"))
        assert trace == ("touch:0", "unmap")
        assert "serviced instead of detected" in messages[0]

    def test_strips_irrelevant_actions(self):
        noisy = ("progress", "touch:0", "release", "touch:1", "unmap")
        trace, messages = minimize("broken", noisy)
        assert trace == ("touch:1", "unmap")
        assert len(messages) == 1

    def test_rejects_safe_traces(self):
        with pytest.raises(ValueError):
            minimize("rate_limit", ("touch:0", "unmap"))

    def test_replay_validity_guard(self):
        # 'unmap' alone is not enabled (nothing resident yet): an
        # invalid trace is reported safe, not explored blindly.
        assert violation_messages("broken", ("unmap",)) == ()


# -- witness export ----------------------------------------------------------

class TestWitnessExport:
    def test_plan_maps_hostile_actions_only(self):
        plan = plan_for_trace(
            "rate_limit", ("touch:0", "balloon", "deny:6"))
        assert [e.kind.value for e in plan.events] == [
            "balloon-request", "deny-fetch"]
        assert [e.at_op for e in plan.events] == [60, 80]

    def test_pure_workload_trace_has_no_plan(self):
        assert plan_for_trace("rate_limit", ("touch:0", "progress")) \
            is None

    def test_oram_is_not_replayable(self):
        assert witness_payload("oram", ("unmap",), "aborted") is None

    def test_payload_roundtrips_through_fault_plan(self):
        payload = witness_payload(
            "rate_limit", ("touch:0", "unmap"), "aborted")
        plan = from_json(FaultPlan, payload["plan"], "plan")
        assert plan == plan_for_trace("rate_limit", ("touch:0", "unmap"))
        assert payload["policy"] == "rate_limit"
        assert payload["expected_outcome"] == "aborted"

    def test_exported_witness_replays_in_the_campaign(self):
        result = explore("rate_limit", depth=2, max_states=300, jobs=1)
        payloads, _skipped = export_witnesses(result)
        payload = payloads["aborted/attack-detected"]
        run_ = run_plan(
            from_json(FaultPlan, payload["plan"], "plan"), payload["policy"])
        assert run_.safe
        assert run_.outcome == payload["expected_outcome"]


# -- the two-tenant pool world -----------------------------------------------

class TestPoolWorld:
    def test_depth_three_is_safe_and_bounded(self):
        result = explore("pool", depth=3, max_states=400, jobs=1)
        assert result.ok, result.violations
        assert not result.truncated
        assert result.states > 50

    def test_jobs_two_is_bit_identical_to_jobs_one(self):
        serial = explore("pool", depth=2, max_states=400, jobs=1)
        fanned = explore("pool", depth=2, max_states=400, jobs=2)
        assert serial.digest == fanned.digest
        assert serial.as_json() == fanned.as_json()

    def test_enabled_actions_are_pure(self):
        world = poolworld.boot("pool")
        key = world.state_key()
        first = poolworld.enabled_actions(world)
        assert poolworld.enabled_actions(world) == first
        assert world.state_key() == key

    def test_quarantine_ladder_fails_over_to_the_sibling(self):
        # Two tamper-under-suspension aborts on t0/r0: the first burns
        # the restart budget (a recovery), the second quarantines the
        # replica, and the next request must elect the sibling.
        trace = ("suspend", "tamper", "resume") * 2 + ("req:0",)
        world = poolworld.replay("pool", trace)
        assert world.violations == []
        assert poolworld.check_world(world) == []
        assert world.recoveries[0] == 1
        assert world.quarantines[0] == 1
        assert world.pools[0].failovers == 1
        assert world.served[0] == 1
        assert world.pools[0].last_primary == 1

    def test_pool_down_request_sheds_structurally(self):
        # Suspend both of tenant 0's replicas: a request must shed,
        # never crash (the unguarded-failover case, exercised live).
        world = poolworld.replay("pool", ("suspend", "suspend", "req:0"))
        assert world.violations == []
        assert world.issued[0] == 1
        assert world.shed[0] == 1
        assert world.served[0] == 0

    def test_retire_then_arrive_round_trip(self):
        world = poolworld.replay("pool", ("retire",))
        assert world.violations == []
        assert world.departed[1]
        assert world.departures == 1
        assert "req:1" not in poolworld.enabled_actions(world)
        assert "arrive" in poolworld.enabled_actions(world)
        back = poolworld.successor(world, "arrive")
        assert back.violations == []
        assert back.arrivals == 1
        assert not back.departed[1]
        assert poolworld.check_world(back) == []

    def test_storm_costs_cycles_never_correctness(self):
        stormed = poolworld.replay("pool", ("storm", "req:0"))
        assert stormed.violations == []
        assert stormed.aex == poolworld.STORM_ROUNDS
        assert stormed.served[0] == 1

    def test_unknown_world_is_rejected(self):
        with pytest.raises(SgxError):
            poolworld.boot("nonsense")

    def test_seeded_pool_bug_is_found(self, monkeypatch):
        # The pool world elects through the shipped TenantPool, so a
        # health check that forgets suspension must surface as a
        # request running on a suspended replica.
        def healthy_ignoring_suspension(pool, handle):
            try:
                record = pool.recovery.member(handle.member_name)
            except KeyError:
                return False
            return record.state == RUNNING

        monkeypatch.setattr(
            TenantPool, "healthy", healthy_ignoring_suspension)
        result = explore("pool", depth=3, max_states=400, jobs=1)
        assert not result.ok
        shortest = min((trace for trace, _ in result.violations), key=len)
        assert shortest == ("suspend", "req:0")


# -- the CLI -----------------------------------------------------------------

class TestCli:
    def test_safe_policy_exits_zero(self, capsys):
        from repro.modelcheck.cli import run
        assert run(["--policy", "pin_all", "--depth", "1",
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["policies"][0]["policy"] == "pin_all"

    def test_pool_world_exits_zero(self, capsys):
        from repro.modelcheck.cli import run
        assert run(["--policy", "pool", "--depth", "2",
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["policies"][0]["policy"] == "pool"

    def test_broken_policy_exits_one_with_minimized_trace(self, capsys):
        from repro.modelcheck.cli import run
        assert run(["--policy", "broken", "--depth", "2",
                    "--max-states", "120", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["ok"]
        minimized = report["policies"][0]["minimized_violations"]
        assert {"trace": ["touch:0", "unmap"]} \
            == {"trace": minimized[0]["trace"]}

    def test_export_writes_replayable_envelopes(self, tmp_path, capsys):
        from repro.modelcheck.cli import run
        assert run(["--policy", "pin_all", "--depth", "2",
                    "--max-states", "120",
                    "--export", str(tmp_path)]) == 0
        capsys.readouterr()
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["pin_all-aborted-attack-detected.json"]
        payload = json.loads(
            (tmp_path / written[0]).read_text(encoding="utf-8"))
        assert payload["policy"] == "pin_all"
        assert payload["source_trace"] == ["unmap"]

    def test_export_names_each_witness_it_leaves_out(self, tmp_path,
                                                     capsys):
        from repro.modelcheck.cli import run
        assert run(["--policy", "all", "--depth", "3",
                    "--export", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "clusters-aborted-attack-detected.json",
            "clusters-aborted-chaos-abort.json",
            "pin_all-aborted-attack-detected.json",
            "rate_limit-aborted-attack-detected.json",
            "rate_limit-aborted-chaos-abort.json",
            "rate_limit_sgx2-aborted-attack-detected.json",
            "rate_limit_sgx2-aborted-chaos-abort.json",
        ]
        assert err.splitlines() == [
            f"repro modelcheck: not exported: {world} aborted/integrity "
            f"['rollback']: no action maps to a fault-plan event"
            for world in ("pin_all", "clusters", "rate_limit",
                          "rate_limit_sgx2")
        ] + [
            "repro modelcheck: not exported: oram aborted/integrity "
            "['rollback']: the world has no chaos-campaign counterpart",
        ]

    def test_export_of_the_broken_world_writes_nothing_and_says_why(
            self, tmp_path, capsys):
        from repro.modelcheck.cli import run
        assert run(["--policy", "broken", "--depth", "2",
                    "--export", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        reason = "the world has no chaos-campaign counterpart"
        assert err.splitlines() == [
            "repro modelcheck: not exported: broken aborted/integrity "
            f"['rollback']: {reason}",
            "repro modelcheck: not exported: broken violation "
            f"['touch:0', 'unmap']: {reason}",
        ] + [
            f"repro modelcheck: not exported: broken violation-{index} "
            f"['touch:{index}', 'unmap']: {reason}"
            for index in range(3)
        ]
