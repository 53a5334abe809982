"""Byzantine-host chaos harness tests (``repro.chaos``).

Covers the three layers separately — plans (seeded schedules), the
injector (syscall/instruction interception), the hardened runtime
(bounded retry, degradation, fail-stop) — then the campaign end to end,
plus the tamper/replay matrix: every paging policy must answer a
hostile backing store with :class:`IntegrityError`-based fail-stop.
"""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.chaos.campaign import (
    DEFAULT_POLICIES,
    N_OPS,
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    OUTCOME_DEGRADED,
    OUTCOME_RECOVERED,
    _ChaosRun,
    run_campaign,
    run_one,
    run_plan,
)
from repro.chaos.injector import FaultInjector
from repro.chaos.plan import (
    CRASH_KINDS,
    FORCED_KINDS,
    OP_KINDS,
    SYSCALL_KINDS,
    FaultEvent,
    FaultKind,
    FaultPlan,
)
from repro.clock import Category, Clock
from repro.core.config import small_config
from repro.core.metrics import AbortStats
from repro.core.system import AutarkySystem
from repro.errors import (
    AbortReason,
    AttackDetected,
    ChaosAbort,
    EnclaveTerminated,
    HostCallDenied,
    IntegrityAbort,
    IntegrityError,
    LivelockGuard,
    PinnedExhaustion,
    PolicyError,
)
from repro.host import adversary
from repro.runtime.backoff import RetryPolicy
from repro.runtime.paging_ops import Sgx1PagingOps
from repro.runtime.rate_limit import ProgressKind
from repro.sgx.crypto import PagingCrypto

FIXTURES = Path(__file__).parent / "fixtures" / "chaos"
WITNESS = "rate_limit_unmap_resident_witness.json"


def misspelt(fixture, path, key, value, drop=None):
    """The committed ``fixture`` as JSON text, with ``key: value`` set
    and ``drop`` removed in the object the keys and indexes of
    ``path`` lead to."""
    payload = json.loads((FIXTURES / fixture).read_text())
    target = payload
    for step in path:
        target = target[step]
    target.pop(drop, None)
    target[key] = value
    return json.dumps(payload)


# -- fault plans --------------------------------------------------------------

class TestFaultPlan:
    def test_same_seed_same_plan(self):
        assert (FaultPlan.generate(7, N_OPS)
                == FaultPlan.generate(7, N_OPS))

    def test_seeds_differ(self):
        plans = {FaultPlan.generate(s, N_OPS).events for s in range(8)}
        assert len(plans) > 1

    def test_forced_rotation_covers_every_kind(self):
        first_kinds = {
            FaultPlan.generate(s, N_OPS).events[0].kind
            if FaultPlan.generate(s, N_OPS).events else None
            for s in range(len(FORCED_KINDS))
        }
        # The forced kind is the first *drawn*, which after sorting by
        # at_op need not be events[0] — check plan membership instead.
        covered = set()
        for s in range(len(FORCED_KINDS)):
            covered.update(FaultPlan.generate(s, N_OPS).kinds())
        assert covered == set(FaultKind)
        assert first_kinds  # plans are never empty

    def test_events_sorted_and_in_range(self):
        for seed in range(20):
            plan = FaultPlan.generate(seed, N_OPS)
            ops = [e.at_op for e in plan.events]
            assert ops == sorted(ops)
            assert all(1 <= op <= N_OPS - 10 for op in ops)

    def test_needs_at_least_one_op(self):
        with pytest.raises(ValueError):
            FaultPlan.generate(0, 0)

    def test_partition_is_total(self):
        armed = set(SYSCALL_KINDS) | {FaultKind.EAUG_REFUSE}
        assert armed | set(OP_KINDS) == set(FaultKind)
        assert armed & set(OP_KINDS) == set()

    def test_describe_names_kinds(self):
        plan = FaultPlan.generate(3, N_OPS)
        text = plan.describe()
        for event in plan.events:
            assert event.kind.value in text


# -- bounded retry-with-backoff ----------------------------------------------

def _host_calls(respond, policy):
    """Paging ops whose host channel answers every call with
    ``respond()`` and charges backoff to a real clock."""
    channel = SimpleNamespace(
        kernel=SimpleNamespace(clock=Clock()),
        call=lambda name, enclave, *args: respond(),
    )
    return Sgx1PagingOps("enclave", channel, retry=policy)


class TestBackoff:
    def test_waits_grow_geometrically(self):
        policy = RetryPolicy(max_attempts=4, base_cycles=100, multiplier=3)
        assert [policy.wait_cycles(i) for i in (1, 2, 3)] == [100, 300, 900]

    def test_transient_failure_absorbed_and_charged(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise HostCallDenied("try later")
            return "ok"

        policy = RetryPolicy(max_attempts=4, base_cycles=500, multiplier=2)
        ops = _host_calls(flaky, policy)
        clock = ops.channel.kernel.clock
        snap = clock.snapshot()
        assert ops._host_call("ay_fetch_pages", [0x1000]) == "ok"
        assert len(calls) == 3
        assert ops.retried_calls == 2
        # Two waits were charged: 500 + 1000 cycles of BACKOFF, nothing else.
        delta = clock.delta_since(snap)
        assert delta[Category.BACKOFF] == 1_500
        assert clock.cycles == 1_500

    def test_exhaustion_fail_stops(self):
        calls = []

        def hostile():
            calls.append(1)
            raise HostCallDenied("no")

        policy = RetryPolicy(max_attempts=3, base_cycles=10)
        ops = _host_calls(hostile, policy)
        with pytest.raises(ChaosAbort) as info:
            ops._host_call("ay_fetch_pages", [0x1000])
        assert info.value.reason is AbortReason.CHAOS_ABORT
        assert "'ay_fetch_pages' still failing after 3 attempts" in \
            str(info.value)
        assert isinstance(info.value.__cause__, HostCallDenied)
        assert len(calls) == 3
        assert ops.retried_calls == 0
        # Waits before retries 1 and 2 only: 10 + 40 cycles of BACKOFF.
        assert ops.channel.kernel.clock.by_category[Category.BACKOFF] == 50

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0)


# -- the structured abort taxonomy -------------------------------------------

class TestAbortTaxonomy:
    def test_pinned_exhaustion_is_both(self):
        exc = PinnedExhaustion("all pinned")
        assert isinstance(exc, LivelockGuard)
        assert isinstance(exc, PolicyError)
        assert exc.reason is AbortReason.LIVELOCK_GUARD

    def test_integrity_abort_is_both(self):
        exc = IntegrityAbort("bad mac")
        assert isinstance(exc, EnclaveTerminated)
        assert isinstance(exc, IntegrityError)
        assert exc.reason is AbortReason.INTEGRITY

    def test_abort_stats_classifies_exceptions(self):
        stats = AbortStats()
        assert stats.record(ChaosAbort("x")) == "chaos-abort"
        assert stats.record(AttackDetected("y")) == "attack-detected"
        assert stats.record(AbortReason.RATE_LIMIT) == "rate-limit"
        assert stats.total == 3

    def test_abort_stats_accepts_strings(self):
        stats = AbortStats()
        assert stats.record("integrity") == "integrity"
        assert stats.record("") == AbortStats.UNCLASSIFIED
        assert stats.as_dict() == {"integrity": 1, "unclassified": 1}


# -- the injector against a live system ---------------------------------------

def _armed_system(policy="rate_limit", *events):
    """A chaos-sized system with a hand-written plan installed."""
    system = AutarkySystem(small_config(policy))
    plan = FaultPlan(seed=0, events=tuple(events))
    injector = FaultInjector(plan, system.kernel, system.enclave).install()
    return system, injector


class TestInjector:
    def test_transient_denial_absorbed(self):
        system, injector = _armed_system(
            "rate_limit", FaultEvent(FaultKind.DENY_FETCH, 0, param=1)
        )
        engine = system.engine()
        heap = system.runtime.regions["heap"]
        engine.data_access(heap.page(0))
        assert FaultKind.DENY_FETCH in injector.fired_kinds
        assert system.runtime.paging_ops.retried_calls >= 1
        assert system.runtime.pager.is_resident(heap.page(0))

    def test_persistent_denial_fail_stops(self):
        system, injector = _armed_system(
            "rate_limit", FaultEvent(FaultKind.DENY_FETCH, 0, param=32)
        )
        engine = system.engine()
        heap = system.runtime.regions["heap"]
        with pytest.raises(ChaosAbort) as info:
            engine.data_access(heap.page(0))
        assert info.value.reason is AbortReason.CHAOS_ABORT
        assert system.enclave.dead

    def test_dropped_fetch_is_detected_not_trusted(self):
        system, injector = _armed_system(
            "rate_limit", FaultEvent(FaultKind.DROP_FETCH, 0, param=1)
        )
        engine = system.engine()
        heap = system.runtime.regions["heap"]
        with pytest.raises(EnclaveTerminated) as info:
            engine.data_access(heap.page(0))
        assert info.value.reason is AbortReason.ATTACK_DETECTED
        assert FaultKind.DROP_FETCH in injector.fired_kinds

    def test_delay_charges_simulated_time(self):
        stall = 250_000
        system, injector = _armed_system(
            "rate_limit",
            FaultEvent(FaultKind.DELAY_RESPONSE, 0, param=stall),
        )
        engine = system.engine()
        heap = system.runtime.regions["heap"]
        before = system.kernel.clock.cycles
        engine.data_access(heap.page(0))
        assert system.kernel.clock.cycles - before >= stall
        assert FaultKind.DELAY_RESPONSE in injector.fired_kinds

    def test_events_wait_for_their_op(self):
        system, injector = _armed_system(
            "rate_limit", FaultEvent(FaultKind.DENY_FETCH, 5, param=1)
        )
        engine = system.engine()
        heap = system.runtime.regions["heap"]
        engine.data_access(heap.page(0))          # current_op == 0: clean
        assert not injector.fired_kinds
        injector.advance_to_op(5)
        engine.data_access(heap.page(1))
        assert FaultKind.DENY_FETCH in injector.fired_kinds

    def test_uninstall_detaches_hooks(self):
        system, injector = _armed_system("rate_limit")
        assert system.kernel.fault_injector is injector
        injector.uninstall()
        assert system.kernel.fault_injector is None
        assert system.kernel.instr.fault_hook is None


# -- tamper/replay matrix: hostile storage must mean fail-stop ----------------

def _churn(engine, pool, rounds=1):
    """Touch every pool page ``rounds`` times with periodic progress."""
    count = 0
    for _ in range(rounds):
        for vaddr in pool:
            engine.data_access(vaddr)
            count += 1
            if count % 8 == 0:
                engine.progress(ProgressKind.SYSCALL)


def _warmed(policy):
    """A campaign run's enclave after its warm-up, with no faults
    planned: ``engine`` and ``pool`` drive its workload."""
    run = _ChaosRun(0, policy, plan=FaultPlan(seed=0, events=()))
    run.warm_up()
    return run


def _swapped_heap_pages(system):
    return adversary.swapped_out(system.kernel, system.enclave,
                                 system.kernel.backing,
                                 system.runtime.regions["heap"])


@pytest.mark.parametrize("policy", ["clusters", "rate_limit"])
class TestSgx1TamperMatrix:
    """Forged and replayed EWB blobs against the driver's ELDU path."""

    def _ready_system(self, policy):
        system = _warmed(policy)
        # Two passes over a pool larger than the budget: every page is
        # evicted at least once, and re-evictions stock the stale shelf.
        _churn(system.engine, system.pool, rounds=2)
        return system, system.engine

    def test_forged_blob_fail_stops(self, policy):
        system, engine = self._ready_system(policy)
        backing = system.kernel.backing
        eid = system.enclave.enclave_id
        target = _swapped_heap_pages(system)[0]
        blob = backing.get(eid, target)
        backing.substitute(
            eid, target, dataclasses.replace(blob, mac="forged")
        )
        with pytest.raises(IntegrityAbort) as info:
            engine.data_access(target)
        assert info.value.reason is AbortReason.INTEGRITY
        assert isinstance(info.value, IntegrityError)
        assert system.enclave.dead

    def test_replayed_stale_blob_fail_stops(self, policy):
        system, engine = self._ready_system(policy)
        backing = system.kernel.backing
        eid = system.enclave.enclave_id
        stale = set(backing.stale_pages(eid))
        target = next(
            v for v in _swapped_heap_pages(system) if v in stale
        )
        assert backing.stale_copy(eid, target) is not None
        assert backing.replay(eid, target)
        with pytest.raises(IntegrityAbort):
            engine.data_access(target)
        assert system.enclave.dead

    def test_taint_bookkeeping(self, policy):
        system, _engine = self._ready_system(policy)
        backing = system.kernel.backing
        eid = system.enclave.enclave_id
        target = _swapped_heap_pages(system)[0]
        blob = backing.get(eid, target)
        backing.substitute(
            eid, target, dataclasses.replace(blob, mac="forged")
        )
        assert (eid, target) in backing.tainted
        assert target in backing.tampered_pages(eid)
        # A legitimate rewrite clears the taint.
        backing.put(eid, target, blob)
        assert (eid, target) not in backing.tainted


class TestPinAllSuspendTamper:
    """Pin-all never pages, so the hostile window is suspend/resume."""

    def test_resume_rejects_forged_page(self):
        system = _warmed("pin_all")
        system.engine.data_access(system.pool[0])
        driver = system.kernel.driver
        backing = system.kernel.backing
        eid = system.enclave.enclave_id
        driver.suspend_enclave(system.enclave)
        heap = system.runtime.regions["heap"]
        target = next(
            v for v in sorted(driver.state(system.enclave).suspend_set)
            if heap.contains(v)
        )
        blob = backing.get(eid, target)
        backing.substitute(
            eid, target, dataclasses.replace(blob, mac="forged")
        )
        with pytest.raises(IntegrityError):
            driver.resume_enclave(system.enclave)


class TestSgx2TamperMatrix:
    """Forged/replayed runtime-sealed blobs against in-enclave crypto."""

    def _ready_system(self):
        system = _warmed("rate_limit_sgx2")
        _churn(system.engine, system.pool)
        store = system.runtime.paging_ops.store
        assert store.swapped_pages(system.enclave.enclave_id), \
            "churn should have evicted sealed pages"
        return system, store

    def test_forged_sealed_blob_fail_stops(self):
        system, store = self._ready_system()
        target = store.swapped_pages(system.enclave.enclave_id)[0]
        adversary.tamper(store, system.enclave, target)
        with pytest.raises(IntegrityAbort) as info:
            system.engine.data_access(target)
        assert info.value.reason is AbortReason.INTEGRITY
        assert system.enclave.dead

    def test_replayed_sealed_blob_fail_stops(self):
        system, store = self._ready_system()
        eid = system.enclave.enclave_id
        target = store.swapped_pages(eid)[0]
        # Bring the page back in (consumes the sealed copy) ...
        system.engine.data_access(target)
        assert not store.has(eid, target)
        # ... churn until it is sealed out again, at a newer version ...
        for _round in range(8):
            if store.has(eid, target):
                break
            _churn(system.engine, system.pool)
        assert store.get(eid, target).version > \
            store.stale_copy(eid, target).version
        # ... then replay the stale blob.
        adversary.tamper(store, system.enclave, target, replay=True)
        with pytest.raises(IntegrityAbort):
            system.engine.data_access(target)
        assert system.enclave.dead


# -- campaign end to end -------------------------------------------------------

class TestCampaign:
    def test_run_one_is_deterministic(self):
        first = run_one(3, "clusters")
        second = run_one(3, "clusters")
        assert first.digest == second.digest
        assert first == second

    def test_outcomes_are_the_four_safe_states(self):
        result = run_campaign(range(4), check_determinism=False)
        allowed = {OUTCOME_COMPLETED, OUTCOME_DEGRADED, OUTCOME_ABORTED,
                   OUTCOME_RECOVERED}
        assert {r.outcome for r in result.runs} <= allowed
        assert len(result.runs) == 4 * len(DEFAULT_POLICIES)

    @pytest.mark.parametrize("kind", CRASH_KINDS)
    def test_crash_kinds_produce_verified_recoveries(self, kind):
        # One scripted crash mid-run, nothing else: the run must end
        # recovered, with the restored state verified against the
        # witness trace (a divergence would be a violation).
        run = _ChaosRun(5, "rate_limit")
        plan = FaultPlan(seed=5,
                         events=(FaultEvent(kind, at_op=60, param=1),))
        run.plan = plan
        run.injector.uninstall()
        run.injector = FaultInjector(plan, run.kernel,
                                     run.enclave).install()
        result = run.execute()
        assert result.outcome == OUTCOME_RECOVERED
        assert result.recoveries == 1
        assert not result.violations
        assert kind.value in result.fired_kinds
        assert result.ops_done == N_OPS

    def test_no_crash_sweep_still_sees_recoveries(self):
        # A plain 12-seed default sweep (crash kinds in rotation) must
        # produce at least one verified recovery somewhere.
        result = run_campaign(range(12), policies=("rate_limit",),
                              check_determinism=False)
        assert result.ok
        assert result.recoveries > 0

    def test_no_crash_exclusion_removes_crash_kinds(self):
        result = run_campaign(range(4), check_determinism=False,
                              exclude=CRASH_KINDS)
        fired = {FaultKind(v) for r in result.runs
                 for v in r.fired_kinds}
        assert not (fired & set(CRASH_KINDS))
        assert result.recoveries == 0

    def test_smoke_sweep_is_safe_and_reproducible(self):
        result = run_campaign(range(4))
        assert result.ok
        assert not result.violations
        assert not result.determinism_failures

    def test_aborts_carry_structured_reasons(self):
        result = run_campaign(range(6), check_determinism=False)
        aborted = [r for r in result.runs if r.outcome == OUTCOME_ABORTED]
        assert aborted, "a 6-seed sweep should abort at least once"
        known = {reason.value for reason in AbortReason}
        for run in aborted:
            assert run.reason
            base = run.reason.split("(", 1)[0]
            assert run.reason in known or base == "unclassified"
        stats = result.abort_stats
        assert sum(s.total for s in stats.values()) == len(aborted)

    def test_forced_rotation_reaches_coverage(self):
        result = run_campaign(
            range(len(FORCED_KINDS)), check_determinism=False
        )
        assert len(result.fired_kinds) >= 8

    def test_unknown_policy_rejected(self):
        with pytest.raises(PolicyError):
            run_one(0, "oram")

    def test_plan_events_that_never_fire_are_rejected(self):
        for event in (FaultEvent(FaultKind.CRASH_ENCLAVE, at_op=N_OPS),
                      FaultEvent(FaultKind.DENY_FETCH, at_op=10, param=0)):
            with pytest.raises(ValueError):
                run_plan(FaultPlan(seed=0, events=(event,)), "rate_limit")

    @pytest.mark.parametrize("policy", [
        "rate_limit", "clusters", "rate_limit_sgx2"])
    def test_tamper_backing_lands(self, policy):
        plan = FaultPlan(seed=0, events=(
            FaultEvent(FaultKind.TAMPER_BACKING, at_op=200),))
        run = run_plan(plan, policy)
        assert (run.outcome, run.reason) == (OUTCOME_ABORTED, "integrity")

    def test_silent_consumption_fires_on_sgx2(self, monkeypatch):
        # A mutant SGX2 runtime whose unseal skips the MAC check takes
        # the landed forgery.  The scripted probe saw that before; the
        # campaign's own invariant must see it too, in the store the
        # runtime reloads from.
        import repro.runtime.paging_ops as paging_ops

        class NoMacCrypto(PagingCrypto):
            def unseal(self, enclave_id, vaddr, sealed):
                return super().unseal(enclave_id, vaddr, dataclasses.replace(
                    sealed, mac=self._mac(sealed.enclave_id, sealed.vaddr,
                                          sealed.version, sealed.nonce,
                                          sealed.ciphertext)))

        class MutantOps(paging_ops.Sgx2PagingOps):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.crypto = NoMacCrypto()

        monkeypatch.setattr(paging_ops, "Sgx2PagingOps", MutantOps)
        plan = FaultPlan(seed=0, events=(
            FaultEvent(FaultKind.TAMPER_BACKING, at_op=200),))
        run = run_plan(plan, "rate_limit_sgx2")
        assert run.outcome != OUTCOME_ABORTED
        probe, silent = run.violations
        assert probe.startswith("enclave resumed on tampered page")
        assert silent.startswith("tainted blobs consumed without abort")

    @pytest.mark.parametrize("tier", ("off", "columnar"))
    def test_run_digests_match_the_pinned_sweep(self, tier, monkeypatch):
        # 160 runs, every op-level kind landing at least once: a host
        # act that changes what any run does changes a digest here, and
        # so does a fast-path tier that is not the reference semantics.
        import repro.chaos.campaign as campaign
        monkeypatch.setattr(
            campaign, "small_config",
            lambda *args, **kwargs: dataclasses.replace(
                small_config(*args, **kwargs), fastpath=tier))
        kernel = _ChaosRun(0, "clusters").kernel
        assert kernel.fastpath == tier
        assert (kernel.cpu.columnar is None) == (tier == "off")
        fixture = json.loads(
            (FIXTURES / "campaign_digests.json").read_text())
        pinned = [tuple(run) for run in fixture["runs"]]
        result = run_campaign(sorted({seed for seed, _, _ in pinned}),
                              check_determinism=False)
        assert [(r.seed, r.policy, r.digest) for r in result.runs] == pinned
        assert {k.value for k in OP_KINDS} <= result.fired_kinds


class TestChaosCli:
    def test_smoke_exit_zero(self, capsys):
        from repro.chaos.cli import run
        assert run(["--seeds", "16", "--no-determinism-check"]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

    def test_insufficient_coverage_fails(self, capsys):
        from repro.chaos.cli import run
        assert run(["--seeds", "1", "--no-determinism-check"]) == 1
        assert "INSUFFICIENT COVERAGE" in capsys.readouterr().out

    def test_json_report_parses(self, capsys):
        import json
        from repro.chaos.cli import run
        code = run(["--seeds", "2", "--no-determinism-check",
                    "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] == (code == 0)
        assert payload["seeds"] == 2
        assert len(payload["runs"]) == 2 * len(DEFAULT_POLICIES)
        assert not payload["violations"]

    def test_frozen_witness_replays(self, capsys):
        # A model-checker witness (modelcheck --export) frozen as a
        # regression: the rate_limit policy must keep aborting with
        # attack-detected when the host unmaps a resident page
        # mid-run.  Re-freeze only if the protocol itself changes.
        from pathlib import Path
        from repro.chaos.cli import run
        witness = (Path(__file__).parent / "fixtures" / "chaos" /
                   "rate_limit_unmap_resident_witness.json")
        assert run(["--plan", str(witness)]) == 0
        out = capsys.readouterr().out
        assert "attack-detected" in out
        assert "verdict: OK" in out

    def test_sgx2_tamper_witness_replays(self, capsys):
        # SGX2 paging seals pages into a store the runtime owns: the
        # host's forgery must land there and fail stop the run.
        from repro.chaos.cli import run
        witness = FIXTURES / "rate_limit_sgx2_tamper_witness.json"
        assert run(["--plan", str(witness)]) == 0
        out = capsys.readouterr().out
        assert "rate_limit_sgx2 aborted   reason=integrity" in out
        assert "verdict: OK" in out

    @pytest.mark.parametrize("name, events", [
        ("missing.json", None),
        ("not-json.json", "not json"),
        ("unknown-kind.json", [{"kind": "nope", "at_op": 10}]),
        ("past-the-run.json",
         [{"kind": "crash-enclave", "at_op": 400, "param": 1}]),
        ("no-magnitude.json",
         [{"kind": "deny-fetch", "at_op": 10, "param": -1}]),
        # The committed witness with one key misspelt: each replayed
        # as "verdict: OK", the outcome check or the key skipped.
        pytest.param(
            "expected-outcomes.json",
            misspelt(WITNESS, (), "expected_outcomes", "completed",
                     drop="expected_outcome"),
            id="expected-outcomes.json"),
        pytest.param(
            "at-tick-beside-at-op.json",
            misspelt(WITNESS, ("plan", "events", 0), "at_tick", 3),
            id="at-tick-beside-at-op.json"),
        # A policy the campaign cannot boot, and an outcome no run can
        # end in: a traceback, and a replay that can only print FAIL.
        pytest.param(
            "unknown-policy.json",
            misspelt(WITNESS, (), "policy", "nope"),
            id="unknown-policy.json"),
        pytest.param(
            "unknown-outcome.json",
            misspelt(WITNESS, (), "expected_outcome", "explode"),
            id="unknown-outcome.json"),
    ])
    def test_unusable_plan_is_one_error_line(self, tmp_path, capsys,
                                              name, events):
        # A plan the campaign cannot read, with a key it does not know,
        # or with an event it can never fire (op 400 of a 240-op run,
        # a denial of -1 calls), is refused up front instead of tracing
        # back or replaying as a weaker plan that prints "verdict: OK".
        from repro.chaos.cli import run
        plan = tmp_path / name
        if isinstance(events, str):
            plan.write_text(events)
        elif events is not None:
            plan.write_text(json.dumps({"seed": 0, "events": events}))
        assert run(["--plan", str(plan), "--policies", "rate_limit"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("repro chaos: cannot replay")


class TestDeterminismGate:
    """A run whose from-scratch rerun ends with another digest fails
    the campaign, and both reports name it."""

    def test_campaign_records_the_failing_point(self, rerun_differs):
        import repro.chaos.campaign as campaign
        rerun_differs(campaign, "run_one")
        result = run_campaign((0,), ("rate_limit",))
        [run] = result.runs
        assert result.determinism_failures == [
            (0, "rate_limit", run.digest, "0" * 16)]
        assert not result.ok

    def test_cli_reports_the_failing_point(self, rerun_differs, capsys):
        import repro.chaos.campaign as campaign
        from repro.chaos.cli import run
        rerun_differs(campaign, "run_one")
        argv = ["--seeds", "1", "--policies", "rate_limit"]
        assert run(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("DETERMINISM FAILURES:")
        assert lines[at + 1].startswith("  seed=0 policy=rate_limit: ")
        assert lines[at + 1].endswith(" != " + "0" * 16)
        assert run(argv + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        [failure] = payload["determinism_failures"]
        assert failure == {"seed": 0, "policy": "rate_limit",
                           "digests": [payload["runs"][0]["digest"],
                                       "0" * 16]}
        assert payload["ok"] is False
