"""Multi-tenant service tests: admission, backpressure, degradation,
breaker recovery, pools and failover, live churn, SLO shedding,
cross-tenant EPC contention, and determinism."""

import json
from pathlib import Path

import pytest

from repro.chaos.plan import from_json, to_json
from repro.core.invariants import epc_parity
from repro.errors import EnclaveCrashed, EpcExhausted, Quarantined
from repro.host.kernel import HostKernel
from repro.recovery.supervisor import RUNNING, RecoverySupervisor
from repro.service.admission import TokenBucket
from repro.service.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from repro.service.chaos import (
    ServiceFaultEvent,
    ServiceFaultKind,
    ServiceFaultPlan,
)
from repro.service.metrics import (
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    OUTCOME_DEGRADED,
    OUTCOME_SHED,
    OUTCOMES,
    SLO_PRESSURE,
    TENANT_RETIRED,
    LatencyWindow,
)
from repro.service.pool import TenantPool
from repro.service.router import (
    EnclaveService,
    ServiceConfig,
    run_service,
)
from repro.service.sweep import (
    POOL_REPLICAS,
    RUN_ABORTED,
    RUN_COMPLETED,
    RUN_DEGRADED,
    RUN_SHED,
    SWEEP_POLICIES,
    classify,
    pool_report,
    run_pool_sweep,
    run_sweep,
    sweep_report,
)
from repro.service.tenant import Tenant, TenantSpec, default_tenants
from tests.test_chaos import misspelt

WITNESS = "service_pool_failover_witness.json"


# -- admission primitives -----------------------------------------------------

class TestTokenBucket:
    def test_burst_then_refusal(self):
        bucket = TokenBucket(capacity=3, cycles_per_token=100)
        assert all(bucket.try_take(0) for _ in range(3))
        assert not bucket.try_take(0)

    def test_refill_is_whole_tokens_without_drift(self):
        bucket = TokenBucket(capacity=2, cycles_per_token=100)
        assert bucket.try_take(0) and bucket.try_take(0)
        assert not bucket.try_take(99)     # no partial token
        assert bucket.try_take(100)        # exactly one regenerated
        assert not bucket.try_take(150)    # the 50 spare cycles carry
        assert bucket.try_take(200)        # ... into the next token

    def test_capacity_caps_idle_accumulation(self):
        bucket = TokenBucket(capacity=2, cycles_per_token=10)
        assert bucket.try_take(10_000)
        assert bucket.try_take(10_000)
        assert not bucket.try_take(10_000)


class TestPagingBudget:
    def test_charges_in_arrears_and_recovers(self):
        budget = TokenBucket(capacity=10, cycles_per_token=1_000)
        assert budget.admits(0)
        budget.charge(25)                  # thrashed: 15 pages in debt
        assert not budget.admits(0)
        assert not budget.admits(14_000)   # still one page short
        assert budget.admits(16_000)

    def test_balance_caps_at_capacity(self):
        budget = TokenBucket(capacity=5, cycles_per_token=10)
        assert budget.admits(1_000_000)
        budget.charge(5)
        assert not budget.admits(1_000_000)


# -- the circuit breaker ------------------------------------------------------

class TestCircuitBreaker:
    def test_trips_after_windowed_failures(self):
        breaker = CircuitBreaker(trip_after=2)
        breaker.record_failure(1_000)
        assert breaker.state == CLOSED
        breaker.record_failure(2_000)
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_interleaved_successes_do_not_mask_failures(self):
        # abort -> recover -> healthy requests -> abort again is the
        # §5.3 churn pattern; a consecutive counter would miss it.
        breaker = CircuitBreaker(trip_after=2)
        breaker.record_failure(1_000)
        breaker.record_success()
        breaker.record_failure(2_000)
        assert breaker.state == OPEN

    def test_failures_outside_window_expire(self):
        breaker = CircuitBreaker(trip_after=2, window_cycles=1_000)
        breaker.record_failure(0)
        breaker.record_failure(5_000)      # first fell out of window
        assert breaker.state == CLOSED

    def test_half_open_probe_then_close(self):
        breaker = CircuitBreaker(trip_after=1)
        breaker.record_failure(0)
        assert breaker.state == OPEN
        assert not breaker.allow(breaker.open_until_cycles - 1)
        assert breaker.allow(breaker.open_until_cycles)
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(breaker.open_until_cycles)  # one probe
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.closes == 1

    def test_half_open_probe_failure_escalates(self):
        breaker = CircuitBreaker(trip_after=1)
        breaker.record_failure(0)
        first_wait = breaker.open_until_cycles
        now = breaker.open_until_cycles
        assert breaker.allow(now)
        breaker.record_failure(now)
        assert breaker.state == OPEN
        assert breaker.open_until_cycles - now > first_wait

    def test_cancel_probe_reopens_without_escalation(self):
        breaker = CircuitBreaker(trip_after=1)
        breaker.record_failure(0)
        now = breaker.open_until_cycles
        assert breaker.allow(now)
        breaker.cancel_probe()
        assert breaker.state == OPEN
        assert breaker.allow(now)          # re-probe immediately

    def test_latch_open_is_permanent(self):
        breaker = CircuitBreaker(trip_after=1)
        breaker.latch_open()
        assert not breaker.allow(10**12)
        breaker.record_success()
        assert not breaker.allow(10**12)

    # -- the half-open probe-accounting regression this PR fixes -----------

    def test_lost_probe_rearms_instead_of_wedging(self):
        breaker = CircuitBreaker(trip_after=1)
        breaker.record_failure(0)
        now = breaker.open_until_cycles
        assert breaker.allow(now)          # the probe is admitted
        # The probe vanishes without ever reporting an outcome (shed
        # downstream, lost to a drain).  A breaker that equates
        # HALF_OPEN with "a probe is in flight" rejects forever.
        breaker.probe_in_flight = False
        assert breaker.state == HALF_OPEN
        assert breaker.allow(now)          # re-armed, not wedged
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_cancel_probe_is_idempotent_in_every_state(self):
        breaker = CircuitBreaker(trip_after=1)
        breaker.cancel_probe()             # CLOSED: harmless no-op
        assert breaker.state == CLOSED
        assert breaker.allow(0)
        breaker.record_failure(0)
        breaker.cancel_probe()             # OPEN: stays OPEN, no count
        assert breaker.state == OPEN
        assert breaker.probe_cancels == 0
        now = breaker.open_until_cycles
        assert breaker.allow(now)
        breaker.cancel_probe()
        breaker.cancel_probe()             # double cancel: counted once
        assert breaker.probe_cancels == 1
        assert breaker.state == OPEN

    def test_stale_success_after_cancel_does_not_close(self):
        # An outcome report from an already-cancelled probe belongs to
        # a dead request; it must not re-close the breaker.
        breaker = CircuitBreaker(trip_after=1)
        breaker.record_failure(0)
        now = breaker.open_until_cycles
        assert breaker.allow(now)
        breaker.cancel_probe()
        breaker.record_success()
        assert breaker.state == OPEN
        assert breaker.closes == 0

    def test_snapshot_folds_probe_accounting(self):
        breaker = CircuitBreaker(trip_after=1)
        base = breaker.snapshot()
        breaker.record_failure(0)
        assert breaker.allow(breaker.open_until_cycles)
        breaker.cancel_probe()
        assert breaker.snapshot() != base
        assert breaker.snapshot()[-1] == 1    # probe_cancels is digested


# -- the latency window (SLO percentiles) -------------------------------------

class TestLatencyWindow:
    def test_empty_window_has_no_percentiles(self):
        window = LatencyWindow(capacity=4)
        assert window.percentile(950) is None
        assert window.snapshot() == (0, None, None, None)

    def test_nearest_rank_is_exact_on_integers(self):
        window = LatencyWindow(capacity=8)
        for cycles in (10, 20, 30, 40):
            window.record(cycles)
        assert window.percentile(500) == 20
        assert window.percentile(950) == 40
        assert window.percentile(1000) == 40

    def test_window_slides(self):
        window = LatencyWindow(capacity=2)
        for cycles in (100, 1, 2):
            window.record(cycles)
        assert len(window) == 2
        assert window.percentile(990) == 2    # the 100 fell out

    def test_snapshot_is_canonical(self):
        window = LatencyWindow(capacity=8)
        for cycles in (5, 3, 9):
            window.record(cycles)
        assert window.snapshot() == (3, 5, 9, 9)

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            LatencyWindow(capacity=0)
        with pytest.raises(ValueError):
            LatencyWindow(capacity=4).record(-1)


# -- the fault plan -----------------------------------------------------------

class TestServiceFaultPlan:
    def test_same_seed_same_plan(self):
        a = ServiceFaultPlan.generate(7, 20, 4, tamperable=(0, 1))
        b = ServiceFaultPlan.generate(7, 20, 4, tamperable=(0, 1))
        assert a.canonical() == b.canonical()

    def test_different_seed_different_plan(self):
        a = ServiceFaultPlan.generate(7, 20, 4, tamperable=(0, 1))
        b = ServiceFaultPlan.generate(8, 20, 4, tamperable=(0, 1))
        assert a.canonical() != b.canonical()

    def test_tamperable_fleet_gets_repeated_tampers(self):
        plan = ServiceFaultPlan.generate(0, 20, 4, tamperable=(1, 3))
        tampers = [e for e in plan.events
                   if e.kind is ServiceFaultKind.TENANT_TAMPER]
        assert len(tampers) >= 2
        # Both land on one victim (the breaker needs repeats).
        assert len({e.tenant_index for e in tampers}) == 1
        assert all(e.tenant_index in (1, 3) for e in tampers)

    def test_plan_covers_burst_and_stall(self):
        plan = ServiceFaultPlan.generate(0, 20, 4)
        assert ServiceFaultKind.TENANT_BURST in plan.kinds()
        assert ServiceFaultKind.TENANT_STALL in plan.kinds()

    def test_pooled_plan_covers_the_pool_fault_family(self):
        plan = ServiceFaultPlan.generate(0, 20, 4, tamperable=(0, 1),
                                         replicas=2)
        kinds = plan.kinds()
        assert ServiceFaultKind.AEX_STORM in kinds
        assert ServiceFaultKind.REPLICA_SUSPEND in kinds
        assert ServiceFaultKind.REPLICA_RESUME in kinds
        # The quarantine ladder: enough tampers to exhaust one
        # replica's restart budget and force a failover.
        tampers = [e for e in plan.events
                   if e.kind is ServiceFaultKind.TENANT_TAMPER]
        assert len(tampers) >= 4

    def test_json_round_trip_is_identity(self):
        plan = ServiceFaultPlan.generate(3, 20, 4, tamperable=(0, 2),
                                         replicas=2)
        clone = from_json(ServiceFaultPlan,
                          json.loads(json.dumps(to_json(plan))), "plan")
        assert clone == plan
        assert clone.canonical() == plan.canonical()

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError,
                           match="not a valid ServiceFaultKind"):
            from_json(ServiceFaultEvent,
                      {"kind": "meteor-strike", "at_tick": 1,
                       "tenant_index": 0}, "event")

    def test_defaults_fill_param_and_duration(self):
        event = from_json(
            ServiceFaultEvent,
            {"kind": "tenant-burst", "at_tick": 4, "tenant_index": 2},
            "event")
        assert event.kind is ServiceFaultKind.TENANT_BURST
        assert (event.param, event.duration) == (0, 0)


# -- pool election ------------------------------------------------------------

class _StubRecord:
    def __init__(self, state=RUNNING):
        self.state = state


class _StubRecovery:
    """Health states only — election never touches anything else."""

    def __init__(self, names):
        self.records = {name: _StubRecord() for name in names}

    def member(self, name):
        return self.records[name]


class TestTenantPool:
    def _pool(self, replicas=3):
        tenant = Tenant(
            TenantSpec(name="t", replicas=replicas), 0, service_seed=0
        )
        names = [tenant.replica_name(r) for r in range(replicas)]
        recovery = _StubRecovery(names)
        return TenantPool("t", names, recovery), recovery

    def test_lowest_healthy_replica_wins(self):
        pool, _ = self._pool()
        assert pool.elect_primary().index == 0
        assert pool.failovers == 0

    def test_failover_counts_once_per_change(self):
        pool, recovery = self._pool()
        recovery.records["t/r0"].state = "corpse"
        assert pool.elect_primary().index == 1
        assert pool.failovers == 1
        assert pool.elect_primary().index == 1   # steady: no recount
        assert pool.failovers == 1

    def test_suspended_replica_is_skipped(self):
        pool, recovery = self._pool()
        recovery.records["t/r0"].state = "corpse"
        pool.replicas[1].suspended = True
        assert pool.elect_primary().index == 2
        assert pool.healthy_count() == 1

    def test_exhausted_pool_elects_none(self):
        pool, recovery = self._pool()
        for record in recovery.records.values():
            record.state = "corpse"
        assert pool.elect_primary() is None
        assert pool.healthy_count() == 0

    def test_fail_back_is_a_counted_failover(self):
        pool, recovery = self._pool()
        recovery.records["t/r0"].state = "corpse"
        pool.elect_primary()
        recovery.records["t/r0"].state = RUNNING
        assert pool.elect_primary().index == 0
        assert pool.failovers == 2


# -- the full service ---------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_result():
    """One shared seeded overload run (module-scoped: the assertions
    below all read different facets of the same run)."""
    return run_service(ServiceConfig(seed=0, ticks=20))


class TestServiceRun:
    def test_zero_invariant_violations(self, smoke_result):
        assert smoke_result.safe, smoke_result.violations

    def test_every_request_reaches_a_terminal_outcome(self, smoke_result):
        counts = smoke_result.outcome_counts
        assert set(counts) == set(OUTCOMES)
        assert sum(counts.values()) > 0
        # Overload actually happened: work was both served and shed.
        assert counts[OUTCOME_COMPLETED] + counts[OUTCOME_DEGRADED] > 0
        assert counts[OUTCOME_SHED] > 0

    def test_structured_aborts_carry_reasons(self, smoke_result):
        assert smoke_result.outcome_counts[OUTCOME_ABORTED] > 0
        assert smoke_result.abort_reasons
        assert all(reason for reason in smoke_result.abort_reasons)

    def test_sheds_carry_structured_reasons(self, smoke_result):
        assert smoke_result.shed_by_reason
        assert (sum(smoke_result.shed_by_reason.values())
                == smoke_result.outcome_counts[OUTCOME_SHED])

    def test_breaker_trips_and_recovers(self, smoke_result):
        assert smoke_result.breaker_trips >= 1
        assert smoke_result.breaker_closes >= 1
        assert smoke_result.recoveries >= 1

    def test_double_run_digest_identical(self, smoke_result):
        again = run_service(ServiceConfig(seed=0, ticks=20))
        assert again.digest == smoke_result.digest

    def test_mixed_policy_run_is_pinned(self, smoke_result):
        # The fleet `serve --smoke` runs mixes all three policies; the
        # pool sweep and BENCH_service.json pin only single-policy
        # fleets, so this is the one pin on the mixed run.
        assert (smoke_result.digest, smoke_result.cycles) == \
            ("e591a98df8a9abfe", 207_697_530)

    def test_different_seed_different_digest(self, smoke_result):
        other = run_service(ServiceConfig(seed=1, ticks=20))
        assert other.digest != smoke_result.digest
        assert other.safe, other.violations

    def test_a_plan_with_no_events_disables_faults(self, smoke_result):
        # The smoke run's generated plan trips a breaker and aborts
        # requests; the same run under an event-free plan does neither.
        quiet = ServiceFaultPlan(seed=0, ticks=20, events=())
        service = EnclaveService(
            ServiceConfig(seed=0, ticks=20, fault_plan=quiet))
        assert service.plan is quiet
        result = service.run()
        assert smoke_result.breaker_trips >= 1
        assert (result.breaker_trips, result.recoveries,
                result.outcome_counts[OUTCOME_ABORTED]) == (0, 0, 0)
        assert service.metrics.aex_interrupts == 0
        assert result.safe, result.violations

    def test_unbootable_smoke_fleet_is_one_error_line(self, capsys):
        # Nine smoke tenants do not fit the smoke fleet's fixed 192-page
        # EPC: the boot fails, and serve says so in one line instead of
        # a traceback.
        from repro.service.cli import run
        assert run(["--smoke", "--tenants", "9"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(
            "repro serve: cannot boot 9 tenants on 192 EPC pages: ")
        assert "all 192 EPC pages are in use" in err


class TestProbesAndDegradation:
    def test_ready_and_health_probes(self):
        service = EnclaveService(ServiceConfig(seed=0, ticks=4))
        assert not service.ready()
        service.boot()
        assert service.ready()
        health = service.health()
        assert health["status"] == "ok"
        assert health["ready"] is True
        assert set(health["tenants"]) == {
            t.replica_name(r)
            for t in service.tenants
            for r in range(t.spec.replicas)
        }
        assert all(
            n >= 1 for n in health["pools"].values()
        ), health["pools"]
        assert all(s == "closed" for s in health["breakers"].values())
        service.shutdown()
        assert not service.ready()
        assert not service.violations

    def test_overload_balloons_before_rejecting(self):
        service = EnclaveService(ServiceConfig(seed=0, ticks=20))
        result = service.run()
        assert result.safe, result.violations
        # Tier-1 ballooning ran (shrink before shed)...
        metrics = service.metrics
        assert metrics.balloon_reclaimed_pages > 0
        assert metrics.peak_epc_pressure_milli >= 800
        # ... and pinned tenants were never shrunk or evicted.
        for tenant in service.tenants:
            if tenant.spec.pinned:
                assert tenant.shrunk_pages == 0

    def test_queue_is_bounded(self):
        config = ServiceConfig(seed=0, ticks=20, queue_capacity=4)
        service = EnclaveService(config)
        result = service.run()
        assert result.safe, result.violations
        assert service.metrics.peak_queue_depth <= 4
        assert service.metrics.shed_by_reason.get("queue-full", 0) > 0


# -- SLO-driven admission -----------------------------------------------------

class TestSloAdmission:
    def test_slo_violator_sheds_its_own_arrivals(self):
        # A p95 target of 40k cycles is unmeetable (one tick of queue
        # wait alone is 400k): once the window warms up, every new
        # arrival of this tenant sheds with the structured SLO reason.
        spec = TenantSpec(
            name="hog", policy="rate_limit", arrivals_per_tick=3,
            slo_p95_cycles=40_000, slo_min_samples=4,
        )
        result = run_service(ServiceConfig(seed=0, tenants=[spec],
                                           ticks=12))
        assert result.safe, result.violations
        assert result.shed_by_reason.get(SLO_PRESSURE, 0) > 0
        served = (result.outcome_counts[OUTCOME_COMPLETED]
                  + result.outcome_counts[OUTCOME_DEGRADED])
        assert served >= spec.slo_min_samples

    def test_cold_window_cannot_fire(self):
        # Identical run, but the sample floor exceeds what the run can
        # collect: the default generous SLO machinery must stay quiet.
        spec = TenantSpec(
            name="hog", policy="rate_limit", arrivals_per_tick=3,
            slo_p95_cycles=40_000, slo_min_samples=10_000,
        )
        result = run_service(ServiceConfig(seed=0, tenants=[spec],
                                           ticks=12))
        assert result.safe, result.violations
        assert result.shed_by_reason.get(SLO_PRESSURE, 0) == 0


# -- live churn: arrivals and drain-before-retire -----------------------------

class TestLiveChurn:
    def test_departure_drains_before_retiring(self):
        import dataclasses
        specs = default_tenants(4)
        # Boost the departing tenant's offered load so its backlog at
        # the departure tick provably exceeds the drain budget.
        specs[1] = dataclasses.replace(specs[1], arrivals_per_tick=6)
        config = ServiceConfig(
            seed=0, tenants=specs, ticks=16,
            departures=((10, "tenant-1"),), drain_budget=1,
        )
        service = EnclaveService(config)
        result = service.run()
        # `safe` covers the whole drain contract: every submitted
        # request terminal, the queue empty, EPC parity at teardown.
        assert result.safe, result.violations
        assert service.metrics.departures == 1
        retired = next(t for t in service.tenants
                       if t.spec.name == "tenant-1")
        assert retired.departed
        assert not retired.breaker.probe_in_flight
        # The backlog beyond the drain budget shed structurally.
        assert result.shed_by_reason.get(TENANT_RETIRED, 0) >= 1
        assert "tenant-1" not in service.health()["pools"]

    def test_departure_digest_is_reproducible(self):
        config = ServiceConfig(
            seed=0, tenants=default_tenants(4), ticks=16,
            departures=((10, "tenant-1"),), drain_budget=1,
        )
        again = ServiceConfig(
            seed=0, tenants=default_tenants(4), ticks=16,
            departures=((10, "tenant-1"),), drain_budget=1,
        )
        assert run_service(config).digest == run_service(again).digest

    def test_arrival_boots_and_serves_mid_run(self):
        config = ServiceConfig(
            seed=0, tenants=default_tenants(2), ticks=16,
            arrivals=((4, TenantSpec(name="late", policy="rate_limit",
                                     distribution="uniform")),),
        )
        service = EnclaveService(config)
        result = service.run()
        assert result.safe, result.violations
        assert service.metrics.arrivals == 1
        late = next(t for t in service.tenants
                    if t.spec.name == "late")
        assert late.ops_executed > 0

    def test_arrival_that_cannot_fit_is_refused_structurally(self):
        # A pin_all whale must pin ~48 frames to seal; the EPC holds
        # 48 total and the resident tenant's pins never move.  The
        # boot must be refused whole — the partial enclave reclaimed
        # (no EPC leak), the counter bumped — never crash the run.
        config = ServiceConfig(
            seed=0,
            tenants=[TenantSpec(name="only", policy="rate_limit",
                                quota_pages=32)],
            epc_pages=48, ticks=10,
            arrivals=((3, TenantSpec(name="whale", policy="pin_all",
                                     quota_pages=56)),),
        )
        service = EnclaveService(config)
        result = service.run()
        assert result.safe, result.violations
        assert service.metrics.arrival_refusals == 1
        assert service.metrics.arrivals == 0
        whale = next(t for t in service.tenants
                     if t.spec.name == "whale")
        assert whale.departed          # refused tenants never serve
        assert any(event[1] == "arrive-refused"
                   for event in service.skipped_events)


# -- tampering with SGX2 paging ------------------------------------------------

class TestSgx2Tamper:
    def test_tampers_abort_with_integrity(self):
        # SGX2 paging seals a tenant's pages into a store its runtime
        # owns, not the kernel's: the host's forgeries must land there
        # and the probing requests fail stop.
        plan = ServiceFaultPlan(seed=0, ticks=12, events=tuple(
            ServiceFaultEvent(ServiceFaultKind.TENANT_TAMPER, tick, 0)
            for tick in (4, 6, 8, 10)))
        service = EnclaveService(ServiceConfig(
            seed=0, ticks=12, fault_plan=plan,
            tenants=[TenantSpec(name="sgx2", policy="rate_limit_sgx2",
                                quota_pages=48)]))
        result = service.run()
        assert result.safe, result.violations
        assert not service.skipped_events
        # The first two aborts trip the breaker, which sheds the rest
        # of the run, so the last two forgeries are never probed.
        assert result.abort_reasons == {"integrity": 2}
        assert result.shed_by_reason == {"breaker-open": 10}


# -- pooled fleets: failover under the pool fault family ----------------------

def _pooled_config():
    """The acceptance scenario: a mixed 4-tenant fleet, two replicas
    each, over an EPC tight enough that the generated seed-0 plan's
    tamper ladder actually lands (the primary swaps, gets forged,
    exhausts its restart budget, and the pool must fail over)."""
    return ServiceConfig(seed=0, tenants=default_tenants(4, replicas=2),
                         epc_pages=320, ticks=20)


@pytest.fixture(scope="module")
def pooled_run():
    """One seeded pool-failover run under the generated tamper-ladder /
    AEX-storm / suspend-resume plan."""
    service = EnclaveService(_pooled_config())
    result = service.run()
    return service, result


class TestPooledFailover:
    def test_run_is_safe(self, pooled_run):
        _, result = pooled_run
        assert result.safe, result.violations

    def test_quarantined_primary_fails_over(self, pooled_run):
        _, result = pooled_run
        assert result.quarantines >= 1
        assert result.failovers >= 1
        assert result.recoveries >= 1

    def test_shutdown_leaves_no_enclave_in_the_kernel(self, pooled_run):
        # Every incarnation, recovered and quarantined ones included,
        # was reclaimed and left the kernel's enclave table.
        service, result = pooled_run
        assert result.recoveries >= 1
        assert service.kernel.instr.enclaves == {}
        assert epc_parity(service.kernel) == []

    def test_pool_faults_actually_landed(self, pooled_run):
        service, _ = pooled_run
        assert service.metrics.aex_interrupts > 0
        assert service.metrics.replica_suspends >= 1
        assert service.metrics.replica_resumes >= 1

    def test_every_tenant_kept_serving(self, pooled_run):
        service, result = pooled_run
        assert all(t.ops_executed > 0 for t in service.tenants)
        assert result.outcome_counts[OUTCOME_COMPLETED] > 0

    def test_pooled_digest_reruns_identically(self, pooled_run):
        _, result = pooled_run
        again = run_service(_pooled_config())
        assert again.digest == result.digest


class TestFrozenWitness:
    def test_pool_failover_witness_replays_green(self, capsys):
        from repro.service.cli import run
        fixture = (Path(__file__).parent / "fixtures" / "chaos"
                   / "service_pool_failover_witness.json")
        assert run(["--plan", str(fixture), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["checks"]["digest_equal"]
        assert report["failovers"] >= 1
        assert report["quarantines"] >= 1

    @pytest.mark.parametrize("name, text", [
        ("missing.json", None),
        ("not-json.json", "not json"),
        ("unknown-kind.json", json.dumps({"seed": 0, "ticks": 10, "events": [
            {"kind": "nope", "at_tick": 1, "tenant_index": 0}]})),
        ("late-storm.json", json.dumps({"seed": 0, "ticks": 10, "events": [
            {"kind": "aex-storm", "at_tick": 50, "tenant_index": 0,
             "param": 4}]})),
        # The committed witness with one key misspelt: each replayed
        # as "verdict: OK", the floor or the tenant's policy skipped.
        pytest.param(
            "min-failover.json",
            misspelt(WITNESS, (), "expected_outcome", {"min_failover": 99}),
            id="min-failover.json"),
        pytest.param(
            "expected-outcomes.json",
            misspelt(WITNESS, (), "expected_outcomes",
                     {"min_completed": 10 ** 9}, drop="expected_outcome"),
            id="expected-outcomes.json"),
        pytest.param(
            "polciy.json",
            misspelt(WITNESS, ("config", "tenants", 0), "polciy", "pin_all",
                     drop="policy"),
            id="polciy.json"),
        # A floor that is not a number can never be checked.
        pytest.param(
            "floor-not-a-number.json",
            misspelt(WITNESS, ("expected_outcome",), "min_failovers", "many"),
            id="floor-not-a-number.json"),
        # A tenant policy no fleet can boot, an outcome class no run
        # can end in, and an event aimed at a tenant the fleet lacks.
        pytest.param(
            "unknown-policy.json",
            misspelt(WITNESS, ("config", "tenants", 0), "policy", "nope"),
            id="unknown-policy.json"),
        pytest.param(
            "unknown-outcome-class.json",
            misspelt(WITNESS, ("expected_outcome",), "outcome_class",
                     "bogus"),
            id="unknown-outcome-class.json"),
        pytest.param(
            "no-such-tenant.json",
            misspelt(WITNESS, ("plan", "events", 0), "tenant_index", 7),
            id="no-such-tenant.json"),
    ])
    def test_unusable_plan_is_one_error_line(self, tmp_path, capsys,
                                              name, text):
        # A plan the service cannot read, with a key it does not know,
        # or with an event its clock can never reach (tick 50 of a
        # 10-tick run), is refused up front instead of tracing back or
        # replaying as "OK".
        from repro.service.cli import run
        plan = tmp_path / name
        if text is not None:
            plan.write_text(text)
        assert run(["--plan", str(plan)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("repro serve: cannot replay")

    def test_unbootable_plan_is_one_error_line(self, tmp_path, capsys):
        # The committed witness on an EPC its fleet does not fit: the
        # boot fails before either replay runs.
        from repro.service.cli import run
        plan = tmp_path / "small-epc.json"
        plan.write_text(misspelt(WITNESS, ("config",), "epc_pages", 96))
        assert run(["--plan", str(plan)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"repro serve: cannot boot {plan}: ")
        assert "all 96 EPC pages are in use" in err

    def test_service_rejects_events_past_its_last_tick(self):
        plan = ServiceFaultPlan(seed=0, ticks=10, events=(
            ServiceFaultEvent(ServiceFaultKind.AEX_STORM, 10, 0, param=4),))
        with pytest.raises(ValueError, match="at_tick"):
            EnclaveService(ServiceConfig(seed=0, ticks=10,
                                         fault_plan=plan))

    def test_service_rejects_events_for_no_tenant(self):
        # Tenant 2 of a two-tenant fleet exists only once one arrives
        # mid-run.
        plan = ServiceFaultPlan(seed=0, ticks=10, events=(
            ServiceFaultEvent(ServiceFaultKind.TENANT_BURST, 6, 2,
                              param=3, duration=2),))
        config = ServiceConfig(seed=0, tenants=default_tenants(2),
                               ticks=10, fault_plan=plan)
        with pytest.raises(ValueError, match="tenant_index"):
            EnclaveService(config)
        config.arrivals = ((4, TenantSpec(name="late")),)
        service = EnclaveService(config)
        result = service.run()
        assert result.safe, result.violations
        assert service.metrics.arrivals == 1
        assert not service.skipped_events


class TestPoolSweep:
    def test_pool_frontier_jobs_parity_and_shape(self):
        serial = run_pool_sweep((0,), policies=("rate_limit",),
                                check_determinism=False, jobs=1)
        fanned = run_pool_sweep((0,), policies=("rate_limit",),
                                check_determinism=False, jobs=2)
        assert serial.ok, serial.violations
        assert ([r.digest for *_, r in serial.points]
                == [r.digest for *_, r in fanned.points])
        report = pool_report(serial, (0,), ("rate_limit",), jobs=1)
        decoded = json.loads(json.dumps(report, sort_keys=True))
        assert decoded["ok"] is True
        assert decoded["replicas"] == POOL_REPLICAS
        row = decoded["frontier"]["rate_limit"]
        assert isinstance(row["mean_throughput_milli_per_mcycle"], int)
        assert isinstance(row["mean_fairness_milli"], int)
        assert row["failovers"] >= 1


# -- cross-tenant EPC contention sweep ---------------------------------------

@pytest.fixture(scope="module")
def contention_sweep():
    """All three paper policies over-committing one EPC, serial."""
    return run_sweep((0,), SWEEP_POLICIES, check_determinism=True,
                     jobs=1)


class TestContentionSweep:
    def test_sweep_is_safe(self, contention_sweep):
        assert contention_sweep.ok, (
            contention_sweep.violations
            or contention_sweep.determinism_failures
        )

    def test_every_point_in_the_four_way_invariant(self, contention_sweep):
        legal = {RUN_COMPLETED, RUN_DEGRADED, RUN_SHED, RUN_ABORTED}
        assert len(contention_sweep.points) == len(SWEEP_POLICIES)
        for _, _, result in contention_sweep.points:
            assert classify(result) in legal
            assert result.safe, result.violations

    def test_overcommit_forces_shedding_somewhere(self, contention_sweep):
        classes = contention_sweep.class_counts()
        assert classes.get(RUN_SHED, 0) + classes.get(RUN_ABORTED, 0) > 0

    def test_jobs_parity_bit_identical(self, contention_sweep):
        fanned = run_sweep((0,), SWEEP_POLICIES,
                           check_determinism=False, jobs=2)
        assert (
            [r.digest for _, _, r in fanned.points]
            == [r.digest for _, _, r in contention_sweep.points]
        )

    def test_report_is_json_shaped(self, contention_sweep):
        import json
        report = sweep_report(contention_sweep, (0,), SWEEP_POLICIES,
                              jobs=1)
        encoded = json.dumps(report, sort_keys=True)
        assert json.loads(encoded)["ok"] is True

    def test_a_rerun_that_differs_fails_the_sweep(self, rerun_differs):
        import repro.service.sweep as sweep_module
        rerun_differs(sweep_module, "run_service")
        sweep = run_sweep((0,), ("rate_limit",))
        [(*_, result)] = sweep.points
        assert sweep.determinism_failures == [
            (0, "rate_limit", result.digest, "0" * 16)]
        assert not sweep.ok

    def test_cli_reports_a_rerun_that_differs(self, rerun_differs,
                                              tmp_path, capsys):
        import repro.service.sweep as sweep_module
        from repro.service.cli import run
        rerun_differs(sweep_module, "run_service")
        argv = ["--sweep", "--seeds", "1",
                "--output", str(tmp_path / "out.json")]
        assert run(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("DETERMINISM FAILURES:")
        failures = lines[at + 1:at + 1 + len(SWEEP_POLICIES)]
        assert [line.split(":")[0] for line in failures] == [
            f"  seed=0 policy={policy}" for policy in SWEEP_POLICIES]
        assert all(line.endswith(" != " + "0" * 16) for line in failures)
        assert lines[-1] == "verdict: FAIL"
        assert run(argv + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["determinism_failures"] == [
            {"seed": 0, "policy": point["policy"],
             "digests": [point["digest"], "0" * 16]}
            for point in payload["points"]]
        assert payload["ok"] is False

    def test_classify_priority(self):
        class Fake:
            def __init__(self, **counts):
                base = {o: 0 for o in OUTCOMES}
                base.update(counts)
                self.outcome_counts = base
        assert classify(Fake()) == RUN_COMPLETED
        assert classify(Fake(**{OUTCOME_DEGRADED: 1})) == RUN_DEGRADED
        assert classify(Fake(**{OUTCOME_DEGRADED: 1,
                                OUTCOME_SHED: 1})) == RUN_SHED
        assert classify(Fake(**{OUTCOME_SHED: 1,
                                OUTCOME_ABORTED: 1})) == RUN_ABORTED


# -- the sweep's --baseline gate ----------------------------------------------

COMMITTED_SWEEP = Path(__file__).parent.parent / "BENCH_service.json"


def committed_sweep():
    return json.loads(COMMITTED_SWEEP.read_text())


class TestPointsMatchTheBaseline:
    """Every field of every seed-0 point, not only its digest, is the
    one committed in BENCH_service.json."""

    def test_contention_points(self, contention_sweep):
        report = sweep_report(contention_sweep, (0,), SWEEP_POLICIES,
                              jobs=1)
        committed = [p for p in committed_sweep()["points"]
                     if p["seed"] == 0]
        assert json.loads(json.dumps(report))["points"] == committed

    def test_pool_frontier_points(self):
        sweep = run_pool_sweep((0,), SWEEP_POLICIES,
                               check_determinism=False)
        report = pool_report(sweep, (0,), SWEEP_POLICIES, jobs=1)
        committed = [p for p in committed_sweep()["pool_frontier"]["points"]
                     if p["seed"] == 0]
        assert json.loads(json.dumps(report))["points"] == committed


class TestBaselineGate:
    def test_tampered_digests_are_reported_point_by_point(self):
        from repro.service.cli import _baseline_gate
        report = committed_sweep()
        tampered = committed_sweep()
        point = tampered["points"][4]
        pool_point = tampered["pool_frontier"]["points"][7]
        fresh, pool_fresh = point["digest"], pool_point["digest"]
        point["digest"] = "0" * 16
        pool_point["digest"] = "f" * 16
        assert _baseline_gate(report, committed_sweep()) == []
        assert _baseline_gate(report, tampered) == [
            f"contention point seed={point['seed']} "
            f"policy={point['policy']}: {fresh} != baseline {'0' * 16}",
            f"pool_frontier point seed={pool_point['seed']} "
            f"policy={pool_point['policy']}: {pool_fresh} != baseline "
            f"{'f' * 16}",
        ]
        del report["pool_frontier"]
        assert _baseline_gate(report, committed_sweep()) == [
            "pool_frontier: baseline has points, run has none"]

    def test_sweep_fails_on_a_tampered_baseline(self, contention_sweep,
                                                tmp_path, monkeypatch,
                                                capsys):
        from repro.service import cli
        monkeypatch.setattr(cli, "run_sweep",
                            lambda *args, **kwargs: contention_sweep)
        baseline = committed_sweep()
        del baseline["pool_frontier"]
        point = baseline["points"][1]
        fresh = point["digest"]
        point["digest"] = "0" * 16
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        assert cli.run(["--sweep", "--seeds", "1", "--baseline", str(path),
                        "--output", str(tmp_path / "out.json")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "BASELINE" in line] == [
            f"BASELINE MISMATCH: contention point seed=0 "
            f"policy={point['policy']}: {fresh} != baseline {'0' * 16}"]
        assert lines[-1] == "verdict: FAIL"

    @pytest.mark.parametrize("name, text", [
        ("missing.json", None),
        ("not-json.json", "not json"),
        # A bench trajectory (BENCH_simwall.json) pins no sweep point.
        ("trajectory.json", json.dumps({"schema": 2, "entries": [
            {"slices": [{"name": "fig6_uthash", "speedup": 9.0,
                         "fingerprint": {"cycles": 1}}]}]})),
    ], ids=["missing", "not-json", "trajectory"])
    def test_unusable_baseline_is_one_error_line(self, tmp_path,
                                                 monkeypatch, capsys,
                                                 name, text):
        # A baseline the gate cannot read, or that pins no point, is
        # refused before any sweep point runs, instead of passing a
        # gate that compared nothing.
        from repro.service import cli

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep point ran before the refusal")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        monkeypatch.setattr(cli, "run_pool_sweep", refuse)
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        output = tmp_path / "out.json"
        assert cli.run(["--sweep", "--pool", "--seeds", "1",
                        "--baseline", str(path),
                        "--output", str(output)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"repro serve: cannot gate against {path}")
        assert not output.exists()


# -- the recovery supervisor's public counters (stats) ------------------------

def _member_program(name="member", epc_pages=256):
    from repro.core.config import small_config
    from repro.core.system import EnclaveProgram

    return EnclaveProgram(
        config=small_config("rate_limit", epc_pages, 64),
        name=name,
    )


class _CrashyProgram:
    """Launches fine once, then every relaunch dies — drives the
    supervisor through its whole restart budget into quarantine."""

    def __init__(self, inner):
        self.inner = inner
        self.launches = 0

    def launch(self, kernel):
        self.launches += 1
        if self.launches > 1:
            raise EnclaveCrashed("child died at relaunch")
        return self.inner.launch(kernel)


class TestSupervisorStats:
    def test_stats_counts_a_successful_recovery(self):
        kernel = HostKernel(epc_pages=256)
        supervisor = RecoverySupervisor(kernel)
        supervisor.launch("member", _member_program())
        stats0 = supervisor.stats()
        assert stats0["recoveries"] == 0
        assert stats0["quarantines"] == 0
        assert stats0["running"] == 1 and stats0["fleet"] == 1
        supervisor.mark_down("member", "induced crash")
        assert supervisor.stats()["down"] == 1
        supervisor.recover("member")
        stats = supervisor.stats()
        assert stats["recoveries"] == 1
        assert stats["restarts"] == 1
        assert stats["backoff_cycles"] > 0
        assert stats["running"] == 1 and stats["down"] == 0

    def test_stats_counts_quarantine_without_private_fields(self):
        kernel = HostKernel(epc_pages=256)
        supervisor = RecoverySupervisor(kernel)
        supervisor.launch("victim", _CrashyProgram(_member_program()))
        supervisor.mark_down("victim", "induced crash")
        with pytest.raises(Quarantined):
            supervisor.recover("victim")
        stats = supervisor.stats()
        assert stats["quarantines"] == 1
        assert stats["recoveries"] == 0
        assert stats["running"] == 0 and stats["down"] == 0
        assert stats["restarts"] >= 1
        assert stats["backoff_cycles"] > 0

    def test_stats_survive_teardown(self):
        kernel = HostKernel(epc_pages=256)
        supervisor = RecoverySupervisor(kernel)
        supervisor.launch("victim", _CrashyProgram(_member_program()))
        supervisor.mark_down("victim", "induced crash")
        with pytest.raises(Quarantined):
            supervisor.recover("victim")
        restarts_live = supervisor.stats()["restarts"]
        supervisor.teardown("victim")
        stats = supervisor.stats()
        assert stats["restarts"] == restarts_live   # retired, not lost
        assert stats["fleet"] == 0

    def test_teardown_is_idempotent(self):
        kernel = HostKernel(epc_pages=256)
        supervisor = RecoverySupervisor(kernel)
        supervisor.launch("member", _member_program())
        first = supervisor.teardown("member")
        assert first is not None
        assert supervisor.teardown("member") is None
        assert supervisor.teardown("never-launched") is None
        assert kernel.epc.free_pages == kernel.epc.total_pages

    def test_preflight_refuses_relaunch_without_headroom(self):
        """The EPC-pressure pre-flight: a relaunch that cannot even pin
        its runtime is refused whole instead of stranding frames."""
        kernel = HostKernel(epc_pages=64)
        supervisor = RecoverySupervisor(kernel)
        record = supervisor.launch(
            "squeezed", _member_program("squeezed", epc_pages=64)
        )
        supervisor.mark_down("squeezed", "induced")
        # Pretend the corpse is unreachable, then hog the EPC so the
        # relaunch pre-flight (1 TCS + runtime + margin) cannot fit.
        record.runtime = None
        hog = kernel.epc
        taken = [hog.alloc() for _ in range(hog.free_pages - 3)]
        with pytest.raises(Quarantined) as exc_info:
            supervisor.recover("squeezed")
        assert isinstance(exc_info.value.__cause__, EpcExhausted)
        for frame in taken:
            hog.free(frame)
