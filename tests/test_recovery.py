"""Crash-consistent checkpoint/restore and supervised recovery tests.

The core property is exhaustive, not sampled: for every policy, a
reference run records its witness fingerprint after *every* journal
record, and a separate run is crashed at each of those positions and
restored — the restored canonical state must be bit-identical to the
witness at the same position, for every position.  On top of that:
torn/corrupt journal tails land on the last completed operation, stale
checkpoint sets are rejected as rollback (``IntegrityAbort``), the
supervisor's restart loop is bounded with charged backoff and ends in
quarantine, and teardown leaves zero EPC frames behind.
"""

import dataclasses

import pytest

from repro.clock import Category
from repro.core.invariants import epc_parity
from repro.errors import (
    AttackDetected,
    EnclaveCrashed,
    IntegrityAbort,
    IntegrityError,
    Quarantined,
    SgxError,
)
from repro.host.backing import BackingStore
from repro.host.kernel import HostKernel
from repro.recovery import (
    Journal,
    MonotonicCounter,
    RecoverySupervisor,
    RestartPolicy,
    fingerprint,
    validated_records,
)
from repro.recovery.cli import EPC_PAGES, make_program
from repro.runtime.backoff import RetryPolicy
from repro.runtime.rate_limit import ProgressKind
from repro.sgx.crypto import StateSealer

POLICIES = ("pin_all", "clusters", "rate_limit", "oram")

#: Short but policy-exercising workload (faults, progress, balloon).
OPS = 36


def _drive(runtime, engine, ops, start=0):
    heap = runtime.regions["heap"]
    for i in range(start, start + ops):
        engine.data_access(heap.page((i * 7) % heap.npages),
                           write=bool(i % 3))
        if i % 11 == 5:
            runtime.progress(ProgressKind.IO)
        if i % 23 == 17:
            runtime.kernel.request_memory_reduction(runtime.enclave, 4)


def _reference_trace(program, ops=OPS):
    supervisor = RecoverySupervisor(HostKernel(epc_pages=EPC_PAGES),
                                    keep_trace=True)
    record = supervisor.launch("ref", program)
    _drive(record.runtime, program.engine(record.runtime), ops)
    supervisor.shutdown()
    return record.manager.trace


def _crashed_supervisor(program, crash_after, ops=OPS, name="victim",
                        **kwargs):
    """Launch, crash at journal position ``crash_after``, mark down."""
    supervisor = RecoverySupervisor(HostKernel(epc_pages=EPC_PAGES),
                                    **kwargs)
    record = supervisor.launch(name, program)
    record.manager.crash_after = crash_after
    with pytest.raises(EnclaveCrashed) as exc:
        _drive(record.runtime, program.engine(record.runtime), ops)
    supervisor.mark_down(name, exc.value)
    return supervisor, record


# -- the sealing primitives ---------------------------------------------------

class TestStateSealer:
    def test_seal_verify_roundtrip(self):
        sealer = StateSealer(1234)
        blob = sealer.seal("checkpoint", 0, (1, 2, "three"))
        assert sealer.verify(blob) == (1, 2, "three")

    def test_identical_measurement_shares_the_key(self):
        # MRENCLAVE sealing policy: a bit-identical relaunch must be
        # able to open what the crashed incarnation sealed.
        blob = StateSealer(1234).seal("checkpoint", 0, ("x",))
        assert StateSealer(1234).verify(blob) == ("x",)
        with pytest.raises(IntegrityError):
            StateSealer(5678).verify(blob)

    @pytest.mark.parametrize("field,value", [
        ("payload", ("evil",)),
        ("kind", "journal"),
        ("seq", 7),
        ("prev_mac", "severed"),
    ])
    def test_any_field_change_breaks_the_mac(self, field, value):
        sealer = StateSealer(1234)
        blob = sealer.seal("checkpoint", 0, ("x",))
        forged = dataclasses.replace(blob, **{field: value})
        with pytest.raises(IntegrityError):
            sealer.verify(forged)

    def test_chain_check(self):
        sealer = StateSealer(1234)
        first = sealer.seal("journal", 0, ("a",))
        second = sealer.seal("journal", 1, ("b",), prev_mac=first.mac)
        assert sealer.verify(second, expected_prev=first.mac) == ("b",)
        with pytest.raises(IntegrityError):
            sealer.verify(second, expected_prev=StateSealer.GENESIS)


class TestJournal:
    def _journal(self, n=5):
        sealer = StateSealer(99)
        journal = Journal()
        for i in range(n):
            journal.append(sealer.seal(
                "progress", i, (i,), prev_mac=journal.tail_mac()
            ))
        return sealer, journal

    def test_validated_roundtrip(self):
        sealer, journal = self._journal()
        records = validated_records(journal, sealer)
        assert [b.payload for b in records] == [(i,) for i in range(5)]

    def test_torn_tail_forgiven(self):
        sealer, journal = self._journal()
        journal.corrupt_tail()
        records = validated_records(journal, sealer)
        assert len(records) == 4

    def test_truncated_tail_is_just_shorter(self):
        sealer, journal = self._journal()
        journal.truncate_tail()
        assert len(validated_records(journal, sealer)) == 4

    def test_mid_chain_corruption_is_tampering(self):
        sealer, journal = self._journal()
        journal.records[2] = dataclasses.replace(
            journal.records[2], payload=("forged",)
        )
        with pytest.raises(IntegrityError):
            validated_records(journal, sealer)

    def test_spliced_record_rejected(self):
        # A record re-sealed at the wrong position: valid MAC, wrong
        # place in the chain.
        sealer, journal = self._journal()
        journal.records[1], journal.records[2] = (
            journal.records[2], journal.records[1]
        )
        with pytest.raises(IntegrityError):
            validated_records(journal, sealer)


# -- the exhaustive crash sweep ----------------------------------------------

class TestCrashSweep:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_crash_point_restores_bit_identically(self, policy):
        program = make_program(policy)
        trace = _reference_trace(program)
        assert len(trace) > 10, "workload too small to mean anything"
        for k in range(1, len(trace)):
            supervisor, _record = _crashed_supervisor(program, k)
            runtime = supervisor.recover("victim")
            assert fingerprint(runtime) == trace[k], (
                f"{policy}: restored state diverged at crash point {k}"
            )
            supervisor.shutdown()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_crash_before_any_record_restores_bootstrap(self, policy):
        # k = 0: the enclave dies right after the base checkpoint.
        program = make_program(policy)
        trace = _reference_trace(program)
        supervisor = RecoverySupervisor(HostKernel(epc_pages=EPC_PAGES))
        record = supervisor.launch("victim", program)
        with pytest.raises(EnclaveCrashed) as exc:
            record.manager.crash()
        supervisor.mark_down("victim", exc.value)
        runtime = supervisor.recover("victim")
        assert fingerprint(runtime) == trace[0]
        supervisor.shutdown()

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("tear", ["truncate", "corrupt"])
    def test_torn_tail_lands_on_last_completed_op(self, policy, tear):
        program = make_program(policy)
        trace = _reference_trace(program)
        for k in (1, len(trace) // 2, len(trace) - 1):
            supervisor, record = _crashed_supervisor(program, k)
            if tear == "truncate":
                record.manager.journal.truncate_tail()
            else:
                record.manager.journal.corrupt_tail()
            runtime = supervisor.recover("victim")
            assert fingerprint(runtime) == trace[k - 1]
            supervisor.shutdown()

    def test_recovered_enclave_keeps_working(self):
        program = make_program("rate_limit")
        supervisor, record = _crashed_supervisor(program, 12)
        runtime = supervisor.recover("victim")
        journal_len = len(record.manager.journal)
        _drive(runtime, program.engine(runtime), 8, start=OPS)
        assert len(record.manager.journal) > journal_len
        assert record.manager.records_written > journal_len
        supervisor.shutdown()


# -- freshness / rollback -----------------------------------------------------

class TestRollbackRejection:
    def test_stale_checkpoint_set_is_rejected(self):
        program = make_program("rate_limit")
        supervisor, record = _crashed_supervisor(
            program, 24, auto_checkpoint_every=8
        )
        assert len(record.manager.checkpoints) > 1
        record.manager.checkpoints.rollback_to(0)
        with pytest.raises(IntegrityAbort):
            supervisor.recover("victim")

    def test_rollback_is_not_retried(self):
        # Tamper evidence must surface immediately, not be laundered
        # through the restart budget.
        program = make_program("rate_limit")
        supervisor, record = _crashed_supervisor(
            program, 24, auto_checkpoint_every=8
        )
        record.manager.checkpoints.rollback_to(0)
        with pytest.raises(IntegrityAbort):
            supervisor.recover("victim")
        assert record.restarts == 1

    def test_forged_checkpoint_is_rejected(self):
        program = make_program("rate_limit")
        supervisor, record = _crashed_supervisor(program, 12)
        store = record.manager.checkpoints
        store.blobs[0] = dataclasses.replace(
            store.blobs[0], payload=(1, 0, "forged-fingerprint")
        )
        with pytest.raises(IntegrityAbort):
            supervisor.recover("victim")

    def test_journal_truncated_under_checkpoint_rejected(self):
        # The host drops journal records a sealed checkpoint anchors:
        # freshness says the checkpoint is current, so the journal is
        # the thing that was rolled back.
        program = make_program("rate_limit")
        supervisor, record = _crashed_supervisor(
            program, 24, auto_checkpoint_every=8
        )
        del record.manager.journal.records[4:]
        with pytest.raises(IntegrityAbort):
            supervisor.recover("victim")

    def test_counter_monotonicity(self):
        counter = MonotonicCounter()
        assert counter.read() == 0
        assert counter.bump() == 1
        assert counter.bump() == 2
        assert counter.read() == 2


# -- the supervisor -----------------------------------------------------------

class _Unlaunchable:
    """A program whose relaunch the host keeps killing."""

    def __init__(self):
        self.attempts = 0

    def launch(self, kernel):
        self.attempts += 1
        raise EnclaveCrashed("host killed the relaunch")


class _DiesInWarmup:
    """A program whose launch builds its enclave, then dies."""

    def __init__(self, program):
        self.program = program

    def launch(self, kernel):
        self.program.launch(kernel)
        raise EnclaveCrashed("host killed the enclave during warm-up")


class _SwappedOnRelaunch:
    """A program whose every relaunch presents a different binary."""

    def __init__(self, program):
        self.program = program
        self.launches = 0

    def launch(self, kernel):
        self.launches += 1
        runtime = self.program.launch(kernel)
        if self.launches > 1:
            runtime.enclave.measurement.extend("EVIL", 0xBAD)
        return runtime


def _legacy_program():
    """A launch without the self-paging attribute (``baseline``), and
    without the warm-up, which only a self-paging enclave can run."""
    program = make_program("pin_all")
    cfg = program.config
    legacy = dataclasses.replace(
        cfg, policy=dataclasses.replace(cfg.policy, name="baseline"))
    return dataclasses.replace(program, config=legacy, warmup=None)


class TestSupervisor:
    def test_backoff_cycles_are_charged(self):
        program = make_program("rate_limit")
        supervisor, _record = _crashed_supervisor(program, 12)
        kernel = supervisor.kernel
        before = kernel.clock.by_category.get(Category.BACKOFF, 0)
        supervisor.recover("victim")
        assert kernel.clock.by_category.get(Category.BACKOFF, 0) > before
        recovery = kernel.clock.by_category.get(Category.RECOVERY, 0)
        assert recovery > 0  # journal appends + checkpoint + replay

    def test_hostile_relaunch_ends_in_quarantine(self):
        program = make_program("rate_limit")
        supervisor, record = _crashed_supervisor(program, 12)
        hostile = _Unlaunchable()
        record.program = hostile
        with pytest.raises(Quarantined):
            supervisor.recover("victim")
        assert record.state == "quarantined"
        assert record.restarts == supervisor.restart_policy.max_restarts
        assert hostile.attempts == supervisor.restart_policy.max_restarts

    def test_quarantined_member_refuses_recovery(self):
        program = make_program("rate_limit")
        supervisor, record = _crashed_supervisor(program, 12)
        record.program = _Unlaunchable()
        with pytest.raises(Quarantined):
            supervisor.recover("victim")
        with pytest.raises(Quarantined):
            supervisor.recover("victim")
        assert record.restarts == supervisor.restart_policy.max_restarts

    def test_relaunch_with_another_measurement_is_never_adopted(self):
        kernel = HostKernel(epc_pages=EPC_PAGES)
        free0 = kernel.epc.free_pages
        supervisor = RecoverySupervisor(kernel)
        program = _SwappedOnRelaunch(make_program("rate_limit"))
        record = supervisor.launch("victim", program)
        supervisor.mark_down("victim", EnclaveCrashed("host killed it"))
        with pytest.raises(Quarantined):
            supervisor.recover("victim")
        assert record.restarts == supervisor.restart_policy.max_restarts == 3
        assert program.launches == 1 + supervisor.restart_policy.max_restarts
        assert sum("wrong measurement" in failure
                   for failure in record.failures) == 3
        assert record.runtime is None
        assert kernel.instr.enclaves == {}
        assert kernel.epc.free_pages == free0

    def test_restart_budget_is_configurable(self):
        program = make_program("rate_limit")
        policy = RestartPolicy(
            max_restarts=1,
            backoff=RetryPolicy(max_attempts=2, base_cycles=1_000),
        )
        supervisor = RecoverySupervisor(HostKernel(epc_pages=EPC_PAGES),
                                        restart_policy=policy)
        record = supervisor.launch("victim", program)
        record.manager.crash_after = 8
        with pytest.raises(EnclaveCrashed) as exc:
            _drive(record.runtime, program.engine(record.runtime), OPS)
        supervisor.mark_down("victim", exc.value)
        record.program = _Unlaunchable()
        with pytest.raises(Quarantined):
            supervisor.recover("victim")
        assert record.restarts == 1

    def test_fleet_of_enclaves_recovers_independently(self):
        kernel = HostKernel(epc_pages=4_096)
        supervisor = RecoverySupervisor(kernel)
        programs = {name: make_program(name)
                    for name in ("pin_all", "rate_limit")}
        # Distinct address-space bases so both fit on one kernel.
        for i, program in enumerate(programs.values()):
            program.base = 0x10_0000_0000 * (i + 1)
        for name, program in programs.items():
            supervisor.launch(name, program)
        for name, program in programs.items():
            record = supervisor.member(name)
            record.manager.crash_after = 10
            with pytest.raises(EnclaveCrashed) as exc:
                _drive(record.runtime, program.engine(record.runtime),
                       OPS)
            supervisor.mark_down(name, exc.value)
            supervisor.recover(name)
            assert record.state == "running"
        assert len(supervisor.fleet()) == 2
        supervisor.shutdown()
        assert not supervisor.fleet()


# -- resource reclamation (the dead-enclave bookkeeping fix) ------------------

class TestReclamation:
    def test_teardown_restores_epc_parity(self):
        kernel = HostKernel(epc_pages=EPC_PAGES)
        free0 = kernel.epc.free_pages
        supervisor = RecoverySupervisor(kernel)
        supervisor.launch("a", make_program("rate_limit"))
        assert kernel.epc.free_pages < free0
        supervisor.teardown("a")
        assert kernel.epc.free_pages == free0

    def test_crash_recover_teardown_leaks_nothing(self):
        kernel = HostKernel(epc_pages=EPC_PAGES)
        free0 = kernel.epc.free_pages
        program = make_program("rate_limit")
        supervisor = RecoverySupervisor(kernel)
        record = supervisor.launch("victim", program)
        record.manager.crash_after = 12
        with pytest.raises(EnclaveCrashed) as exc:
            _drive(record.runtime, program.engine(record.runtime), OPS)
        supervisor.mark_down("victim", exc.value)
        supervisor.recover("victim")
        # Only the live incarnation is left in the kernel's enclave
        # table; the reclaimed one is gone with its frames.
        assert list(kernel.instr.enclaves.values()) \
            == [record.runtime.enclave]
        assert epc_parity(kernel) == []
        supervisor.shutdown()
        assert kernel.epc.free_pages == free0
        assert kernel.instr.enclaves == {}
        assert epc_parity(kernel) == []

    def test_reclaim_is_idempotent(self):
        kernel = HostKernel(epc_pages=EPC_PAGES)
        program = make_program("rate_limit")
        runtime = program.launch(kernel)
        kernel.driver.reclaim_enclave(runtime.enclave)
        free_after = kernel.epc.free_pages
        assert kernel.instr.enclaves == {}
        os_cycles = kernel.clock.by_category.get(Category.OS, 0)
        kernel.driver.reclaim_enclave(runtime.enclave)
        assert kernel.epc.free_pages == free_after
        # The second reclaim frees nothing but still charges its
        # syscall (the service router reclaims each replica's first
        # incarnation twice).
        assert kernel.clock.by_category[Category.OS] - os_cycles \
            == kernel.driver.cost.syscall

    def test_failed_launch_is_reclaimed(self):
        kernel = HostKernel(epc_pages=EPC_PAGES)
        free0 = kernel.epc.free_pages
        supervisor = RecoverySupervisor(kernel)
        with pytest.raises(EnclaveCrashed):
            supervisor.launch(
                "a", _DiesInWarmup(make_program("rate_limit")))
        assert kernel.epc.free_pages == free0
        assert kernel.instr.enclaves == {}
        assert not supervisor.fleet()

    def test_refused_attestation_is_reclaimed(self):
        kernel = HostKernel(epc_pages=EPC_PAGES)
        free0 = kernel.epc.free_pages
        supervisor = RecoverySupervisor(kernel)
        with pytest.raises(AttackDetected, match="self-paging"):
            supervisor.launch("legacy", _legacy_program())
        assert kernel.epc.free_pages == free0
        assert kernel.instr.enclaves == {}
        assert not supervisor.fleet()


# -- backing-store eviction-record semantics (regression) ---------------------

@dataclasses.dataclass(frozen=True)
class _FakeBlob:
    version: int
    mac: str = "ok"


class TestBackingVersionMonotonicity:
    def test_re_evict_must_carry_newer_version(self):
        store = BackingStore()
        store.put(1, 0x1000, _FakeBlob(version=1))
        store.take(1, 0x1000)
        store.put(1, 0x1000, _FakeBlob(version=2))
        # Overwrite without take(): only a strictly newer version may
        # supersede in place.
        store.put(1, 0x1000, _FakeBlob(version=3))
        with pytest.raises(SgxError):
            store.put(1, 0x1000, _FakeBlob(version=3))
        with pytest.raises(SgxError):
            store.put(1, 0x1000, _FakeBlob(version=1))

    def test_superseded_blob_lands_on_stale_shelf(self):
        store = BackingStore()
        store.put(1, 0x1000, _FakeBlob(version=1))
        store.put(1, 0x1000, _FakeBlob(version=2))
        assert store.stale_copy(1, 0x1000) == _FakeBlob(version=1)

    def test_tainted_entry_exempt_from_version_check(self):
        # The attacker's version field is unauthenticated garbage;
        # rewriting the true blob over it is a restore.
        store = BackingStore()
        store.put(1, 0x1000, _FakeBlob(version=5))
        store.substitute(1, 0x1000, _FakeBlob(version=99, mac="forged"))
        store.put(1, 0x1000, _FakeBlob(version=5))
        assert (1, 0x1000) not in store.tainted
