"""The per-enclave recovery manager: checkpoint, journal, replay.

One :class:`RecoveryManager` owns the durable recovery state of one
*program* (journal, checkpoint store, monotonic counter, sealing
context) across any number of enclave incarnations.  Attached to a
running enclave it records every paging-state input; after a crash it
is re-bound to the relaunched enclave and replays the journal through
the real code paths, verifying effect summaries and checkpoint anchors
as it goes.

The restore contract (all failures are fail-stop):

1.  the relaunched enclave's deterministic bootstrap must reproduce the
    sealed *base* checkpoint's fingerprint bit-for-bit;
2.  the checkpoint set must be MAC-valid, strictly counter-ascending,
    and its newest counter must equal the hardware monotonic counter —
    otherwise the host rolled state back (``IntegrityAbort``);
3.  the journal chain must validate; one torn tail record is forgiven,
    deeper corruption is tampering (``IntegrityAbort``);
4.  every replayed record's effects must match its journaled summary,
    and the state fingerprint must match every checkpoint anchor the
    replay crosses (``IntegrityAbort`` on divergence).
"""

from __future__ import annotations

from repro.clock import Category
from repro.errors import EnclaveCrashed, IntegrityAbort, IntegrityError
from repro.recovery.checkpoint import CheckpointStore, MonotonicCounter
from repro.recovery.journal import Journal, validated_records
from repro.recovery.state import fingerprint
from repro.runtime.rate_limit import ProgressKind
from repro.sgx.crypto import StateSealer
from repro.sgx.params import AccessType


class RecoveryManager:
    """Crash-consistent recovery state for one enclave program."""

    def __init__(self, runtime, counter=None, auto_checkpoint_every=None,
                 keep_trace=False):
        self.runtime = runtime
        self.sealer = StateSealer(runtime.enclave.measurement.digest())
        self.counter = counter if counter is not None else MonotonicCounter()
        self.journal = Journal()
        self.checkpoints = CheckpointStore()
        #: Seal a fresh checkpoint every N journal records (None = only
        #: explicit seal_checkpoint calls).
        self.auto_checkpoint_every = auto_checkpoint_every
        #: Witness fingerprint trace: ``trace[j]`` is the canonical
        #: fingerprint after ``j`` journal records.  Expensive — only
        #: kept when a verifier (chaos campaign, tests) asks for it.
        self.keep_trace = keep_trace
        self.trace = []
        self.recording = False
        self.replaying = False
        #: Chaos hook: kill the enclave right after appending journal
        #: record number N (1-based journal length).  One-shot.
        self.crash_after = None
        #: Optional lifecycle witness, called ``lifecycle_observer(
        #: name)`` on every recovery-protocol step (``begin``,
        #: ``seal_checkpoint``, ``note_*`` appends, ``crash``,
        #: ``restore``) — the model checker's runtime oracle feeds
        #: these into the shared crash/restore automaton.
        self.lifecycle_observer = None
        #: Lifetime counters (observability).
        self.records_written = 0
        self.records_replayed = 0
        self.restores = 0
        self._bind(runtime)

    # -- wiring ------------------------------------------------------------

    def _bind(self, runtime):
        self.runtime = runtime
        runtime.recovery = self
        runtime.pager.recovery_observer = self
        if hasattr(runtime.policy, "observer"):
            runtime.policy.observer = self

    def _witness(self, name):
        if self.lifecycle_observer is not None:
            self.lifecycle_observer(name)

    def begin(self):
        """Seal the base checkpoint (bootstrap anchor) and start
        recording.  Call once the deterministic warm-up is done."""
        self.recording = True
        self._witness("begin")
        if self.keep_trace:
            self.trace = [fingerprint(self.runtime)]
        self.seal_checkpoint()

    # -- checkpointing -----------------------------------------------------

    def seal_checkpoint(self):
        """Seal the current state fingerprint as a freshness-rooted
        verification anchor at the current journal position."""
        clock = self.runtime.kernel.clock
        clock.charge(self.runtime.kernel.cost.checkpoint_seal,
                     Category.RECOVERY)
        payload = (
            self.counter.bump(),
            len(self.journal),
            fingerprint(self.runtime),
        )
        blob = self.sealer.seal("checkpoint", len(self.checkpoints),
                                payload)
        self.checkpoints.append(blob)
        self._witness("seal_checkpoint")
        return blob

    # -- recording ---------------------------------------------------------

    def note_fault(self, vaddr, access, managed, fetched):
        self._record("fault", (vaddr, access.value, managed, fetched))

    def note_progress(self, kind):
        self._record("progress", (getattr(kind, "value", kind),))

    def note_balloon(self, requested, freed):
        self._record("balloon", (requested, freed))

    def note_claim(self, vaddrs, pin):
        self._record("claim", (tuple(vaddrs), bool(pin)))

    def note_release(self, vaddrs):
        self._record("release", (tuple(vaddrs),))

    def note_regroup(self, vaddrs):
        self._record("regroup", (tuple(vaddrs),))

    def note_oram(self, vaddr, write):
        self._record("oram", (vaddr, bool(write)))

    def _record(self, kind, payload):
        if not self.recording or self.replaying:
            return
        kernel = self.runtime.kernel
        kernel.clock.charge(kernel.cost.journal_append, Category.RECOVERY)
        journal = self.journal
        seq = len(journal)
        journal.append(self.sealer.seal(
            kind, seq, payload, prev_mac=journal.tail_mac(),
        ))
        self.records_written += 1
        if self.lifecycle_observer is not None:
            self.lifecycle_observer(f"note_{kind}")
        if self.keep_trace:
            self.trace.append(fingerprint(self.runtime))
        # ``seq + 1`` is the journal's length now that the record is in.
        if self.crash_after is not None and seq + 1 >= self.crash_after:
            self.crash_after = None
            self.crash()
        if (self.auto_checkpoint_every
                and (seq + 1) % self.auto_checkpoint_every == 0):
            self.seal_checkpoint()

    def crash(self):
        """Model the host killing the enclave at this very point."""
        self.recording = False
        self.runtime.enclave.dead = True
        self._witness("crash")
        raise EnclaveCrashed(
            f"enclave {self.runtime.enclave.enclave_id} killed by the "
            f"host at journal position {len(self.journal)}"
        )

    # -- restore -----------------------------------------------------------

    def verify_freshness(self):
        """Validate the checkpoint set and its freshness root; returns
        the checkpoint payloads oldest-first."""
        blobs = self.checkpoints.blobs
        if not blobs:
            raise IntegrityAbort("restore with no checkpoint to anchor on")
        clock = self.runtime.kernel.clock
        payloads = []
        for i, blob in enumerate(blobs):
            clock.charge(self.runtime.kernel.cost.checkpoint_seal,
                         Category.RECOVERY)
            try:
                payload = self.sealer.verify(blob)
            except IntegrityError as exc:
                raise IntegrityAbort(
                    f"checkpoint {i} failed verification: {exc}"
                ) from exc
            if blob.seq != i:
                raise IntegrityAbort(
                    f"checkpoint {i} carries seq {blob.seq} (spliced)"
                )
            payloads.append(payload)
        counters = [p[0] for p in payloads]
        if any(b <= a for a, b in zip(counters, counters[1:])):
            raise IntegrityAbort(
                f"checkpoint counters not strictly ascending: {counters}"
            )
        if counters[-1] != self.counter.read():
            raise IntegrityAbort(
                f"stale checkpoint set: newest counter {counters[-1]} != "
                f"hardware monotonic counter {self.counter.read()} "
                "(rollback attack)"
            )
        return payloads

    def restore(self, runtime):
        """Re-bind to a relaunched (bootstrapped, attested) runtime and
        replay the journal onto it with full verification.  Returns the
        number of records replayed."""
        self.recording = False
        self._bind(runtime)
        self._witness("restore")
        anchors = self.verify_freshness()
        base_counter, base_len, base_fp = anchors[0]
        if base_len != 0:
            raise IntegrityAbort(
                f"base checkpoint anchors journal position {base_len}, "
                "not the bootstrap state"
            )
        if fingerprint(runtime) != base_fp:
            raise IntegrityAbort(
                "relaunched bootstrap state does not reproduce the "
                "sealed base checkpoint (non-deterministic bootstrap "
                "or substituted program)"
            )
        try:
            records = validated_records(self.journal, self.sealer)
        except IntegrityError as exc:
            raise IntegrityAbort(
                f"journal chain corrupted beyond the tail: {exc}"
            ) from exc
        if len(records) < len(self.journal.records):
            # Torn tail: the crash interrupted the final append.  The
            # operation's effects died with the enclave, so dropping the
            # record is the crash-consistent choice.
            self.journal.records = list(records)
        anchor_fp = {journal_len: fp for _c, journal_len, fp in anchors}
        deepest = max(journal_len for _c, journal_len, _fp in anchors)
        if deepest > len(records):
            raise IntegrityAbort(
                f"checkpoint anchors journal position {deepest} but only "
                f"{len(records)} records survived (journal truncated "
                "under a sealed checkpoint)"
            )
        clock = runtime.kernel.clock
        applied = 0
        self.replaying = True
        try:
            for blob in records:
                clock.charge(runtime.kernel.cost.journal_replay,
                             Category.RECOVERY)
                try:
                    self._apply(blob)
                except IntegrityAbort:
                    raise
                except IntegrityError as exc:
                    raise IntegrityAbort(
                        f"journal replay diverged at record {applied}: "
                        f"{exc}"
                    ) from exc
                applied += 1
                self.records_replayed += 1
                expected = anchor_fp.get(applied)
                if expected is not None and fingerprint(runtime) != expected:
                    raise IntegrityAbort(
                        f"replayed state does not match the sealed "
                        f"checkpoint anchored at record {applied}"
                    )
        finally:
            self.replaying = False
        if self.keep_trace:
            self.trace = self.trace[:len(records) + 1]
        self.restores += 1
        self.recording = True
        return applied

    def _apply(self, blob):
        """Re-execute one journal record through the real code paths."""
        runtime = self.runtime
        payload = blob.payload
        if blob.kind == "fault":
            vaddr, access_value, managed, fetched = payload
            access = AccessType(access_value)
            if managed:
                before = getattr(runtime.policy, "pages_fetched", 0)
                runtime.policy.on_fault(vaddr, access)
                after = getattr(runtime.policy, "pages_fetched", 0)
                if after - before != fetched:
                    raise IntegrityError(
                        f"fault at {vaddr:#x} fetched {after - before} "
                        f"pages on replay, journal recorded {fetched}"
                    )
            else:
                runtime.channel.call("os_resolve", runtime.enclave, vaddr)
            runtime.handled_faults += 1
        elif blob.kind == "progress":
            value = payload[0]
            try:
                value = ProgressKind(value)
            except ValueError:
                pass
            runtime.progress(value)
        elif blob.kind == "balloon":
            requested, freed = payload
            got = runtime.balloon.handle_request(requested)
            if got != freed:
                raise IntegrityError(
                    f"balloon upcall freed {got} pages on replay, "
                    f"journal recorded {freed}"
                )
        elif blob.kind == "claim":
            vaddrs, pin = payload
            runtime.claim(list(vaddrs), pin=pin)
        elif blob.kind == "release":
            runtime.release(list(payload[0]))
        elif blob.kind == "regroup":
            runtime.pager.regroup(list(payload[0]))
        elif blob.kind == "oram":
            vaddr, write = payload
            runtime.policy.access(vaddr, write=write)
        else:
            raise IntegrityError(
                f"unknown journal record kind {blob.kind!r}"
            )
