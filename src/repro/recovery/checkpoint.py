"""Sealed checkpoints and rollback (freshness) protection.

A checkpoint is a sealed *verification anchor*: the monotonic-counter
value at seal time, the journal position it covers, and the canonical
state fingerprint at that position.  Restore verifies the relaunched
enclave's state against these anchors as replay crosses them — the
page *contents* need no separate snapshot, because the backing store
already holds every evicted page sealed with per-page anti-replay
versions, and replay regenerates resident state through the real code
paths.

Freshness follows SGX's monotonic-counter recipe (the same machinery
Aurora-style persistent enclaves rely on): every seal bumps a hardware
counter whose value is sealed into the checkpoint.  A host presenting
an old-but-validly-sealed checkpoint set ("rollback to yesterday")
cannot also roll back the hardware counter, so the newest surviving
checkpoint's counter no longer matches and restore fail-stops with
``IntegrityAbort`` — exactly like PR 3's tamper witness for a replayed
page, one level up.
"""

from __future__ import annotations


class MonotonicCounter:
    """The platform's monotonic counter (SGX PSE model): bump-only,
    survives enclave crashes, cannot be rolled back by the host."""

    def __init__(self):
        self._value = 0

    def bump(self):
        self._value += 1
        return self._value

    def read(self):
        return self._value


class CheckpointStore:
    """Untrusted storage of sealed checkpoint blobs.

    Each blob's payload is ``(counter, journal_len, fingerprint)``;
    sealing and verification live in the recovery manager.  Like the
    backing store, this exposes the attacker primitive chaos and the
    rollback tests use.
    """

    def __init__(self):
        self.blobs = []

    def append(self, blob):
        self.blobs.append(blob)

    def __len__(self):
        return len(self.blobs)

    # -- attacker primitives ----------------------------------------------

    def rollback_to(self, index):
        """Discard every checkpoint after ``index`` (present a stale
        snapshot set at restore time — the rollback attack)."""
        del self.blobs[index + 1:]
