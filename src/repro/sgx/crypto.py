"""Paging crypto model: confidentiality, integrity, and anti-replay.

EWB seals an evicted page (contents + metadata MAC + version counter);
ELDU verifies and unseals.  The version counter models SGX's version
array (VA) pages: reloading a stale copy of a page fails, which is the
anti-replay guarantee §2.1 describes.  The SGX2 software path uses the
same object with the enclave's own sealing key.

We model the MAC as structural validation over Python objects rather
than real AES-GCM — the *checks* (and their cycle costs, charged by the
callers) are what the paper's flows depend on, not the cipher itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import IntegrityError
from repro.immutable import share


@dataclass(frozen=True)
class SealedPage:
    """An encrypted page in untrusted memory.

    One is built per evicted page, so ``__init__`` fills the instance
    dict at once rather than through the per-field ``object.__setattr__``
    of a generated frozen ``__init__``; everything else is the frozen
    dataclass's own."""

    enclave_id: int
    vaddr: int
    version: int
    nonce: int
    ciphertext: object   # stands in for the encrypted page contents
    mac: int

    def __init__(self, enclave_id, vaddr, version, nonce, ciphertext, mac):
        self.__dict__.update(enclave_id=enclave_id, vaddr=vaddr,
                             version=version, nonce=nonce,
                             ciphertext=ciphertext, mac=mac)


class PagingCrypto:
    """Seals and unseals enclave pages with replay protection.

    One instance per protection domain (the CPU's EWB/ELDU engine, or an
    enclave's in-enclave SGX2 sealing context).
    """

    def __init__(self):
        #: The last nonce issued (the first seal gets 1).
        self._nonce = 0
        #: (enclave_id, vaddr) -> monotonically increasing seal count.
        #: Never reset, so a blob from an earlier eviction epoch can
        #: never match again (models the VA-slot anti-replay property).
        self._next_version = {}
        #: (enclave_id, vaddr) -> version of the one outstanding sealed
        #: copy, or absent when the page is resident.
        self._outstanding = {}

    def seal(self, enclave_id, vaddr, contents):
        return self.seal_pages(enclave_id, (vaddr,), (contents,))[0]

    def seal_pages(self, enclave_id, vaddrs, contents):
        """Seal each ``(vaddr, contents)`` pair in order; every page gets
        its own next version and nonce, exactly as one :meth:`seal` per
        page would."""
        next_version = self._next_version
        outstanding = self._outstanding
        nonce = self._nonce
        mac = self._mac
        sealed = []
        for vaddr, page in zip(vaddrs, contents):
            key = (enclave_id, vaddr)
            version = next_version.get(key, 0) + 1
            next_version[key] = version
            outstanding[key] = version
            nonce += 1
            sealed.append(SealedPage(
                enclave_id, vaddr, version, nonce, page,
                mac(enclave_id, vaddr, version, nonce, page),
            ))
        self._nonce = nonce
        return sealed

    def unseal(self, enclave_id, vaddr, sealed):
        """Verify and decrypt; raises :class:`IntegrityError` on any
        tampering, substitution, or replay."""
        contents = self.verify(enclave_id, vaddr, sealed)
        self.consume(enclave_id, (vaddr,))
        return contents

    def verify(self, enclave_id, vaddr, sealed):
        """The checks of :meth:`unseal` without its effect (see
        :meth:`verify_pages`)."""
        return self.verify_pages(enclave_id, (vaddr,), (sealed,))[0]

    def verify_pages(self, enclave_id, vaddrs, blobs):
        """Check each ``(vaddr, sealed)`` pair in order and return the
        contents, or raise :class:`IntegrityError` at the first bad
        blob.  Nothing changes: the outstanding copies stay in place, so
        a batch can verify every blob before it consumes any."""
        outstanding = self._outstanding
        mac = self._mac
        contents = []
        for vaddr, sealed in zip(vaddrs, blobs):
            if sealed.enclave_id != enclave_id:
                raise IntegrityError(
                    f"page sealed for enclave {sealed.enclave_id}, "
                    f"loaded into {enclave_id}"
                )
            if sealed.vaddr != vaddr:
                raise IntegrityError(
                    f"page sealed for {sealed.vaddr:#x}, loaded at "
                    f"{vaddr:#x}"
                )
            expected = outstanding.get((enclave_id, vaddr))
            if expected is None:
                raise IntegrityError(
                    f"no outstanding sealed copy for {vaddr:#x} (replay?)"
                )
            if sealed.version != expected:
                raise IntegrityError(
                    f"version {sealed.version} != expected {expected} "
                    f"for {vaddr:#x} (replay)"
                )
            if mac(sealed.enclave_id, sealed.vaddr, sealed.version,
                   sealed.nonce, sealed.ciphertext) != sealed.mac:
                raise IntegrityError(f"MAC mismatch for {vaddr:#x}")
            contents.append(sealed.ciphertext)
        return contents

    def consume(self, enclave_id, vaddrs):
        """Retire the outstanding copy of each verified page: the page is
        resident again, so no sealed copy of it may load from now on."""
        outstanding = self._outstanding
        for vaddr in vaddrs:
            del outstanding[(enclave_id, vaddr)]

    def outstanding_table(self, enclave_id):
        """Sorted ``(vaddr, version)`` tuples of every outstanding sealed
        copy for ``enclave_id`` — the anti-replay state an enclave must
        re-establish bit-for-bit after a crash (recovery fingerprints
        include it; ``_next_version`` is deliberately excluded: it is a
        local allocator, not observable state)."""
        return tuple(sorted(
            (vaddr, version)
            for (eid, vaddr), version in self._outstanding.items()
            if eid == enclave_id
        ))

    @staticmethod
    def _mac(enclave_id, vaddr, version, nonce, contents):
        # The MAC must cover the ciphertext object's *identity* so
        # substitution is caught; tokens are produced and checked within
        # one run and never surface in any simulated result, so the
        # per-process salt is harmless here.
        # repro: allow[determinism] intra-run token, never in results
        return hash((enclave_id, vaddr, version, nonce, id(contents)))


@dataclass(frozen=True)
class SealedBlob:
    """A sealed state blob in untrusted storage (checkpoint snapshot or
    one journal record).  ``payload`` must be a canonical (hashable,
    deterministically ordered) tuple tree — the MAC covers its repr."""

    __deepcopy__ = share

    kind: str
    seq: int
    payload: object
    prev_mac: str
    mac: str

    def __init__(self, kind, seq, payload, prev_mac, mac):
        # One per journal record: see SealedPage.__init__.
        self.__dict__.update(kind=kind, seq=seq, payload=payload,
                             prev_mac=prev_mac, mac=mac)


class StateSealer:
    """Seals recovery state (checkpoints, journal records) under a key
    derived from the enclave *measurement*, not its launch identity.

    Two launches of the same program have the same measurement, so a
    restarted enclave can unseal what its crashed predecessor wrote —
    exactly SGX's MRENCLAVE sealing policy.  MACs are hash-chained
    (``prev_mac`` is covered by each record's MAC) so truncating or
    corrupting any *interior* record invalidates the whole suffix; only
    the very tail can be torn off, which recovery treats as a torn
    write.  Unlike :class:`PagingCrypto` this uses sha256 — the MACs
    land in deterministic fingerprints, so the salted builtin ``hash``
    is off the table.
    """

    GENESIS = "genesis"

    def __init__(self, measurement):
        self._key = hashlib.sha256(
            f"repro-state-sealer:{measurement}".encode()
        ).hexdigest()

    def mac(self, kind, seq, payload, prev_mac):
        body = repr((self._key, kind, seq, payload, prev_mac))
        return hashlib.sha256(body.encode()).hexdigest()

    def seal(self, kind, seq, payload, prev_mac=GENESIS):
        return SealedBlob(kind, seq, payload, prev_mac,
                          self.mac(kind, seq, payload, prev_mac))

    def verify(self, blob, expected_prev=None):
        """Check a blob's MAC (and, when given, its chain link); raises
        :class:`IntegrityError` on any mismatch."""
        if expected_prev is not None and blob.prev_mac != expected_prev:
            raise IntegrityError(
                f"journal chain break at seq {blob.seq} "
                f"({blob.kind}): prev MAC mismatch"
            )
        if self.mac(blob.kind, blob.seq, blob.payload,
                    blob.prev_mac) != blob.mac:
            raise IntegrityError(
                f"sealed {blob.kind} blob seq {blob.seq}: MAC mismatch"
            )
        return blob.payload
