"""The two secure paging mechanisms of §6.

``Sgx1PagingOps``
    The privileged EWB/ELDU instructions run in the driver; the enclave
    just issues batched ``ay_fetch_pages`` / ``ay_evict_pages`` host
    calls.  Hardware crypto, one host call per batch.

``Sgx2PagingOps``
    SGX2 dynamic memory management: the enclave seals/unseals page
    contents itself (AES-NI in the prototype), pairing EAUG with
    EACCEPTCOPY on fetch, and EMODPR/EACCEPT + EMODT/EACCEPT/EREMOVE on
    evict.  More flexible — custom encryption, skipping writeback of
    clean pages, alternative backing stores — but one extra enclave
    crossing per operation, which is why §7.1 finds SGX1 faster and the
    evaluation defaults to it.
"""

from __future__ import annotations

from repro.clock import Category
from repro.errors import (
    AttackDetected,
    ChaosAbort,
    HostCallDenied,
    IntegrityError,
    SgxError,
)
from repro.host.backing import BackingStore
from repro.runtime.backoff import RetryPolicy
from repro.sgx.crypto import PagingCrypto
from repro.sgx.epcm import Permissions
from repro.sgx.params import SgxVersion, page_base


class PagingOps:
    """Interface: batched fetch/evict of enclave-managed pages.

    Every host call goes through :meth:`_host_call`, which absorbs
    transient :class:`~repro.errors.HostCallDenied` failures with
    bounded, cycle-charged backoff and converts persistent refusal into
    fail-stop (:class:`~repro.errors.ChaosAbort`) — the hardened
    contract the chaos harness exercises.
    """

    def __init__(self, enclave, channel, retry=None):
        self.enclave = enclave
        self.channel = channel
        self.retry = retry or RetryPolicy()
        #: Transient host failures absorbed by backoff (observability).
        self.retried_calls = 0

    def _host_call(self, name, *args):
        """Issue host call ``name``, retrying a transient
        :class:`~repro.errors.HostCallDenied`: the wait before retry
        ``i`` is charged to BACKOFF (``RetryPolicy.wait_cycles``), and
        once the budget is spent the persistent failure becomes a
        fail-stop :class:`~repro.errors.ChaosAbort`, so a hostile host
        can never make the enclave spin."""
        policy = self.retry
        for attempt in range(1, policy.max_attempts + 1):
            try:
                result = self.channel.call(name, self.enclave, *args)
            except HostCallDenied as exc:
                last = exc
                if attempt < policy.max_attempts:
                    self.channel.kernel.clock.charge(
                        policy.wait_cycles(attempt), Category.BACKOFF)
                continue
            self.retried_calls += attempt - 1
            return result
        raise ChaosAbort(
            f"paging service {name!r} still failing after "
            f"{policy.max_attempts} attempts with backoff: {last}"
        ) from last

    def fetch_batch(self, vaddrs):
        raise NotImplementedError

    def evict_batch(self, vaddrs):
        raise NotImplementedError

    def adopt(self, vaddrs):
        """Take ownership of pages that were already resident when the
        runtime claimed them (no fetch happened through this object)."""


class Sgx1PagingOps(PagingOps):
    """Driver-executed EWB/ELDU paging.

    The pager hands over page bases it computed once per unit, so they
    pass through unchanged; the driver normalises them again on its side
    of the trust boundary and settles each call as one transaction."""

    @property
    def store(self):
        """Where EWB puts this runtime's sealed pages: the kernel's
        backing store."""
        return self.channel.kernel.backing

    def fetch_batch(self, vaddrs):
        if not vaddrs:
            return []
        return self._host_call("ay_fetch_pages", vaddrs)

    def evict_batch(self, vaddrs):
        if not vaddrs:
            return
        self._host_call("ay_evict_pages", vaddrs)


class Sgx2PagingOps(PagingOps):
    """In-enclave paging over SGX2 dynamic memory management.

    The sealed blobs live in untrusted memory owned by the runtime, a
    :class:`~repro.host.backing.BackingStore` of its own (``store``);
    integrity and freshness come from the enclave's own sealing crypto,
    so a hostile OS gains nothing by touching them.
    """

    def __init__(self, enclave, channel, instructions, clock, cost,
                 retry=None):
        super().__init__(enclave, channel, retry=retry)
        self.instr = instructions
        self.clock = clock
        self.cost = cost
        self.crypto = PagingCrypto()
        self.store = BackingStore()
        #: Contents cache keyed by vaddr while a page is resident, so
        #: evict can re-seal what fetch unsealed (the EPC frame holds
        #: the authoritative copy; this mirrors it for the model).
        self._resident_contents = {}

    def adopt(self, vaddrs):
        for vaddr in vaddrs:
            self._resident_contents.setdefault(page_base(vaddr), None)

    def fetch_batch(self, vaddrs):
        if not vaddrs:
            return []
        bases = [page_base(v) for v in vaddrs]
        # Privileged half, batched: EAUG + PTE map.  The prototype
        # overlaps EAUG with decryption via a temporary buffer (§6), so
        # we do not serialize an extra round trip per page.
        self._host_call("sgx2_augment_batch", bases)
        store = self.store
        eid = self.enclave.enclave_id
        for base in bases:
            sealed = store.take(eid, base) if store.has(eid, base) else None
            try:
                if sealed is None:
                    # First touch: plain EACCEPT of the zeroed page.
                    self.instr.eaccept(self.enclave, base)
                    contents = None
                else:
                    self.clock.charge(self.cost.decrypt_page,
                                      Category.SGX_PAGING)
                    contents = self.crypto.unseal(
                        self.enclave.enclave_id, base, sealed
                    )
                    self.instr.eacceptcopy(self.enclave, base, contents)
            except IntegrityError:
                # Tampered or replayed sealed blob.  IntegrityError is
                # a subclass of SgxError, so without this re-raise the
                # clause below would misclassify crypto rejection as a
                # skipped EAUG; the libos converts it into fail-stop
                # with the ``integrity`` abort reason.
                raise
            except SgxError as exc:
                # EACCEPT[COPY] found no pending page: the host claimed
                # the augment succeeded but never performed it.  The
                # enclave-side instruction is the detector (§6) — a
                # lying paging service is an active attack.
                if sealed is not None:
                    store.put(eid, base, sealed)
                raise AttackDetected(
                    f"host skipped EAUG for {base:#x}: {exc}"
                ) from exc
            self._resident_contents[base] = contents
        return bases

    def evict_batch(self, vaddrs):
        if not vaddrs:
            return
        bases = [page_base(v) for v in vaddrs]
        eid = self.enclave.enclave_id
        for base in bases:
            if base not in self._resident_contents:
                raise SgxError(
                    f"SGX2 evict of a page not fetched through this "
                    f"runtime: {base:#x}"
                )
        # Phase 1: freeze the pages read-only so concurrent writers
        # fault (thread safety, §6), then seal contents in-enclave.
        # Each privileged half is retried independently: the phases are
        # not idempotent as a whole, so a transient denial mid-sequence
        # must resume exactly where it stopped, never re-run phase 1.
        self._host_call("sgx2_modpr_batch", bases, Permissions.R)
        for base in bases:
            self.instr.eaccept(self.enclave, base)
            contents = self._resident_contents.pop(base)
            self.clock.charge(self.cost.encrypt_page, Category.SGX_PAGING)
            self.store.put(eid, base, self.crypto.seal(eid, base, contents))
        # Phase 2: trim, accept, and release the frames.
        self._host_call("sgx2_trim_batch", bases)
        for base in bases:
            self.instr.eaccept(self.enclave, base)
        self._host_call("sgx2_remove_batch", bases)


def make_paging_ops(version, enclave, channel, instructions, clock, cost):
    """Factory keyed on :class:`~repro.sgx.params.SgxVersion`."""
    if version is SgxVersion.SGX1:
        return Sgx1PagingOps(enclave, channel)
    if version is SgxVersion.SGX2:
        return Sgx2PagingOps(enclave, channel, instructions, clock, cost)
    raise ValueError(f"unknown SGX version {version!r}")
