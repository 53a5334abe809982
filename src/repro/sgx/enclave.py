"""The enclave object (SECS plus launch state).

An enclave occupies a contiguous region of virtual address space.  Its
attributes — including Autarky's new ``SELF_PAGING`` bit (§5.1.1) — are
part of the attested measurement, so a remote verifier can insist the
defense is enabled.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import SgxError
from repro.immutable import share
from repro.sgx.params import PAGE_SIZE, vpn_of


@dataclass(frozen=True)
class EnclaveAttributes:
    """Attested enclave attribute bits."""

    __deepcopy__ = share

    #: Autarky's new attribute: enables fault masking, the pending
    #: exception flag, and the A/D-bit fill check for this enclave.
    self_paging: bool = False
    #: SGX2 dynamic memory management available to this enclave.
    sgx2: bool = True


@dataclass
class Measurement:
    """A toy MRENCLAVE: an append-only log of (op, vaddr) records.

    Remote attestation over this log is what lets users detect the
    restart attacks the paper rules out of scope (§3)."""

    records: list = field(default_factory=list)

    def extend(self, op, vaddr):
        self.records.append((op, vaddr))

    def digest(self):
        """A stable digest of the measurement log.

        Must not vary across interpreter invocations (a remote verifier
        compares it against an expected value), so it is sha256 over a
        canonical encoding rather than the salted builtin ``hash``.
        """
        encoded = "\x1f".join(
            f"{op}:{vaddr}" for op, vaddr in self.records
        ).encode()
        return int.from_bytes(
            hashlib.sha256(encoded).digest()[:8], "big"
        )


class Enclave:
    """One enclave: address range, attributes, threads, and launch state."""

    _next_id = 1

    def __init__(self, base, size_pages, attributes=None):
        if base % PAGE_SIZE:
            raise SgxError("enclave base must be page aligned")
        self.enclave_id = Enclave._next_id
        Enclave._next_id += 1
        self.base = base
        self.size_pages = size_pages
        #: One past the last valid enclave address (fixed at ECREATE).
        self.limit = base + size_pages * PAGE_SIZE
        self.attributes = attributes or EnclaveAttributes()
        self.measurement = Measurement()
        self.initialized = False
        self.dead = False
        self.tcs_list = []
        #: Trusted software attached at launch; the CPU calls
        #: ``runtime.on_enter(tcs)`` on EENTER.  ``None`` until the
        #: runtime registers itself.
        self.runtime = None
        #: vpn -> pfn for pages currently backed by EPC (hardware-side
        #: view used by instructions; the *OS* view lives in the page
        #: table, and the two can diverge — that divergence is the attack).
        self.backed = {}

    @property
    def self_paging(self):
        return self.attributes.self_paging

    def contains(self, vaddr):
        return self.base <= vaddr < self.limit

    def contains_vpn(self, vpn):
        return vpn_of(self.base) <= vpn < vpn_of(self.base) + self.size_pages

    def add_tcs(self, tcs):
        self.tcs_list.append(tcs)

    def require_alive(self):
        if self.dead:
            raise SgxError("enclave has been terminated")

    def __repr__(self):
        return (
            f"Enclave(id={self.enclave_id}, base={self.base:#x}, "
            f"pages={self.size_pages}, self_paging={self.self_paging})"
        )
