"""EPC Map: SGX's trusted per-frame security metadata.

The EPCM is inaccessible to software; it is read and written only by
SGX instructions and consulted by the MMU after every page walk that
targets the EPC.  It is what lets the CPU detect an OS that maps the
wrong frame, the wrong enclave's frame, or stale permissions — the
"monitoring the OS's actions to ensure correctness" half of the SGX
design the paper builds on.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass

from repro.errors import EpcmViolation
from repro.immutable import share
from repro.sgx.params import AccessType


class PageType(enum.Enum):
    """EPCM page types (subset of the architecture relevant to paging)."""

    SECS = "secs"    # enclave control structure
    TCS = "tcs"      # thread control structure
    REG = "reg"      # regular enclave page
    VA = "va"        # version array (anti-replay slots for EWB)
    TRIM = "trim"    # page undergoing EMODT trim


@dataclass(frozen=True)
class Permissions:
    """EPCM read/write/execute permissions for a page."""

    __deepcopy__ = share

    read: bool = True
    write: bool = True
    execute: bool = False

    def allows(self, access):
        if access is AccessType.READ:
            return self.read
        if access is AccessType.WRITE:
            return self.write
        if access is AccessType.EXEC:
            return self.execute
        raise ValueError(f"unknown access type {access!r}")

    def without_write(self):
        return Permissions(self.read, False, self.execute)

    RW = None  # filled in below
    RX = None
    RWX = None
    R = None


Permissions.RW = Permissions(True, True, False)
Permissions.RX = Permissions(True, False, True)
Permissions.RWX = Permissions(True, True, True)
Permissions.R = Permissions(True, False, False)


class EpcmEntry:
    """Security attributes of one EPC frame.

    ``pending``/``modified`` implement the SGX2 two-phase protocol: the
    OS proposes a change (EAUG sets pending, EMODT sets modified) and
    the enclave must EACCEPT it before the page becomes usable again.
    ``blocked`` marks a page mid-eviction: EBLOCK sets it, the MMU
    refuses new translations to it, and EWB requires it (and clears it
    with ``valid``) — the EBLOCK → shootdown → EWB sequence.  Only
    EBLOCK's cycle cost is folded into EWB's.

    A ``__slots__`` class: the MMU reads one on every walk, and an EPC
    at experiment scale has hundreds of thousands of frames.  An entry
    is created the first time its frame is used (see :class:`Epcm`);
    until then the frame reads as invalid.
    """

    __slots__ = ("valid", "page_type", "enclave_id", "vaddr", "perms",
                 "pending", "modified", "blocked")

    def __init__(self, valid=False, page_type=PageType.REG, enclave_id=-1,
                 vaddr=-1, perms=None, pending=False, modified=False,
                 blocked=False):
        self.valid = valid
        self.page_type = page_type
        self.enclave_id = enclave_id
        self.vaddr = vaddr
        self.perms = perms if perms is not None else Permissions.RW
        self.pending = pending
        self.modified = modified
        self.blocked = blocked


class Epcm:
    """The EPC map: the entries of the physical EPC frames in use.

    An entry is created when its frame is first used, as
    :class:`~repro.sgx.epc.EpcAllocator` creates its frames, so a map
    costs (and a model-checker copy of it copies) the frames a system
    touched rather than the whole EPC.  A frame never used reads as a
    fresh, invalid entry.
    """

    def __init__(self, total_pages):
        self.total_pages = total_pages
        self._entries = defaultdict(EpcmEntry)

    def entry(self, pfn):
        """The entry of frame ``pfn`` (``IndexError`` outside the EPC)."""
        if 0 <= pfn < self.total_pages:
            return self._entries[pfn]
        raise self._outside(pfn)

    def entries(self, pfns):
        """The entries of frames ``pfns`` in order, as :meth:`entry`
        returns them one by one (``IndexError`` at the first frame
        outside the EPC)."""
        entries = self._entries
        total = self.total_pages
        found = []
        for pfn in pfns:
            if not 0 <= pfn < total:
                raise self._outside(pfn)
            found.append(entries[pfn])
        return found

    def _outside(self, pfn):
        return IndexError(
            f"pfn {pfn} outside the {self.total_pages}-frame EPC map")

    def check_access(self, pfn, enclave_id, vaddr, access):
        """The MMU's post-walk EPCM check (§2.1 "Access control").

        Raises :class:`EpcmViolation` when the mapping the OS installed
        does not match what the enclave agreed to — the hardware turns
        this into a page fault.
        """
        entry = self._entries.get(pfn)
        if entry is None or not entry.valid:
            if not 0 <= pfn < self.total_pages:
                raise self._outside(pfn)
            raise EpcmViolation(f"pfn {pfn}: EPCM entry invalid")
        if entry.page_type is not PageType.REG:
            raise EpcmViolation(
                f"pfn {pfn}: page type {entry.page_type} not accessible"
            )
        if entry.enclave_id != enclave_id:
            raise EpcmViolation(
                f"pfn {pfn}: belongs to enclave {entry.enclave_id}, "
                f"not {enclave_id}"
            )
        if entry.vaddr != vaddr:
            raise EpcmViolation(
                f"pfn {pfn}: linked to vaddr {entry.vaddr:#x}, "
                f"mapped at {vaddr:#x}"
            )
        if entry.pending or entry.modified:
            raise EpcmViolation(
                f"pfn {pfn}: pending/modified — enclave has not EACCEPTed"
            )
        if entry.blocked:
            raise EpcmViolation(f"pfn {pfn}: blocked for eviction")
        if not entry.perms.allows(access):
            raise EpcmViolation(
                f"pfn {pfn}: EPCM perms {entry.perms} deny {access}"
            )
