"""Architectural constants and the calibrated cycle-cost model.

The cost model is calibrated so that the component breakdown of a page
fault / page eviction matches the paper's Figure 5 (≈27k cycles per
fault on the SGXv1 path, ≈32k on the SGXv2 path, with the two enclave
transition pairs accounting for 40–50% of fault latency), and so that
the pessimistic 10-cycle TLB-fill check reproduces the §7 nbench
analysis.  Absolute numbers are not the claim — ratios between the
configurations the paper compares are.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.immutable import share

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
#: ``vaddr & PAGE_MASK`` is the base of the page holding ``vaddr``.
PAGE_MASK = ~(PAGE_SIZE - 1)

#: Default EPC of the paper's evaluation machine: 256 MB reserved,
#: ≈190 MB usable for enclave pages.
DEFAULT_EPC_BYTES = 190 * 1024 * 1024
DEFAULT_EPC_PAGES = DEFAULT_EPC_BYTES // PAGE_SIZE

#: Batch size the Intel driver (and our runtime) uses for evictions.
EVICTION_BATCH = 16

#: Default number of SSA frames provisioned per TCS.  §5.3: "we
#: provision sufficient SSA stack to permit detection" of re-entrancy.
DEFAULT_NSSA = 4


def vpn_of(vaddr):
    """Virtual page number of an address."""
    return vaddr >> PAGE_SHIFT


def page_base(vaddr):
    """Base address of the page containing ``vaddr``."""
    return vaddr & PAGE_MASK


class AccessType(enum.Enum):
    """Kind of memory access, as seen by the MMU."""

    READ = "r"
    WRITE = "w"
    EXEC = "x"


class SgxVersion(enum.Enum):
    """Which paging mechanism the runtime uses (§6 of the paper).

    SGX1: privileged EWB/ELDU executed by the driver.
    SGX2: dynamic memory management (EAUG/EACCEPTCOPY/EMODT/...) with
    in-enclave crypto, more flexible but with an extra enclave crossing.
    """

    SGX1 = 1
    SGX2 = 2


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for every architectural event in the simulation.

    Components of the Figure 5 stacked bars:

    * ``aex`` + ``eresume``  — "Enclave preempt. (AEX+ERESUME)"
    * ``eenter`` + ``eexit`` — "PF handler invoc. (EENTER+EEXIT)"
    * ``autarky_handler``    — "Autarky PF handler overhead"
    * instruction costs      — "SGX paging (inc. encrypt/decrypt)"
    """

    __deepcopy__ = share

    # Enclave transitions.  The paper cites prior work [48]: invoking an
    # enclave exception handler costs >6x a signal handler, and
    # transitions flush TLB and L1.
    aex: int = 4_000
    eresume: int = 3_000
    eenter: int = 4_200
    eexit: int = 4_000

    # Trusted runtime logic on the fault path (bookkeeping, policy).
    autarky_handler: int = 1_200

    # SGX1 privileged paging instructions (per page, incl. HW crypto).
    ewb: int = 9_000
    eldu: int = 10_000

    # SGX2 dynamic memory management (per page).  The SGX2 paging path
    # ends up costlier than SGX1's EWB/ELDU (§7.1): software crypto
    # plus the EACCEPTCOPY copy beat the hardware-assisted reload.
    eaug: int = 2_500
    eaccept: int = 2_000
    eacceptcopy: int = 6_500
    emodpr: int = 2_000
    emodt: int = 2_000
    eremove: int = 1_500

    # Software AES-NI crypto for the SGX2 path (per page).
    encrypt_page: int = 3_500
    decrypt_page: int = 3_500

    # Page walk on TLB miss, and Autarky's extra accessed/dirty check
    # (the paper's pessimistic assumption: 10 cycles per fill).
    tlb_fill: int = 40
    autarky_ad_check: int = 10

    # Crash-consistent recovery (repro.recovery): sealing a checkpoint
    # snapshot, appending one journal record, and replaying one record
    # during restore.  Sized like the SGX2 software-crypto path: MAC a
    # small record ≈ one page MAC; a checkpoint seals a multi-page
    # canonical state blob.
    journal_append: int = 1_800
    checkpoint_seal: int = 14_000
    journal_replay: int = 600

    # Host interaction.
    syscall: int = 1_500          # plain kernel entry (no enclave cross)
    exitless_call: int = 3_500    # exitless RPC to an untrusted thread
    os_fault_handling: int = 900  # kernel #PF dispatch bookkeeping
    pte_update: int = 300         # map/unmap/protect one PTE + shootdown share

    def transition_pair_aex(self):
        """Cost of one preemption round trip (AEX then ERESUME)."""
        return self.aex + self.eresume

    def transition_pair_call(self):
        """Cost of one handler invocation round trip (EENTER then EEXIT)."""
        return self.eenter + self.eexit


@dataclass(frozen=True)
class ArchOptimizations:
    """The paper's optional, more intrusive hardware optimizations (§5.1.3).

    ``elide_aex``: on a fault the CPU stays in enclave mode and jumps to
    the in-enclave handler directly (no AEX, no OS, no EENTER).
    ``in_enclave_resume``: an in-enclave ERESUME variant pops the SSA
    frame without an EEXIT/ERESUME round trip through the host.

    Table 2 and Figure 7 report results with and without these
    ("no upcall" enables ``in_enclave_resume``; "no upcall/AEX" enables
    both).
    """

    __deepcopy__ = share

    elide_aex: bool = False
    in_enclave_resume: bool = False
