"""The untrusted host kernel.

Boots the simulated machine (EPC, EPCM, MMU, driver, CPU), dispatches
enclave page faults, and exposes the syscall surface the enclave's
exitless channel calls into.  An attacker, when installed, runs *as*
this kernel — it sees exactly what the kernel sees (the masked fault
stream, the page table, the A/D bits) and may intervene at every fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clock import Category, Clock
from repro.errors import SgxError
from repro.host.backing import BackingStore
from repro.host.driver import SgxDriver
from repro.sgx.columnar import TIER_COLUMNAR, ColumnarEngine, normalize_tier
from repro.sgx.cpu import Cpu
from repro.sgx.epc import EpcAllocator
from repro.sgx.epcm import Epcm
from repro.sgx.instructions import SgxInstructions
from repro.sgx.mmu import Mmu
from repro.sgx.pagetable import PageTable
from repro.sgx.params import (
    DEFAULT_EPC_PAGES,
    ArchOptimizations,
    CostModel,
)
from repro.sgx.epoch import TranslationEpoch
from repro.sgx.tlb import Tlb


@dataclass
class ObservedFault:
    """One entry of the OS's fault log — all the OS ever learns."""

    __slots__ = ("cycles", "vaddr", "write", "exec_", "present")

    cycles: int
    vaddr: int
    write: bool
    exec_: bool
    present: bool


class HostKernel:
    """Assembles the machine and implements the OS half of every flow."""

    def __init__(self, epc_pages=DEFAULT_EPC_PAGES, cost=None,
                 arch_opts=None, autarky_aware=True, tlb_capacity=None,
                 fastpath=TIER_COLUMNAR):
        self.cost = cost or CostModel()
        self.clock = Clock()
        #: Fast-path tier: "off" (the reference semantics) or
        #: "columnar"; ``None`` is "columnar".  See repro.sgx.columnar
        #: and docs/performance.md.
        self.fastpath = normalize_tier(fastpath)
        fast = self.fastpath == TIER_COLUMNAR
        #: One translation generation stamp shared by every component
        #: that can change what a virtual address resolves to; the
        #: columnar tier's compiled stamps key off it.  The "off" tier
        #: keeps the stamp wired (cheap) but turns the MMU's fast path
        #: off and attaches no columnar engine, so every access takes
        #: the classic lookup/walk path — the A/B baseline for
        #: ``python -m repro bench``.
        self.epoch = TranslationEpoch()
        self.page_table = PageTable(epoch=self.epoch)
        self.tlb = Tlb(capacity=tlb_capacity, epoch=self.epoch)
        self.page_table.register_tlb(self.tlb)
        self.epc = EpcAllocator(epc_pages)
        self.epcm = Epcm(epc_pages)
        self.instr = SgxInstructions(self.epc, self.epcm, self.clock,
                                     self.cost, epoch=self.epoch)
        self.instr.tlb = self.tlb
        self.backing = BackingStore()
        self.driver = SgxDriver(self.instr, self.page_table, self.backing,
                                self.clock, self.cost)
        self.mmu = Mmu(self.page_table, self.tlb, self.epcm, self.clock,
                       self.cost, fast=fast)
        self.cpu = Cpu(self.mmu, self.clock, self.cost,
                       arch_opts or ArchOptimizations())
        self.cpu.kernel = self
        if fast:
            self.cpu.columnar = ColumnarEngine(self.tlb, self.epoch)

        #: Whether the OS follows the Autarky protocol (re-enter through
        #: the handler).  A naive or hostile OS that tries silent
        #: ERESUME instead gets the architectural failure.
        self.autarky_aware = autarky_aware
        #: Optional controlled-channel attacker (see repro.attacks).
        self.attacker = None
        #: Optional deterministic fault injector (see repro.chaos):
        #: when installed, every syscall is routed through it so a
        #: scripted Byzantine host can deny, drop, delay, or observe
        #: the paging services the enclave depends on.
        self.fault_injector = None
        #: Everything the OS observed about enclave faults.
        self.fault_log = []

    # -- fault handling ------------------------------------------------------

    def on_enclave_fault(self, enclave, tcs, masked):
        """The kernel's #PF handler for enclave faults.

        ``masked`` is what the hardware lets the OS see: page-granular
        for legacy enclaves, fully masked for self-paging ones.
        """
        self.clock.charge(self.cost.os_fault_handling, Category.OS)
        self.fault_log.append(ObservedFault(
            self.clock.cycles, masked.vaddr, masked.write, masked.exec_,
            masked.present,
        ))

        if self.attacker is not None:
            handled = self.attacker.on_enclave_fault(enclave, tcs, masked)
            if handled:
                return

        if enclave.attributes.self_paging:
            self._autarky_fault_protocol(enclave, tcs)
        else:
            self._legacy_resolve(enclave, masked)

    def _autarky_fault_protocol(self, enclave, tcs):
        """Re-enter the enclave so its trusted handler can run (§5.1.3).

        A kernel that is not Autarky-aware tries the legacy silent
        resume; the hardware rejects it, and the kernel has no choice
        but to fall back to the protocol (or leave the thread dead).
        """
        if not self.autarky_aware:
            try:
                self.cpu.eresume(enclave, tcs)
            except SgxError:
                pass  # forced into the protocol below
            else:
                raise SgxError(
                    "silent ERESUME of a self-paging enclave succeeded — "
                    "hardware model broken"
                )
        self.cpu.eenter(enclave, tcs)
        # The OS cannot read the SSA; checking frame *depth* stands in
        # for the return value of its own EENTER stub (did the handler
        # consume the fault in-enclave, or EEXIT back for an ERESUME?).
        # repro: allow[trust-boundary] models the stub's return path
        if tcs.ssa.depth:
            # The handler EEXITed back to a stub that will ERESUME.
            self.cpu.eexit_cost()

    def _legacy_resolve(self, enclave, masked):
        """Benign demand-paging resolution for a legacy enclave fault.

        The OS sees the faulting page, so it can fix exactly that page:
        remap it if it was unmapped while still resident, page it in if
        it was swapped out or never allocated, or restore permissions.
        """
        self.driver.os_resolve(enclave, masked.vaddr)

    # -- syscall surface (reached via the enclave's exitless channel) -------

    def syscall(self, name, *args):
        """Dispatch one host call.  The exitless channel charges the
        crossing cost; here we charge only kernel-side work."""
        self.clock.charge(self.cost.syscall, Category.OS)
        handler = getattr(self.driver, name, None)
        if handler is None:
            raise SgxError(f"unknown syscall {name!r}")
        if self.fault_injector is not None:
            return self.fault_injector.around_syscall(name, args, handler)
        return handler(*args)

    # -- memory ballooning (§5.2.1 extension) --------------------------------

    def request_memory_reduction(self, enclave, pages):
        """Upcall the enclave asking it to shrink by ``pages`` pages.

        Returns the number of pages the enclave actually surrendered
        (0 = refusal or a legacy enclave with no balloon support).  The
        enclave answers through its trusted runtime, surrendering only
        whole eviction units, so the upcall leaks nothing beyond what
        its ordinary self-paging already does.
        """
        # The three reads below model the balloon upcall ABI — an
        # EENTER with the request in a register and the response read
        # back at EEXIT — not the OS inspecting enclave memory.  The
        # enclave still chooses what (and whether) to answer.
        # repro: allow[trust-boundary] upcall ABI stand-in (EENTER arg)
        runtime = enclave.runtime
        if runtime is None or getattr(runtime, "balloon", None) is None:
            return 0
        if pages <= 0 or enclave.dead:
            return 0
        tcs = enclave.tcs_list[0]
        # repro: allow[trust-boundary] request register of the upcall
        runtime._balloon_request = pages
        self.cpu.eenter(enclave, tcs)
        self.cpu.eexit_cost()
        # repro: allow[trust-boundary] response register of the upcall
        return runtime._balloon_response
