"""Enclave execution engine: transitions, AEX, and fault delivery.

This module wires the pieces together the way the silicon does:

* :meth:`Cpu.access` is the enclave's load/store/fetch path — TLB, walk,
  and on a fault the full AEX → OS → (EENTER handler) → ERESUME dance of
  Figure 1 / Figure 2 of the paper.
* Autarky's pending-exception flag (§5.1.3) is enforced here: ERESUME
  fails while the flag is set, so the OS can never silently swallow a
  fault of a self-paging enclave.
* Fault-address masking (§5.1.2): self-paging enclaves report every
  fault as a read at the enclave base; legacy enclaves leak the page
  number (offset zeroed), which is precisely the controlled channel.
* The optional hardware optimizations (§5.1.3 "Eliding AEX" and
  "Resuming from exceptions") are modelled by
  :class:`repro.sgx.params.ArchOptimizations`.
"""

from __future__ import annotations

import enum

from repro.clock import Category
from repro.errors import EnclaveTerminated, PageFault, SgxError
from repro.sgx.params import (
    PAGE_MASK,
    PAGE_SHIFT,
    AccessType,
    ArchOptimizations,
)
from repro.sgx.ssa import ExitInfo, SsaFrame


class ExecutionMode(enum.Enum):
    HOST = "host"
    ENCLAVE = "enclave"


#: Retries of one access before the CPU declares the platform wedged.
#: A legitimate access faults at most a couple of times (demand paging,
#: then possibly an A/D refresh); anything more is a broken OS/runtime.
MAX_FAULT_RETRIES = 8


class Cpu:
    """One logical core executing enclave code."""

    def __init__(self, mmu, clock, cost, arch_opts=None):
        self.mmu = mmu
        self.clock = clock
        self.cost = cost
        self.arch_opts = arch_opts or ArchOptimizations()
        #: The untrusted OS; attached by the kernel at boot
        #: (``kernel.attach_cpu``) to break the construction cycle.
        self.kernel = None
        self.mode = ExecutionMode.HOST
        #: Optional lifecycle witness (the model checker's runtime
        #: oracle), called ``op_observer(name, enclave, tcs)`` after
        #: each completed entry/exit transition.
        self.op_observer = None
        #: Columnar batch interpreter (repro.sgx.columnar), attached by
        #: the kernel when the fast-path tier is "columnar" and ``None``
        #: at tier off.  The CPU never runs it: the access engines'
        #: replay frontends find it here.
        self.columnar = None
        #: Event counters for experiments.
        self.aex_count = 0
        self.eenter_count = 0
        self.eresume_count = 0
        self.eexit_count = 0
        self.fault_count = 0

    # -- the enclave data path ---------------------------------------------

    # repro: hot
    def access(self, enclave, tcs, vaddr, access):
        """Perform one enclave memory access, resolving faults.

        Returns the translated PFN.  Raises
        :class:`~repro.errors.EnclaveTerminated` if trusted software
        kills the enclave while handling a fault.
        """
        if enclave.dead:
            enclave.require_alive()
        pfn = self.mmu.fast_hit(vaddr, access)
        if pfn is not None:
            return pfn
        translate = self.mmu.translate_nofault
        for _ in range(MAX_FAULT_RETRIES):
            pfn, fault = translate(vaddr, access, enclave)
            if fault is None:
                return pfn
            self.fault_count += 1
            self.deliver_fault(enclave, tcs, fault)
        raise SgxError(
            f"access to {vaddr:#x} still faulting after "
            f"{MAX_FAULT_RETRIES} OS interventions"
        )

    # repro: hot
    def access_run(self, enclave, tcs, vaddrs, access):
        """Batched :meth:`access` over an iterable of addresses.

        Semantically identical to calling :meth:`access` per address in
        order — same fault sequence, same counters, same cycle charges —
        but fast-path hits are probed against the TLB's entry map
        directly and their ``tlb.hits`` accounting is flushed in bulk,
        so a steady-state run of N pages costs N dict probes rather
        than N full call chains.  Returns the list of PFNs.

        ``vaddrs`` may be any iterable, a
        :class:`~repro.sgx.columnar.PageRun` included: its columnar
        caller (:class:`~repro.sgx.columnar.ReplayFrontend`) has already
        tried to compile it, so here it is only the addresses it yields.
        """
        if enclave.dead:
            enclave.require_alive()
        mmu = self.mmu
        # Optimistic probe: TLB probes have no side effects, so the
        # whole run can be resolved in one pass when every page hits —
        # the steady-state common case.
        pfns = mmu.probe_run(vaddrs, access)
        if pfns is not None:
            return pfns
        entries = mmu.tlb_entries
        if entries is None:
            # Fast path off: plain per-address path.
            return [self.access(enclave, tcs, v, access) for v in vaddrs]

        # At least one miss: replay sequentially, because a miss's
        # fault handling flushes the TLB — pages after it must re-walk
        # exactly as the unbatched loop would.  The TLB changes
        # ``entries`` in place, so the probe below always sees it live.
        get = entries.get
        read = access is AccessType.READ
        tlb = mmu.tlb
        pfns = []
        append = pfns.append
        hits = 0
        for vaddr in vaddrs:
            entry = get(vaddr >> PAGE_SHIFT)
            if entry is None or not (read or entry.allows(access)):
                # Settle accumulated hits *before* the slow path so the
                # counter sequence matches the unbatched equivalent.
                if hits:
                    tlb.hits += hits
                    hits = 0
                append(self.access(enclave, tcs, vaddr, access))
            else:
                hits += 1
                append(entry.pfn)
        if hits:
            tlb.hits += hits
        return pfns

    # -- transitions ---------------------------------------------------------

    def aex(self, enclave, tcs, fault):
        """Asynchronous enclave exit on a page fault: the SSA frame
        saves the true fault, with the access decoded from the error
        code."""
        self.aex_count += 1
        self.clock.charge(self.cost.aex, Category.AEX_ERESUME)
        access = (AccessType.EXEC if fault.exec_ else
                  AccessType.WRITE if fault.write else AccessType.READ)
        tcs.ssa.push(SsaFrame(
            ExitInfo("#PF", fault.vaddr, access, fault.present,
                     fault.reason),
            fault,
        ))
        if enclave.attributes.self_paging:
            tcs.pending_exception = True
        self.mmu.tlb.flush()
        self.mode = ExecutionMode.HOST
        if self.op_observer is not None:
            self.op_observer("aex", enclave, tcs)

    def interrupt(self, enclave, tcs):
        """Asynchronous exit for a hardware interrupt (timer, IPI).

        Interrupts are the *other* AEX cause of §2.1 and must remain
        OS-resumable: Autarky's pending-exception flag is set only for
        page faults ("on any page fault, the processor sets the
        pending exception flag", §5.1.3), so a normally scheduled
        enclave keeps working — but an interrupt-storm single-stepper
        (SGX-Step [66]) gains nothing, because the information it
        would harvest (fault addresses, A/D bits) is what the other
        changes removed.
        """
        self.aex_count += 1
        self.clock.charge(self.cost.aex, Category.AEX_ERESUME)
        # No exception information: the SSA frame holds only context.
        tcs.ssa.push(SsaFrame(exitinfo=None, saved_context="irq"))
        self.mmu.tlb.flush()
        self.mode = ExecutionMode.HOST
        if self.op_observer is not None:
            self.op_observer("aex", enclave, tcs)

    def resume_from_interrupt(self, enclave, tcs):
        """ERESUME after an interrupt — legal even for self-paging
        enclaves (the pending flag was never set)."""
        self.eresume(enclave, tcs)

    def eenter(self, enclave, tcs):
        """Enter the enclave at its attested entry point.

        Runs the trusted runtime's dispatcher synchronously and charges
        the EENTER cost.  The caller (OS) must pair it with
        :meth:`eexit_cost` unless the in-enclave-resume optimization
        consumed the frame.
        """
        if enclave.dead:
            enclave.require_alive()
        if enclave.runtime is None:
            raise SgxError("enclave has no trusted runtime registered")
        if tcs.busy:
            raise SgxError("EENTER on a busy TCS")
        self.eenter_count += 1
        self.clock.charge(self.cost.eenter, Category.EENTER_EEXIT)
        self.mmu.tlb.flush()
        tcs.pending_exception = False
        tcs.busy = True
        self.mode = ExecutionMode.ENCLAVE
        if self.op_observer is not None:
            self.op_observer("eenter", enclave, tcs)
        try:
            enclave.runtime.on_enter(tcs)
        except EnclaveTerminated:
            # Fail-stop: trusted software aborted during this entry
            # (attack detected, integrity failure, livelock guard) —
            # the enclave must never run again on tainted state.
            enclave.dead = True
            raise
        finally:
            tcs.busy = False

    def eexit_cost(self):
        """Charge an EEXIT (control transfer back to the host)."""
        self.eexit_count += 1
        self.clock.charge(self.cost.eexit, Category.EENTER_EEXIT)
        self.mmu.tlb.flush()
        self.mode = ExecutionMode.HOST

    def eresume(self, enclave, tcs):
        """Resume from the saved SSA frame (replays the faulting access).

        §5.1.3: for a self-paging enclave, ERESUME *fails* while the
        pending-exception flag is set — the change that removes the
        attacker's ability to hide faults from the enclave.
        """
        if enclave.dead:
            enclave.require_alive()
        if enclave.attributes.self_paging and tcs.pending_exception:
            raise SgxError(
                "ERESUME rejected: pending exception not yet delivered "
                "to the enclave (Autarky)"
            )
        tcs.ssa.pop()
        self.eresume_count += 1
        self.clock.charge(self.cost.eresume, Category.AEX_ERESUME)
        self.mmu.tlb.flush()
        self.mode = ExecutionMode.ENCLAVE
        if self.op_observer is not None:
            self.op_observer("eresume", enclave, tcs)

    # -- fault orchestration ---------------------------------------------

    def deliver_fault(self, enclave, tcs, fault):
        """Full fault-resolution flow for one #PF."""
        self_paging = enclave.attributes.self_paging
        if self_paging and self.arch_opts.elide_aex:
            self._elided_fault(enclave, tcs, fault)
            return

        self.aex(enclave, tcs, fault)
        try:
            self.kernel.on_enclave_fault(
                enclave, tcs, self.masked_fault(enclave, fault)
            )
        except EnclaveTerminated:
            enclave.dead = True
            raise
        if self_paging and tcs.pending_exception:
            # A correct OS re-enters through the handler; one that does
            # not leaves the thread unresumable.  Surface that loudly.
            raise SgxError(
                "OS returned from fault without re-entering the enclave"
            )
        if tcs.ssa.depth == 0:
            # The in-enclave-resume optimization already popped the
            # frame and conceptually continued execution inside.
            self.mode = ExecutionMode.ENCLAVE
            return
        self.eresume(enclave, tcs)

    def _elided_fault(self, enclave, tcs, fault):
        """§5.1.3 optimization: stay in enclave mode, simulate a nested
        re-entry straight into the handler.  No AEX, no OS, no EENTER —
        the OS never even learns a fault occurred (unless the handler
        asks it for pages).  The SSA frame is the one :meth:`aex`
        saves."""
        access = (AccessType.EXEC if fault.exec_ else
                  AccessType.WRITE if fault.write else AccessType.READ)
        tcs.ssa.push(SsaFrame(
            ExitInfo("#PF", fault.vaddr, access, fault.present,
                     fault.reason),
            fault,
        ))
        try:
            enclave.runtime.handle_fault(tcs)
        except EnclaveTerminated:
            enclave.dead = True
            raise
        if tcs.ssa.depth:
            tcs.ssa.pop()

    # repro: allow[cycle-accounting] rewrites fault info; no architectural cost
    def masked_fault(self, enclave, fault):
        """The fault information the OS is allowed to see.

        Legacy SGX zeroes the page offset; Autarky (§5.1.2) reports a
        consistent read fault at the enclave base so the OS learns only
        that *some* enclave fault happened.
        """
        if enclave.attributes.self_paging:
            return PageFault(enclave.base, False, False, False,
                             "enclave fault (masked)")
        return PageFault(fault.vaddr & PAGE_MASK, fault.write, fault.exec_,
                         fault.present, fault.reason)
