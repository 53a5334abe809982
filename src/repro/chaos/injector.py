"""The fault injector: wires a :class:`FaultPlan` into the host.

Installation points:

* ``kernel.fault_injector`` — every syscall the enclave's exitless
  channel issues passes through :meth:`FaultInjector.around_syscall`,
  which may deny it, lie about it, stall it, or let it through while
  observing what the enclave consumed;
* ``kernel.instr.fault_hook`` — EAUG consults the hook before
  allocating, so the injector can model hardware-level refusal.

Everything the injector does is recorded as
:class:`~repro.core.trace.InjectionEvent` on the simulated timeline,
and the injector doubles as the campaign's ground-truth witness: if the
enclave loaded a blob its backing store marks as attacker-written and
no abort followed, :attr:`silent_consumption` proves the safety
invariant fell.  The driver loads from the kernel's store inside
``ay_fetch_pages`` and ``os_resolve``; an SGX2 runtime loads from its
own store, unsealing in the enclave after ``sgx2_augment_batch``
returns, so those pages are judged at the injector's next look.
"""

from __future__ import annotations

from repro.clock import Category
from repro.core.trace import InjectionEvent
from repro.errors import EpcExhausted, HostCallDenied
from repro.chaos.plan import (
    INSTRUCTION_KINDS,
    SYSCALL_KINDS,
    FaultKind,
)
from repro.sgx.params import page_base, vpn_of


class _ArmedFault:
    """One scheduled syscall/instruction-level fault with its budget."""

    #: How many matching calls one DELAY_RESPONSE event stalls.
    DELAY_FIRES = 2

    def __init__(self, event):
        self.event = event
        self.kind = event.kind
        if self.kind is FaultKind.DELAY_RESPONSE:
            self.remaining = self.DELAY_FIRES
            self.delay_cycles = event.param
        else:
            self.remaining = event.param
            self.delay_cycles = 0

    def matches_syscall(self, name):
        return (
            self.remaining > 0
            and name in SYSCALL_KINDS.get(self.kind, ())
        )

    def matches_instruction(self, instruction):
        return (
            self.remaining > 0
            and self.kind in INSTRUCTION_KINDS
            and instruction == "eaug"
        )


class FaultInjector:
    """Executes the armed half of a fault plan against one enclave.

    ``store`` is where the enclave's runtime keeps its sealed pages
    (``paging_ops.store``): the kernel's backing store on SGX1, the
    runtime's own on SGX2."""

    def __init__(self, plan, kernel, enclave, store=None):
        self.plan = plan
        self.kernel = kernel
        self.enclave = enclave
        self.store = kernel.backing if store is None else store
        self.current_op = 0
        self._armed = [_ArmedFault(e) for e in plan.armed_events()]
        #: Everything that fired, on the simulated timeline.
        self.events = []
        #: Kinds that actually fired (not merely armed).
        self.fired_kinds = set()
        #: Tainted blobs the host handed out that the enclave accepted
        #: without an abort — each entry is a safety-invariant breach.
        self.silent_consumption = []
        #: Pages ``sgx2_augment_batch`` EAUGed whose runtime-store blob
        #: is tainted, for :meth:`_settle` to judge once the runtime has
        #: unsealed them.
        self._unsealing = []

    # -- installation ------------------------------------------------------

    def install(self):
        self.kernel.fault_injector = self
        self.kernel.instr.fault_hook = self.on_instruction
        return self

    def uninstall(self):
        self._settle()
        if self.kernel.fault_injector is self:
            self.kernel.fault_injector = None
        if self.kernel.instr.fault_hook == self.on_instruction:
            self.kernel.instr.fault_hook = None

    def advance_to_op(self, op_index):
        """Called by the campaign before each workload operation."""
        self._settle()
        self.current_op = op_index

    # -- hook implementations ---------------------------------------------

    def around_syscall(self, name, args, handler):
        """Intercept one host call (installed in HostKernel.syscall)."""
        self._settle()
        fault = self._active_syscall_fault(name)
        if fault is not None:
            kind = fault.kind
            fault.remaining -= 1
            if kind is FaultKind.DELAY_RESPONSE:
                # Stall, then serve: the host is slow, not refusing.
                self.kernel.clock.charge(fault.delay_cycles, Category.OS)
                self._record(kind, name, f"stalled {fault.delay_cycles}")
            elif kind is FaultKind.DROP_FETCH:
                # The lie: claim success, do nothing.  The enclave's
                # own bookkeeping is the only thing that can catch it.
                self._record(kind, name, "reported success, did nothing")
                return [page_base(v) for v in args[1]]
            else:
                self._record(kind, name, "refused")
                raise HostCallDenied(
                    f"host refused {name} ({kind.value} injection)"
                )
        at_risk = self._tainted_targets(name, args)
        result = handler(*args)
        if at_risk and name == "sgx2_augment_batch":
            # The runtime unseals these after the call returns.
            self._unsealing += at_risk
        elif at_risk:
            enclave = args[0]
            # Only blobs that were genuinely loaded count: the driver
            # skips already-resident pages without touching the store.
            self._consumed(name, [
                v for v in at_risk if self._now_resident(enclave, v)
            ])
        return result

    def on_instruction(self, instruction, enclave, vaddr):
        """EAUG hook: refuse augmentation to model EPC pressure."""
        for fault in self._armed:
            if (fault.event.at_op <= self.current_op
                    and fault.matches_instruction(instruction)):
                fault.remaining -= 1
                self._record(fault.kind, instruction,
                             f"refused at {vaddr:#x}")
                raise EpcExhausted(
                    f"injected EAUG refusal at {vaddr:#x} (EPC pressure)"
                )

    # -- campaign-side logging --------------------------------------------

    def record_op_event(self, event, detail=""):
        """Log an op-level event the campaign just applied."""
        self._record(event.kind, "op", detail)

    def record_skipped(self, event, why):
        """An op-level event found no viable target (e.g. nothing is
        swapped out yet) — logged so coverage accounting stays honest."""
        self.events.append(InjectionEvent(
            cycles=self.kernel.clock.cycles,
            kind=event.kind.value,
            point="skipped",
            detail=why,
        ))

    # -- internals ---------------------------------------------------------

    def _active_syscall_fault(self, name):
        for fault in self._armed:
            if (fault.event.at_op <= self.current_op
                    and fault.matches_syscall(name)):
                return fault
        return None

    def _tainted_targets(self, name, args):
        """Non-resident requested pages whose stored blob is hostile
        (the pages this call would load from tampered storage)."""
        if name == "sgx2_augment_batch":
            tainted = self.store.tainted
        elif name in ("ay_fetch_pages", "os_resolve"):
            tainted = self.kernel.backing.tainted
        else:
            return []
        if not tainted:
            return []
        enclave = args[0]
        vaddrs = [args[1]] if name == "os_resolve" else args[1]
        return [
            page_base(v) for v in vaddrs
            if (enclave.enclave_id, page_base(v)) in tainted
            and not self._now_resident(enclave, v)
        ]

    def _settle(self):
        """Judge the pages an earlier ``sgx2_augment_batch`` handed the
        runtime tainted blobs for: a page whose EPCM entry is no longer
        pending was EACCEPTCOPYed, so the runtime accepted the blob; one
        still pending (or gone) was rejected."""
        if not self._unsealing:
            return
        pages, self._unsealing = self._unsealing, []
        backed = self.enclave.backed
        entry = self.kernel.epcm.entry
        self._consumed("sgx2_augment_batch", [
            v for v in pages
            if vpn_of(v) in backed and not entry(backed[vpn_of(v)]).pending
        ])

    def _consumed(self, point, pages):
        """``pages`` loaded attacker-written blobs with no abort: the
        crypto layer failed to reject them."""
        if not pages:
            return
        self.silent_consumption.extend(pages)
        self._record(
            FaultKind.TAMPER_BACKING, point,
            f"tainted blob consumed without abort: "
            f"{[hex(v) for v in pages]}",
        )

    @staticmethod
    def _now_resident(enclave, vaddr):
        return vpn_of(vaddr) in enclave.backed

    def _record(self, kind, point, detail):
        self.fired_kinds.add(kind)
        self.events.append(InjectionEvent(
            cycles=self.kernel.clock.cycles,
            kind=kind.value,
            point=point,
            detail=detail,
        ))
