"""The lifecycle automata as an executable runtime oracle.

The static pass runs the protocol automata over ops collected from the
AST; this module runs the *same automata* over ops observed from a live
system — the instruction layer's ``op_observer``, the CPU's transition
observer, the page table's drop observer, and the recovery manager's
``lifecycle_observer``.  One spec, two interpreters: a protocol bug
caught statically is caught dynamically and vice versa, and the model
checker attaches this oracle to every explored state.

Two runtime-only differences from the static feed:

* ops carry empty branch vectors (a live trace has no sibling arms), so
  the automata's comparability check is exact rather than conservative;
* the resume rule can be *strict* online — an ERESUME is legal only
  while an AEX is outstanding on that TCS — instead of the static
  pass's observed-inversion conservatism, because at runtime there is
  no "the AEX happened in another function" ambiguity.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.analysis.passes.lifecycle.automaton import (
    RULE_RESUME,
    EvictAutomaton,
    LaunchAutomaton,
    Op,
    RecoveryAutomaton,
)
from repro.sgx.params import page_base

#: The branch vector of every live op: one read-only empty mapping.
NO_BRANCH = MappingProxyType({})


class LifecycleOracle:
    """Feeds live protocol events into the shared lifecycle automata.

    Install on a booted kernel (and optionally a recovery manager);
    every protocol violation lands in :attr:`violations` as ``(rule,
    seq, message)`` where ``seq`` is the 1-based position in the
    observed op stream (the runtime analogue of a source line).
    """

    def __init__(self):
        self.violations = []
        #: Ops observed, for counterexample reports.
        self.trace = []
        self._launch = LaunchAutomaton()
        self._evict = EvictAutomaton()
        self._recovery = RecoveryAutomaton()
        #: TCS id -> outstanding AEX frames (strict online resume rule).
        self._outstanding_aex = {}
        #: page -> owning enclave key.  Eviction-protocol state belongs
        #: to one enclave *incarnation*: after a crash the relaunched
        #: enclave reuses the same addresses, and its fresh EBLOCK/EWB
        #: sequences must not be judged against the dead incarnation's
        #: history.  Page-table drops carry no enclave, so ownership is
        #: remembered from the last ISA op that touched the page.
        self._page_owner = {}
        self._seq = 0
        self._targets = []

    # -- installation ------------------------------------------------------

    def install(self, kernel, manager=None):
        """Attach to every observation point of one booted kernel."""
        self._attach(kernel.instr, "op_observer", self._on_isa)
        self._attach(kernel.cpu, "op_observer", self._on_cpu)
        self._attach(kernel.page_table, "op_observer", self._on_drop)
        if manager is not None:
            self.watch_manager(manager)
        return self

    def watch_manager(self, manager):
        """Attach to a recovery manager (call again after relaunch if a
        new manager is created; re-binding the same one is free)."""
        self._attach(manager, "lifecycle_observer", self._on_recovery)

    def _attach(self, host, attr, hook):
        self._targets.append((host, attr, getattr(host, attr)))
        setattr(host, attr, hook)

    def uninstall(self):
        for host, attr, previous in reversed(self._targets):
            setattr(host, attr, previous)
        self._targets = []

    @property
    def ok(self):
        return not self.violations

    # -- event feeds -------------------------------------------------------

    def _feed(self, automaton, name, encl=None, page=None):
        self._seq += 1
        self.trace.append((self._seq, name, encl, page))
        op = Op(name, encl, page, self._seq, NO_BRANCH)
        self.violations.extend(automaton.feed(op) or ())

    def _on_isa(self, name, enclave, vaddr):
        key = f"enclave-{enclave.enclave_id}"
        page = None if vaddr is None else hex(page_base(vaddr))
        if page is not None:
            self._page_owner[page] = key
        if name in ("eblock", "ewb", "eldu"):
            self._feed(self._evict, name, encl=key,
                       page=f"{key}:{page}")
        else:
            self._feed(self._launch, name, encl=key, page=page)

    def _on_drop(self, name, vaddr):
        page = hex(page_base(vaddr))
        owner = self._page_owner.get(page, "os")
        self._feed(self._evict, "drop", page=f"{owner}:{page}")

    def _on_cpu(self, name, enclave, tcs):
        key = f"enclave-{enclave.enclave_id}"
        if name == "aex":
            self._outstanding_aex[id(tcs)] = \
                self._outstanding_aex.get(id(tcs), 0) + 1
        elif name == "eresume":
            pending = self._outstanding_aex.get(id(tcs), 0)
            if pending <= 0:
                self._seq += 1
                self.violations.append((
                    RULE_RESUME, self._seq,
                    f"ERESUME({key}) with no outstanding AEX on this "
                    f"TCS (op {self._seq})",
                ))
                return
            self._outstanding_aex[id(tcs)] = pending - 1
        elif name == "eenter":
            self._feed(self._launch, "eenter", encl=key)

    def _on_recovery(self, name):
        # One manager per oracle-attached world: a stable key keeps
        # violation messages (and therefore exploration digests)
        # deterministic across processes.
        self._feed(self._recovery, name, encl="manager")
