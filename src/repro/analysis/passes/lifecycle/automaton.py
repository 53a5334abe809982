"""Static protocol automata over SGX ISA call sites.

The driver, runtime, and experiments issue the modeled ISA as ordinary
method calls (``self.instr.eblock(enclave, base)``), so orderliness —
the property Guardian checks for real enclaves — is statically visible:
collect the ISA calls of each function in source order, key them by the
enclave/page expression they name, and run three small automata:

* **launch** — ECREATE → EADD/EADD_TCS/EEXTEND → EINIT → EENTER.
  Flags EADD-family calls after EINIT or EENTER, EINIT after EENTER,
  and a second EINIT.  ECREATE resets the key (loops that build fresh
  enclaves are fine); SGX2 EAUG is legal after EINIT and is not in the
  EADD family.
* **evict** — EBLOCK → page-table drop (the TLB shootdown) → EWB.
  Flags EBLOCK after the drop, either of them after EWB.  ELDU resets
  the key (evict/reload cycles are fine).  The bulk forms
  (``eblock_pages``, ``drop_pages``, ``ewb_pages``, ``eldu_pages``) are
  the same ops keyed by their batch argument.
* **resume** — AEX → ERESUME.  Only *observed* inversions are flagged:
  an ERESUME with no comparable AEX before it but one after it.  A
  function that resumes an enclave suspended elsewhere is not ours to
  judge.
* **recovery** — crash → relaunch → restore (the PR 5 crash/restore
  protocol).  Flags a ``restore`` that observably precedes the
  ``crash`` it recovers from, and journal activity (``note_*`` record
  appends, ``seal_checkpoint``) issued to a manager whose enclave
  crashed without an intervening ``restore`` — records appended to a
  dead incarnation are lost, checkpoints sealed over it anchor garbage.

Each automaton is a small class with an incremental ``feed(op)`` step,
so the *same spec* drives two consumers: the static pass (ops collected
from the AST by :class:`OpCollector`) and the model checker's runtime
oracle (:mod:`repro.analysis.passes.lifecycle.oracle`, ops observed
live from the instruction/CPU/recovery layers).

Two kinds of false positive are designed out.  Ops in sibling branch
arms carry *branch vectors* (``{id(if_node): arm}``) and are compared
only when their vectors agree on every shared node — ``if fast: ewb()
else: eblock(); ewb()`` is not an inversion.  And ``with
pytest.raises(...)`` bodies are skipped entirely: negative tests
deliberately mis-call the ISA to assert it refuses.

Calls that resolve (via the project call graph) to exactly one function
in a lifecycle module are *spliced*: the callee's ops are inlined at
the call site with parameter names rebound to the caller's argument
expressions, up to depth 4, so an experiment that calls
``driver.evict_page`` and ``driver.page_in`` in the wrong order is
caught even though it never names an ISA call itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.analysis.walker import attr_chain
from repro.immutable import share

RULE_LAUNCH = "lifecycle/launch-order"
RULE_EVICT = "lifecycle/evict-order"
RULE_RESUME = "lifecycle/resume-order"
RULE_RECOVERY = "lifecycle/recovery-order"

#: op name -> (enclave-key arg position, page-key arg position).
#: Positions ignore the receiver (``self.instr.ewb(enclave, base)`` has
#: ``enclave`` at 0).  ``None`` means the op does not name that key.
ISA_OPS = {
    "ecreate": (None, None),      # enclave key = the assignment target
    "eadd": (0, 1),
    "eadd_tcs": (0, 1),
    "eextend": (0, 1),
    "einit": (0, None),
    "eenter": (0, None),
    "eresume": (0, None),
    "aex": (0, None),
    "eblock": (0, 1),
    "ewb": (0, 1),
    "eldu": (0, 1),
}

#: Bulk forms of the paging ops -> the op each one performs over its
#: batch.  Positions are the single form's, so the page key is the batch
#: argument: ``eblock_pages(enclave, bases)``, then
#: ``page_table.drop_pages(bases)``, then ``ewb_pages(enclave, bases)``
#: is EBLOCK → drop → EWB on the key ``bases``.
BULK_OPS = {
    "eblock_pages": "eblock",
    "ewb_pages": "ewb",
    "eldu_pages": "eldu",
    "drop_pages": "drop",
}

#: ``drop`` is a page-table method name, not ISA; only treat it as the
#: shootdown step when called on something that is plainly a page table.
DROP_RECEIVERS = frozenset({"page_table", "pagetable", "pt"})

ADD_FAMILY = frozenset({"eadd", "eadd_tcs", "eextend"})

#: Recovery-protocol ops (PR 5 crash/restore), keyed by the manager
#: expression they are called on.  ``crash`` kills the incarnation,
#: ``restore`` replays the journal onto a relaunched one, and the
#: journal-record family appends to the sealed journal (``begin`` seals
#: the base checkpoint, ``seal_checkpoint`` anchors, ``note_*`` append
#: one record each).  The ``note_*``/``seal_checkpoint`` names are
#: distinctive; ``crash`` and ``restore`` are generic method names, so
#: they only count when called on a receiver that is plainly a recovery
#: manager (mirroring :data:`DROP_RECEIVERS`).
RECOVERY_RECEIVERS = frozenset({
    "manager", "recovery", "recovery_manager", "mgr", "rm",
})
RECOVERY_RECORD_OPS = frozenset({
    "begin", "seal_checkpoint", "note_fault", "note_progress",
    "note_balloon", "note_claim", "note_release", "note_regroup",
    "note_oram",
})

MAX_SPLICE_DEPTH = 4


@dataclass(frozen=True, eq=False)
class Op:
    """One protocol op on the enclave and page keys it names, at a
    source line (or, fed live, a position in the op stream), under the
    branch vector ``{id(if_node): arm}`` of the arms it sits in.  Two
    ops are the same op only if they are the same object."""

    __slots__ = ("name", "encl", "page", "line", "branch")
    __deepcopy__ = share

    name: str
    encl: Optional[str]
    page: Optional[str]
    line: int
    branch: Mapping


def comparable(a, b):
    """Two ops can execute in one run iff their branch vectors agree on
    every shared If node."""
    for node_id, arm in a.branch.items():
        if b.branch.get(node_id, arm) != arm:
            return False
    return True


def _key_of(expr):
    chain = attr_chain(expr)
    return ".".join(chain) if chain else None


def _is_pytest_raises(with_node):
    for item in with_node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            chain = attr_chain(expr.func)
            if chain and chain[-1] == "raises":
                return True
    return False


class OpCollector:
    """Collects the ISA ops of one function (or module body) in source
    order, splicing resolved lifecycle callees."""

    def __init__(self, project, config, module, caller):
        self.project = project
        self.config = config
        self.module = module
        self.caller = caller
        self.ops = []
        self.branch = {}
        self._stack = set()        # splice recursion guard (qualnames)

    def collect(self, body):
        for stmt in body:
            self._stmt(stmt)
        return self.ops

    # -- statements --------------------------------------------------------

    def _stmt(self, node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(node, ast.With):
            if _is_pytest_raises(node):
                return
            for stmt in node.body:
                self._stmt(stmt)
            return
        if isinstance(node, (ast.If,)):
            self._scan_expr(node.test)
            self._arm(node, 0, node.body)
            self._arm(node, 1, node.orelse)
            return
        if isinstance(node, ast.Try):
            for stmt in node.body:
                self._stmt(stmt)
            for stmt in node.orelse:
                self._stmt(stmt)
            for i, handler in enumerate(node.handlers):
                self._arm(node, i + 1, handler.body)
            for stmt in node.finalbody:
                self._stmt(stmt)
            return
        if isinstance(node, (ast.For, ast.While)):
            if isinstance(node, ast.While):
                self._scan_expr(node.test)
            else:
                self._scan_expr(node.iter)
            for stmt in node.body:
                self._stmt(stmt)
            for stmt in node.orelse:
                self._stmt(stmt)
            return
        if isinstance(node, ast.Assign):
            self._scan_expr(node.value, assign_target=node.targets[0])
            return
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if node.value is not None:
                self._scan_expr(node.value)
            return
        if isinstance(node, (ast.Return, ast.Expr, ast.Assert,
                             ast.Raise)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._scan_expr(child)
            return

    def _arm(self, node, arm, body):
        saved = dict(self.branch)
        self.branch[id(node)] = arm
        for stmt in body:
            self._stmt(stmt)
        self.branch = saved

    # -- calls -------------------------------------------------------------

    def _scan_expr(self, expr, assign_target=None):
        # Inner-to-outer source order is close enough: visit nested
        # calls first via ast.walk ordering on the arguments.
        for node in _calls_in_order(expr):
            self._call(node, assign_target if node is expr else None)

    def _call(self, call, assign_target):
        chain = attr_chain(call.func)
        if not chain:
            return
        name = BULK_OPS.get(chain[-1], chain[-1])
        if name in ISA_OPS:
            encl_pos, page_pos = ISA_OPS[name]
            encl = page = None
            if name == "ecreate":
                if isinstance(assign_target, ast.Name):
                    encl = assign_target.id
            else:
                if encl_pos is not None and encl_pos < len(call.args):
                    encl = _key_of(call.args[encl_pos])
                if page_pos is not None and page_pos < len(call.args):
                    page = _key_of(call.args[page_pos])
            self.ops.append(Op(name, encl, page, call.lineno,
                               dict(self.branch)))
            return
        if name == "drop" and len(chain) >= 2 and \
                chain[-2] in DROP_RECEIVERS:
            if call.args:
                page = _key_of(call.args[0])
                self.ops.append(Op("drop", None, page, call.lineno,
                                   dict(self.branch)))
            return
        if name in RECOVERY_RECORD_OPS and len(chain) >= 2:
            self.ops.append(Op(name, ".".join(chain[:-1]), None,
                               call.lineno, dict(self.branch)))
            return
        if name in ("crash", "restore") and len(chain) >= 2 and \
                chain[-2] in RECOVERY_RECEIVERS:
            self.ops.append(Op(name, ".".join(chain[:-1]), None,
                               call.lineno, dict(self.branch)))
            return
        self._splice(call, assign_target)

    def _splice(self, call, assign_target, depth=0):
        if depth >= MAX_SPLICE_DEPTH:
            return
        candidates = self.project.resolve_call(
            call, self.module, caller=self.caller)
        if len(candidates) != 1:
            return
        callee = candidates[0]
        if not callee.module.startswith(self.config.lifecycle_prefixes):
            return
        if callee.qualname in self._stack:
            return
        self._stack.add(callee.qualname)
        try:
            inner = OpCollector(self.project, self.config,
                                callee.module, callee)
            inner._stack = self._stack
            inner.collect(callee.node.body)
        finally:
            self._stack.discard(callee.qualname)
        if not inner.ops:
            return
        bound = self.project.bind_arguments(call, callee)
        rename = {}
        for i, expr in bound.items():
            key = _key_of(expr)
            if key is not None and i < len(callee.params):
                rename[callee.params[i]] = key
        if isinstance(assign_target, ast.Name):
            for ret in _return_names(callee.node):
                rename[ret] = assign_target.id
        # The scope carries the call-site line: a callee's *locals* are
        # fresh per invocation, so ops from two splices of the same
        # callee must never share a key (the callee's own internal
        # order is checked when the callee is analyzed directly).
        scope = f"{callee.name}@{call.lineno}:"
        for op in inner.ops:
            self.ops.append(Op(
                op.name,
                _rebind(op.encl, rename, scope),
                _rebind(op.page, rename, scope),
                call.lineno,
                dict(self.branch),
            ))

    @property
    def params(self):
        return self.caller.params if self.caller is not None else ()


def _rebind(key, rename, scope):
    if key is None:
        return None
    root, _, rest = key.partition(".")
    if root in rename:
        new = rename[root]
        return f"{new}.{rest}" if rest else new
    return scope + key


def _return_names(func_node):
    names = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.Return) and \
                isinstance(node.value, ast.Name):
            names.add(node.value.id)
    return names


def _calls_in_order(expr):
    calls = [n for n in ast.walk(expr) if isinstance(n, ast.Call)]
    # ast.walk is breadth-first: outermost call first.  Arguments are
    # evaluated before the call runs, so reverse to inner-first —
    # exact sibling order does not matter to the automata.
    return list(reversed(calls))


# -- automata ---------------------------------------------------------------
#
# Each automaton consumes Op objects one at a time through ``feed`` and
# yields ``(rule, line, message)`` violations.  Branch vectors make the
# static feed conservative; the runtime oracle feeds ops with empty
# branch vectors (a live trace has no sibling arms), so the same
# transition tables are exact there.


def _prior(history, op):
    return [p for p in history if comparable(p, op)]


class LaunchAutomaton:
    """ECREATE → EADD/EADD_TCS/EEXTEND → EINIT → EENTER, per enclave."""

    rule = RULE_LAUNCH

    def __init__(self):
        self._history = {}   # enclave key -> [ops]

    def feed(self, op):
        if op.name == "ecreate":
            if op.encl is not None:
                self._history[op.encl] = []
            return
        if op.encl is None or op.name not in (
                ADD_FAMILY | {"einit", "eenter"}):
            return
        prior = _prior(self._history.setdefault(op.encl, []), op)
        if op.name in ADD_FAMILY:
            for kind in ("einit", "eenter"):
                hit = next((p for p in prior if p.name == kind), None)
                if hit is not None:
                    yield (RULE_LAUNCH, op.line,
                           f"{op.name.upper()}({op.encl}) after "
                           f"{kind.upper()} (line {hit.line}): the "
                           f"enclave is already sealed")
                    break
        elif op.name == "einit":
            hit = next((p for p in prior if p.name == "eenter"), None)
            if hit is not None:
                yield (RULE_LAUNCH, op.line,
                       f"EINIT({op.encl}) after EENTER (line "
                       f"{hit.line})")
            else:
                hit = next((p for p in prior if p.name == "einit"), None)
                if hit is not None:
                    yield (RULE_LAUNCH, op.line,
                           f"second EINIT({op.encl}) (first at line "
                           f"{hit.line})")
        self._history[op.encl].append(op)


class EvictAutomaton:
    """EBLOCK → page-table drop → EWB, per page; ELDU resets."""

    rule = RULE_EVICT

    def __init__(self):
        self._history = {}   # page key -> [ops]

    def feed(self, op):
        if op.name not in ("eblock", "drop", "ewb", "eldu"):
            return
        if op.page is None:
            return
        if op.name == "eldu":
            self._history[op.page] = []
            return
        prior = _prior(self._history.setdefault(op.page, []), op)
        if op.name == "eblock":
            for kind, why in (("ewb", "the page is already evicted"),
                              ("drop", "the mapping is already gone")):
                hit = next((p for p in prior if p.name == kind), None)
                if hit is not None:
                    yield (RULE_EVICT, op.line,
                           f"EBLOCK({op.page}) after {kind.upper()} "
                           f"(line {hit.line}): {why}")
                    break
        elif op.name == "drop":
            hit = next((p for p in prior if p.name == "ewb"), None)
            if hit is not None:
                yield (RULE_EVICT, op.line,
                       f"page-table drop({op.page}) after EWB (line "
                       f"{hit.line}): the shootdown must precede "
                       f"eviction")
        self._history[op.page].append(op)


class RecoveryAutomaton:
    """crash → relaunch → restore, per recovery manager.

    Two transitions are checked.  A ``restore`` is an *observed
    inversion* when no comparable ``crash`` precedes it but one follows
    (the resume automaton's conservatism: a function restoring after a
    crash that happened elsewhere is not ours to judge).  And once a
    comparable ``crash`` has been seen, any journal-record op
    (``begin``/``seal_checkpoint``/``note_*``) before the next
    comparable ``restore`` is a violation: the records go to a dead
    incarnation and are lost, checkpoints sealed there anchor garbage.
    """

    rule = RULE_RECOVERY

    def __init__(self):
        self._history = {}   # manager key -> [ops]
        self._pending = []   # restores awaiting a later crash

    def feed(self, op):
        if op.encl is None or op.name not in (
                RECOVERY_RECORD_OPS | {"crash", "restore"}):
            return
        history = self._history.setdefault(op.encl, [])
        prior = _prior(history, op)
        if op.name == "restore":
            if not any(p.name == "crash" for p in prior):
                self._pending.append(op)
        elif op.name == "crash":
            for waiting in list(self._pending):
                if waiting.encl == op.encl and comparable(waiting, op):
                    self._pending.remove(waiting)
                    yield (RULE_RECOVERY, waiting.line,
                           f"restore({op.encl}) before any crash (a "
                           f"crash follows at line {op.line}): restore "
                           f"replays the journal onto a relaunched "
                           f"enclave, not a live one")
        else:
            crash = None
            for p in reversed(prior):
                if p.name == "restore":
                    break
                if p.name == "crash":
                    crash = p
                    break
            if crash is not None:
                yield (RULE_RECOVERY, op.line,
                       f"{op.name}({op.encl}) after crash (line "
                       f"{crash.line}) without an intervening restore: "
                       f"the record reaches a dead incarnation")
        history.append(op)

    def finish(self):
        self._pending.clear()
        return ()


class ResumeAutomaton:
    """AEX → ERESUME; only observed inversions are flagged, which needs
    look-ahead: violations surface from :meth:`finish`."""

    rule = RULE_RESUME

    def __init__(self):
        self._by_key = {}

    def feed(self, op):
        if op.name in ("aex", "eresume") and op.encl is not None:
            self._by_key.setdefault(op.encl, []).append(op)
        return ()

    def finish(self):
        for key, seq in self._by_key.items():
            for i, op in enumerate(seq):
                if op.name != "eresume":
                    continue
                before = [p for p in seq[:i]
                          if p.name == "aex" and comparable(p, op)]
                after = [p for p in seq[i + 1:]
                         if p.name == "aex" and comparable(p, op)]
                if not before and after:
                    yield (RULE_RESUME, op.line,
                           f"ERESUME({key}) before any AEX (an AEX "
                           f"follows at line {after[0].line})")


def build_automata():
    """The full shared spec, one fresh automaton per protocol."""
    return (LaunchAutomaton(), EvictAutomaton(), RecoveryAutomaton(),
            ResumeAutomaton())


def check_ops(ops):
    """Run every automaton over ``ops``; yields (rule, line, message)."""
    automata = build_automata()
    for op in ops:
        for automaton in automata:
            yield from automaton.feed(op) or ()
    for automaton in automata:
        finish = getattr(automaton, "finish", None)
        if finish is not None:
            yield from finish()
