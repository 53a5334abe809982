"""Robustness pass: the runtime must not swallow faults wholesale,
nor respond to them forever.

The hardened paging runtime's fail-safe story (docs/fault-injection.md)
depends on exceptions keeping their identity: an
:class:`~repro.errors.IntegrityError` must surface as a fail-stop, an
:class:`~repro.errors.EnclaveTerminated` must carry its structured
abort reason to :class:`~repro.core.metrics.AbortStats`.  A broad
``except`` — bare, ``except Exception`` or ``except BaseException`` —
flattens that taxonomy and can silently convert an attack detection
into forward progress, which is exactly the outcome the chaos campaign
exists to rule out.

So this pass flags broad exception handlers anywhere in the ``repro``
package.  Two shapes are deliberately *not* findings:

* a handler that unconditionally re-raises (its last top-level
  statement is a bare ``raise``) — log-and-rethrow masks nothing;
* handlers outside the package (tests, benchmarks, examples routinely
  assert "anything raised here" and are not runtime code).

The second rule polices the *response* to failure: a restart/retry
loop with no bound is the other half of fail-safety.  §5.3 prices the
termination channel at one bit per restart — an ``while True`` loop
that keeps relaunching, re-spawning, or re-trying hands a Byzantine
host an unmetered channel (and an availability hole).  Every
restart-shaped loop must therefore be bounded (``for`` over a budget)
or visibly escape (``raise``/``return``/``break`` in its body); the
recovery supervisor itself is held to this rule.

Intentional catch-alls — a top-level CLI report boundary, say — carry
``# repro: allow[robustness]`` with a justification, keeping the
inventory of broad handlers machine-checked like every other exemption.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.config import (
    ROBUSTNESS_FAILOVER_PREFIXES,
    ROBUSTNESS_PREFIXES,
    ROBUSTNESS_QUEUE_PREFIXES,
    ROBUSTNESS_ROOTS,
)
from repro.analysis.findings import Finding

RULE_BROAD_EXCEPT = "robustness/broad-except"
RULE_UNBOUNDED_RESTART = "robustness/unbounded-restart"
RULE_UNBOUNDED_QUEUE = "robustness/unbounded-queue"
RULE_UNGUARDED_FAILOVER = "robustness/unguarded-failover"

#: Exception names too wide for runtime code to catch.
BROAD_NAMES = frozenset({"Exception", "BaseException"})

#: Call names that look like "bring the thing back" — the verbs an
#: unbounded supervision loop would spin on.
RESTART_NAME_RE = re.compile(
    r"(^|_)(restart|relaunch|respawn|spawn|launch|retry|recover|"
    r"restore|reconnect|factory)"
)

#: Methods that grow a list/deque (the accumulation side of the
#: unbounded-queue rule).
QUEUE_GROWERS = frozenset({"append", "appendleft", "extend"})

#: Methods that drain/bound the same container; a loop that consumes
#: what it produces is a queue, not a leak.
QUEUE_CONSUMERS = frozenset({
    "pop", "popleft", "popitem", "remove", "discard", "clear",
})


class RobustnessPass:
    family = "robustness"

    def applies(self, module):
        return (
            module in ROBUSTNESS_ROOTS
            or module.startswith(ROBUSTNESS_PREFIXES)
        )

    def run(self, mod):
        yield from self._broad_handlers(mod)
        yield from self._unbounded_restarts(mod)
        if mod.module.startswith(ROBUSTNESS_QUEUE_PREFIXES):
            yield from self._unbounded_queues(mod)
        if mod.module.startswith(ROBUSTNESS_FAILOVER_PREFIXES):
            yield from self._unguarded_failovers(mod)

    def _broad_handlers(self, mod):
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if self._reraises(node):
                continue
            yield Finding(
                path=mod.path,
                line=node.lineno,
                rule=RULE_BROAD_EXCEPT,
                message=(
                    f"broad exception handler ({broad}) can swallow "
                    "integrity failures and structured aborts"
                ),
                hint=(
                    "catch the narrowest repro.errors type the block "
                    "can actually handle (IntegrityError, PolicyError, "
                    "HostCallDenied, ...), re-raise at the end of the "
                    "handler, or annotate a deliberate report boundary "
                    "with # repro: allow[robustness]"
                ),
                module=mod.module,
            )

    def _unbounded_restarts(self, mod):
        """Flag ``while True`` loops that spin on a restart-shaped call
        with no visible escape (no ``raise``/``return``/``break`` in
        the loop body)."""
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.While):
                continue
            if not self._is_forever(node.test):
                continue
            verb = self._restart_call(node.body)
            if verb is None:
                continue
            if self._escapes(node.body):
                continue
            yield Finding(
                path=mod.path,
                line=node.lineno,
                rule=RULE_UNBOUNDED_RESTART,
                message=(
                    f"unbounded restart loop: 'while True' around "
                    f"{verb}() with no raise/return/break — restart "
                    "churn is a one-bit-per-restart termination channel "
                    "(§5.3) and must be budgeted"
                ),
                hint=(
                    "bound the loop (for attempt in range(budget)), "
                    "charge backoff between attempts "
                    "(runtime/backoff.py), and escape with a structured "
                    "abort (Quarantined / LockdownError) once the "
                    "budget is spent"
                ),
                module=mod.module,
            )

    def _unbounded_queues(self, mod):
        """Flag list/deque accumulation inside ``while`` loop scopes
        with nothing bounding the container.

        A long-lived service loop that only ever ``append``s turns
        load into unbounded memory — the exact failure mode the
        service's *bounded* run queue (shed with ``QUEUE_FULL``)
        exists to rule out.  Three shapes are not findings:

        * the loop test references the container (``while len(q) < n``
          — the accumulation *is* the bound);
        * the loop scope also consumes from it (``pop``/``popleft``/
          ``clear``/``del``/rebinding — a queue, not a leak);
        * the loop scope escapes via ``raise``/``return``/``break``
          (growth is bounded by the escape condition).
        """
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.While):
                continue
            test_names = self._dotted_names(node.test)
            if self._escapes(node.body):
                continue
            for call in self._walk_scope(node.body):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in QUEUE_GROWERS):
                    continue
                recv = self._dotted(func.value)
                if recv is None:
                    continue
                if recv in test_names:
                    continue
                if self._consumed_in(node.body, recv):
                    continue
                yield Finding(
                    path=mod.path,
                    line=call.lineno,
                    rule=RULE_UNBOUNDED_QUEUE,
                    message=(
                        f"unbounded accumulation: {recv}.{func.attr}() "
                        "inside a while loop that never bounds, drains, "
                        "or escapes — a long-lived loop turns offered "
                        "load into unbounded memory"
                    ),
                    hint=(
                        "bound the container (shed with a structured "
                        "reason once full, like the service run queue), "
                        "drain it in the same loop, or cap the loop "
                        "itself; annotate a reviewed exception with "
                        "# repro: allow[robustness]"
                    ),
                    module=mod.module,
                )

    def _unguarded_failovers(self, mod):
        """Flag replica-selection loops with no all-unhealthy guard.

        A ``for`` loop over a pool's replicas that *selects* a target
        (a ``return`` or its own ``break`` in the body) encodes
        failover: walk the replicas, pick the first healthy one.  When
        every replica is down the loop falls through — and a function
        that just falls off the end converts "the whole pool is
        unhealthy" into an implicit ``None`` (or stale state) nobody
        chose to handle.  The fall-through must be owned explicitly:
        a ``return`` or ``raise`` after the loop (or in its ``else``
        block), so the all-down case is a structured shed or abort,
        never an accident.  Loops that merely *visit* replicas
        (teardown sweeps, canonical tuples — no ``return``/``break``)
        are not selections and are not findings.
        """
        for func in ast.walk(mod.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for loop, iterated in self._selection_loops(func.body):
                yield Finding(
                    path=mod.path,
                    line=loop.lineno,
                    rule=RULE_UNGUARDED_FAILOVER,
                    message=(
                        f"replica-selection loop over {iterated} can "
                        "fall through with every replica unhealthy and "
                        "no explicit outcome — the all-down pool must "
                        "shed or abort structurally, not fall off the "
                        "end"
                    ),
                    hint=(
                        "follow the loop with an explicit 'return "
                        "None' (callers shed with pool-unavailable) or "
                        "raise a structured abort, like "
                        "TenantPool.elect_primary; annotate a reviewed "
                        "exception with # repro: allow[robustness]"
                    ),
                    module=mod.module,
                )

    @classmethod
    def _selection_loops(cls, body):
        """``(loop, iterated-name)`` for every unguarded replica-
        selection ``for`` loop in ``body``'s scope (nested blocks
        included, nested ``def``/``class`` scopes excluded)."""
        for index, stmt in enumerate(body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.For):
                iterated = cls._replica_iter(stmt.iter)
                if (iterated is not None
                        and cls._selects(stmt.body)
                        and not cls._guarded(stmt, body[index + 1:])):
                    yield stmt, iterated
            for block in cls._stmt_blocks(stmt):
                yield from cls._selection_loops(block)

    @classmethod
    def _replica_iter(cls, iter_expr):
        """The replica-shaped dotted name the loop iterates, if any."""
        for name in sorted(cls._dotted_names(iter_expr)):
            if "replica" in name.lower():
                return name
        return None

    @classmethod
    def _selects(cls, body):
        """Whether the loop body picks a target: a ``return`` in this
        scope or a ``break`` belonging to this loop."""
        if any(isinstance(node, ast.Return)
               for node in cls._walk_scope(body)):
            return True
        return cls._has_own_break(body)

    @classmethod
    def _guarded(cls, loop, tail):
        """Whether the fall-through is owned: a ``return``/``raise``
        in the loop's ``else`` block or anywhere after the loop in the
        same statement list."""
        for node in cls._walk_scope(list(loop.orelse)):
            if isinstance(node, (ast.Return, ast.Raise)):
                return True
        for node in cls._walk_scope(list(tail)):
            if isinstance(node, (ast.Return, ast.Raise)):
                return True
        return False

    @staticmethod
    def _stmt_blocks(stmt):
        """The nested statement lists of one compound statement."""
        blocks = []
        for field in ("body", "orelse", "finalbody"):
            block = getattr(stmt, field, None)
            if block:
                blocks.append(block)
        for handler in getattr(stmt, "handlers", []):
            blocks.append(handler.body)
        return blocks

    @classmethod
    def _consumed_in(cls, body, recv):
        """Whether the loop scope drains, deletes, or rebinds ``recv``."""
        for node in cls._walk_scope(body):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in QUEUE_CONSUMERS
                        and cls._dotted(func.value) == recv):
                    return True
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and cls._dotted(target.value) == recv:
                        return True
                    if cls._dotted(target) == recv:
                        return True
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if cls._dotted(target) == recv:
                        return True
        return False

    @classmethod
    def _dotted_names(cls, expr):
        """Every dotted name mentioned anywhere in ``expr``."""
        names = set()
        for node in ast.walk(expr):
            dotted = cls._dotted(node)
            if dotted is not None:
                names.add(dotted)
        return names

    @staticmethod
    def _dotted(expr):
        """``a.b.c`` display form of a Name/Attribute chain, or None."""
        parts = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        parts.append(expr.id)
        return ".".join(reversed(parts))

    @staticmethod
    def _is_forever(test):
        return isinstance(test, ast.Constant) and test.value in (True, 1)

    @classmethod
    def _restart_call(cls, body):
        """The first restart-shaped call name in the loop body, if any
        (nested ``def``/``class`` bodies are other scopes)."""
        for node in cls._walk_scope(body):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if RESTART_NAME_RE.search(name):
                return name
        return None

    @classmethod
    def _escapes(cls, body):
        """Whether the loop body can leave the loop: ``raise`` or
        ``return`` anywhere in this scope, or a ``break`` belonging to
        this loop (not to a nested one)."""
        for node in cls._walk_scope(body):
            if isinstance(node, (ast.Raise, ast.Return)):
                return True
        return cls._has_own_break(body)

    @classmethod
    def _has_own_break(cls, body):
        """A ``break`` that belongs to *this* loop: found under
        if/try/with nesting, but not inside a nested loop (that break
        exits the inner loop) or a nested def (another scope)."""
        for stmt in body:
            if isinstance(stmt, ast.Break):
                return True
            if isinstance(stmt, (ast.For, ast.While, ast.AsyncFor,
                                 ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.If, ast.With, ast.AsyncWith,
                                 ast.Try)):
                blocks = list(getattr(stmt, "body", []))
                blocks += getattr(stmt, "orelse", [])
                blocks += getattr(stmt, "finalbody", [])
                for handler in getattr(stmt, "handlers", []):
                    blocks += handler.body
                if cls._has_own_break(blocks):
                    return True
        return False

    @staticmethod
    def _walk_scope(body):
        """Walk statements without descending into nested function or
        class definitions (separate scopes)."""
        stack = list(body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _broad_name(type_node):
        """The offending name if the handler is broad, else ``None``."""
        if type_node is None:
            return "bare except"
        candidates = (
            type_node.elts if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        for candidate in candidates:
            # Accept both ``Exception`` and ``builtins.Exception``.
            if isinstance(candidate, ast.Attribute):
                name = candidate.attr
            elif isinstance(candidate, ast.Name):
                name = candidate.id
            else:
                continue
            if name in BROAD_NAMES:
                return f"except {name}"
        return None

    @staticmethod
    def _reraises(handler):
        """True when the handler ends in an unconditional bare ``raise``."""
        if not handler.body:
            return False
        last = handler.body[-1]
        return isinstance(last, ast.Raise) and last.exc is None
