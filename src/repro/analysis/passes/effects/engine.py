"""Interprocedural effect-and-purity inference.

Mirrors the taint engine's shape: one :class:`_FunctionEffects` walker
per function body tracks the provenance of every local name (which
ambient state it aliases, or :data:`~.model.LOCAL` for fresh objects),
records ambient writes, and rebinds callee summaries at every resolved
call site; :class:`EffectEngine` drives the walkers to a project-wide
fixpoint in deterministic qualname order.  Summaries only grow, so the
fixpoint is monotone; :data:`MAX_ROUNDS` bounds pathological chains.

On top of the data-effect walk, a structural *must-bump* pass decides
epoch soundness: scanning each body in statement order, a path is
``covered`` once it bumps a :class:`~repro.sgx.epoch.TranslationEpoch`
(directly, via ``.bump()``, or by calling a callee that definitely
bumps), ``failed`` if it returns after a translation-affecting write
without a bump, and merely ``open`` otherwise.  Raising is always an
acceptable exit — faults abort the access, so no memo can be minted
from the dead translation.
"""

from __future__ import annotations

import ast

from repro.analysis.config import (
    EFFECTS_ACCESSOR_METHODS,
    EFFECTS_EPOCH_CLASSES,
    EFFECTS_MUTATOR_METHODS,
)
from repro.analysis.walker import attr_chain
from repro.analysis.passes.effects.model import (
    LOCAL, EffectSummary, affects_translation, cap, extend,
)

#: Fixpoint round bound (effects propagate one call hop per round; the
#: deepest real chain — campaign point → system boot → ISA → state
#: object — is comfortably inside this).
MAX_ROUNDS = 16

#: Names resolving to builtins: results are locally constructed.
BUILTIN_NAMES = frozenset({
    "abs", "all", "any", "bin", "bool", "bytearray", "bytes", "callable",
    "chr", "classmethod", "dict", "divmod", "enumerate", "filter",
    "float", "format", "frozenset", "getattr", "hasattr", "hash", "hex",
    "id", "int", "isinstance", "issubclass", "iter", "len", "list",
    "map", "max", "min", "next", "object", "oct", "ord", "pow", "print",
    "property", "range", "repr", "reversed", "round", "set", "setattr",
    "slice", "sorted", "staticmethod", "str", "sum", "super", "tuple",
    "type", "vars", "zip", "ValueError", "TypeError", "KeyError",
    "IndexError", "AttributeError", "RuntimeError", "StopIteration",
    "NotImplementedError", "OSError", "Exception", "BaseException",
    "True", "False", "None", "NotImplemented", "Ellipsis",
})

#: Builtins whose result aliases their container argument(s): writing
#: through an element of ``sorted(xs)`` writes an element of ``xs``.
PASSTHROUGH_BUILTINS = frozenset({
    "sorted", "list", "tuple", "reversed", "iter", "next", "filter",
    "map", "enumerate", "zip", "min", "max",
})

#: Calls that hand back a *fresh* object even from ambient arguments:
#: cloning is the sanctioned way for a parallel worker to get private
#: mutable state.
FRESH_CALL_NAMES = frozenset({
    "deepcopy", "copy", "loads", "dumps", "fromkeys",
})

_COVERED, _OPEN, _FAILED = "covered", "open", "failed"


class EffectEngine:
    """Project-wide effect summaries, computed once per analysis."""

    def __init__(self, project):
        self.project = project
        #: qualname -> EffectSummary
        self.summaries = {}
        #: qualname -> callee qualnames whose summaries it consumed
        #: (drives the dirty set: a function is re-analyzed only when
        #: one of its callees changed last round).
        self.deps = {}
        self.rounds = 0

    def run(self):
        order = sorted(self.project.functions)
        for qual in order:
            self.summaries[qual] = EffectSummary()
            self.deps[qual] = set()
        to_run = list(order)
        for _ in range(MAX_ROUNDS):
            if not to_run:
                break
            self.rounds += 1
            before = {q: self.summaries[q].snapshot() for q in order}
            for qual in to_run:
                _FunctionEffects(self, self.project.functions[qual]).run()
            changed = {
                q for q in order
                if self.summaries[q].snapshot() != before[q]
            }
            to_run = [
                q for q in order
                if self.deps[q] & changed or q in changed
            ]
        return self.summaries


class _FunctionEffects:
    """One body walk: provenance env, ambient writes, must-bump."""

    def __init__(self, engine, info):
        self.engine = engine
        self.project = engine.project
        self.info = info
        self.summary = engine.summaries[info.qualname]
        self._deps = engine.deps[info.qualname]
        self.env = {}
        self._globals = set()
        self._stmt_stack = []
        #: innermost statements performing a translation-affecting
        #: direct write (drives the must-bump Return verdicts).
        self._write_stmts = set()
        if info.class_name is not None:
            self.env["self"] = frozenset({("self",)})
            self.env["cls"] = frozenset({("self",)})
        for i, name in enumerate(info.params):
            self.env[name] = frozenset({(f"param:{i}",)})
        for name in info.kwonly:
            self.env[name] = frozenset({(f"param:kw.{name}",)})
        args = info.node.args
        if args.vararg is not None:
            self.env[args.vararg.arg] = frozenset({("param:*",)})
        if args.kwarg is not None:
            self.env[args.kwarg.arg] = frozenset({("param:**",)})

    def run(self):
        body = self.info.node.body
        # Two passes stabilize loop-carried aliases within one round.
        for _ in range(2):
            for stmt in body:
                self._stmt(stmt)
        state, wrote = self._covers(body, False)
        self.summary.bumps = self.summary.bumps or state == _COVERED
        if state == _FAILED or (state == _OPEN and wrote):
            self.summary.epoch_sound = False
        self.summary.bound()

    # -- effect recording --------------------------------------------------

    def _write(self, tokens):
        """An ambient write performed by this function's own code."""
        for tok in tokens:
            self.summary.direct_writes.add(tok)
            self.summary.writes.add(tok)
        if self._stmt_stack and any(
                affects_translation(tok) for tok in tokens):
            self._write_stmts.add(id(self._stmt_stack[-1]))

    def _write_propagated(self, tokens):
        self.summary.writes.update(tokens)

    def _read(self, tokens):
        self.summary.reads.update(tokens)

    # -- statements --------------------------------------------------------

    def _stmt(self, stmt):
        self._stmt_stack.append(stmt)
        try:
            self._stmt_inner(stmt)
        finally:
            self._stmt_stack.pop()

    def _stmt_inner(self, stmt):
        t = type(stmt)
        if t in (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef):
            return  # nested defs contribute when (resolvably) called
        if t is ast.Global:
            self._globals.update(stmt.names)
        elif t is ast.Assign:
            prov = self._expr(stmt.value)
            for target in stmt.targets:
                self._assign(target, prov)
        elif t is ast.AnnAssign:
            if stmt.value is not None:
                self._assign(stmt.target, self._expr(stmt.value))
        elif t is ast.AugAssign:
            self._expr(stmt.value)
            self._augtarget(stmt.target)
        elif t is ast.Delete:
            for target in stmt.targets:
                self._augtarget(target)
        elif t is ast.Expr:
            self._expr(stmt.value)
        elif t is ast.Return:
            if stmt.value is not None:
                self.summary.returns.update(self._expr(stmt.value))
        elif t is ast.If:
            self._expr(stmt.test)
            for s in stmt.body:
                self._stmt(s)
            for s in stmt.orelse:
                self._stmt(s)
        elif t in (ast.For, ast.AsyncFor):
            self._assign(stmt.target, extend(self._expr(stmt.iter), "[]"))
            for s in stmt.body:
                self._stmt(s)
            for s in stmt.orelse:
                self._stmt(s)
        elif t is ast.While:
            self._expr(stmt.test)
            for s in stmt.body:
                self._stmt(s)
            for s in stmt.orelse:
                self._stmt(s)
        elif t in (ast.With, ast.AsyncWith):
            for item in stmt.items:
                prov = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, prov)
            for s in stmt.body:
                self._stmt(s)
        elif t is ast.Try or t.__name__ == "TryStar":
            for s in stmt.body:
                self._stmt(s)
            for handler in stmt.handlers:
                if handler.name:
                    self.env[handler.name] = LOCAL
                for s in handler.body:
                    self._stmt(s)
            for s in stmt.orelse:
                self._stmt(s)
            for s in stmt.finalbody:
                self._stmt(s)
        elif t is ast.Raise:
            if stmt.exc is not None:
                self._expr(stmt.exc)
            if stmt.cause is not None:
                self._expr(stmt.cause)
        elif t is ast.Assert:
            self._expr(stmt.test)
            if stmt.msg is not None:
                self._expr(stmt.msg)
        # Pass/Break/Continue/Import/Nonlocal: no data effects.

    def _assign(self, target, prov):
        t = type(target)
        if t is ast.Name:
            if target.id in self._globals:
                self._write(frozenset({
                    (f"global:{self.info.module}.{target.id}",)}))
            else:
                self.env[target.id] = prov
        elif t is ast.Attribute:
            self._write(extend(self._expr(target.value), target.attr))
        elif t is ast.Subscript:
            self._expr(target.slice)
            self._write(extend(self._expr(target.value), "[]"))
        elif t is ast.Starred:
            self._assign(target.value, prov)
        elif t in (ast.Tuple, ast.List):
            element = extend(prov, "[]")
            for elt in target.elts:
                self._assign(elt, element)

    def _augtarget(self, target):
        """AugAssign/Delete target: a write without an env rebind."""
        t = type(target)
        if t is ast.Name:
            if target.id in self._globals:
                self._write(frozenset({
                    (f"global:{self.info.module}.{target.id}",)}))
        elif t is ast.Attribute:
            self._write(extend(self._expr(target.value), target.attr))
        elif t is ast.Subscript:
            self._expr(target.slice)
            self._write(extend(self._expr(target.value), "[]"))

    # -- expressions -------------------------------------------------------

    def _expr(self, node):
        """Provenance of an expression (recording effects on the way)."""
        t = type(node)
        if t is ast.Name:
            if node.id in self.env and node.id not in self._globals:
                return self.env[node.id]
            return self._name_prov(node.id)
        if t is ast.Attribute:
            base = self._expr(node.value)
            if not base:
                return LOCAL
            tokens = extend(base, node.attr)
            if isinstance(node.ctx, ast.Load):
                self._read(tokens)
            return tokens
        if t is ast.Subscript:
            self._expr(node.slice)
            return extend(self._expr(node.value), "[]")
        if t is ast.Call:
            return self._call(node)
        if t is ast.Constant:
            return LOCAL
        if t is ast.BoolOp:
            out = set()
            for value in node.values:
                out |= self._expr(value)
            return frozenset(out)
        if t is ast.IfExp:
            self._expr(node.test)
            return frozenset(self._expr(node.body) | self._expr(node.orelse))
        if t in (ast.Tuple, ast.List, ast.Set):
            # A display is a locally-constructed container: mutating it
            # is pure even when it holds ambient references (writing
            # *through* a stored reference is the rare pattern traded
            # away here).
            for elt in node.elts:
                self._expr(elt)
            return LOCAL
        if t is ast.Dict:
            for key in node.keys:
                if key is not None:
                    self._expr(key)
            for value in node.values:
                self._expr(value)
            return LOCAL
        if t in (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp):
            return self._comprehension(node)
        if t is ast.Lambda:
            return LOCAL  # opaque; lambdas never resolve as callees
        if t is ast.Starred:
            return self._expr(node.value)
        if t in (ast.Await, ast.Yield, ast.YieldFrom):
            if node.value is not None:
                return self._expr(node.value)
            return LOCAL
        if t is ast.NamedExpr:
            prov = self._expr(node.value)
            self._assign(node.target, prov)
            return prov
        if t is ast.Slice:
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._expr(part)
            return LOCAL
        # BinOp, UnaryOp, Compare, JoinedStr, ...: fresh values, but
        # walk the children so nested calls still record effects.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
        return LOCAL

    def _name_prov(self, name):
        if name in BUILTIN_NAMES:
            return LOCAL
        table = self.project.modules.get(self.info.module)
        if table is not None:
            if name in table.functions:
                return LOCAL  # a function object, not data
            if name in table.classes:
                return frozenset({(f"global:{self.info.module}.{name}",)})
            origin = table.imports.get(name)
            if origin is not None:
                return frozenset({(f"global:{origin}",)})
        return frozenset({(f"global:{self.info.module}.{name}",)})

    def _comprehension(self, node):
        saved = dict(self.env)
        for gen in node.generators:
            self._assign(gen.target, extend(self._expr(gen.iter), "[]"))
            for cond in gen.ifs:
                self._expr(cond)
        if isinstance(node, ast.DictComp):
            self._expr(node.key)
            out = self._expr(node.value)
        else:
            out = self._expr(node.elt)
        self.env = saved
        return out

    # -- calls -------------------------------------------------------------

    def _call(self, node):
        func = node.func
        prov_by_node = {}
        for arg in node.args:
            inner = arg.value if isinstance(arg, ast.Starred) else arg
            prov_by_node[id(inner)] = self._expr(inner)
        for kw in node.keywords:
            prov_by_node[id(kw.value)] = self._expr(kw.value)

        recv_prov, method = LOCAL, None
        if isinstance(func, ast.Attribute):
            recv_prov = self._expr(func.value)
            method = func.attr
        elif isinstance(func, ast.Name):
            method = func.id
        else:
            self._expr(func)

        if method == "setattr" and isinstance(func, ast.Name) and node.args:
            target = prov_by_node.get(id(node.args[0]), LOCAL)
            self._write(extend(target, "*"))
            return LOCAL

        chain = attr_chain(func)
        candidates = ()
        if chain:
            candidates, _strong = self.project.resolve_call_ex(
                node, self.info.module, self.info)

        result = set()
        handled = False
        for callee in candidates:
            summary = self.engine.summaries.get(callee.qualname)
            if summary is None:
                continue
            handled = True
            self._deps.add(callee.qualname)
            constructor = (callee.name == "__init__"
                           and method != "__init__")
            this_recv = LOCAL if constructor else recv_prov
            bound = self.project.bind_arguments(node, callee)
            bound_prov = {
                i: prov_by_node.get(id(expr), LOCAL)
                for i, expr in bound.items()
            }
            self._write_propagated(self._rebind_all(
                summary.writes, this_recv, bound_prov))
            if not constructor:
                result |= self._rebind_all(
                    summary.returns, this_recv, bound_prov)

        if not handled and method is not None:
            if method in EFFECTS_MUTATOR_METHODS and recv_prov:
                self._write(extend(recv_prov, "[]"))
            if method in FRESH_CALL_NAMES:
                pass  # a clone: locally owned regardless of arguments
            elif method in EFFECTS_ACCESSOR_METHODS:
                result |= extend(recv_prov, "[]")
            elif (method in PASSTHROUGH_BUILTINS
                    and isinstance(func, ast.Name)):
                for prov in prov_by_node.values():
                    result |= prov
            elif self._is_module_receiver(func):
                # ``heapq.heappop(heap)``: a module-level function's
                # result aliases its arguments, not the module.
                for prov in prov_by_node.values():
                    result |= prov
            elif recv_prov and isinstance(func, ast.Attribute):
                # Unknown method on ambient state: the result may
                # alias something reachable from the receiver.
                result |= extend(extend(recv_prov, method), "()")
        return frozenset(result)

    def _is_module_receiver(self, func):
        """Is this an ``imported_module.function(...)`` call?"""
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)):
            return False
        table = self.project.modules.get(self.info.module)
        if table is None:
            return False
        origin = table.imports.get(func.value.id)
        if origin is None:
            return False
        return origin in self.project.modules or "." not in origin

    def _rebind_all(self, tokens, recv_prov, bound_prov):
        out = set()
        for tok in tokens:
            out |= self._rebind(tok, recv_prov, bound_prov)
        return out

    def _rebind(self, token, recv_prov, bound_prov):
        """Map one callee token into this caller's frame."""
        root, rest = token[0], token[1:]
        if root == "self":
            base = recv_prov
        elif root.startswith("param:"):
            index = root[len("param:"):]
            if not index.isdigit():
                return frozenset()  # kwonly/varargs: no positional bind
            base = bound_prov.get(int(index), LOCAL)
        else:  # global roots survive rebinding unchanged
            return frozenset({token})
        if not base:
            return frozenset()  # bound to a locally-constructed object
        return frozenset(cap(b + rest) for b in base)

    # -- must-bump (epoch soundness) ---------------------------------------

    def _covers(self, stmts, wrote):
        """Scan a statement sequence for the epoch-bump discipline.

        Returns ``(state, wrote)``: ``covered`` when every continuing
        path has bumped (or exited acceptably), ``failed`` when some
        path returned after a translation write without bumping,
        ``open`` otherwise, with ``wrote`` tracking whether the
        fall-through path has written translation state so far.
        """
        state = _OPEN
        for stmt in stmts:
            if state != _OPEN:
                break
            t = type(stmt)
            if self._is_bump_stmt(stmt):
                state = _COVERED
                continue
            wrote = wrote or id(stmt) in self._write_stmts
            if t is ast.Return:
                return (_FAILED, wrote) if wrote else (_COVERED, wrote)
            if t is ast.Raise:
                return _COVERED, wrote
            if t is ast.If:
                b, bw = self._covers(stmt.body, wrote)
                o, ow = self._covers(stmt.orelse, wrote)
                if _FAILED in (b, o):
                    return _FAILED, wrote
                if b == _COVERED and o == _COVERED:
                    state = _COVERED
                wrote = bw or ow
            elif t in (ast.For, ast.AsyncFor, ast.While):
                b, bw = self._covers(stmt.body, wrote)
                o, ow = self._covers(stmt.orelse, wrote)
                if _FAILED in (b, o):
                    return _FAILED, wrote
                wrote = bw or ow
            elif t in (ast.With, ast.AsyncWith):
                b, bw = self._covers(stmt.body, wrote)
                if b == _FAILED:
                    return _FAILED, wrote
                if b == _COVERED:
                    state = _COVERED
                wrote = bw
            elif t is ast.Try or t.__name__ == "TryStar":
                f, _fw = self._covers(stmt.finalbody, wrote)
                if f == _FAILED:
                    return _FAILED, wrote
                b, bw = self._covers(stmt.body, wrote)
                o, ow = self._covers(stmt.orelse, bw)
                handlers = [self._covers(h.body, wrote)
                            for h in stmt.handlers]
                if (b == _FAILED or o == _FAILED
                        or any(h == _FAILED for h, _ in handlers)):
                    return _FAILED, wrote
                if f == _COVERED:
                    state = _COVERED
                elif (b == _COVERED
                        and all(h == _COVERED for h, _ in handlers)
                        and (not stmt.orelse or o == _COVERED)):
                    state = _COVERED
                wrote = bw or ow or any(hw for _, hw in handlers)
        return state, wrote

    def _is_bump_stmt(self, stmt):
        t = type(stmt)
        if t is ast.AugAssign and isinstance(stmt.op, ast.Add):
            chain = attr_chain(stmt.target)
            if chain[-2:] == ["epoch", "value"]:
                return True
            if (chain == ["self", "value"] and self.info.class_name
                    in EFFECTS_EPOCH_CLASSES):
                return True
            return False
        call = None
        if t is ast.Expr and isinstance(stmt.value, ast.Call):
            call = stmt.value
        elif t is ast.Assign and isinstance(stmt.value, ast.Call):
            call = stmt.value
        if call is None:
            return False
        chain = attr_chain(call.func)
        if chain and chain[-1] == "bump":
            return True
        if not chain:
            return False
        candidates, _strong = self.project.resolve_call_ex(
            call, self.info.module, self.info)
        if not candidates:
            return False
        for c in candidates:
            self._deps.add(c.qualname)
        return all(
            self.engine.summaries.get(c.qualname) is not None
            and self.engine.summaries[c.qualname].bumps
            for c in candidates
        )
