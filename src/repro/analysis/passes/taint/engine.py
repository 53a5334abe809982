"""Interprocedural secret-taint engine.

The controlled channel works because enclave code turns a secret into a
*page address*: a hash-bucket lookup, a glyph-indexed table, a
data-dependent tree walk.  This engine tracks secrets from their
sources (app/ORAM parameters named in :mod:`repro.analysis.config`,
``# repro: secret``
declarations) through assignments, calls, and returns, and reports when
one reaches the paging surface.

Taint is a set of tokens per variable:

* ``("param", i)`` — symbolic: "whatever the caller passes as
  positional parameter *i*".  These never produce findings directly;
  they build the function's *summary*.
* ``("src", label)`` — a concrete secret (the label names it).

Each function gets a summary — which params flow to the return value,
which concrete secrets the return value carries, and which params reach
a sink (*latent sinks*) — computed as a monotone fixpoint over the
whole project, so a secret that crosses three modules before it hits
``data_access`` is still caught.  Latent sinks also propagate: if ``f``
passes its own parameter into a latent sink of ``g``, ``f`` acquires a
latent sink at the call site, and the finding surfaces at the outermost
frame where a concrete secret enters.

Propagation policy (the part that keeps ORAM code clean):

* A subscript **read** propagates the collection's taint to the value;
  the *index* taint does **not** flow into the value (knowing which
  slot was read is the access pattern, not the data).  Instead, a
  tainted index is itself a finding in app modules
  (``leakage/index``) — and nowhere else, because Path ORAM's whole
  point is that its tainted-index stash/position accesses are hidden.
* Value **stores** (``d[k] = v``, ``l.append(v)``) taint the
  collection; key stores do not.
* Collection accessors (``d.get(k)``…) return the collection's taint,
  not the key's.
* Sanitizers (``rng.randrange(...)``…) return clean values: the ORAM
  remap idiom.
* ``enumerate()`` yields a clean index alongside the tainted element.
* Conditional expressions taint through the test: ``a if s < t else
  b`` carries the secret of ``s``.
"""

from __future__ import annotations

import ast

from repro.analysis.config import (
    TAINT_COLLECTION_ACCESSORS,
    TAINT_COLLECTION_MUTATORS,
    TAINT_INDEX_PREFIXES,
    TAINT_PAGE_SINKS,
    TAINT_PUBLIC_ATTRS,
    TAINT_REPORT_PREFIXES,
    TAINT_SANITIZERS,
)
from repro.analysis.findings import Finding
from repro.analysis.passes.taint.sources import (
    SecretDecls,
    declared_secret_params,
    default_secret_params,
)

RULE_PAGE = "leakage/page-address"
RULE_INDEX = "leakage/index"
RULE_BRANCH = "leakage/branch"

MAX_ROUNDS = 8
EMPTY = frozenset()


class Summary:
    """What callers need to know about one function."""

    __slots__ = ("returns_params", "return_srcs", "sink_params")

    def __init__(self):
        self.returns_params = set()   # param indices flowing to return
        self.return_srcs = set()      # ("src", …) tokens in the return
        self.sink_params = {}         # param index -> {(rule, line, what)}

    def snapshot(self):
        return (
            frozenset(self.returns_params),
            frozenset(self.return_srcs),
            frozenset(
                (i, entry)
                for i, entries in self.sink_params.items()
                for entry in entries
            ),
        )


class TaintEngine:
    """Runs the project-wide fixpoint and collects leakage findings."""

    def __init__(self, project):
        self.project = project
        self.decls = {
            mod.module: SecretDecls(mod.source) for mod in project.sources
        }
        self.summaries = {q: Summary() for q in project.functions}
        #: (module, class) -> {attr: src-token set} — secrets stored on
        #: ``self`` in one method and read in another.
        self.attr_srcs = {}
        self._changed = False

    # -- public ------------------------------------------------------------

    def run(self):
        """Fixpoint, then a collection round; findings grouped by path."""
        order = sorted(self.project.functions)
        for _ in range(MAX_ROUNDS):
            self._changed = False
            for qual in order:
                self._analyze(self.project.functions[qual], collect=None)
            if not self._changed:
                break
        by_path = {}
        for qual in order:
            info = self.project.functions[qual]
            if not self._reportable(info.module):
                continue
            found = {}
            self._analyze(info, collect=found)
            for (rule, line), message in sorted(found.items()):
                by_path.setdefault(info.path, []).append(Finding(
                    path=info.path, line=line, rule=rule,
                    message=message, hint=self._hint(rule),
                    module=info.module,
                ))
        return by_path

    # -- helpers -----------------------------------------------------------

    def _reportable(self, module):
        if module.startswith(TAINT_REPORT_PREFIXES):
            return True
        return bool(self.decls.get(module))

    @staticmethod
    def _hint(rule):
        if rule == RULE_INDEX:
            return ("index with public values or make the scan oblivious "
                    "(oram.oblivious); or annotate # repro: allow[leakage]")
        if rule == RULE_BRANCH:
            return ("hoist the paging work out of the secret branch or "
                    "balance both arms; or annotate # repro: allow[leakage]")
        return ("derive page addresses from public state only (see "
                "oram/path_oram.py); or annotate # repro: allow[leakage]")

    def _secret_params(self, info):
        secret = default_secret_params(info.module, info)
        decls = self.decls.get(info.module)
        if decls:
            secret |= declared_secret_params(decls, info)
        return secret

    def _is_source_param(self, info, index):
        if index >= len(info.params):
            return False
        return info.params[index] in self._secret_params(info)

    # -- per-function analysis --------------------------------------------

    def _analyze(self, info, collect):
        fn = _FunctionAnalysis(self, info, collect)
        fn.run()

    def merge_summary(self, qual, returns_params, return_srcs, sinks):
        summary = self.summaries[qual]
        before = summary.snapshot()
        summary.returns_params |= returns_params
        summary.return_srcs |= return_srcs
        for i, entries in sinks.items():
            summary.sink_params.setdefault(i, set()).update(entries)
        if summary.snapshot() != before:
            self._changed = True

    def merge_attr_srcs(self, key, attr, tokens):
        attrs = self.attr_srcs.setdefault(key, {})
        have = attrs.setdefault(attr, set())
        if not tokens <= have:
            have |= tokens
            self._changed = True


class _FunctionAnalysis:
    """One (re-)analysis of one function body."""

    def __init__(self, engine, info, collect):
        self.engine = engine
        self.project = engine.project
        self.info = info
        self.collect = collect           # None, or {(rule, line): msg}
        self.env = {}
        self.returns_params = set()
        self.return_srcs = set()
        self.sinks = {}                  # param idx -> {(rule, line, what)}
        secret = engine._secret_params(info)
        for i, p in enumerate(info.params):
            tokens = {("param", i)}
            if p in secret:
                tokens.add(("src", p))
            self.env[p] = frozenset(tokens)
        for p in info.kwonly:
            if p in secret:
                self.env[p] = frozenset({("src", p)})
        decls = engine.decls.get(info.module)
        self.decls = decls if decls else None

    def run(self):
        body = self.info.node.body
        # Two forward passes: the second sees loop-carried taint
        # (``node`` updated at the bottom of a tree-walk loop, used at
        # the top).
        for _ in range(2):
            for stmt in body:
                self._stmt(stmt)
        self.engine.merge_summary(
            self.info.qualname, self.returns_params, self.return_srcs,
            self.sinks)

    # -- sinks -------------------------------------------------------------

    def _sink(self, tokens, rule, line, what):
        for tok in tokens:
            kind = tok[0]
            if kind == "src":
                if self.collect is not None:
                    key = (rule, line)
                    if key not in self.collect:
                        self.collect[key] = (
                            f"secret '{tok[1]}' reaches {what}")
            elif kind == "param":
                self.sinks.setdefault(tok[1], set()).add((rule, line, what))

    # -- statements --------------------------------------------------------

    def _stmt(self, node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # closures/nested classes are out of scope
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            taint = self._eval(value) if value is not None else EMPTY
            taint |= self._declared_assign_srcs(node)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                self._assign(target, taint)
        elif isinstance(node, ast.AugAssign):
            taint = self._eval(node.value) | self._eval_target_read(
                node.target)
            self._assign(node.target, taint)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                for tok in self._eval(node.value):
                    if tok[0] == "param":
                        self.returns_params.add(tok[1])
                    else:
                        self.return_srcs.add(tok)
        elif isinstance(node, ast.For):
            self._for(node)
        elif isinstance(node, (ast.If, ast.While)):
            test = self._eval(node.test)
            if test and self._guards_paging(node):
                self._sink(
                    {t for t in test if t[0] == "src"},
                    RULE_BRANCH, node.lineno,
                    "a branch that guards paging activity")
            rounds = 2 if isinstance(node, ast.While) else 1
            for _ in range(rounds):
                for stmt in node.body:
                    self._stmt(stmt)
            for stmt in node.orelse:
                self._stmt(stmt)
        elif isinstance(node, ast.With):
            for item in node.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taint)
            for stmt in node.body:
                self._stmt(stmt)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                for stmt in block:
                    self._stmt(stmt)
            for handler in node.handlers:
                for stmt in handler.body:
                    self._stmt(stmt)
        elif isinstance(node, ast.Expr):
            self._eval(node.value)
        elif isinstance(node, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child)
        # pass/break/continue/import/global: nothing flows

    def _declared_assign_srcs(self, node):
        if self.decls is None:
            return EMPTY
        names = self.decls.for_line(node.lineno)
        if names is None:
            return EMPTY
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        declared = set()
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    if names == () or leaf.id in names:
                        declared.add(("src", leaf.id))
        return frozenset(declared)

    def _assign(self, target, taint):
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, taint)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint)
        elif isinstance(target, ast.Subscript):
            self._index_sink(target)
            # A value store taints the collection; the key does not.
            if taint and isinstance(target.value, ast.Name):
                name = target.value.id
                self.env[name] = self.env.get(name, EMPTY) | taint
            self._store_attr_taint(target.value, taint)
        elif isinstance(target, ast.Attribute):
            self._store_attr(target, taint)

    def _store_attr(self, target, taint):
        chain = _chain(target)
        if len(chain) == 2 and chain[0] == "self" and \
                self.info.class_name is not None:
            srcs = frozenset(t for t in taint if t[0] == "src")
            if srcs:
                self.engine.merge_attr_srcs(
                    (self.info.module, self.info.class_name),
                    chain[1], srcs)

    def _store_attr_taint(self, value, taint):
        # ``self._data[k] = v`` taints the ``_data`` attribute itself.
        if isinstance(value, ast.Attribute):
            self._store_attr(value, taint)

    def _eval_target_read(self, target):
        if isinstance(target, ast.Name):
            return self.env.get(target.id, EMPTY)
        if isinstance(target, ast.Subscript):
            return self._eval(target.value)
        if isinstance(target, ast.Attribute):
            return self._eval(target)
        return EMPTY

    def _for(self, node):
        taint = self._eval(node.iter)
        call = node.iter if isinstance(node.iter, ast.Call) else None
        if call is not None and isinstance(call.func, ast.Name) and \
                call.func.id == "enumerate" and call.args and \
                isinstance(node.target, ast.Tuple) and \
                len(node.target.elts) == 2:
            # enumerate(): the counter is public, the element keeps
            # the iterable's taint.
            self._assign(node.target.elts[0], EMPTY)
            self._assign(node.target.elts[1], self._eval(call.args[0]))
        else:
            self._assign(node.target, taint)
        # Loop bodies run twice so iteration 2 sees the taint a tree
        # walk accumulates in iteration 1 (``node`` updated at the
        # bottom, used at the top).
        for _ in range(2):
            for stmt in node.body:
                self._stmt(stmt)
        for stmt in node.orelse:
            self._stmt(stmt)

    def _guards_paging(self, node):
        for stmt in node.body + node.orelse:
            for child in ast.walk(stmt):
                if isinstance(child, ast.Call):
                    chain = _chain(child.func)
                    if chain and chain[-1] in TAINT_PAGE_SINKS:
                        return True
        return False

    # -- expressions -------------------------------------------------------

    def _eval(self, node):
        if node is None or isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY)
        if isinstance(node, ast.Attribute):
            if node.attr in TAINT_PUBLIC_ATTRS:
                return EMPTY
            taint = self._eval(node.value)
            chain = _chain(node)
            if len(chain) == 2 and chain[0] == "self" and \
                    self.info.class_name is not None:
                attrs = self.engine.attr_srcs.get(
                    (self.info.module, self.info.class_name), {})
                taint = taint | frozenset(attrs.get(node.attr, ()))
            return taint
        if isinstance(node, ast.Subscript):
            self._index_sink(node)
            return self._eval(node.value)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.BoolOp):
            taint = EMPTY
            for value in node.values:
                taint |= self._eval(value)
            return taint
        if isinstance(node, ast.Compare):
            taint = self._eval(node.left)
            for comp in node.comparators:
                taint |= self._eval(comp)
            return taint
        if isinstance(node, ast.IfExp):
            return (self._eval(node.test) | self._eval(node.body)
                    | self._eval(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            taint = EMPTY
            for elt in node.elts:
                taint |= self._eval(elt)
            return taint
        if isinstance(node, ast.Dict):
            taint = EMPTY
            for key in node.keys:
                taint |= self._eval(key)
            for value in node.values:
                taint |= self._eval(value)
            return taint
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.JoinedStr):
            taint = EMPTY
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    taint |= self._eval(value.value)
            return taint
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comprehension(node)
        if isinstance(node, ast.Slice):
            return (self._eval(node.lower) | self._eval(node.upper)
                    | self._eval(node.step))
        if isinstance(node, ast.Lambda):
            return EMPTY
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            # Yielded values are what the caller iterates: they feed
            # the summary exactly like a return value.
            taint = self._eval(node.value) if node.value else EMPTY
            for tok in taint:
                if tok[0] == "param":
                    self.returns_params.add(tok[1])
                else:
                    self.return_srcs.add(tok)
            return taint
        return EMPTY

    def _comprehension(self, node):
        saved = dict(self.env)
        try:
            for gen in node.generators:
                self._assign(gen.target, self._eval(gen.iter))
                for cond in gen.ifs:
                    self._eval(cond)
            if isinstance(node, ast.DictComp):
                return self._eval(node.key) | self._eval(node.value)
            return self._eval(node.elt)
        finally:
            self.env = saved

    def _index_sink(self, node):
        if not self.info.module.startswith(TAINT_INDEX_PREFIXES):
            return
        taint = self._eval(node.slice)
        if taint:
            self._sink(taint, RULE_INDEX, node.lineno,
                       "a container index (the access selects the page)")

    # -- calls -------------------------------------------------------------

    def _call(self, call):
        chain = _chain(call.func)
        name = chain[-1] if chain else None
        arg_taints = [
            self._eval(a) for a in call.args
        ]
        kw_taints = [self._eval(kw.value) for kw in call.keywords]

        if name in TAINT_PAGE_SINKS:
            pos = TAINT_PAGE_SINKS[name]
            if pos < len(call.args) and \
                    not isinstance(call.args[pos], ast.Starred):
                self._sink(arg_taints[pos], RULE_PAGE, call.lineno,
                           f"the page-address argument of {name}()")
            return EMPTY
        if name in TAINT_COLLECTION_ACCESSORS and \
                isinstance(call.func, ast.Attribute):
            return self._eval(call.func.value)
        if name in TAINT_COLLECTION_MUTATORS and \
                isinstance(call.func, ast.Attribute):
            stored = EMPTY
            for t in arg_taints:
                stored |= t
            recv = call.func.value
            if stored:
                if isinstance(recv, ast.Name):
                    self.env[recv.id] = \
                        self.env.get(recv.id, EMPTY) | stored
                self._store_attr_taint(recv, stored)
            return EMPTY
        if name in TAINT_SANITIZERS:
            return EMPTY

        candidates, strong = self.project.resolve_call_ex(
            call, self.info.module, caller=self.info)
        taint = EMPTY
        for callee in candidates:
            taint |= self._apply_summary(call, callee)
        if candidates and strong:
            return taint

        # Unresolved (builtins, external libraries) or only weakly
        # (duck-typed) resolved: taint flows through arguments and the
        # receiver — ``word.encode()`` stays secret even if some
        # project class happens to define ``encode``.
        for t in arg_taints:
            taint |= t
        for t in kw_taints:
            taint |= t
        if isinstance(call.func, ast.Attribute):
            taint |= self._eval(call.func.value)
        return taint

    def _apply_summary(self, call, callee):
        summary = self.engine.summaries.get(callee.qualname)
        if summary is None:
            return EMPTY
        bound = self.project.bind_arguments(call, callee)
        bound_taints = {i: self._eval(expr) for i, expr in bound.items()}
        for i, taint in bound_taints.items():
            if not taint:
                continue
            entries = summary.sink_params.get(i)
            if not entries:
                continue
            if self.engine._is_source_param(callee, i):
                # The callee's parameter is itself a declared secret:
                # the finding already surfaces inside the callee.
                continue
            for rule, _line, _what in sorted(entries):
                self._sink(taint, rule, call.lineno,
                           f"a {rule.split('/')[1]} sink via "
                           f"{callee.name}()")
        taint = frozenset(summary.return_srcs)
        for i in summary.returns_params:
            taint |= bound_taints.get(i, EMPTY)
        return taint


def _chain(node):
    from repro.analysis.walker import attr_chain
    return attr_chain(node)
