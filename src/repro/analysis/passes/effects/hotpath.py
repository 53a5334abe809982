"""effects/hot-path-perf — micro-discipline for the hot access seams.

The PR 4 engine holds its speedup by keeping the per-access loops
allocation-free and dispatch-light (``__slots__`` state objects,
hoisted bound methods, the returned-fault protocol instead of
exceptions).  On functions marked hot — by a ``# repro: hot``
comment on (or directly above) the ``def`` line — this checker flags,
inside any ``for``/``while`` loop:

* **loop-invariant attribute re-lookup** — a pure attribute chain of
  three or more segments whose root is never rebound in the loop
  (``self.page_table._ptes`` costs two dict lookups per iteration;
  hoist it to a local);
* **per-iteration allocation** — list/dict/set displays and
  comprehensions allocate garbage every iteration;
* **exception-driven control flow** — a ``try`` inside the loop body;
  faults on the hot path use the returned-fault protocol
  (``translate_nofault``) precisely to avoid unwinding costs.

and, anywhere in the function, an **import statement**: it runs the
import machinery (a ``sys.modules`` lookup and a binding) on every
call; import at module level instead.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.walker import comment_tokens

RULE = "effects/hot-path-perf"

_ALLOC_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
                ast.DictComp, ast.GeneratorExp)
_ALLOC_CALLS = frozenset({"list", "dict", "set", "bytearray", "deque"})

HOT_MARKER = "# repro: hot"


def check_module(project, mod):
    """Yield hot-path findings for one module."""
    marker_lines = {
        tok.start[0] for tok in comment_tokens(mod.source)
        if HOT_MARKER in tok.string
    }
    for qual in sorted(project.functions):
        info = project.functions[qual]
        if info.module != mod.module or info.path != mod.path:
            continue
        lineno = info.node.lineno
        if lineno in marker_lines or lineno - 1 in marker_lines:
            yield from _check_function(info, mod)


def _check_function(info, mod):
    for node in ast.walk(info.node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield Finding(
                path=mod.path, line=node.lineno, rule=RULE,
                message=(
                    f"hot function '{info.name}' runs an import "
                    f"statement on every call"
                ),
                hint="import at module level",
                module=mod.module,
            )
    seen = set()
    for loop in ast.walk(info.node):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        rebound = _rebound_names(loop)
        body = list(loop.body) + list(loop.orelse)
        for finding in _check_loop(info, mod, body, rebound):
            key = (finding.line, finding.message)
            if key not in seen:
                seen.add(key)
                yield finding


def _rebound_names(loop):
    """Names assigned anywhere inside the loop (including its own
    ``for`` target): chains rooted at these are not loop-invariant."""
    names = set()
    nodes = list(loop.body) + list(loop.orelse)
    if isinstance(loop, ast.For):
        nodes.append(loop.target)
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, (ast.Store, ast.Del)):
                names.add(sub.id)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                for t in ast.walk(sub.target):
                    if isinstance(t, ast.Name):
                        names.add(t.id)
            elif isinstance(sub, ast.comprehension):
                for t in ast.walk(sub.target):
                    if isinstance(t, ast.Name):
                        names.add(t.id)
    return names


def _check_loop(info, mod, body, rebound):
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                chain = _pure_chain(node)
                if (chain is not None and len(chain) >= 3
                        and chain[0] not in rebound
                        and not _is_inner_attribute(node, stmt)):
                    dotted = ".".join(chain)
                    yield Finding(
                        path=mod.path, line=node.lineno, rule=RULE,
                        message=(
                            f"hot function '{info.name}' re-looks up "
                            f"loop-invariant chain '{dotted}' every "
                            f"iteration"
                        ),
                        hint=f"hoist '{dotted}' to a local before the loop",
                        module=mod.module,
                    )
            elif isinstance(node, _ALLOC_NODES):
                kind = type(node).__name__.lower()
                yield Finding(
                    path=mod.path, line=node.lineno, rule=RULE,
                    message=(
                        f"hot function '{info.name}' allocates a fresh "
                        f"{kind} every loop iteration"
                    ),
                    hint="hoist the container out of the loop or reuse "
                         "a preallocated one",
                    module=mod.module,
                )
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ALLOC_CALLS):
                yield Finding(
                    path=mod.path, line=node.lineno, rule=RULE,
                    message=(
                        f"hot function '{info.name}' allocates via "
                        f"{node.func.id}() every loop iteration"
                    ),
                    hint="hoist the container out of the loop or reuse "
                         "a preallocated one",
                    module=mod.module,
                )
            elif isinstance(node, ast.Try):
                yield Finding(
                    path=mod.path, line=node.lineno, rule=RULE,
                    message=(
                        f"hot function '{info.name}' uses exception-"
                        f"driven control flow inside the loop"
                    ),
                    hint="use the returned-fault protocol "
                         "(translate_nofault) instead of try/except "
                         "on the hot path",
                    module=mod.module,
                )


def _pure_chain(node):
    """``["self", "page_table", "_ptes"]`` for a pure attribute chain;
    None when the chain crosses a call or subscript (those results may
    legitimately change per iteration)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def _is_inner_attribute(node, stmt):
    """True when ``node`` is the ``.value`` of an enclosing Attribute —
    only the *maximal* chain is reported."""
    for parent in ast.walk(stmt):
        if isinstance(parent, ast.Attribute) and parent.value is node:
            return True
    return False
