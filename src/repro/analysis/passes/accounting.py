"""Cycle-accounting pass: modeled paging paths must charge the clock.

Figures 5–8 are rebuilt from per-category cycle totals, so a fault or
paging path that returns without charging silently deflates a bar in
every downstream experiment.  For each function in the accounting
modules whose name matches the paging-verb pattern
(:mod:`repro.analysis.config`), this pass requires that a
``*.charge(...)`` call is reachable:

* directly in the body;
* through any call the project-wide call graph resolves — same-module
  helpers, ``self.instr.ewb(...)`` into ``sgx/instructions``, a
  runtime's channel upcall into the driver — computed as a fixpoint
  over the whole project (a call with several candidates charges if
  *any* candidate does: duck-typed receivers share the contract);
* or, only when the graph cannot resolve the callee at all, through a
  call on one of the *charging receivers* (``clock``, ``kernel``,
  ``ops``, …).

Abstract methods (bodies of only ``pass``/``raise``/docstring) and
properties are skipped.  A matching function that is bookkeeping
inside an already-charged path carries
``# repro: allow[cycle-accounting]`` and its reason at its ``def``.
"""

from __future__ import annotations

import ast

from repro.analysis.config import (
    ACCOUNTING_MODULES,
    ACCOUNTING_NAME_RE,
    CHARGING_RECEIVERS,
)
from repro.analysis.findings import Finding
from repro.analysis.walker import attr_chain

RULE_UNCHARGED = "cycle-accounting/uncharged"


def _is_abstract(body):
    """A body that only raises/passes (plus a docstring) models an
    interface, not a path."""
    statements = list(body)
    if statements and isinstance(statements[0], ast.Expr) and \
            isinstance(statements[0].value, ast.Constant):
        statements = statements[1:]
    if not statements:
        return True
    return all(
        isinstance(stmt, (ast.Raise, ast.Pass)) or
        (isinstance(stmt, ast.Expr) and
         isinstance(stmt.value, ast.Constant))
        for stmt in statements
    )


def _decorator_names(node):
    names = set()
    for decorator in node.decorator_list:
        chain = attr_chain(decorator)
        names.update(chain)
    return names


class CycleAccountingPass:
    family = "cycle-accounting"

    def __init__(self):
        self._charges = set()     # qualnames with a reachable charge

    def applies(self, module):
        return module in ACCOUNTING_MODULES

    def prepare(self, project):
        """Project-wide charge-reachability fixpoint."""
        self._project = project
        calls = {}                # qualname -> set of callee qualnames
        charges = set()
        for qual, info in project.functions.items():
            callees = set()
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                if not chain:
                    continue
                if chain[-1] == "charge":
                    charges.add(qual)
                    continue
                candidates = project.resolve_call(
                    node, info.module, caller=info)
                if candidates:
                    # Any-candidate semantics: duck-typed receivers
                    # (PagingOps implementations, …) share the
                    # charging contract.
                    callees.update(c.qualname for c in candidates)
                elif len(chain) >= 2 and chain[-2] in CHARGING_RECEIVERS:
                    charges.add(qual)
            calls[qual] = callees
        changed = True
        while changed:
            changed = False
            for qual, callees in calls.items():
                if qual in charges:
                    continue
                if any(callee in charges for callee in callees):
                    charges.add(qual)
                    changed = True
        self._charges = charges

    def run(self, mod):
        for info in self._project.functions.values():
            if info.module != mod.module or info.path != mod.path:
                continue
            if not self._in_scope(info):
                continue
            if info.qualname not in self._charges:
                yield Finding(
                    path=mod.path,
                    line=info.node.lineno,
                    rule=RULE_UNCHARGED,
                    message=(
                        f"modeled paging path {info.name}() returns "
                        f"without charging the clock"
                    ),
                    hint=(
                        "charge the simulated cost (clock.charge(...)) "
                        "or delegate to a charging component; annotate "
                        "costs folded into another figure with "
                        "# repro: allow[cycle-accounting]"
                    ),
                    module=mod.module,
                )

    def _in_scope(self, info):
        name = info.name
        if name.startswith("__"):
            return False
        if "property" in _decorator_names(info.node) or \
                "staticmethod" in _decorator_names(info.node):
            return False
        if _is_abstract(info.node.body):
            return False
        return bool(ACCOUNTING_NAME_RE.search(name))
