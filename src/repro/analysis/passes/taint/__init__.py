"""Leakage pass: secrets must not reach the paging surface.

The wrapper around :mod:`repro.analysis.passes.taint.engine`: the
interprocedural fixpoint runs once per analysis (in ``prepare``), and
``run`` replays the per-file findings so the ordinary suppression
machinery (``# repro: allow[leakage]``) applies.
"""

from __future__ import annotations

from repro.analysis.passes.taint.engine import (
    RULE_BRANCH,
    RULE_INDEX,
    RULE_PAGE,
    TaintEngine,
)

__all__ = ["LeakagePass", "RULE_PAGE", "RULE_INDEX", "RULE_BRANCH"]


class LeakagePass:
    family = "leakage"

    def __init__(self):
        self._by_path = {}

    def prepare(self, project):
        self._by_path = TaintEngine(project).run()

    def applies(self, module):
        return True  # findings are already scoped by the engine

    def run(self, mod):
        yield from self._by_path.get(mod.path, ())
