"""The effects pass family: interprocedural effect/purity inference.

``prepare`` runs the :class:`~.engine.EffectEngine` fixpoint once over
the shared call graph and indexes every parallel-runner call site;
``run`` then reports per module through the three checker families:

* ``effects/epoch-soundness`` — translation-affecting mutators must
  bump the :class:`~repro.sgx.epoch.TranslationEpoch` on all paths;
* ``effects/parallel-purity`` — ``run_indexed`` task workers must
  have empty ambient write sets;
* ``effects/hot-path-perf`` — hot-marked functions must keep their
  loops free of invariant re-lookup, allocation, and exceptions, and
  must not run import statements.
"""

from __future__ import annotations

from repro.analysis.passes.effects import epoch, hotpath, purity
from repro.analysis.passes.effects.engine import EffectEngine
from repro.analysis.passes.effects.model import EffectSummary, display

__all__ = ["EffectsPass", "EffectEngine", "EffectSummary", "display"]


class EffectsPass:
    """Effect summaries plus the three convention checkers."""

    family = "effects"

    def __init__(self):
        self._engine = None
        self._sites = {}

    def applies(self, module):
        return True

    def prepare(self, project):
        self._engine = EffectEngine(project)
        self._engine.run()
        self._sites = purity.find_runner_sites(project)

    def run(self, mod):
        if self._engine is None:  # driver always prepares; be safe
            return
        yield from epoch.check_module(self._engine, mod)
        yield from purity.check_module(self._engine, self._sites, mod)
        yield from hotpath.check_module(self._engine.project, mod)
