"""effects/epoch-soundness — translation mutators must bump the epoch.

The PR 4 fast path (``Mmu`` memoization, ``probe_run``) is only sound
because every mutation of translation-affecting state — page-table
entries, EPCM entries, TLB contents, EPC residency, permission bits —
bumps the shared :class:`~repro.sgx.epoch.TranslationEpoch`, which
drops all memos wholesale.  This checker attributes blame to the
function whose *own statements* perform such a write (propagated
callee effects are the callee's responsibility) and requires the
must-bump analysis to prove a bump on every path that writes before a
normal return.  ``__init__``-style constructors are exempt: no memo
can exist for an object still being constructed.
"""

from __future__ import annotations

from repro.analysis.config import (
    EFFECTS_EPOCH_EXEMPT_NAMES,
    EFFECTS_EPOCH_PREFIXES,
)
from repro.analysis.findings import Finding
from repro.analysis.passes.effects.model import (
    affects_translation, display,
)

RULE = "effects/epoch-soundness"


def check_module(engine, mod):
    """Yield epoch-soundness findings for one module."""
    project = engine.project
    for qual in sorted(project.functions):
        info = project.functions[qual]
        if info.module != mod.module or info.path != mod.path:
            continue
        if not info.module.startswith(EFFECTS_EPOCH_PREFIXES):
            continue
        if info.name in EFFECTS_EPOCH_EXEMPT_NAMES:
            continue
        summary = engine.summaries[qual]
        if summary.epoch_sound:
            continue
        offending = sorted(
            tok for tok in summary.direct_writes if affects_translation(tok)
        )
        if not offending:
            continue
        shown = ", ".join(display(tok) for tok in offending[:3])
        if len(offending) > 3:
            shown += ", ..."
        yield Finding(
            path=mod.path,
            line=info.node.lineno,
            rule=RULE,
            message=(
                f"'{info.name}' writes translation-affecting state "
                f"({shown}) without bumping the TranslationEpoch on "
                f"every path"
            ),
            hint=(
                "bump epoch.value before returning (or via a "
                "must-bump helper), or annotate with # repro: "
                "allow[effects/epoch-soundness] and a reason"
            ),
            module=mod.module,
        )
