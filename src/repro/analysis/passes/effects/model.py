"""Effect tokens and per-function effect summaries.

An *effect token* names one piece of ambient state a function may read
or write, as a tuple of path segments rooted at the state's owner:

* ``("self", "_ptes", "[]")`` — an element of ``self._ptes``;
* ``("param:0", "backed", "[]")`` — an element of ``backed`` on the
  first positional argument;
* ``("global:repro.sgx.enclave.Enclave", "_next_id")`` — a class or
  module attribute, rooted at its *defining* module so the same state
  gets the same token no matter which module touches it.

Path segments after the root are attribute names, ``"[]"`` for
subscript/container-element steps, ``"()"`` for call-result steps, and
``"*"`` for a deterministic truncation marker once a path exceeds
:data:`MAX_PATH` segments.

Locally-constructed objects (literals, fresh constructor results) have
*no* token — their provenance is the empty set, spelled
:data:`LOCAL` — which is exactly the escape analysis: a write through
a local object is invisible in the summary, a write through anything
rooted in ``self``/a parameter/a global is ambient.
"""

from __future__ import annotations

from repro.analysis.config import EFFECTS_TRANSLATION_ATTRS

#: Provenance of a locally-constructed (non-escaping) value.
LOCAL = frozenset()

#: Maximum token length; longer paths truncate deterministically.
MAX_PATH = 6

#: Cap on tokens kept per summary set (keeps the fixpoint bounded on
#: high-fan-in aggregation functions; pruning is deterministic).
MAX_TOKENS = 400


def cap(token):
    """Bound one token to :data:`MAX_PATH` segments."""
    if len(token) <= MAX_PATH:
        return token
    return token[:MAX_PATH - 1] + ("*",)


def extend(provenance, segment):
    """Append one path segment to every token of a provenance set."""
    if not provenance:
        return LOCAL
    return frozenset(cap(tok + (segment,)) for tok in provenance)


def display(token):
    """Human-readable rendering of one token."""
    root = token[0]
    if root.startswith("global:"):
        head = root[len("global:"):]
    elif root.startswith("param:"):
        head = f"arg[{root[len('param:'):]}]"
    else:
        head = root
    parts = [head]
    for seg in token[1:]:
        if seg == "[]":
            parts[-1] += "[...]"
        elif seg == "()":
            parts[-1] += "()"
        elif seg == "*":
            parts[-1] += ".*"
        else:
            parts.append(seg)
    return ".".join(parts)


def affects_translation(token):
    """Does this write token touch translation-affecting state?"""
    return any(
        seg in EFFECTS_TRANSLATION_ATTRS for seg in token[1:]
        if seg not in ("[]", "()", "*")
    )


class EffectSummary:
    """Interprocedural read/write/return effects of one function.

    ``writes`` is the transitive ambient write set (own statements plus
    rebound callee effects); ``direct_writes`` keeps only the writes
    this function's own statements perform, which is what the
    epoch-soundness checker attributes blame by.  ``returns`` holds the
    ambient state the return value may alias, so call sites can track
    aliasing through helper results.  ``bumps`` records a *definite*
    epoch bump on every fall-through path (usable by callers);
    ``epoch_sound`` is the finer per-function verdict — no path writes
    translation state and then exits without a bump.
    """

    __slots__ = ("writes", "direct_writes", "reads", "returns",
                 "bumps", "epoch_sound", "truncated")

    def __init__(self):
        self.writes = set()
        self.direct_writes = set()
        self.reads = set()
        self.returns = set()
        self.bumps = False
        self.epoch_sound = True
        self.truncated = False

    def snapshot(self):
        return (
            frozenset(self.writes),
            frozenset(self.direct_writes),
            frozenset(self.reads),
            frozenset(self.returns),
            self.bumps,
            self.epoch_sound,
        )

    def bound(self):
        """Deterministically prune oversized sets."""
        for name in ("writes", "direct_writes", "reads", "returns"):
            tokens = getattr(self, name)
            if len(tokens) > MAX_TOKENS:
                setattr(self, name, set(sorted(tokens)[:MAX_TOKENS]))
                self.truncated = True
