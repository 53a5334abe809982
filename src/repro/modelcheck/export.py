"""Export model-checker witnesses as replayable chaos fault plans.

A terminal trace found by the explorer is only worth trusting if the
*full-scale* runtime — the 240-op chaos campaign workload, not the tiny
model — reaches the same outcome class under the same hostile acts.
This module maps a model trace's host actions onto
:class:`repro.chaos.plan.FaultPlan` events and wraps them in the JSON
envelope ``python -m repro chaos --plan`` replays and verifies.

Workload actions (``touch``/``progress``/``claim``/…) have no plan
counterpart — the campaign drives its own workload — so only the
hostile actions are mapped.  Events are spaced 20 ops apart starting at
op 60, past the campaign's warm-up prologue, preserving the trace's
action order.

Only campaign-replayable witnesses become envelopes:
:func:`skip_reason` names why any other trace is left out.
"""

from __future__ import annotations

from repro.chaos.campaign import DEFAULT_POLICIES
from repro.chaos.plan import (
    WITNESS_KEYS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    to_json,
)
from repro.modelcheck.model import SQUEEZE_CUT

#: First mapped event's campaign op index, and the spacing between
#: events: late enough to clear warm-up, sparse enough that each act's
#: consequences settle before the next.
FIRST_OP = 60
OP_SPACING = 20

#: Model actions with a campaign fault-kind counterpart.  ``deny`` maps
#: per SGX version; parameterless entries use the model's magnitudes.
_ACTION_KINDS = {
    "tamper": (FaultKind.TAMPER_BACKING, 1),
    "unmap": (FaultKind.UNMAP_RESIDENT, 1),
    "crash": (FaultKind.CRASH_ENCLAVE, 1),
    "balloon": (FaultKind.BALLOON_REQUEST, 2),
    "squeeze": (FaultKind.QUOTA_SQUEEZE, SQUEEZE_CUT),
}


def plan_for_trace(policy_name, trace):
    """The :class:`FaultPlan` equivalent of a model trace's hostile
    actions, or ``None`` when nothing maps (pure-workload trace)."""
    events = []
    for action in trace:
        mapped = _map_action(policy_name, action)
        if mapped is None:
            continue
        kind, param = mapped
        events.append(FaultEvent(
            kind=kind,
            at_op=FIRST_OP + OP_SPACING * len(events),
            param=param,
        ))
    if not events:
        return None
    return FaultPlan(seed=0, events=tuple(events))


def _map_action(policy_name, action):
    if action in _ACTION_KINDS:
        return _ACTION_KINDS[action]
    if action.startswith("deny:"):
        kind = (FaultKind.DENY_SGX2
                if policy_name == "rate_limit_sgx2"
                else FaultKind.DENY_FETCH)
        return kind, int(action.split(":", 1)[1])
    return None


def skip_reason(policy_name, trace):
    """Why no chaos plan can replay ``trace`` of ``policy_name``'s
    world (the model's ``oram``, the pool world and the seeded-bug
    ``broken`` world have no campaign counterpart; ``rollback`` and
    workload actions map to no fault), or ``None`` when one can."""
    if policy_name not in DEFAULT_POLICIES:
        return "the world has no chaos-campaign counterpart"
    if plan_for_trace(policy_name, trace) is None:
        return "no action maps to a fault-plan event"
    return None


def witness_payload(policy_name, trace, expected_outcome):
    """The ``--plan`` envelope for one witness trace, or ``None`` when
    :func:`skip_reason` names why no chaos plan can replay it."""
    if skip_reason(policy_name, trace) is not None:
        return None
    return {"plan": to_json(plan_for_trace(policy_name, trace)), **dict(zip(
        WITNESS_KEYS, (policy_name, expected_outcome, list(trace))))}


def export_witnesses(exploration, minimized=()):
    """``(payloads, skipped)`` for one
    :class:`repro.modelcheck.explorer.Exploration`: ``label -> payload``
    for each witness trace and each of the ``(trace, messages)``
    ``minimized`` violations (labelled ``violation-N``) that a chaos
    plan can replay, and ``(label, trace, reason)`` for each one that
    none can, in the same order."""
    entries = [(label, trace, label.split("/", 1)[0])
               for label, trace in sorted(exploration.witnesses.items())]
    entries += [(f"violation-{index}", trace, None)
                for index, (trace, _messages) in enumerate(minimized)]
    payloads, skipped = {}, []
    for label, trace, outcome in entries:
        payload = witness_payload(exploration.policy, trace, outcome)
        if payload is None:
            skipped.append(
                (label, trace, skip_reason(exploration.policy, trace)))
        else:
            payloads[label] = payload
    return payloads, skipped
