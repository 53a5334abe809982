"""Bounded exhaustive exploration of host-action interleavings.

A breadth-first sweep over the tree of :mod:`repro.modelcheck.model`
worlds: start from a freshly booted tiny system, apply every enabled
host action to every frontier state, and check every successor against
the full invariant set.  States are deduplicated by canonical
fingerprint (:meth:`World.state_key`), which is also the cycle
detector — a trace that loops back to a known state is simply not
expanded again.

Determinism is load-bearing.  Exploration order is (frontier order ×
canonical action order); workers only *expand* (replay a trace, apply
each enabled action, report the successors) while the merge — dedup,
budgets, violation recording — runs sequentially in that canonical
order.  ``--jobs N`` therefore produces the bit-identical digest of
``--jobs 1``, the same contract the chaos campaign and the experiment
sweeps keep via :func:`repro.parallel.runner.run_indexed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.digest import canonical_digest
from repro.modelcheck import model, poolworld
from repro.modelcheck.invariants import check_world
from repro.parallel.runner import run_indexed

#: Domain dispatch: which module implements a policy name's world.
#: The single-enclave model covers the paging policies; ``pool`` is
#: the two-tenant pool-failover world.  Each domain provides
#: ``(boot, replay, enabled_actions, successor, check_world)``.
_DOMAINS = {
    name: (poolworld.boot, poolworld.replay,
           poolworld.enabled_actions, poolworld.successor,
           poolworld.check_world)
    for name in poolworld.WORLDS
}
_MODEL_DOMAIN = (model.boot, model.replay, model.enabled_actions,
                 model.successor, check_world)


def domain_for(policy_name):
    """The ``(boot, replay, enabled_actions, successor, check_world)``
    quintuple implementing ``policy_name``'s world."""
    return _DOMAINS.get(policy_name, _MODEL_DOMAIN)


@dataclass
class Exploration:
    """What one bounded sweep over a policy's action tree found."""

    policy: str
    depth: int
    max_states: int
    states: int = 0
    transitions: int = 0
    depth_reached: int = 0
    truncated: bool = False
    #: ``(trace, messages)`` per distinct violating state, in discovery
    #: order (the canonical order, so independent of ``jobs``).
    violations: list = field(default_factory=list)
    #: ``outcome_label -> count`` over distinct terminal states, where
    #: the label is ``outcome/reason`` (e.g. ``aborted/attack-detected``).
    terminals: dict = field(default_factory=dict)
    #: ``outcome_label -> shortest trace`` reaching that terminal class
    #: first (BFS order makes the first witness a shortest one).
    witnesses: dict = field(default_factory=dict)
    #: sha256 over the sorted canonical state keys — the jobs-invariant
    #: identity of the explored state space.
    digest: str = ""

    @property
    def ok(self):
        return not self.violations

    def as_json(self):
        return {
            "policy": self.policy,
            "depth": self.depth,
            "depth_reached": self.depth_reached,
            "max_states": self.max_states,
            "states": self.states,
            "transitions": self.transitions,
            "truncated": self.truncated,
            "ok": self.ok,
            "violations": [
                {"trace": list(trace), "messages": list(messages)}
                for trace, messages in self.violations
            ],
            "terminals": dict(sorted(self.terminals.items())),
            "witnesses": {
                label: list(trace)
                for label, trace in sorted(self.witnesses.items())
            },
            "digest": self.digest,
        }


def _expand_task(item):
    """Worker: replay one frontier trace and expand every enabled
    action.  Returns plain picklable tuples; all bookkeeping happens in
    the sequential merge."""
    policy_name, trace = item
    _, replay_, enabled_, successor_, check_ = domain_for(policy_name)
    world = replay_(policy_name, list(trace))
    children = []
    for action in enabled_(world):
        child = successor_(world, action)
        messages = tuple(child.violations) + tuple(check_(child))
        children.append((
            action,
            child.state_key(),
            child.outcome,
            child.reason,
            messages,
            child.terminal or bool(messages),
        ))
    return tuple(children)


def _terminal_label(outcome, reason):
    return f"{outcome}/{reason}" if reason else outcome


def explore(policy_name, depth=3, max_states=400, jobs=1):
    """Exhaustively explore ``policy_name``'s action tree to ``depth``.

    ``max_states`` bounds the number of *distinct* states admitted;
    once it is hit further new states are dropped (deterministically —
    the cut falls at the same point in canonical order for any
    ``jobs``) and the result is marked ``truncated``.
    """
    result = Exploration(policy=policy_name, depth=depth,
                         max_states=max_states)
    boot_, _, _, _, check_ = domain_for(policy_name)
    root = boot_(policy_name)
    seen = {root.state_key()}
    result.states = 1
    root_messages = tuple(root.violations) + tuple(check_(root))
    frontier = []
    if root_messages:
        result.violations.append(((), root_messages))
    elif not root.terminal:
        frontier.append(())

    level = 0
    while frontier and level < depth:
        level += 1
        expansions = run_indexed(
            _expand_task,
            [(policy_name, trace) for trace in frontier],
            jobs,
        )
        next_frontier = []
        for trace, children in zip(frontier, expansions):
            for action, key, outcome, reason, messages, terminal \
                    in children:
                result.transitions += 1
                if key in seen:
                    continue
                if result.states >= result.max_states:
                    result.truncated = True
                    continue
                seen.add(key)
                result.states += 1
                child_trace = trace + (action,)
                if messages:
                    result.violations.append((child_trace, messages))
                if terminal:
                    label = _terminal_label(outcome, reason)
                    if messages:
                        label = "violation"
                    result.terminals[label] = \
                        result.terminals.get(label, 0) + 1
                    result.witnesses.setdefault(label, child_trace)
                else:
                    next_frontier.append(child_trace)
        result.depth_reached = level
        frontier = next_frontier

    result.digest = canonical_digest(sorted(seen))
    return result
