"""Shortest-trace counterexample minimization.

BFS already yields a shortest witness *among explored traces*, but a
violation surfaced from a deep or truncated sweep can carry irrelevant
prefix actions.  :func:`minimize` shrinks a violating trace by greedy
one-at-a-time deletion — drop an action, replay, keep the shorter trace
whenever the violation survives — restarting after every success until
a fixed point.  Deterministic (deletion attempts run left to right) and
sound: the result is validated by re-running it from boot, one
``successor`` of its world's domain per action, never by assumption.

A candidate is *replay-valid* only if every remaining action is enabled
at its step; dropping an enabling action (the ``touch`` before an
``unmap``, say) invalidates the candidate rather than exploring
undefined behaviour.
"""

from __future__ import annotations

from repro.modelcheck.explorer import domain_for


def violation_messages(policy_name, trace):
    """Replay ``trace`` and return its violation messages (empty when
    the trace is replay-invalid or safe)."""
    boot_, _, enabled_, successor_, check_ = domain_for(policy_name)
    world = boot_(policy_name)
    for action in trace:
        if world.terminal or action not in enabled_(world):
            return ()
        world = successor_(world, action)
    return tuple(world.violations) + tuple(check_(world))


def minimize(policy_name, trace):
    """The shortest sub-trace of ``trace`` still violating an invariant.

    Returns ``(minimized_trace, messages)``.  Raises ``ValueError``
    when the input trace does not reproduce a violation — a minimizer
    that silently accepts a non-witness would hide replay drift.
    """
    trace = tuple(trace)
    messages = violation_messages(policy_name, trace)
    if not messages:
        raise ValueError(
            f"trace does not violate any invariant under "
            f"{policy_name!r}: {trace!r}")
    shrunk = True
    while shrunk:
        shrunk = False
        for index in range(len(trace)):
            candidate = trace[:index] + trace[index + 1:]
            candidate_messages = violation_messages(
                policy_name, candidate)
            if candidate_messages:
                trace = candidate
                messages = candidate_messages
                shrunk = True
                break
    return trace, messages
