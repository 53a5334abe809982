"""Canonical paging state and its fingerprint.

Recovery's correctness criterion is *bit-identical state*: after a
crash, restore + journal replay must land the enclave in exactly the
simulated paging state an uncrashed run would have at the same point.
This module defines what "state" means — a deterministic tuple tree
over everything the self-paging machine owns — and a sha256 fingerprint
over it (checkpoints anchor fingerprints, never raw state).

What is included:

* the pager's residency/pinned/claimed sets, eviction-queue order,
  per-page hotness, and lifetime counters;
* the crypto layer's outstanding seal versions for this enclave (both
  the CPU's EWB/ELDU engine and, on SGX2, the runtime's own sealing
  context) — the anti-replay state;
* balloon counters, policy state (including full ORAM client state and
  the exact position of its private random stream), and the runtime's
  handled-fault count.

What is deliberately excluded:

* the enclave id — a process-local launch counter that differs between
  a crashed enclave and its restarted successor (and between a run and
  its determinism-check rerun) without any observable difference;
* clock cycles — recovery itself costs cycles, so time can never match;
* the crypto layer's ``_next_version`` allocator and unit sequence
  numbers — private allocators, not observable state.
"""

from __future__ import annotations

from repro.core.digest import canonical_digest
from repro.oram.policy import OramPolicy
from repro.runtime.policies import (
    ClusterPolicy,
    PinAllPolicy,
    RateLimitPolicy,
)


def policy_state(policy):
    """Canonical tuple of one paging policy's mutable state."""
    if policy is None:
        return ()
    base = (
        policy.name,
        policy.legit_faults,
        policy.pages_fetched,
        policy.attacks_detected,
    )
    if isinstance(policy, PinAllPolicy):
        return base + (policy.sealed,)
    if isinstance(policy, ClusterPolicy):
        return base + (policy.unclustered_faults,)
    if isinstance(policy, OramPolicy):
        return base + (
            policy.instrumented_accesses,
            policy.oram.snapshot_state(),
            policy.cache.snapshot_state() if policy.cache else (),
        )
    if isinstance(policy, RateLimitPolicy):
        limiter = policy.limiter
        return base + (
            limiter.window_faults,
            limiter.total_faults,
            limiter.progress_events,
            limiter.tripped,
        )
    return base


def canonical_state(runtime):
    """The full canonical paging state of one runtime, as a tuple tree."""
    pager = runtime.pager
    eid = runtime.enclave.enclave_id
    crypto_tables = [
        runtime.kernel.instr.hw_crypto.outstanding_table(eid)
    ]
    ops_crypto = getattr(runtime.paging_ops, "crypto", None)
    if ops_crypto is not None:
        crypto_tables.append(ops_crypto.outstanding_table(eid))
    return (
        ("pager",
         pager.snapshot_counters(),
         pager.snapshot_queue(),
         pager.snapshot_hotness()),
        ("crypto", tuple(crypto_tables)),
        ("balloon",
         runtime.balloon.snapshot_counters() if runtime.balloon else ()),
        ("policy", policy_state(runtime.policy)),
        ("handled_faults", runtime.handled_faults),
    )


def fingerprint(runtime):
    """sha256 fingerprint of :func:`canonical_state` (hex)."""
    return canonical_digest(canonical_state(runtime))
