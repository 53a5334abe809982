"""The cross-tenant contention sweep: policies × seeds over one EPC.

Each sweep point boots a homogeneous fleet (N tenants, one paper
policy) whose quotas deliberately over-commit the shared EPC, drives
the full service run, and classifies it into the three-way safety
invariant's classes plus the service's fourth legal class:

* ``completed``               — every request served cleanly;
* ``degraded-within-budget``  — served, with hardening mechanisms
  (bounded degradation, ballooning) absorbing the pressure;
* ``shed-within-budget``      — some requests refused, every refusal
  carrying a structured reason (the service *chose* the load to drop);
* ``aborted-structured``      — at least one enclave failed stop with
  a structured reason (and recovery/quarantine handled the corpse).

Anything else — an invariant violation inside any run — fails the
sweep.  Both sweeps run through :class:`repro.parallel.Sweep`: with
determinism checking on, every point runs twice and the digests must
agree, and ``jobs > 1`` must be bit-identical to the serial sweep.
"""

from __future__ import annotations

from functools import partial

from repro.parallel import Sweep
from repro.service.router import ServiceConfig, run_service
from repro.service.tenant import default_tenants

SWEEP_POLICIES = ("pin_all", "clusters", "rate_limit")

RUN_COMPLETED = "completed"
RUN_DEGRADED = "degraded-within-budget"
RUN_SHED = "shed-within-budget"
RUN_ABORTED = "aborted-structured"
RUN_CLASSES = (RUN_COMPLETED, RUN_DEGRADED, RUN_SHED, RUN_ABORTED)

#: EPC sizing for sweep points: four tenants × 128-page quotas = 512
#: pages of quota over 224 pages of EPC, and combined working sets
#: that push occupancy into the tier-1/tier-2 bands under all three
#: policies (a pin_all fleet's sealed sets alone need ~200 pages).
SWEEP_TENANTS = 4
SWEEP_EPC_PAGES = 224
SWEEP_TICKS = 20

#: Pool-failover sweep width: the same four-tenant fleets, but two
#: replica enclaves per tenant.  The EPC scales with the width (a
#: pin_all fleet seals every replica's working set) while quotas
#: still over-commit it, so pool failover happens *under* tier
#: pressure, not beside it.
POOL_REPLICAS = 2


def sweep_config(seed, policy, replicas=1):
    """One sweep point: a fleet all under ``policy``, ``replicas``
    enclaves per tenant."""
    return ServiceConfig(
        seed=seed,
        tenants=default_tenants(SWEEP_TENANTS, (policy,), replicas),
        epc_pages=SWEEP_EPC_PAGES * replicas,
        ticks=SWEEP_TICKS,
    )


def pool_sweep_config(seed, policy):
    return sweep_config(seed, policy, POOL_REPLICAS)


def classify(result):
    """Run-level outcome class (the four-way invariant)."""
    if result.outcome_counts["structured-abort"]:
        return RUN_ABORTED
    if result.outcome_counts["shed"]:
        return RUN_SHED
    if result.outcome_counts["degraded-in-budget"]:
        return RUN_DEGRADED
    return RUN_COMPLETED


class SweepResult(Sweep):
    """A contention or pool-failover sweep: one
    :class:`~repro.service.router.ServiceResult` per point."""

    def class_counts(self):
        return self.count(classify)

    def breaker_trips(self):
        return sum(result.breaker_trips for _, _, result in self.points)

    def breaker_closes(self):
        return sum(result.breaker_closes for _, _, result in self.points)


def _serve(seed, policy, replicas=1):
    """Run one sweep point's service from scratch."""
    return run_service(sweep_config(seed, policy, replicas))


def throughput_milli(result):
    """Served requests (completed + degraded) per million simulated
    cycles, in thousandths — integer, so frontier maths stays exact."""
    served = (result.outcome_counts["completed"]
              + result.outcome_counts["degraded-in-budget"])
    if result.cycles <= 0:
        return 0
    return served * 1_000_000_000 // result.cycles


def fairness_milli(result):
    """Jain's fairness index over per-tenant executed ops, in
    thousandths (1000 = perfectly even service across tenants)."""
    ops = [canon[3] for canon in result.tenants]
    total = sum(ops)
    squares = sum(x * x for x in ops)
    if not ops or squares == 0:
        return 1000
    return (total * total * 1000) // (len(ops) * squares)


def run_sweep(seeds, policies=SWEEP_POLICIES, check_determinism=True,
              jobs=1):
    """Sweep ``seeds`` × ``policies``; returns a :class:`SweepResult`.

    Results merge in canonical seed-outer, policy-inner order, so the
    sweep is identical at any ``jobs`` width."""
    return SweepResult.run_grid(_serve, seeds, policies,
                                check_determinism, jobs)


def run_pool_sweep(seeds, policies=SWEEP_POLICIES,
                   check_determinism=True, jobs=1):
    """The pool-failover frontier: ``seeds`` × ``policies`` with
    two-replica pools under the pooled fault family (tamper ladders,
    AEX storms, suspend/resume).  Same merge discipline as
    :func:`run_sweep`: identical at any ``jobs`` width."""
    return SweepResult.run_grid(partial(_serve, replicas=POOL_REPLICAS),
                                seeds, policies, check_determinism, jobs)


def sweep_report(sweep, seeds, policies, jobs):
    """The ``BENCH_service.json`` payload (sorted keys, JSON-safe)."""
    return {
        "ok": sweep.ok,
        "seeds": list(seeds),
        "policies": list(policies),
        "jobs": jobs,
        "classes": sweep.class_counts(),
        "breaker_trips": sweep.breaker_trips(),
        "breaker_closes": sweep.breaker_closes(),
        **sweep.failure_report(),
        "points": [
            {
                "seed": seed,
                "policy": policy,
                "class": classify(result),
                "outcomes": result.outcome_counts,
                "shed_by_reason": result.shed_by_reason,
                "abort_reasons": result.abort_reasons,
                "breaker_trips": result.breaker_trips,
                "breaker_closes": result.breaker_closes,
                "recoveries": result.recoveries,
                "quarantines": result.quarantines,
                "cycles": result.cycles,
                "digest": result.digest,
            }
            for seed, policy, result in sweep.points
        ],
    }


def pool_report(sweep, seeds, policies, jobs):
    """The pool-failover throughput/fairness frontier — the
    ``pool_frontier`` section of ``BENCH_service.json``.  Integers
    only (milli units) so the committed baseline diffs bit-exactly."""
    by_policy = {}
    points = []
    for seed, policy, result in sweep.points:
        tp = throughput_milli(result)
        fair = fairness_milli(result)
        points.append({
            "seed": seed,
            "policy": policy,
            "class": classify(result),
            "throughput_milli_per_mcycle": tp,
            "fairness_milli": fair,
            "failovers": result.failovers,
            "quarantines": result.quarantines,
            "recoveries": result.recoveries,
            "shed_by_reason": result.shed_by_reason,
            "digest": result.digest,
        })
        bucket = by_policy.setdefault(policy, {"tp": [], "fair": [],
                                               "failovers": 0})
        bucket["tp"].append(tp)
        bucket["fair"].append(fair)
        bucket["failovers"] += result.failovers
    frontier = {
        policy: {
            "mean_throughput_milli_per_mcycle":
                sum(b["tp"]) // max(1, len(b["tp"])),
            "mean_fairness_milli":
                sum(b["fair"]) // max(1, len(b["fair"])),
            "failovers": b["failovers"],
        }
        for policy, b in sorted(by_policy.items())
    }
    return {
        "ok": sweep.ok,
        "seeds": list(seeds),
        "policies": list(policies),
        "jobs": jobs,
        "replicas": POOL_REPLICAS,
        "classes": sweep.class_counts(),
        "frontier": frontier,
        "determinism_failures":
            sweep.failure_report()["determinism_failures"],
        "points": points,
    }
