"""Service-level fault kinds: the chaos harness attacks the *service*.

The core chaos plans (:mod:`repro.chaos.plan`) script a hostile host
against one enclave.  The service adds a second adversary tier — badly
behaved (or hostile) *tenants* and the host squeezing the whole fleet:

* ``TENANT_BURST``  — a tenant multiplies its offered load for a
  window of ticks; admission control must shed the excess with
  structured rejections instead of starving neighbours.
* ``TENANT_STALL``  — a tenant's requests stop making progress (each
  op burns extra simulated cycles); the per-request deadline must
  cancel them instead of letting them camp on the run queue.
* ``TENANT_TAMPER`` — the host forges a swapped-out blob of one
  tenant; the next fetch must fail stop with ``IntegrityAbort``, the
  breaker must trip, and recovery + half-open must bring the tenant
  back.
* ``AEX_STORM``     — the host fires a train of asynchronous exits
  (interrupt + resume) at a tenant's primary replica — the §3.2
  interrupt-based controlled channel at service scale.  The storm
  must cost only simulated cycles; it must not change any request's
  outcome or the run digest's safety verdict.
* ``REPLICA_SUSPEND`` / ``REPLICA_RESUME`` — the host suspends one
  replica (evicting its whole working set, §5.2.1) and later resumes
  it.  A suspended replica is unhealthy: the pool must fail requests
  over to a sibling, and resume must restore the replica verbatim.

These are a separate enum from :class:`repro.chaos.plan.FaultKind` on
purpose: the campaign's ``_apply`` dispatch and its frozen
model-checker witnesses enumerate that enum exhaustively, and service
faults target a *tenant of a fleet*, not *the* enclave.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum


class ServiceFaultKind(str, Enum):
    TENANT_BURST = "tenant-burst"
    TENANT_STALL = "tenant-stall"
    TENANT_TAMPER = "tenant-tamper"
    AEX_STORM = "aex-storm"
    REPLICA_SUSPEND = "replica-suspend"
    REPLICA_RESUME = "replica-resume"


@dataclass(frozen=True)
class ServiceFaultEvent:
    """One scheduled act against one tenant."""

    kind: ServiceFaultKind
    at_tick: int
    tenant_index: int
    #: Burst: load multiplier.  Stall: extra cycles per op.  Tamper:
    #: unused (the target page is drawn from live swapped state).
    #: AEX storm: number of interrupt/resume rounds.  Replica
    #: suspend/resume: replica index within the tenant's pool.
    param: int = 0
    #: Ticks the effect persists (burst / stall windows).
    duration: int = 0


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Seed-deterministic schedule of service faults.

    Regenerating with the same ``(seed, ticks, n_tenants, tamperable)``
    yields the identical plan — the property that lets a service
    failure be replayed from nothing but its seed.  Plans also
    round-trip through JSON (``repro.chaos.plan.to_json`` and
    ``from_json``) so a hand-built regression scenario can be frozen
    under ``tests/fixtures/chaos/`` and replayed with ``repro serve
    --plan``.
    """

    seed: int
    ticks: int
    events: tuple[ServiceFaultEvent, ...]

    def by_tick(self):
        table = {}
        for event in self.events:
            table.setdefault(event.at_tick, []).append(event)
        return table

    def kinds(self):
        return {event.kind for event in self.events}

    @staticmethod
    def generate(seed, ticks, n_tenants, tamperable=(), replicas=1):
        """Generate a plan for a fleet of ``n_tenants``.

        ``tamperable`` lists tenant indices with pageable working sets
        (pin_all tenants never swap after seal, so forging their
        backing store is a no-op and tamper events skip them).  When
        any tenant is tamperable, the plan always schedules at least
        two tampers against one victim — the acceptance criterion
        requires an observable breaker trip *and* half-open recovery,
        which needs repeated integrity failures on one tenant.

        With ``replicas > 1`` the plan also attacks the pool layer:
        an AEX storm against the victim, a suspend/resume pair against
        replica 0 of one tenant (forcing a failover window), and a
        *quarantine ladder* — enough extra tampers against the victim
        that its primary replica exhausts the restart budget and the
        pool must re-elect.
        """
        rng = random.Random((seed << 8) ^ 0x5EC7)
        events = []
        tamperable = tuple(sorted(tamperable))
        victim = None
        if tamperable and ticks >= 8:
            victim = tamperable[rng.randrange(len(tamperable))]
            first = 2 + rng.randrange(max(1, ticks // 4))
            second = first + 1
            events.append(ServiceFaultEvent(
                ServiceFaultKind.TENANT_TAMPER, first, victim
            ))
            events.append(ServiceFaultEvent(
                ServiceFaultKind.TENANT_TAMPER, second, victim
            ))
            if replicas > 1:
                # Quarantine ladder: the supervisor allows
                # max_restarts relaunches per replica; two more
                # tampers push the primary past the budget so the
                # failover path (not just recovery) must carry the
                # tenant.  Spaced two ticks apart so each abort has a
                # dispatch window to land in.
                events.append(ServiceFaultEvent(
                    ServiceFaultKind.TENANT_TAMPER, second + 2, victim
                ))
                events.append(ServiceFaultEvent(
                    ServiceFaultKind.TENANT_TAMPER, second + 4, victim
                ))
        if replicas > 1 and ticks >= 8:
            storm_target = (victim if victim is not None
                            else rng.randrange(n_tenants))
            events.append(ServiceFaultEvent(
                ServiceFaultKind.AEX_STORM,
                1 + rng.randrange(max(1, ticks // 3)),
                storm_target,
                param=4 + rng.randrange(8),
            ))
            # Suspension is never used on a sealed (pin_all) working
            # set, so draw the target from the pageable tenants.
            suspend_tenant = (
                tamperable[rng.randrange(len(tamperable))]
                if tamperable else rng.randrange(n_tenants)
            )
            suspend_at = 2 + rng.randrange(max(1, ticks // 3))
            events.append(ServiceFaultEvent(
                ServiceFaultKind.REPLICA_SUSPEND, suspend_at,
                suspend_tenant, param=0,
            ))
            events.append(ServiceFaultEvent(
                ServiceFaultKind.REPLICA_RESUME,
                suspend_at + 2 + rng.randrange(2),
                suspend_tenant, param=0,
            ))
        n_random = max(2, ticks // 10)
        for i in range(n_random):
            # Alternate kinds so every plan exercises both the burst
            # and the stall machinery (coin flips can starve one).
            kind = (ServiceFaultKind.TENANT_BURST
                    if i % 2 == 0
                    else ServiceFaultKind.TENANT_STALL)
            tenant = rng.randrange(n_tenants)
            at = rng.randrange(1, max(2, ticks - 2))
            if kind is ServiceFaultKind.TENANT_BURST:
                events.append(ServiceFaultEvent(
                    kind, at, tenant,
                    param=3 + rng.randrange(4),
                    duration=2 + rng.randrange(3),
                ))
            else:
                events.append(ServiceFaultEvent(
                    kind, at, tenant,
                    param=20_000_000 + rng.randrange(4) * 10_000_000,
                    duration=1 + rng.randrange(3),
                ))
        events.sort(key=lambda e: (e.at_tick, e.tenant_index,
                                   e.kind.value))
        return ServiceFaultPlan(seed=seed, ticks=ticks,
                                events=tuple(events))

    def canonical(self):
        return tuple(
            (e.kind.value, e.at_tick, e.tenant_index, e.param,
             e.duration)
            for e in self.events
        )
