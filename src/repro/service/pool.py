"""Tenant pools: N replica enclaves per tenant with failover.

One enclave per tenant makes every abort a service-visible outage: the
request that triggered it aborts, and everything queued behind it waits
out a recovery (or dies with the quarantine).  A *pool* keeps N
replicas of the tenant's enclave — same config, same warmup, distinct
address-space slots — and routes each request to a deterministically
elected **primary**:

* the primary is the lowest-index replica that is RUNNING (per the
  recovery supervisor), not suspended by the host, and not quarantined;
* when the primary aborts, is suspended (§5.2.1 whole-enclave swap),
  or exhausts its restart budget, election simply moves to the next
  healthy replica — a *failover*, counted and folded into the digest;
* only when **no** replica is healthy does the tenant become
  unavailable, and even that is structured: requests shed with
  ``pool-unavailable`` and the tenant's breaker latches.

Election is a pure function of replica health, so two runs with the
same seed elect the same primaries in the same order — pools add
availability without costing determinism.
"""

from __future__ import annotations

from repro.recovery.supervisor import RUNNING


class ReplicaHandle:
    """Mutable service-side state of one replica enclave."""

    def __init__(self, tenant_name, index, member_name):
        self.tenant_name = tenant_name
        self.index = index
        #: The recovery-supervisor member name (``tenant/rN``).
        self.member_name = member_name
        #: Host-suspended (REPLICA_SUSPEND fault): the enclave's whole
        #: working set is swapped out and it must not run until the
        #: matching resume restores every page.
        self.suspended = False
        #: Balloon loans outstanding against this replica (tier-1
        #: shrink); repaid per-replica so restore targets the enclave
        #: that actually gave up the frames.
        self.shrunk_pages = 0

    def canonical(self):
        return (self.member_name, self.suspended, self.shrunk_pages)


class TenantPool:
    """The replica set of one tenant, with deterministic election.

    ``member_names`` are the replicas' recovery-supervisor names in
    election order.  The service router and the model checker's pool
    world both elect through this class."""

    def __init__(self, name, member_names, recovery):
        self.name = name
        self.recovery = recovery
        self.replicas = [
            ReplicaHandle(name, r, member)
            for r, member in enumerate(member_names)
        ]
        #: Index of the last elected primary; a change is a failover.
        self.last_primary = 0
        self.failovers = 0

    # -- health ------------------------------------------------------------

    def healthy(self, handle):
        """A replica may serve iff the supervisor says RUNNING and the
        host has not suspended it.  A member the supervisor no longer
        tracks (torn down at shutdown or retirement) is unhealthy, not
        an error — health probes outlive the fleet."""
        if handle.suspended:
            return False
        try:
            record = self.recovery.member(handle.member_name)
        except KeyError:
            return False
        return record.state == RUNNING

    def healthy_count(self):
        return sum(1 for h in self.replicas if self.healthy(h))

    # -- election ----------------------------------------------------------

    def elect_primary(self):
        """Lowest-index healthy replica, or ``None`` when the pool is
        exhausted.  The caller owns the all-unhealthy case — it must
        shed structured (``pool-unavailable``), never retry blindly."""
        for handle in self.replicas:
            if self.healthy(handle):
                if handle.index != self.last_primary:
                    self.failovers += 1
                    self.last_primary = handle.index
                return handle
        return None

    # -- observability -----------------------------------------------------

    def canonical(self):
        return (
            self.name,
            self.last_primary,
            self.failovers,
            tuple(h.canonical() for h in self.replicas),
        )
