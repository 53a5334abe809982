"""The self-paging engine: residence tracking and eviction (§5.2).

The trusted runtime tracks the residence status of every
enclave-managed page and is the *only* agent that moves them between
EPC and the backing store.  Eviction happens in *units* — the set of
pages fetched together (one page for plain demand paging, a cluster
closure for the cluster policy) — because evicting part of a cluster
would break the §5.2.3 invariant.

Two eviction orders are provided:

* ``FIFO`` — what the prototype uses (PTE accessed bits are unusable
  under Autarky, §7 "Setup").
* ``FAULT_FREQUENCY`` — the coarser frequency-based alternative §5.1.4
  sketches ("counts the frequency of page faults for each page, and
  eventually learns to keep hot pages paged in"); evaluated as
  ablation A1.
"""

from __future__ import annotations

import enum
import heapq
from collections import defaultdict, deque
from dataclasses import dataclass, field

from repro.errors import (
    ChaosAbort,
    EpcExhausted,
    LivelockGuard,
    PinnedExhaustion,
    PolicyError,
)
from repro.sgx.params import (
    EVICTION_BATCH,
    PAGE_MASK,
    PAGE_SHIFT,
    page_base,
    vpn_of,
)


#: How many times one fetch may shrink the resident set when the host
#: squeezes the EPC quota, before the enclave fails stop.
MAX_DEGRADATIONS = 8


class EvictionOrder(enum.Enum):
    FIFO = "fifo"
    FAULT_FREQUENCY = "fault_frequency"


@dataclass
class EvictionUnit:
    """Pages that were fetched together and must be evicted together."""

    pages: tuple          # vpns
    alive: bool = True
    fault_count: int = 0
    seq: int = field(default=0)


class SelfPager:
    """Manages the enclave-managed portion of EPC from inside the enclave."""

    def __init__(self, enclave, channel, ops, budget_pages,
                 order=EvictionOrder.FIFO, min_evict_batch=EVICTION_BATCH):
        self.enclave = enclave
        self.channel = channel
        self.ops = ops
        self.budget_pages = budget_pages
        self.order = order
        self.min_evict_batch = min_evict_batch

        self._resident = set()           # vpns
        self._pinned = set()             # vpns never evicted
        self._claimed = set()            # vpns under enclave management
        self._unit_of = {}               # vpn -> EvictionUnit
        self._fifo = deque()             # EvictionUnits, oldest first
        self._freq_heap = []             # (fault_count, seq, unit)
        self._seq = 0                    # next unit's tie-breaker
        #: Lifetime fault count per page — survives unit churn so the
        #: frequency evictor can learn which pages stay hot.
        self._page_faults = defaultdict(int)

        #: Optional repro.recovery.RecoveryManager: late regrouping is a
        #: paging-state input with no libOS wrapper, so the pager itself
        #: journals it when recovery is attached.
        self.recovery_observer = None

        #: Experiment counters.
        self.fetches = 0
        self.evictions = 0
        #: Times a fetch survived host EPC pressure by surrendering
        #: resident pages (graceful degradation, bounded above).
        self.degradations = 0

    # -- queries -----------------------------------------------------------

    def is_resident(self, vaddr):
        return vaddr >> PAGE_SHIFT in self._resident

    def resident_count(self):
        return len(self._resident)

    def resident_pages(self):
        """Page base addresses of every resident enclave-managed page."""
        return sorted(vpn << 12 for vpn in self._resident)

    def is_managed(self, vaddr):
        """Whether the page is currently under enclave management."""
        return vaddr >> PAGE_SHIFT in self._claimed

    # -- claiming ----------------------------------------------------------

    def claim_pages(self, vaddrs, pin=False):
        """ay_set_enclave_managed: move pages under enclave control.

        Pages that are already resident are adopted in place; ``pin``
        exempts them from eviction (handler code/data, ORAM metadata,
        self-paging bookkeeping — everything whose fault would itself
        leak)."""
        bases = [v & PAGE_MASK for v in vaddrs]
        residency = self.channel.call(
            "ay_set_enclave_managed", self.enclave, bases
        )
        adopted = [b for b, res in residency.items() if res]
        self.ops.adopt(adopted)
        adopted_vpns = [b >> PAGE_SHIFT for b in adopted]
        self._resident.update(adopted_vpns)
        vpns = [b >> PAGE_SHIFT for b in bases]
        self._claimed.update(vpns)
        if pin:
            self._pinned.update(vpns)
        elif adopted_vpns:
            self._push_unit(tuple(adopted_vpns))
        return residency

    def release_pages(self, vaddrs):
        """ay_set_os_managed: hand pages back to the OS."""
        bases = [page_base(v) for v in vaddrs]
        self.channel.call("ay_set_os_managed", self.enclave, bases)
        for base in bases:
            vpn = vpn_of(base)
            self._claimed.discard(vpn)
            self._pinned.discard(vpn)
            self._resident.discard(vpn)
            unit = self._unit_of.pop(vpn, None)
            if unit is not None:
                unit.alive = False

    # -- paging ------------------------------------------------------------

    def fetch_unit(self, vaddrs, pin=False):
        """Fetch all non-resident pages of a unit atomically.

        Returns the list of page bases actually fetched.  The unit is
        recorded so its pages are evicted together later."""
        resident = self._resident
        vpns = tuple([vpn for vaddr in vaddrs
                      if (vpn := vaddr >> PAGE_SHIFT) not in resident])
        if not vpns:
            return []
        missing = [vpn << PAGE_SHIFT for vpn in vpns]
        self.make_room(len(missing))
        self._fetch_degrading(missing)
        resident.update(vpns)
        self._claimed.update(vpns)
        if pin:
            self._pinned.update(vpns)
        else:
            self._push_unit(vpns)
        self.fetches += len(missing)
        return missing

    def _fetch_degrading(self, missing):
        """Issue the batched fetch, absorbing host-side EPC exhaustion.

        A Byzantine (or merely overloaded) host may shrink the quota
        under us even though ``make_room`` already made the resident set
        fit the *declared* budget.  The safe response is graceful
        degradation: surrender our own coldest units and retry, at most
        :data:`MAX_DEGRADATIONS` times, then fail stop — never spin."""
        last = None
        for _ in range(MAX_DEGRADATIONS + 1):
            try:
                self.ops.fetch_batch(missing)
                return
            except EpcExhausted as exc:
                last = exc
                unit = self._pop_victim()
                if unit is None:
                    raise ChaosAbort(
                        f"EPC exhausted fetching {len(missing)} pages "
                        f"with nothing left to surrender "
                        f"(resident={len(self._resident)}, "
                        f"pinned={len(self._pinned)}): {exc}"
                    ) from exc
                self.evict_unit(unit)
                self.degradations += 1
        raise ChaosAbort(
            f"EPC exhaustion persisted past the degradation budget "
            f"({MAX_DEGRADATIONS} evictions): {last}"
        ) from last

    def _detach_unit(self, unit):
        """Retire a unit; returns the page addresses it still held."""
        unit.alive = False
        pages = [vpn << 12 for vpn in unit.pages
                 if vpn in self._resident and vpn not in self._pinned]
        for vpn in unit.pages:
            if self._unit_of.get(vpn) is unit:
                del self._unit_of[vpn]
        return pages

    def _evict_pages(self, pages):
        if not pages:
            return 0
        self.ops.evict_batch(pages)
        self._resident.difference_update([v >> PAGE_SHIFT for v in pages])
        self.evictions += len(pages)
        return len(pages)

    def evict_unit(self, unit):
        """Evict every still-resident page of a unit."""
        return self._evict_pages(self._detach_unit(unit))

    def make_room(self, need):
        """Evict whole units (oldest / coldest first) until ``need``
        pages fit in the budget.  Victim units are combined into one
        batched eviction call so the per-page cost stays amortized
        (batch ≥ 16 as in the Intel driver)."""
        if need > self.budget_pages:
            raise PolicyError(
                f"unit of {need} pages exceeds the whole budget "
                f"({self.budget_pages})"
            )
        overshoot = len(self._resident) + need - self.budget_pages
        if overshoot <= 0:
            return
        target = max(overshoot, min(self.min_evict_batch,
                                    len(self._resident)))
        victims = []
        # Each queue entry is consumed exactly once, so the selection
        # loop is structurally finite — the guard turns any future
        # bookkeeping bug into a diagnosable abort instead of a hang.
        rounds = 0
        max_rounds = len(self._fifo) + len(self._freq_heap) + 1
        while len(victims) < target:
            rounds += 1
            if rounds > max_rounds:
                raise LivelockGuard(
                    f"victim selection looped {rounds} times over "
                    f"{max_rounds - 1} queued units without freeing "
                    f"{target} pages (resident={len(self._resident)}, "
                    f"pinned={len(self._pinned)})"
                )
            unit = self._pop_victim()
            if unit is None:
                if len(victims) >= overshoot:
                    break
                raise PinnedExhaustion(
                    f"budget exceeded but every resident page is pinned "
                    f"(need={need}, budget={self.budget_pages}, "
                    f"resident={len(self._resident)}, "
                    f"pinned={len(self._pinned)}, "
                    f"freed={len(victims)})"
                )
            victims.extend(self._detach_unit(unit))
        self._evict_pages(victims)

    def regroup(self, vaddrs):
        """Re-form the resident pages of ``vaddrs`` into one eviction
        unit.  Used when pages acquire cluster membership after they
        were fetched individually (late clustering): from then on they
        evict together, preserving the cluster invariant."""
        vaddrs = list(vaddrs)
        vpns = tuple(
            vpn_of(v) for v in vaddrs if vpn_of(v) in self._resident
        )
        if vpns:
            self._push_unit(vpns)
        if self.recovery_observer is not None:
            self.recovery_observer.note_regroup(vaddrs)

    # repro: allow[cycle-accounting] statistics update inside the handler
    def note_fault(self, vaddr):
        """Record a fault against the page (frequency eviction input)."""
        vpn = vaddr >> PAGE_SHIFT
        self._page_faults[vpn] += 1
        unit = self._unit_of.get(vpn)
        if unit is not None:
            unit.fault_count += 1

    def evict_all(self):
        """Evict every non-pinned resident page (tests and benchmark
        setup: reach the everything-swapped-out state in one call)."""
        evicted = 0
        while True:
            unit = self._pop_victim()
            if unit is None:
                return evicted
            evicted += self.evict_unit(unit)

    # -- canonical-state accessors (repro.recovery fingerprints) -----------

    def snapshot_queue(self):
        """Deterministic image of the eviction queue.

        FIFO: the live units' page tuples in queue order (order *is*
        state — it decides future victims).  Frequency: the live units
        as sorted ``(fault_count, pages)`` pairs — heap-internal seq
        numbers are an allocator detail, not observable state."""
        if self.order is EvictionOrder.FIFO:
            return tuple(
                unit.pages for unit in self._fifo if unit.alive
            )
        return tuple(sorted(
            (unit.fault_count, unit.pages)
            for _count, _seq, unit in self._freq_heap if unit.alive
        ))

    def snapshot_hotness(self):
        """Sorted nonzero per-page lifetime fault counts."""
        return tuple(sorted(
            (vpn, count) for vpn, count in self._page_faults.items()
            if count
        ))

    def snapshot_counters(self):
        """Residency sets and lifetime counters as one canonical tuple."""
        return (
            tuple(sorted(self._resident)),
            tuple(sorted(self._pinned)),
            tuple(sorted(self._claimed)),
            self.fetches,
            self.evictions,
            self.degradations,
        )

    # -- internals -----------------------------------------------------------

    def _push_unit(self, vpns):
        faults = self._page_faults
        unit = EvictionUnit(vpns, True, sum([faults[v] for v in vpns]),
                            self._seq)
        self._seq += 1
        for vpn in vpns:
            old = self._unit_of.get(vpn)
            if old is not None:
                old.alive = False
            self._unit_of[vpn] = unit
        if self.order is EvictionOrder.FIFO:
            self._fifo.append(unit)
        else:
            heapq.heappush(
                self._freq_heap, (unit.fault_count, unit.seq, unit)
            )
        return unit

    def _pop_victim(self):
        if self.order is EvictionOrder.FIFO:
            while self._fifo:
                unit = self._fifo.popleft()
                if unit.alive:
                    return unit
            return None
        while self._freq_heap:
            count, seq, unit = heapq.heappop(self._freq_heap)
            if not unit.alive:
                continue
            if count != unit.fault_count:
                # Stale heap entry: re-queue with the current count.
                heapq.heappush(
                    self._freq_heap, (unit.fault_count, seq, unit)
                )
                continue
            return unit
        return None
