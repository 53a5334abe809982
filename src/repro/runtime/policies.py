"""Secure self-paging policies (§5.2.2–§5.2.4).

A policy decides what happens when the trusted fault handler sees a
page fault on an *enclave-managed* page:

* a fault on a page the runtime believes is resident can only be
  OS-induced — it is an attack, and the enclave terminates;
* a fault on a non-resident page is legitimate demand paging, and the
  policy controls what gets fetched (and therefore what the OS can
  infer from the fetch).

The ORAM policy lives in :mod:`repro.oram.policy`: it is not
fault-driven (accesses are instrumented), but it plugs into the same
interface so every experiment can swap policies freely.
"""

from __future__ import annotations

from repro.errors import AttackDetected, PolicyError


class SecurePagingPolicy:
    """Interface implemented by all paging policies."""

    name = "abstract"

    def __init__(self):
        self.pager = None
        #: Experiment counters.
        self.legit_faults = 0
        self.pages_fetched = 0
        #: OS-induced faults this policy refused to service.
        self.attacks_detected = 0

    def attach(self, pager):
        self.pager = pager

    def on_fault(self, vaddr, access):
        """Resolve a fault on an enclave-managed page or raise."""
        raise NotImplementedError

    def on_progress(self, kind, count=1):
        """``count`` forward-progress events from the libOS (rate
        limiting)."""

    def _check_not_resident(self, vaddr):
        """The universal attack check: a fault on a page we believe is
        mapped means the OS tampered with the mapping (§5.2.1)."""
        if self.pager.is_resident(vaddr):
            self.attacks_detected += 1
            raise AttackDetected(
                f"fault on purportedly-resident page {vaddr:#x}"
            )


class PinAllPolicy(SecurePagingPolicy):
    """Keep the whole enclave resident; any post-warm-up fault is an
    attack (§5.2's baseline software design, sufficient for workloads
    whose resident set fits EPC: Hunspell, FreeType, small libjpeg)."""

    name = "pin_all"

    def __init__(self):
        super().__init__()
        self.sealed = False

    def seal(self):
        """End of warm-up: from now on, every fault terminates."""
        self.sealed = True

    def on_fault(self, vaddr, access):
        self._check_not_resident(vaddr)
        if self.sealed:
            self.attacks_detected += 1
            raise AttackDetected(
                f"fault after seal on pinned memory at {vaddr:#x}"
            )
        self.legit_faults += 1
        fetched = self.pager.fetch_unit([vaddr], pin=True)
        self.pages_fetched += len(fetched)


class ClusterPolicy(SecurePagingPolicy):
    """Fetch the faulting page's transitive cluster closure (§5.2.3).

    ``unclustered`` controls pages no cluster covers yet:

    * ``"reject"`` (default) — treat as a configuration error; the
      automatic-clustering deployments guarantee full coverage.
    * ``"demand"`` — plain single-page demand paging, for the
      enlightened-application pattern where clusters are assigned only
      after a structure is initialized (Hunspell's dictionaries, §7.3);
      those pages leak like the rate-limited policy's data pages until
      they are clustered.
    """

    name = "clusters"

    def __init__(self, manager, unclustered="reject"):
        super().__init__()
        if unclustered not in ("reject", "demand"):
            raise PolicyError(f"bad unclustered mode {unclustered!r}")
        self.manager = manager
        self.unclustered = unclustered
        self.unclustered_faults = 0

    def on_fault(self, vaddr, access):
        self._check_not_resident(vaddr)
        if not self.manager.clustered(vaddr):
            if self.unclustered == "reject":
                raise PolicyError(
                    f"enclave-managed page {vaddr:#x} is in no cluster; "
                    "the cluster policy requires full coverage"
                )
            self.unclustered_faults += 1
            self.legit_faults += 1
            self.pager.note_fault(vaddr)
            fetched = self.pager.fetch_unit([vaddr])
            self.pages_fetched += len(fetched)
            return
        self.legit_faults += 1
        self.pager.note_fault(vaddr)
        closure = self.manager.fetch_closure(vaddr)
        fetched = self.pager.fetch_unit(sorted(closure))
        self.pages_fetched += len(fetched)


class RateLimitPolicy(SecurePagingPolicy):
    """Traditional demand paging under a fault-rate bound (§5.2.4).

    Code pages are still clustered automatically (per library, by the
    loader) so control flow does not leak; data pages are fetched one
    at a time — the accepted, bounded leak.
    """

    name = "rate_limit"

    def __init__(self, limiter, manager=None):
        super().__init__()
        self.limiter = limiter
        #: Optional cluster manager holding the automatic code clusters.
        self.manager = manager

    def on_fault(self, vaddr, access):
        self._check_not_resident(vaddr)
        self.limiter.note_fault()
        self.legit_faults += 1
        self.pager.note_fault(vaddr)
        if self.manager is not None and self.manager.clustered(vaddr):
            pages = sorted(self.manager.fetch_closure(vaddr))
        else:
            pages = [vaddr]
        fetched = self.pager.fetch_unit(pages)
        self.pages_fetched += len(fetched)

    def on_progress(self, kind, count=1):
        self.limiter.note_progress(kind, count)
