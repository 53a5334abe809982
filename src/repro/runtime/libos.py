"""Graphene-like library OS with the Autarky runtime (§6, Figure 4).

The runtime is the enclave's trusted software layer: it lays out the
address space, claims sensitive pages for enclave management, registers
itself as the enclave's entry-point dispatcher, and runs the page-fault
handler that the modified hardware guarantees is invoked on every
fault.  Applications interact with it through:

* :meth:`GrapheneRuntime.access` — one enclave memory access (the
  simulator's equivalent of a load/store/fetch);
* :meth:`GrapheneRuntime.compute` — application work between accesses;
* :meth:`GrapheneRuntime.progress` — forward-progress events feeding
  the rate-limit policy;
* the loader / allocator / cluster APIs re-exported as attributes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.clock import Category
from repro.errors import (
    AttackDetected,
    IntegrityAbort,
    IntegrityError,
    PolicyError,
)
from repro.immutable import share
from repro.sgx.params import PAGE_SIZE, AccessType, SgxVersion
from repro.runtime.allocator import ClusteringAllocator
from repro.runtime.clusters import ClusterManager
from repro.runtime.exitless import HostCallChannel
from repro.runtime.loader import CodeClusterGranularity, Loader
from repro.runtime.paging_ops import make_paging_ops
from repro.runtime.self_paging import EvictionOrder, SelfPager


class Management(enum.Enum):
    """Who pages a region (the §5.2.1 two-level split)."""

    OS = "os"
    ENCLAVE = "enclave"


@dataclass
class RuntimeRegion:
    """One region of the enclave's address space, as the libOS sees it."""

    name: str
    start: int
    npages: int
    management: Management
    pinned: bool = False
    writable: bool = True
    executable: bool = False

    @property
    def end(self):
        return self.start + self.npages * PAGE_SIZE

    def contains(self, vaddr):
        return self.start <= vaddr < self.end

    __contains__ = contains

    def pages(self):
        return list(range(self.start, self.end, PAGE_SIZE))

    def page(self, index):
        if not 0 <= index < self.npages:
            raise PolicyError(f"{self.name}: page {index} out of range")
        return self.start + index * PAGE_SIZE


@dataclass(frozen=True)
class EnclaveLayout:
    """Address-space plan for :meth:`GrapheneRuntime.launch`.

    The runtime region (libOS code + self-paging metadata, stack) is
    always pinned enclave-managed, as the prototype does automatically
    (§7 "Setup": "program code, stack, and self-paging metadata ...
    pinned in EPC").
    """

    __deepcopy__ = share

    base: int = 0x10_0000_0000
    runtime_pages: int = 64
    code_pages: int = 256
    data_pages: int = 1024
    heap_pages: int = 65536
    #: Unassigned address space after the heap, claimable later via
    #: :meth:`GrapheneRuntime.grow_heap` (SGX2 dynamic allocation).
    reserve_pages: int = 0


class GrapheneRuntime:
    """The trusted runtime of one enclave."""

    def __init__(self, kernel, enclave, tcs, policy, layout,
                 sgx_version=SgxVersion.SGX1,
                 enclave_managed_budget=None,
                 eviction_order=EvictionOrder.FIFO,
                 exitless=True,
                 code_cluster_granularity=CodeClusterGranularity.LIBRARY,
                 legacy=False):
        self.kernel = kernel
        self.enclave = enclave
        self.tcs = tcs
        self.policy = policy
        self.layout = layout
        #: Legacy mode: a vanilla SGX enclave — all regions OS-managed,
        #: faults resolved silently by the OS, no defense.  Used as the
        #: insecure baseline throughout the evaluation.
        self.legacy = legacy
        self.channel = HostCallChannel(kernel, exitless=exitless)
        self.clusters = ClusterManager()
        self.paging_ops = make_paging_ops(
            sgx_version, enclave, self.channel, kernel.instr,
            kernel.clock, kernel.cost,
        )
        budget = (
            enclave_managed_budget
            if enclave_managed_budget is not None
            else kernel.driver.state(enclave).quota_pages
        )
        self.pager = SelfPager(
            enclave, self.channel, self.paging_ops, budget,
            order=eviction_order,
        )
        if policy is not None:
            policy.attach(self.pager)
        elif not legacy:
            raise PolicyError("a self-paging runtime requires a policy")

        self.regions = {}
        self._build_regions(layout)
        self.loader = Loader(
            self.clusters,
            code_start=self.regions["code"].start,
            code_pages=self.regions["code"].npages,
            data_start=self.regions["data"].start,
            data_pages=self.regions["data"].npages,
            granularity=code_cluster_granularity,
        )
        self.allocator = None  # created by configure_heap()

        #: True while a legitimate app entry is in flight, so spurious
        #: EENTERs (handler re-entrancy, §5.3) can be told apart.
        self._entry_expected = False
        self._entry_fn = None
        self._entry_result = None
        self.handled_faults = 0
        # Memory-ballooning upcalls (§5.2.1 extension): the OS writes
        # the request to "shared memory" before EENTER; the dispatcher
        # answers through the balloon handler.
        from repro.runtime.balloon import BalloonHandler
        self.balloon = None if legacy else BalloonHandler(self.pager)
        self._balloon_request = None
        self._balloon_response = 0
        #: Optional repro.recovery.RecoveryManager: when attached, every
        #: input to the paging state machine (faults, progress, balloon
        #: upcalls, claim/release) is journaled so a crashed enclave can
        #: be replayed to this exact state.
        self.recovery = None
        enclave.runtime = self

    # -- construction ----------------------------------------------------

    @classmethod
    def launch(cls, kernel, policy, layout=None, quota_pages=None,
               attributes=None, legacy=False, **kwargs):
        """Create the enclave, declare its regions with the driver, add
        a TCS, EINIT, and attach a runtime — one call from boot to ready."""
        from repro.sgx.enclave import EnclaveAttributes
        layout = layout or EnclaveLayout()
        total_pages = (
            1 + layout.runtime_pages + layout.code_pages
            + layout.data_pages + layout.heap_pages
            + layout.reserve_pages
        )
        if attributes is None:
            attributes = EnclaveAttributes(self_paging=not legacy)
        enclave = kernel.driver.create_enclave(
            layout.base, total_pages,
            attributes=attributes,
            quota_pages=quota_pages,
        )
        tcs = kernel.instr.eadd_tcs(enclave, layout.base)
        kernel.instr.einit(enclave)
        runtime = cls(kernel, enclave, tcs, policy, layout,
                      legacy=legacy, **kwargs)
        return runtime

    def _build_regions(self, layout):
        cursor = layout.base + PAGE_SIZE  # page 0 holds the TCS
        mgmt = Management.OS if self.legacy else Management.ENCLAVE
        plan = [
            ("runtime", layout.runtime_pages, mgmt, not self.legacy,
             True, True),
            ("code", layout.code_pages, mgmt, False,
             False, True),
            ("data", layout.data_pages, mgmt, False,
             True, False),
            ("heap", layout.heap_pages, mgmt, False,
             True, False),
        ]
        for name, npages, mgmt, pinned, writable, executable in plan:
            if npages == 0:
                continue
            region = RuntimeRegion(
                name=name,
                start=cursor,
                npages=npages,
                management=mgmt,
                pinned=pinned,
                writable=writable,
                executable=executable,
            )
            self.regions[name] = region
            self.kernel.driver.declare_region(
                self.enclave, region.start, npages,
                writable=writable, executable=executable,
            )
            cursor = region.end
        if self.legacy:
            return
        # Claim every enclave-managed region in one IOCTL each.
        for region in self.regions.values():
            if region.management is Management.ENCLAVE:
                self.pager.claim_pages(region.pages(), pin=region.pinned)
        # The runtime's own pages must be resident before any fault can
        # be handled (pinning the handler, §5.3).
        self.pager.fetch_unit(self.regions["runtime"].pages(), pin=True)

    def grow_heap(self, npages):
        """Extend the heap into the reserved address space (SGX2
        dynamic memory allocation, §2.1: "an enclave's virtual memory
        can be modified dynamically").

        The new range is declared with the driver, claimed
        enclave-managed under the current policy, and — when a
        clustering allocator exists — added to its arena.  Returns the
        first new page's address."""
        if npages < 1:
            raise PolicyError("grow_heap needs a positive page count")
        heap = self.regions["heap"]
        new_end = heap.end + npages * PAGE_SIZE
        if new_end > self.enclave.limit:
            raise PolicyError(
                f"enclave address space exhausted: reserve_pages in "
                f"EnclaveLayout was too small for +{npages} pages"
            )
        for region in self.regions.values():
            if region is not heap and region.start >= heap.end:
                raise PolicyError(
                    f"region {region.name!r} sits above the heap; "
                    "cannot grow in place"
                )
        first_new = heap.end
        self.kernel.driver.declare_region(
            self.enclave, first_new, npages,
            writable=heap.writable, executable=heap.executable,
        )
        heap.npages += npages
        if not self.legacy and heap.management is Management.ENCLAVE:
            self.pager.claim_pages(
                [first_new + i * PAGE_SIZE for i in range(npages)],
                pin=heap.pinned,
            )
        if self.allocator is not None:
            self.allocator.heap_pages += npages
        return first_new

    def configure_heap(self, cluster_pages=None):
        """Create the clustering allocator over the heap region."""
        heap = self.regions["heap"]
        self.allocator = ClusteringAllocator(
            self.clusters, heap.start, heap.npages,
            cluster_pages=cluster_pages,
        )
        return self.allocator

    def set_region_management(self, name, management):
        """Flip a region between OS- and enclave-managed (§5.2.1: the
        sensitivity of a page may change over the enclave's lifetime)."""
        region = self.regions[name]
        if region.management is management:
            return
        if management is Management.OS:
            self.pager.release_pages(region.pages())
        else:
            self.pager.claim_pages(region.pages(), pin=region.pinned)
        region.management = management

    # -- execution API (what "application code" calls) ---------------------

    def access(self, vaddr, access=AccessType.READ):
        """One enclave memory access through the full hardware path."""
        return self.kernel.cpu.access(self.enclave, self.tcs, vaddr, access)

    def compute(self, cycles):
        """Application work between memory accesses."""
        self.kernel.clock.charge(cycles, Category.COMPUTE)

    def progress(self, kind, count=1):
        """``count`` (≥ 1) forward-progress events observed by the libOS
        (I/O, alloc, …), with the effect of ``count`` single events.

        The policy takes them as one counted event.  A recovery manager
        journals each event as its own sealed record, which may crash
        the enclave (``crash_after``), so with one attached the events
        are delivered one at a time."""
        recovery = self.recovery
        if recovery is not None and count > 1:
            for _ in range(count):
                self.progress(kind)
            return
        if self.policy is not None:
            self.policy.on_progress(kind, count)
        if recovery is not None:
            recovery.note_progress(kind)

    def call(self, fn, *args, **kwargs):
        """Model an ECALL: EENTER, run ``fn`` inside, EEXIT."""
        self._entry_expected = True
        self._entry_fn = (fn, args, kwargs)
        try:
            self.kernel.cpu.eenter(self.enclave, self.tcs)
        finally:
            self._entry_expected = False
        self.kernel.cpu.eexit_cost()
        return self._entry_result

    # -- the trusted entry point and fault handler -------------------------

    def on_enter(self, tcs):
        """Dispatcher at the enclave's attested entry point."""
        frame = tcs.ssa.peek()
        if frame is not None and frame.exitinfo is not None:
            self.handle_fault(tcs)
            return
        if self._balloon_request is not None:
            request, self._balloon_request = self._balloon_request, None
            self.kernel.clock.charge(
                self.kernel.cost.autarky_handler, Category.AUTARKY_HANDLER
            )
            self._balloon_response = self.balloon.handle_request(request)
            if self.recovery is not None:
                self.recovery.note_balloon(request, self._balloon_response)
            return
        if self._entry_expected:
            fn, args, kwargs = self._entry_fn
            self._entry_result = fn(*args, **kwargs)
            return
        raise AttackDetected("unexpected enclave entry (no pending fault)")

    def handle_fault(self, tcs):
        """The Autarky page-fault handler (Figure 2, right half).

        Reads the true fault information from the SSA, verifies it is
        not malicious, applies the secure paging policy, and resumes —
        in-enclave when the hardware optimization is present."""
        self.kernel.clock.charge(
            self.kernel.cost.autarky_handler, Category.AUTARKY_HANDLER
        )
        frame = tcs.ssa.peek()
        if frame is None or frame.exitinfo is None:
            raise AttackDetected("fault handler invoked without a fault")
        info = frame.exitinfo
        self.handled_faults += 1

        try:
            if self.pager.is_managed(info.vaddr):
                # Sensitive page under enclave management: the policy
                # decides (and detects attacks).  Page-level claims
                # override region defaults, so check the pager first.
                if self.policy is None:
                    raise AttackDetected(
                        "fault on managed page with no policy configured"
                    )
                recovery = self.recovery
                if recovery is not None:
                    before = getattr(self.policy, "pages_fetched", 0)
                self.policy.on_fault(info.vaddr, info.access)
                if recovery is not None:
                    recovery.note_fault(
                        info.vaddr, info.access, managed=True,
                        fetched=getattr(self.policy, "pages_fetched", 0)
                        - before,
                    )
            elif self.region_of(info.vaddr) is not None:
                # Insensitive OS-managed page: hand the fault to the OS,
                # which could not see the address on its own (the
                # libjpeg pipeline pattern of §7.3).
                self.channel.call("os_resolve", self.enclave, info.vaddr)
                if self.recovery is not None:
                    self.recovery.note_fault(
                        info.vaddr, info.access, managed=False, fetched=0
                    )
            else:
                raise AttackDetected(
                    f"fault outside any region at {info.vaddr:#x}"
                )
        except IntegrityAbort:
            raise
        except IntegrityError as exc:
            # A tampered or replayed blob surfaced while servicing the
            # fault.  Converting it into a structured termination here
            # guarantees fail-stop: the handler never resumes the
            # application on state the crypto layer rejected.
            raise IntegrityAbort(
                f"integrity failure while paging {info.vaddr:#x}: {exc}"
            ) from exc

        if self.kernel.cpu.arch_opts.in_enclave_resume and tcs.ssa.depth:
            # In-enclave ERESUME variant: pop the frame and continue
            # without the EEXIT/ERESUME round trip (§5.1.3).
            tcs.ssa.pop()

    def region_of(self, vaddr):
        for region in self.regions.values():
            if region.contains(vaddr):
                return region
        return None

    # -- page-management helpers (what "enlightened" apps call) -----------

    def claim(self, vaddrs, pin=False):
        """Mark specific pages enclave-managed (the libjpeg pattern of
        claiming sensitive buffers after malloc, §7.3)."""
        vaddrs = list(vaddrs)
        result = self.pager.claim_pages(vaddrs, pin=pin)
        if self.recovery is not None:
            self.recovery.note_claim(vaddrs, pin)
        return result

    def release(self, vaddrs):
        """Yield pages back to OS management."""
        vaddrs = list(vaddrs)
        self.pager.release_pages(vaddrs)
        if self.recovery is not None:
            self.recovery.note_release(vaddrs)

    # -- setup helpers ---------------------------------------------------

    def preload(self, vaddrs, pin=False):
        """Warm enclave-managed pages before measurement starts."""
        self.pager.fetch_unit(list(vaddrs), pin=pin)

    def preload_os(self, vaddrs):
        """Warm OS-managed pages (host-side, no enclave involvement)."""
        for vaddr in vaddrs:
            if not self.kernel.driver.resident(self.enclave, vaddr):
                self.kernel.driver.page_in(self.enclave, vaddr)
