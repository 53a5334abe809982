"""The (modified) Intel SGX driver.

Implements the paper's two-level page-management contract (§5.2.1):

* **OS-managed pages** may be evicted and fetched by the driver at any
  time — clock eviction for legacy enclaves, FIFO for self-paging
  enclaves (whose A/D bits the driver can no longer read, §5.1.4 /
  §7 "Setup").
* **Enclave-managed pages** are pinned while the enclave is runnable:
  the driver refuses to evict them.  Only the enclave's own
  ``ay_evict_pages`` may move them out.  If the OS must reclaim memory
  anyway, its only option is suspending the whole enclave and restoring
  every page before resume (:meth:`SgxDriver.suspend_enclave`).

The Autarky system calls (implemented as IOCTLs in the real prototype)
are :meth:`ay_set_os_managed`, :meth:`ay_set_enclave_managed`,
:meth:`ay_fetch_pages` and :meth:`ay_evict_pages`.

Each paging IOCTL, and each whole-enclave suspend or resume, settles as
one *pager transaction*: the driver first checks, with no side effect,
that every step would succeed for every page of the batch, then commits
the batch in bulk (one EBLOCK/drop/EWB step over the page list, or one
ELDU/map step, or for pages never swapped out one EAUG/EACCEPT/map
step).  A batch that fails the check, or needs driver-side eviction to
fit the quota, is replayed as one-page transactions through the same
code, which fail exactly where the page-by-page protocol does.  So is
a batch that mixes swapped and never-swapped pages.

Claiming pages (:meth:`SgxDriver.ay_set_enclave_managed`) and tearing
down a dead enclave (:meth:`SgxDriver.reclaim_enclave`) are range
operations over the page list too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.clock import Category
from repro.errors import EpcExhausted, SgxError
from repro.immutable import share
from repro.sgx.epcm import Permissions
from repro.sgx.params import (
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    page_base,
    vpn_of,
)


#: EPCM permissions by ``(writable, executable)``: readable always.
_REGION_PERMS = {
    (write, execute): Permissions(True, write, execute)
    for write in (False, True) for execute in (False, True)
}


@dataclass(frozen=True)
class Region:
    """A declared range of enclave virtual memory."""

    __deepcopy__ = share

    start: int
    npages: int
    writable: bool = True
    executable: bool = False

    @property
    def perms(self):
        """The EPCM permissions of the region's pages."""
        return _REGION_PERMS[self.writable, self.executable]


@dataclass
class EnclaveHostState:
    """Driver bookkeeping for one enclave."""

    enclave: object
    quota_pages: int
    regions: list = field(default_factory=list)
    #: vpns the enclave claimed via ay_set_enclave_managed (pinned).
    enclave_managed: set = field(default_factory=set)
    #: Eviction order over resident OS-managed vpns.  ``fifo_set`` is
    #: the live membership; stale deque entries are skipped lazily.
    fifo: deque = field(default_factory=deque)
    fifo_set: set = field(default_factory=set)
    suspended: bool = False
    #: Pages force-evicted by suspend, to be restored on resume.
    suspend_set: list = field(default_factory=list)

    def region_for(self, vpn):
        """The first declared region holding ``vpn``, or ``None``."""
        for region in self.regions:
            first = region.start >> PAGE_SHIFT
            if first <= vpn < first + region.npages:
                return region
        return None

    def fifo_add(self, vpn):
        if vpn not in self.fifo_set:
            self.fifo.append(vpn)
            self.fifo_set.add(vpn)

    def fifo_discard(self, vpn):
        self.fifo_set.discard(vpn)


class SgxDriver:
    """Privileged driver: EPC management and the Autarky IOCTLs."""

    def __init__(self, instructions, page_table, backing, clock, cost):
        self.instr = instructions
        self.page_table = page_table
        self.backing = backing
        self.clock = clock
        self.cost = cost
        self._states = {}
        #: Event counters for experiments.
        self.pages_in = 0
        self.pages_out = 0

    # -- lifecycle ---------------------------------------------------------

    def create_enclave(self, base, size_pages, attributes=None,
                       quota_pages=None):
        enclave = self.instr.ecreate(base, size_pages, attributes)
        state = EnclaveHostState(
            enclave=enclave,
            quota_pages=quota_pages or self.instr.epc.total_pages,
        )
        self._states[enclave.enclave_id] = state
        return enclave

    def state(self, enclave):
        return self._states[enclave.enclave_id]

    def declare_region(self, enclave, start, npages, writable=True,
                       executable=False):
        """Register a lazily-populated range of enclave memory.  Regions
        do not overlap, so a page has at most one."""
        if start % PAGE_SIZE:
            raise SgxError("region start must be page aligned")
        if not enclave.contains(start) or \
                not enclave.contains(start + (npages - 1) * PAGE_SIZE):
            raise SgxError("region outside the enclave range")
        end = start + npages * PAGE_SIZE
        state = self.state(enclave)
        for region in state.regions:
            if start < region.start + region.npages * PAGE_SIZE and \
                    region.start < end:
                raise SgxError("region overlaps a declared region")
        region = Region(start, npages, writable, executable)
        state.regions.append(region)
        return region

    # -- residency primitives ----------------------------------------------

    def resident(self, enclave, vaddr):
        return vpn_of(vaddr) in enclave.backed

    def resident_count(self, enclave):
        return len(enclave.backed)

    def page_in(self, enclave, vaddr):
        """Make one page resident and map it (privileged SGX1 path).

        First touch of a never-swapped page is a zero-fill allocation
        (EAUG-style); a swapped page is reloaded with ELDU, which
        verifies integrity and freshness.
        """
        state = self.state(enclave)
        vpn = vpn_of(vaddr)
        region = state.region_for(vpn)
        if region is None:
            raise SgxError(f"access outside any declared region: {vaddr:#x}")
        if vpn in enclave.backed:
            raise SgxError(f"page_in of already-resident {vaddr:#x}")

        self.make_room(state, 1)
        base = page_base(vaddr)
        self._load(enclave, [base], [region])
        if vpn not in state.enclave_managed:
            state.fifo_add(vpn)
        self.pages_in += 1
        self.clock.charge(self.cost.pte_update, Category.OS)
        return base

    def evict_page(self, enclave, vaddr):
        """Evict one OS-managed page (unmap, shoot down, EWB, store)."""
        state = self.state(enclave)
        if vpn_of(vaddr) in state.enclave_managed and not state.suspended:
            raise SgxError(
                f"driver may not evict enclave-managed page {vaddr:#x}"
            )
        self._evict_os(enclave, state, [page_base(vaddr)])

    def os_resolve(self, enclave, vaddr):
        """Resolve a fault the OS is responsible for: remap a resident
        page whose PTE was clobbered, restore downgraded permissions,
        or page in a non-resident page.  Used both by the legacy fault
        path and by self-paging enclaves forwarding faults on their
        OS-managed pages."""
        state = self.state(enclave)
        if self.resident(enclave, vaddr):
            region = state.region_for(vpn_of(vaddr))
            pte = self.page_table.lookup(vaddr)
            if pte is None or not pte.present:
                self.map_page(enclave, page_base(vaddr), region)
            else:
                self.page_table.set_protection(
                    vaddr,
                    writable=region.writable,
                    executable=region.executable,
                )
                if enclave.self_paging:
                    self.page_table.set_accessed_dirty(
                        vaddr, accessed=True, dirty=True
                    )
            self.clock.charge(self.cost.pte_update, Category.OS)
        else:
            self.page_in(enclave, vaddr)

    def make_room(self, state, need):
        """Ensure ``need`` more pages fit under the quota of the enclave
        ``state`` keeps, evicting OS-managed pages if necessary.  Raises
        when pinned pages leave nothing to evict — the self-paging
        runtime must free memory itself in that case (the §5.2.1
        contract)."""
        enclave = state.enclave
        backed = enclave.backed
        resident = len(backed)
        if resident + need <= state.quota_pages:
            return
        # Every iteration must evict exactly one resident page; the
        # guard turns a bookkeeping bug (or a hostile quota that moves
        # under us) into a diagnosable error instead of a kernel hang.
        guard = resident + 1
        while len(backed) + need > state.quota_pages:
            guard -= 1
            if guard <= 0:
                raise EpcExhausted(
                    f"EPC quota exceeded and eviction is making no "
                    f"progress (need={need}, resident={len(backed)}, "
                    f"quota={state.quota_pages})"
                )
            victim = self._select_victim(state)
            if victim is None:
                raise EpcExhausted(
                    f"EPC quota exceeded and no OS-managed page is "
                    f"evictable (need={need}, resident={len(backed)}, "
                    f"quota={state.quota_pages}, "
                    f"enclave_managed={len(state.enclave_managed)}, "
                    f"os_evictable={len(state.fifo_set)})"
                )
            self.evict_page(enclave, victim << 12)

    def _select_victim(self, state):
        """Clock (second chance) for legacy enclaves; plain FIFO for
        self-paging enclaves, whose PTE accessed bits are useless
        because Autarky requires them to be permanently set."""
        fifo = state.fifo
        use_clock = not state.enclave.self_paging
        rotations = 0
        while fifo:
            vpn = fifo[0]
            if vpn not in state.fifo_set:
                fifo.popleft()
                continue
            if use_clock and rotations < 2 * len(fifo):
                accessed, _dirty = \
                    self.page_table.read_accessed_dirty(vpn << 12)
                if accessed:
                    self.page_table.set_accessed_dirty(
                        vpn << 12, accessed=False
                    )
                    fifo.rotate(-1)
                    rotations += 1
                    continue
            return vpn
        return None

    def map_page(self, enclave, vaddr, region):
        """Install the PTE of one resident page of ``region`` (see
        :meth:`_map`)."""
        if region is None:
            raise SgxError(f"access outside any declared region: {vaddr:#x}")
        self._map(enclave, [vaddr], [region],
                  [enclave.backed[vaddr >> PAGE_SHIFT]])

    # -- the pager transaction's steps ---------------------------------------

    def _evict_os(self, enclave, state, bases, found=None):
        """Evict OS-side: :meth:`_evict`, then drop the pages from the
        FIFO and charge the PTE updates."""
        if not bases:
            return
        self._evict(enclave, bases, found)
        for base in bases:
            state.fifo_discard(base >> PAGE_SHIFT)
        self.clock.charge(self.cost.pte_update * len(bases), Category.OS)

    def _evict(self, enclave, bases, found=None):
        """The architectural eviction sequence over a page list: EBLOCK
        every page (no new TLB fills), unmap them with one shootdown
        (ETRACK/IPIs), then EWB them and store the blobs.  ``found`` is
        what :meth:`_can_write_back` returned for a validated batch."""
        if not bases:
            return
        instr = self.instr
        instr.eblock_pages(enclave, bases, found)
        self.page_table.drop_pages(bases)
        sealed = instr.ewb_pages(enclave, bases, found)
        self.backing.put_pages(enclave.enclave_id, bases, sealed)
        self.pages_out += len(bases)

    def _can_write_back(self, enclave, bases):
        """What :meth:`_evict` needs to commit every page of the list,
        found with no side effect, or ``None`` when some page would
        fail: EBLOCK's check phase passes them all (its lookups serve
        EWB too), and no page stores a current blob a put must
        version-check.  (EWB's own check runs inside it: its pages are
        blocked by then, and the kernel registers the TLB EWB checks as
        a shootdown target, so the drop has cleared it.)"""
        try:
            found = self.instr.eblock_check(enclave, bases)
        except SgxError:
            return None
        if not self.backing.accepts_puts(enclave.enclave_id, bases):
            return None
        return found

    def _load(self, enclave, bases, regions, contents=None):
        """Bring pages into fresh EPC frames and map them.

        Swapped pages are reloaded with ELDU (:meth:`_reload`; see there
        for ``contents``).  Never-swapped pages are a zero-fill
        allocation: EAUG pages start RW, and executable regions are
        extended with the enclave's EMODPE after acceptance (zero-fill
        lazy code loading, as a JIT or loader would do).  The first page
        decides which: a batch that mixes the two kinds fails validation
        and is replayed page by page."""
        if self.backing.has(enclave.enclave_id, bases[0]):
            self._reload(enclave, bases, regions, contents)
            return
        instr = self.instr
        pfns = instr.eaug_pages(enclave, bases)
        instr.eaccept_pages(enclave, bases)
        for base, region in zip(bases, regions):
            if region.executable:
                # EMODPE can only extend, so the page becomes RWX; a
                # hardening pass could EMODPR the W bit away afterwards.
                instr.emodpe(enclave, base, Permissions.RWX)
        self._map(enclave, bases, regions, pfns)

    def _reload(self, enclave, bases, regions, contents=None):
        """Take the pages' blobs, ELDU them and map them.  Pages outside
        every declared region (TCS metadata) reload as RW with no user
        mapping.  ``contents`` is what ELDU's check phase returned for
        a validated batch (:meth:`_can_load`), so ELDU does not check
        the batch again."""
        perms, last, perm = [], (), None
        for region in regions:
            if region is not last:      # once per run of one region
                last = region
                perm = Permissions.RW if region is None else region.perms
            perms.append(perm)
        sealed = self.backing.take_pages(enclave.enclave_id, bases)
        pfns = self.instr.eldu_pages(enclave, bases, sealed, perms, contents)
        self._map(enclave, bases, regions, pfns)

    def _can_load(self, enclave, bases):
        """What :meth:`_load` needs to commit every page of the list,
        found with no side effect, or ``None`` when some page would
        fail.  Enough EPC frames must be free.  When every page has a
        stored blob, ELDU's check phase must pass them all, and this
        returns the verified contents it returned.  When none has one,
        EAUG must zero-fill them all: the enclave has SGX2, no fault
        hook is installed (a hook has side effects, so validation may
        not ask it; the page-by-page replay does), and each page lies in
        the enclave and is not backed (true of every page
        :meth:`_pages_to_load` returns); this returns an empty list."""
        instr = self.instr
        if len(bases) > instr.epc.free_pages:
            return None
        stored = self.backing.get
        enclave_id = enclave.enclave_id
        blobs = []
        missing = 0
        for base in bases:
            sealed = stored(enclave_id, base)
            if sealed is None:
                missing += 1
            blobs.append(sealed)
        if missing:
            zero_fill = (missing == len(bases) and enclave.attributes.sgx2
                         and instr.fault_hook is None)
            return [] if zero_fill else None
        try:
            return instr.eldu_check(enclave, bases, blobs)
        except SgxError:
            return None

    def _map(self, enclave, bases, regions, pfns):
        """Install the PTEs of resident pages, backed by frames ``pfns``,
        in order, one page-table call per run of pages sharing a region.
        For self-paging enclaves both A and D are pre-set, otherwise the
        Autarky fill check would refuse the mapping the driver itself
        just created.  Pages outside every region get no mapping."""
        pre_set = enclave.attributes.self_paging
        count = len(bases)
        start = 0
        while start < count:
            region = regions[start]
            end = start + 1
            while end < count and regions[end] is region:
                end += 1
            if region is not None:
                self.page_table.map_pages(
                    bases[start:end], pfns[start:end],
                    region.writable, region.executable, pre_set, pre_set,
                )
            start = end

    # -- Autarky IOCTLs (§5.2.1) -------------------------------------------

    def ay_set_enclave_managed(self, enclave, vaddrs):
        """Claim pages for enclave management, as one set operation over
        the list; returns their residency (by page base, in first-claim
        order) so the runtime can update its state and page in if
        desired."""
        state = self.state(enclave)
        vpns = [vaddr >> PAGE_SHIFT for vaddr in vaddrs]
        state.enclave_managed.update(vpns)
        state.fifo_set.difference_update(vpns)
        backed = enclave.backed
        residency = {vpn << PAGE_SHIFT: vpn in backed for vpn in vpns}
        self.clock.charge(self.cost.syscall, Category.OS)
        return residency

    def ay_set_os_managed(self, enclave, vaddrs):
        """Yield pages back to OS management."""
        state = self.state(enclave)
        for vaddr in vaddrs:
            vpn = vpn_of(vaddr)
            state.enclave_managed.discard(vpn)
            if vpn in enclave.backed:
                state.fifo_add(vpn)
        self.clock.charge(self.cost.syscall, Category.OS)

    def ay_fetch_pages(self, enclave, vaddrs):
        """Batched page-in of enclave-managed pages (SGX1 path: the
        privileged ELDU runs in the driver), as one pager transaction.
        The runtime must have made room first via ay_evict_pages;
        returns the pages actually loaded."""
        state = self.state(enclave)
        bases = [vaddr & PAGE_MASK for vaddr in vaddrs]
        if len(bases) > 1:
            try:
                todo, regions = self._pages_to_load(enclave, state, bases)
            except SgxError:
                todo = None
            if todo is not None and \
                    len(enclave.backed) + len(todo) <= state.quota_pages:
                contents = self._can_load(enclave, todo)
                if contents is not None:
                    return self._fetch(state, todo, regions, contents)
        # A single page, or a batch that failed validation: one-page
        # transactions (a one-page batch needs no separate validation).
        fetched = []
        for base in bases:
            fetched += self._fetch(
                state, *self._pages_to_load(enclave, state, [base]))
        return fetched

    def _pages_to_load(self, enclave, state, bases):
        """The pages of a fetch batch still to load, with their regions;
        resident pages and repeats are skipped.  Raises for a page the
        enclave does not manage or one outside every declared region.
        Regions do not overlap, so one lookup serves a run of pages in
        the same region."""
        managed = state.enclave_managed
        backed = enclave.backed
        todo, regions = [], []
        region, first, end = None, 0, 0
        for base in dict.fromkeys(bases):
            vpn = base >> PAGE_SHIFT
            if vpn not in managed:
                raise SgxError(
                    f"ay_fetch_pages on non-enclave-managed {base:#x}"
                )
            if vpn in backed:
                continue
            if not first <= vpn < end:
                region = state.region_for(vpn)
                if region is None:
                    raise SgxError(
                        f"access outside any declared region: {base:#x}"
                    )
                first = region.start >> PAGE_SHIFT
                end = first + region.npages
            todo.append(base)
            regions.append(region)
        return todo, regions

    def _fetch(self, state, bases, regions, contents=None):
        """Commit a fetch: make room (a no-op for a validated batch),
        then load and map the pages (see :meth:`_load` for
        ``contents``)."""
        if not bases:
            return []
        self.make_room(state, len(bases))
        self._load(state.enclave, bases, regions, contents)
        self.pages_in += len(bases)
        return bases

    def ay_evict_pages(self, enclave, vaddrs):
        """Batched eviction of enclave-managed pages at the enclave's
        request (SGX1 path), as one pager transaction."""
        state = self.state(enclave)
        bases = [vaddr & PAGE_MASK for vaddr in vaddrs]
        if len(bases) > 1:
            try:
                todo = self._pages_to_write_back(enclave, state, bases)
            except SgxError:
                todo = None
            if todo is not None:
                found = self._can_write_back(enclave, todo)
                if found is not None:
                    self._evict(enclave, todo, found)
                    return
        for base in bases:
            self._evict(enclave,
                        self._pages_to_write_back(enclave, state, [base]))

    def _pages_to_write_back(self, enclave, state, bases):
        """The resident pages of an eviction batch, repeats skipped.
        Raises for a page the enclave does not manage."""
        managed = state.enclave_managed
        backed = enclave.backed
        todo = []
        for base in dict.fromkeys(bases):
            vpn = base >> PAGE_SHIFT
            if vpn not in managed:
                raise SgxError(
                    f"ay_evict_pages on non-enclave-managed {base:#x}"
                )
            if vpn in backed:
                todo.append(base)
        return todo

    # -- SGX2 privileged halves (used by the runtime's SGX2 paging ops) ----

    def sgx2_augment(self, enclave, vaddr):
        """EAUG a pending enclave-managed page and pre-map it (A/D set).

        The page stays EPCM-pending until the enclave EACCEPTs or
        EACCEPTCOPYs it, so the OS cannot slip contents in unilaterally.
        """
        state = self.state(enclave)
        base = page_base(vaddr)
        if vpn_of(base) not in state.enclave_managed:
            raise SgxError(f"sgx2_augment on non-enclave-managed {base:#x}")
        self.make_room(state, 1)
        self.instr.eaug(enclave, base)
        region = state.region_for(vpn_of(base))
        self.map_page(enclave, base, region)
        self.pages_in += 1

    def sgx2_augment_batch(self, enclave, vaddrs):
        """EAUG a batch of pending enclave-managed pages.

        Pages already backed are skipped so a batch that failed
        part-way (EPC pressure, injected refusal) can be retried
        without double-EAUGing the pages that did succeed."""
        for vaddr in vaddrs:
            if vpn_of(vaddr) not in enclave.backed:
                self.sgx2_augment(enclave, vaddr)

    def sgx2_modpr_batch(self, enclave, vaddrs, perms):
        """EMODPR: propose permission reductions (enclave must EACCEPT).

        The reduction only bites once stale TLB entries are gone, so
        the flow mirrors the PTE and performs the shootdown — without
        it a concurrent writer could race the §6 eviction freeze
        through a cached writable translation."""
        for vaddr in vaddrs:
            base = page_base(vaddr)
            self.instr.emodpr(enclave, base, perms)
            if self.page_table.lookup(base) is not None:
                self.page_table.set_protection(
                    base,
                    writable=perms.write,
                    executable=perms.execute,
                )

    def sgx2_trim_batch(self, enclave, vaddrs):
        """EMODT the pages to TRIM (enclave must EACCEPT)."""
        for vaddr in vaddrs:
            self.instr.emodt(enclave, page_base(vaddr))

    def sgx2_remove_batch(self, enclave, vaddrs):
        """Drop mappings and EREMOVE trimmed-and-accepted pages."""
        for vaddr in vaddrs:
            base = page_base(vaddr)
            self.page_table.drop(base)
            self.instr.eremove(enclave, base)
            self.pages_out += 1

    def reclaim_enclave(self, enclave):
        """Tear down a dead (crashed or aborted) enclave's footprint.

        Frees every EPC frame the corpse still holds (EREMOVE is legal
        once the enclave is dead), drops its mappings, forgets the
        driver-side state and removes the enclave from the kernel's
        enclave table (``instr.enclaves``), so nothing the kernel holds
        keeps the corpse or its runtime alive — the host-resource half
        of recovery, and the fix for the multi-enclave supervisor's EPC
        leak.  The enclave's sealed blobs stay in the backing store:
        untrusted memory has no delete, and recovery replays against
        them.  Reclaiming an enclave twice frees nothing the second
        time, but still charges its syscall."""
        enclave.dead = True
        bases = [vpn << PAGE_SHIFT for vpn in enclave.backed]
        if bases:
            self.page_table.drop_pages(bases)
            self.instr.eremove_pages(enclave, bases)
        self.instr.enclaves.pop(enclave.enclave_id, None)
        state = self._states.pop(enclave.enclave_id, None)
        if state is not None:
            state.fifo.clear()
            state.fifo_set.clear()
            state.enclave_managed.clear()
        self.clock.charge(self.cost.syscall, Category.OS)

    # -- whole-enclave swap (the OS's only big hammer, §5.2.1) -------------

    def suspend_enclave(self, enclave):
        """Swap out the entire enclave (all pages, pinned or not) as one
        pager transaction."""
        state = self.state(enclave)
        state.suspended = True
        bases = [vpn << PAGE_SHIFT for vpn in enclave.backed]
        found = self._can_write_back(enclave, bases)
        if found is not None:
            self._evict_os(enclave, state, bases, found)
            state.suspend_set = bases
            return
        state.suspend_set = []
        for base in bases:
            self._evict_os(enclave, state, [base])
            state.suspend_set.append(base)

    def resume_enclave(self, enclave):
        """Restore every page evicted at suspension before the enclave
        may run again — the contract that makes suspension safe.  One
        pager transaction, like :meth:`suspend_enclave`."""
        state = self.state(enclave)
        if not state.suspended:
            raise SgxError("resume of a non-suspended enclave")
        bases = state.suspend_set
        regions = [state.region_for(base >> PAGE_SHIFT) for base in bases]
        # Only ELDU restores, so a zero-fill verdict (an empty list)
        # replays page by page like a failed one.
        contents = self._can_load(enclave, bases)
        if contents:
            self._restore(enclave, state, bases, regions, contents)
        else:
            for base, region in zip(bases, regions):
                self._restore(enclave, state, [base], [region])
        restored = list(bases)
        state.suspend_set = []
        state.suspended = False
        return restored

    def _restore(self, enclave, state, bases, regions, contents=None):
        """Reload suspended pages; OS-managed ones rejoin the FIFO.
        ``contents`` is what :meth:`_can_load` returned for them."""
        if not bases:
            return
        self._reload(enclave, bases, regions, contents)
        managed = state.enclave_managed
        for base in bases:
            vpn = base >> PAGE_SHIFT
            if vpn not in managed:
                state.fifo_add(vpn)
        self.pages_in += len(bases)
