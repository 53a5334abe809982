"""Columnar batch interpreter for fault-free page runs.

The PR 4 engine made a steady-state access cost one dict probe
(:meth:`repro.sgx.mmu.Mmu.probe_run`); this module makes a steady-state
*run* cost one integer compare.  It is a classic plan/compile/execute
split:

* **plan** — :class:`PageRun` packs a page trace (a sequence of page
  base addresses) into immutable columns of integers: the addresses
  and their virtual page numbers, stored as packed ``array('q')``
  columns.  Plans are built once — by the app trace caches, the
  runtime's ``touch_run`` memo, or any caller with a repeating trace —
  and replayed many times.

* **compile** — :meth:`ColumnarEngine.execute` resolves a plan against
  the *residency/permission table*: the live TLB entry map, which is
  precisely the set of translations the page table, EPCM, and (for
  self-paging enclaves) the Autarky A/D check have already validated.
  A run compiles only if **every** page is TLB-resident with
  sufficient permissions; the result is a packed PFN column stamped
  with the :class:`~repro.sgx.epoch.TranslationEpoch` value it was
  compiled under.

* **execute** — while the stamp still matches the epoch, replaying the
  run is architecturally N TLB hits: ``tlb.hits += n`` in bulk,
  nothing else.  That is the whole steady-state cost.

Fallback triggers — the first fault, any epoch bump (TLB flush or
shootdown, PTE store, EPCM mutation, capacity eviction), or an A/D
transition (which always surfaces as a shootdown + re-walk, i.e. an
epoch bump) — invalidate the stamp, and the run drops to the PR 4
sequential path (:meth:`repro.sgx.cpu.Cpu.access_run`), which replays
it with per-address semantics: identical fault sequence, counters, and
cycle charges to the unbatched loop.  Soundness is inherited from the
epoch contract proven by ``effects/epoch-soundness``: a compiled
column can never outlive any translation-affecting mutation, because
every such mutation bumps the epoch that stamps it.

Why compiling from the TLB is equivalent: for a run of TLB-resident
pages with sufficient permissions, the sequential loop performs N
:meth:`~repro.sgx.tlb.Tlb.lookup` hits — ``hits += 1`` each, no walk,
no charge, no A/D write (the TLB caches translations past the page
table, which is exactly the §5.1.4 time-of-check semantics).  The bulk
replay performs the same N hits in one add.  Any page *not* in that
state fails compilation and takes the sequential path unchanged.
"""

from __future__ import annotations

from array import array

from repro.sgx.params import PAGE_SHIFT, AccessType


# -- fast-path tiers -------------------------------------------------------

#: No translation memoization at all: every access takes the classic
#: lookup/walk path.  The reference semantics, and the ``repro bench``
#: baseline.
TIER_OFF = "off"
#: The shipped engine: the epoch-guarded per-page memo plus the
#: columnar batch interpreter.
TIER_COLUMNAR = "columnar"

TIERS = (TIER_OFF, TIER_COLUMNAR)


def normalize_tier(value):
    """Map a fast-path spec to a tier name: a tier name, or ``None``
    for the shipped engine ("columnar")."""
    if value is None:
        return TIER_COLUMNAR
    if value in TIERS:
        return value
    raise ValueError(
        f"unknown fastpath tier {value!r}: expected one of {TIERS} "
        f"or None"
    )


# -- packing backend -------------------------------------------------------

def pack_column(values):
    """Pack a sequence of ints into an immutable-by-convention int64
    column."""
    return array("q", values)


def column_list(column):
    """The column as a plain list of Python ints."""
    return column.tolist()


# -- the plan --------------------------------------------------------------

_READ, _WRITE, _EXEC = 0, 1, 2


def _access_index(access):
    if access is AccessType.READ:
        return _READ
    if access is AccessType.WRITE:
        return _WRITE
    return _EXEC


class PageRun:
    """A packed, reusable page trace — the columnar *plan*.

    Behaves as a read-only sequence of page addresses, so every
    pre-columnar consumer (``Mmu.probe_run``, the sequential replay in
    ``Cpu.access_run``) iterates it unchanged.  Holds one compiled PFN
    column and epoch stamp per access type; stamps start invalid, and
    an epoch bump invalidates them implicitly (the stamp no longer
    matches), so there is no subscription machinery to get wrong.
    """

    __slots__ = (
        "vaddrs", "vpns", "n",
        "_stamp_r", "_col_r",
        "_stamp_w", "_col_w",
        "_stamp_x", "_col_x",
    )

    def __init__(self, vaddrs):
        va = tuple(vaddrs)
        self.vaddrs = va
        self.n = len(va)
        self.vpns = pack_column([v >> PAGE_SHIFT for v in va])
        self._stamp_r = -1
        self._stamp_w = -1
        self._stamp_x = -1
        self._col_r = None
        self._col_w = None
        self._col_x = None

    def __len__(self):
        return self.n

    def __iter__(self):
        return iter(self.vaddrs)

    def __getitem__(self, index):
        return self.vaddrs[index]

    def column(self, access):
        """The compiled (stamp, pfn column) pair for one access type."""
        idx = _access_index(access)
        if idx == _READ:
            return self._stamp_r, self._col_r
        if idx == _WRITE:
            return self._stamp_w, self._col_w
        return self._stamp_x, self._col_x

    def __repr__(self):
        return f"PageRun(n={self.n})"


def as_run(vaddrs):
    """``vaddrs`` as a :class:`PageRun` (pass-through when it already
    is one)."""
    if type(vaddrs) is PageRun:
        return vaddrs
    return PageRun(vaddrs)


# -- compile + execute -----------------------------------------------------


class ColumnarEngine:
    """Compiles plans against the TLB residency table and executes them.

    One instance per machine, owned by the :class:`HostKernel` when the
    fast-path tier is "columnar" and shared by every consumer (CPU run
    engine, access engines, runtime).  Holds only aliases: the live TLB
    entry map *is* the residency/permission table, kept current by the
    TLB itself; the epoch stamp is what keys compiled columns to it.
    """

    __slots__ = ("tlb", "epoch", "entries")

    def __init__(self, tlb, epoch):
        self.tlb = tlb
        self.epoch = epoch
        #: The live ``{vpn: TlbEntry}`` residency map.  The TLB mutates
        #: it strictly in place (install/evict/flush), so the alias
        #: never goes stale — and every removal bumps ``epoch``.
        self.entries = tlb.residency()

    # repro: hot
    def execute(self, run, access):
        """Execute a whole run fault-free, or return ``None``.

        A stamp match replays the compiled column: ``tlb.hits += n``
        in bulk, exactly N architectural TLB hits.  A stamp miss
        recompiles against the current residency table; a compile miss
        (any page non-resident or under-permissioned) returns ``None``
        with **no side effects**, and the caller falls back to the
        sequential path.
        """
        stamp = self.epoch.value
        idx = _access_index(access)
        if idx == _READ:
            if run._stamp_r == stamp:
                self.tlb.hits += run.n
                return run._col_r
        elif idx == _WRITE:
            if run._stamp_w == stamp:
                self.tlb.hits += run.n
                return run._col_w
        elif run._stamp_x == stamp:
            self.tlb.hits += run.n
            return run._col_x
        return self._compile(run, access, idx, stamp)

    # repro: hot
    def _compile(self, run, access, idx, stamp):
        """Resolve every page of ``run`` against the residency table.

        Permission checks mirror :meth:`repro.sgx.tlb.TlbEntry.allows`:
        residency alone suffices for reads; writes and fetches require
        the matching permission bit.  All-or-nothing, side-effect-free
        until success.
        """
        get = self.entries.get
        pfns = []
        append = pfns.append
        if access is AccessType.READ:
            for vpn in run.vpns:
                entry = get(vpn)
                if entry is None:
                    return None
                append(entry.pfn)
        elif access is AccessType.WRITE:
            for vpn in run.vpns:
                entry = get(vpn)
                if entry is None or not entry.writable:
                    return None
                append(entry.pfn)
        else:
            for vpn in run.vpns:
                entry = get(vpn)
                if entry is None or not entry.executable:
                    return None
                append(entry.pfn)
        column = pack_column(pfns)
        if idx == _READ:
            run._col_r = column
            run._stamp_r = stamp
        elif idx == _WRITE:
            run._col_w = column
            run._stamp_w = stamp
        else:
            run._col_x = column
            run._stamp_x = stamp
        self.tlb.hits += run.n
        return column


#: What :meth:`ReplayFrontend.replay_settled` (and every engine's
#: ``serve_window``) returns in place of a key once the key stream has
#: run out.  A private object, so no key can be mistaken for it.
END_OF_KEYS = object()


class ReplayFrontend:
    """The engine-side executor for cached ``(run, cycles)`` traces.

    Bound into :class:`repro.core.system.DirectEngine` (and the app
    trace caches above it) when the columnar tier is active.  The
    steady-state path — live enclave, stamp match — is deliberately
    call-free except for the bulk compute charge; everything else
    drops to :meth:`_slow`, which compiles or replays sequentially
    with per-address semantics.  :meth:`replay_settled` settles a
    whole window of such steady-state replays at once.
    """

    __slots__ = ("_enclave", "_tcs", "_cpu", "_epoch", "_tlb",
                 "_charge", "_columnar")

    def __init__(self, kernel, enclave, tcs):
        self._enclave = enclave
        self._tcs = tcs
        self._cpu = kernel.cpu
        self._epoch = kernel.epoch
        self._tlb = kernel.tlb
        self._charge = kernel.clock.charge
        self._columnar = kernel.cpu.columnar

    # repro: hot
    def replay(self, trace):
        """Replay one cached trace: a read run plus a bulk compute
        charge.  Equivalent to ``data_access_run(run)`` followed by
        ``compute(cycles)`` on any engine/tier."""
        enclave = self._enclave
        if enclave.dead:
            enclave.require_alive()
        run, cycles = trace
        if run._stamp_r == self._epoch.value:
            self._tlb.hits += run.n
        else:
            self._slow(run)
        self._charge(cycles)

    # repro: hot
    def replay_settled(self, keys, traces, request_cycles):
        """Replay the settled hits at the head of ``keys`` in bulk.

        A *settled hit* is a key whose trace ``traces`` already caches
        and whose read run is stamped with the current epoch, on a live
        enclave: ``compute(request_cycles)`` then :meth:`replay` would
        make it ``run.n`` TLB hits and two compute charges, and nothing
        that can fault, bump the epoch or raise.  So nothing a settled
        hit does can unsettle the next one, and the whole prefix
        settles as one ``tlb.hits`` add and one charge of the same
        total.

        Walks the iterator ``keys`` up to the first key that is not a
        settled hit and returns ``(served, key)``: the number of hits
        settled and that key, which the walk consumed (or
        :data:`END_OF_KEYS` when ``keys`` ran out).  Raises nothing of
        its own (only what iterating ``keys`` or hashing a key raises);
        when ``served`` is 0 nothing changed.  A dead enclave settles
        nothing, so its first request takes the caller's per-request
        path and raises there.
        """
        if self._enclave.dead:
            return 0, next(keys, END_OF_KEYS)
        stamp = self._epoch.value
        lookup = traces.get
        served = hits = cycles = 0
        for key in keys:
            trace = lookup(key)
            if trace is None:
                break
            run, item_cycles = trace
            if run._stamp_r != stamp:
                break
            served += 1
            hits += run.n
            cycles += item_cycles
        else:
            key = END_OF_KEYS
        if served:
            self._tlb.hits += hits
            self._charge(served * request_cycles + cycles)
        return served, key

    def _slow(self, run):
        """Stamp miss: recompile, or fall back to the sequential run
        engine (faults, epoch bumps, and A/D transitions land here)."""
        if self._columnar.execute(run, AccessType.READ) is None:
            self._cpu.access_run(
                self._enclave, self._tcs, run, AccessType.READ
            )
