"""Columnar batch interpreter for fault-free page runs.

The MMU's fast path makes a steady-state access cost one probe of the
TLB's entry map (:meth:`repro.sgx.mmu.Mmu.probe_run`); this module
makes a steady-state *run* cost one integer compare.  It is a classic
plan/compile/execute split:

* **plan** — :class:`PageRun` packs a trace of one access type, read
  or write (a sequence of page base addresses), into an immutable
  column of virtual page numbers, a packed ``array('q')``.  Plans are
  built once, by the app trace caches through
  :meth:`repro.core.system.DirectEngine.make_run`, and replayed many
  times by :class:`ReplayFrontend`.

* **compile** — :meth:`ColumnarEngine.execute` resolves a plan against
  the *residency table*: the live TLB entry map, which is precisely
  the set of translations the page table, EPCM, and (for self-paging
  enclaves) the Autarky A/D check have already validated.  A run
  compiles only if **every** page's TLB entry allows its access: a
  resident entry is all a read needs, a write needs a writable one;
  the result is the plan's stamp, set to the
  :class:`~repro.sgx.epoch.TranslationEpoch` value it was compiled
  under.

* **execute** — while the stamp still matches the epoch, replaying the
  run is architecturally N TLB hits: ``tlb.hits += n`` in bulk,
  nothing else.  That is the whole steady-state cost.

Fallback triggers — the first fault, any epoch bump (TLB flush or
shootdown, PTE store, EPCM mutation, capacity eviction), or an A/D
transition (which always surfaces as a shootdown + re-walk, i.e. an
epoch bump) — invalidate the stamp, and a run that no longer compiles
drops to the sequential path (:meth:`repro.sgx.cpu.Cpu.access_run`),
which replays it with per-address semantics: identical fault sequence,
counters, and cycle charges to the unbatched loop.  Soundness is
inherited from the epoch contract proven by ``effects/epoch-soundness``:
a compiled stamp can never outlive any translation-affecting mutation,
because every such mutation bumps the epoch it was taken from.

Why compiling from the TLB is equivalent: for a run of pages whose TLB
entries allow its access, the sequential loop performs N
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

#: No fast path: every access takes the classic TLB lookup/walk
#: (``Mmu.translate_nofault``).  The reference semantics, and the
#: ``repro bench`` baseline.
TIER_OFF = "off"
#: The shipped engine: the MMU's fast path, which probes the TLB's
#: entry map directly, plus the columnar batch interpreter.
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


# -- the plan --------------------------------------------------------------

class PageRun:
    """A packed, reusable trace of one access type — the columnar
    *plan*: ``write`` says whether every access of the run writes or
    every access reads.

    Iterates as its page addresses, so the sequential path
    (``Mmu.probe_run`` and the replay in ``Cpu.access_run``) consumes
    it unchanged.  Holds the epoch stamp it was last compiled under;
    the stamp starts invalid, and an epoch bump invalidates it
    implicitly (the stamp no longer matches), so there is no
    subscription machinery to get wrong.
    """

    __slots__ = ("vaddrs", "vpns", "n", "write", "stamp")

    def __init__(self, vaddrs, write=False):
        va = tuple(vaddrs)
        self.vaddrs = va
        self.n = len(va)
        self.vpns = pack_column([v >> PAGE_SHIFT for v in va])
        self.write = write
        self.stamp = -1

    def __iter__(self):
        return iter(self.vaddrs)

    def __repr__(self):
        return f"PageRun(n={self.n})"


# -- compile + execute -----------------------------------------------------


class ColumnarEngine:
    """Compiles plans against the TLB residency table and executes
    them.

    One instance per machine, owned by the :class:`HostKernel` when the
    fast-path tier is "columnar"; the CPU holds it and every
    :class:`ReplayFrontend` executes through it.  Holds only aliases:
    the live TLB entry map *is* the residency table, kept current by
    the TLB itself; the epoch stamp is what keys compiled plans to it.
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
    def execute(self, run):
        """Execute a whole run fault-free; returns whether it did.

        A stamp match replays the run: ``tlb.hits += n`` in bulk,
        exactly N architectural TLB hits.  A stamp miss recompiles
        against the current residency table, where every page's entry
        must allow the run's access
        (:meth:`repro.sgx.tlb.TlbEntry.allows`: a resident entry is all
        a read needs, a write needs a writable one), and stamps the
        run.  A compile miss returns ``False`` with **no side effects**,
        and the caller falls back to the sequential path.
        """
        stamp = self.epoch.value
        if run.stamp != stamp:
            entries = self.entries
            if run.write:
                for vpn in run.vpns:
                    entry = entries.get(vpn)
                    if entry is None or not entry.allows(AccessType.WRITE):
                        return False
            else:
                for vpn in run.vpns:
                    if vpn not in entries:
                        return False
            run.stamp = stamp
        self.tlb.hits += run.n
        return True


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
        """Replay one cached trace: a run plus a bulk compute charge.
        Equivalent to ``data_access_run(run, run.write)`` followed by
        ``compute(cycles)`` on any engine/tier."""
        enclave = self._enclave
        if enclave.dead:
            enclave.require_alive()
        run, cycles = trace
        if run.stamp == self._epoch.value:
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
            if run.stamp != stamp:
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
        engine with the run's access type (faults, epoch bumps, and A/D
        transitions land here)."""
        if not self._columnar.execute(run):
            self._cpu.access_run(
                self._enclave, self._tcs, run,
                AccessType.WRITE if run.write else AccessType.READ,
            )
