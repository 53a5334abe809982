"""Memcached model (§7.3): slab-allocated KV store under YCSB load.

Memcached stores fixed-class items in slab pages; a GET hashes the key,
walks the index, and reads the item.  With 400 MB of 1 KB entries the
store oversubscribes EPC, so paging — and the paging side channel on
*which keys are hot* — is unavoidable without a defense.

The paper modifies Memcached's slab allocation (30 LOC) so all item
accesses are managed by 10-page clusters, or recompiles it to use ORAM
for all items; rate-limited paging needs no change at all.  The model
exposes the same knob via whichever engine/policy the system was built
with.
"""

from __future__ import annotations

from repro.runtime.rate_limit import ProgressKind
from repro.sgx.columnar import END_OF_KEYS
from repro.sgx.params import PAGE_SIZE


class Memcached:
    """Single-threaded KV store (the paper's thread-safety-limited
    ORAM configuration) with arithmetic slab placement."""

    #: Hash + protocol parse + LRU bookkeeping per request.
    REQUEST_COMPUTE = 15_000
    #: Per-item copy-out to the response buffer.
    ITEM_COMPUTE = 800

    def __init__(self, engine, heap_start, data_bytes, item_size=1024):
        self.engine = engine
        self.heap_start = heap_start
        self.item_size = item_size
        self.n_keys = data_bytes // item_size
        self.items_per_page = PAGE_SIZE // item_size

        self.item_pages = -(-self.n_keys // self.items_per_page)
        index_bytes = self.n_keys * 8
        self.index_pages = -(-index_bytes // PAGE_SIZE)
        self.index_start = heap_start + self.item_pages * PAGE_SIZE
        self.gets = 0
        self.sets = 0
        #: key → (page run, copy-out cycles); the slab layout is
        #: static, so a GET's page pair is planned once per key with
        #: the engine's ``make_run``.
        self._trace_cache = {}
        #: The same for a SET's write pair, apart from the GET traces
        #: ``serve`` hands to the engine's request window.
        self._write_cache = {}

    @property
    def total_pages(self):
        return self.item_pages + self.index_pages

    def item_page(self, key):
        return self.heap_start + (key // self.items_per_page) * PAGE_SIZE

    def index_page(self, key):
        return self.index_start + (key * 8 // PAGE_SIZE) * PAGE_SIZE

    # repro: hot
    def get(self, key):
        """One YCSB GET: index probe, item read, response copy.

        A key outside the store raises ``KeyError`` before the GET has
        any effect (planning a run has none)."""
        trace = self._trace_cache.get(key)
        if trace is None:
            if not 0 <= key < self.n_keys:
                raise KeyError(key)
            # repro: allow[leakage] deliberate victim (Table 2): the
            # key selects the index page and item page the OS observes
            run = self.engine.make_run(
                (self.index_page(key), self.item_page(key))
            )
            trace = (run, self.ITEM_COMPUTE)
            # repro: allow[leakage] in-enclave memo keyed by the key;
            # the OS-visible trace is the page run above
            self._trace_cache[key] = trace
        self.gets += 1
        self.engine.compute(self.REQUEST_COMPUTE)
        self.engine.replay(trace)

    # repro: hot
    def set(self, key):
        """One SET: index probe, item write, response.

        The index and item page writes are planned once per key as a
        write run and replayed the way ``get`` replays its reads: a
        request charge, then the two writes, then the copy charge.  A
        key outside the store raises ``KeyError`` before the SET has
        any effect, and is never cached."""
        trace = self._write_cache.get(key)
        if trace is None:
            if not 0 <= key < self.n_keys:
                raise KeyError(key)
            # repro: allow[leakage] deliberate victim (Table 2): the
            # key selects the index page and item page the OS observes
            run = self.engine.make_run(
                (self.index_page(key), self.item_page(key)), write=True
            )
            trace = (run, self.ITEM_COMPUTE)
            # repro: allow[leakage] in-enclave memo keyed by the key;
            # the OS-visible trace is the page run above
            self._write_cache[key] = trace
        self.sets += 1
        self.engine.compute(self.REQUEST_COMPUTE)
        self.engine.replay(trace)

    # repro: hot
    def serve(self, keys, progress_kind=None):
        """Serve a GET stream, emitting one progress event per request
        (the "faults per socket receive" bound of §5.2.4).

        Every observable is exactly that of ``for key in keys:
        engine.progress(kind); self.get(key)``, also when a request
        raises, for any iterable of hashable keys whose iteration does
        not itself raise.  The engine's ``serve_window`` settles each
        run of requests it can settle in bulk (on the columnar tier:
        GETs whose cached trace replays as TLB hits); every other
        request takes that per-request path, in request order."""
        kind = progress_kind or ProgressKind.IO
        engine = self.engine
        traces = self._trace_cache
        keys = iter(keys)
        while True:
            served, key = engine.serve_window(
                keys, traces, self.REQUEST_COMPUTE, kind
            )
            self.gets += served
            if key is END_OF_KEYS:
                return
            engine.progress(kind)
            self.get(key)
