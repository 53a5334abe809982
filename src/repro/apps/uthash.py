"""uthash model: a chained hash table over enclave heap pages (§7.2).

uthash resolves collisions with per-bucket chains of items.  The layout
matters for the attack and the defense alike:

* items live wherever the allocator put them at insertion time, so a
  chain walk touches a *sequence of pages* that uniquely fingerprints
  the bucket (the Hunspell-attack structure);
* rehashing doubles the bucket count, halving chains — which is why
  §7.2 measures before and after rehash (about 1.5× better after).

The paper's configuration: 431 MB of data, 256-byte items, up to 10
items per bucket.  Item placement is computed arithmetically (item
``i`` sits at page ``i // items_per_page``), so the model scales to
millions of items without materializing them.
"""

from __future__ import annotations

from repro.errors import PolicyError
from repro.sgx.params import PAGE_SIZE


class UthashTable:
    """Chained hash table with arithmetic item/bucket placement.

    ``engine`` is any access engine; ``heap_start`` is where the item
    arena begins; the bucket-head array sits immediately after the item
    pages.  Item ``i`` hashes to bucket ``i % nbuckets`` at chain
    position ``i // nbuckets`` — the uniform layout the paper's uniform
    random workload assumes.
    """

    #: cycles of hashing + pointer chasing per chain node visited.
    NODE_COMPUTE = 120

    def __init__(self, engine, heap_start, data_bytes, item_size=256,
                 max_chain=10):
        if item_size > PAGE_SIZE:
            raise PolicyError("items larger than a page are unsupported")
        self.engine = engine
        self.heap_start = heap_start
        self.item_size = item_size
        self.n_items = data_bytes // item_size
        self.items_per_page = PAGE_SIZE // item_size
        self.max_chain = max_chain
        #: Enough buckets that chains stay at/below ``max_chain``.
        self.nbuckets = max(1, -(-self.n_items // max_chain))

        self.item_pages = -(-self.n_items // self.items_per_page)
        self.bucket_array_start = (
            heap_start + self.item_pages * PAGE_SIZE
        )
        self.lookups = 0
        #: item → (page trace, walk cycles) of its lookup.  The
        #: arithmetic layout is static between rehashes, so the trace
        #: can be computed once per item (cleared by :meth:`rehash`).
        self._trace_cache = {}

    @property
    def bucket_pages(self):
        """Bucket-array pages at the *current* bucket count (grows on
        rehash, in place in this arithmetic layout)."""
        return -(-self.nbuckets * 8 // PAGE_SIZE)

    @property
    def total_pages(self):
        return self.item_pages + self.bucket_pages

    def total_pages_after_rehash(self, factor=2):
        """Footprint including the expanded bucket array, so callers
        can size allocations/clusters before triggering the rehash."""
        return self.item_pages + (
            -(-self.nbuckets * factor * 8 // PAGE_SIZE)
        )

    # -- layout ----------------------------------------------------------

    def item_page(self, item):
        return self.heap_start + (item // self.items_per_page) * PAGE_SIZE

    def bucket_of(self, item):
        return item % self.nbuckets

    def chain_position(self, item):
        return item // self.nbuckets

    def bucket_page(self, bucket):
        return self.bucket_array_start + (bucket * 8 // PAGE_SIZE) * PAGE_SIZE

    def chain_items(self, bucket, upto):
        """Items visited walking bucket's chain to position ``upto``."""
        return [bucket + k * self.nbuckets for k in range(upto + 1)]

    # -- operations ----------------------------------------------------------

    # repro: hot
    def lookup(self, item):
        """GET: walk the chain to the item, touching each node's page.

        The chain's page list is planned once per item with the
        engine's :meth:`make_run` and replayed as one batch; per-node
        compute is charged in bulk (cycle totals are order-independent,
        and the access order — bucket page, then chain pages in
        position order — is unchanged).  An item outside the table
        raises ``KeyError`` before the lookup has any effect.
        """
        trace = self._trace_cache.get(item)
        if trace is None:
            if not 0 <= item < self.n_items:
                raise KeyError(item)
            bucket = item % self.nbuckets
            base = self.heap_start
            per_page = self.items_per_page
            nbuckets = self.nbuckets
            # Bucket page first, then the chain pages in position
            # order — the same trace the per-access loop produced.
            pages = [self.bucket_page(bucket)]
            pages += [
                base + ((bucket + k * nbuckets) // per_page) * PAGE_SIZE
                for k in range(item // nbuckets + 1)
            ]
            # repro: allow[leakage] deliberate victim (Table 2): the
            # item hashes to the bucket page and item-dependent chain
            # pages the OS observes
            run = self.engine.make_run(pages)
            trace = (run, self.NODE_COMPUTE * (len(pages) - 1))
            # repro: allow[leakage] in-enclave memo keyed by the item;
            # the OS-visible trace is the page run above
            self._trace_cache[item] = trace
        self.lookups += 1
        self.engine.replay(trace)
        return item

    def insert(self, item):
        """PUT: walk to the chain end, then write the item's page."""
        self.lookups += 1
        # repro: allow[leakage] item-dependent bucket-page write
        self.engine.data_access(
            self.bucket_page(self.bucket_of(item)), write=True
        )
        pos = self.chain_position(item)
        for node in self.chain_items(self.bucket_of(item), pos)[:-1]:
            # repro: allow[leakage] item-dependent chain walk
            self.engine.data_access(self.item_page(node))
            self.engine.compute(self.NODE_COMPUTE)
        # repro: allow[leakage] item-dependent insertion write
        self.engine.data_access(self.item_page(item), write=True)

    def rehash(self, factor=2):
        """Bucket expansion: chains shrink by ``factor``.

        We model the post-rehash state (new bucket count and chain
        positions) without charging the one-time rehash pass — the §7.2
        experiment measures steady-state lookups before and after."""
        self.nbuckets *= factor
        self._trace_cache.clear()

    def access_signature(self, item):
        """The page trace a lookup of ``item`` produces — what the
        attacker's profiling phase computes from the public binary."""
        pages = [self.bucket_page(self.bucket_of(item))]
        pos = self.chain_position(item)
        pages.extend(
            self.item_page(node)
            for node in self.chain_items(self.bucket_of(item), pos)
        )
        return tuple(pages)
