"""Page clusters (§5.2.3): application-aware secure self-paging units.

A page cluster is a consistent set of enclave-managed pages that are
evicted and fetched together, so a fault cannot reveal *which* of the
cluster's pages was accessed.  Clusters need not be contiguous, may be
assembled dynamically, and may share pages (useful for code: two
libraries calling a third share its cluster).

The security invariant maintained by the system:

    for each non-resident page, there is at least one cluster to which
    it belongs with all of its pages non-resident.

Fetching must therefore pull in the *transitive closure* of clusters
sharing pages with the faulting cluster (§5.2.3 explains the
one-resident-page-left corner case this prevents); evicting a single
cluster is always safe.

The public API mirrors Table 1 of the paper.
"""

from __future__ import annotations

from collections import deque

from repro.errors import PolicyError
from repro.sgx.params import page_base


class ClusterManager:
    """Owns every cluster of one enclave."""

    def __init__(self):
        self._clusters = {}        # cluster_id -> set of page bases
        self._capacity = {}        # cluster_id -> max pages (None = no cap)
        self._page_clusters = {}   # page base -> set of cluster_ids
        self._next_id = 1          # the next new cluster's id

    # -- Table 1 API ---------------------------------------------------------

    def ay_init_clusters(self, n, s):
        """Initialize ``n`` clusters of size ``s``; returns their ids."""
        if n < 1:
            raise PolicyError("need at least one cluster")
        if s is not None and s < 1:
            raise PolicyError("cluster size must be positive")
        return [self.new_cluster(s) for _ in range(n)]

    def ay_release_clusters(self):
        """Release all resources."""
        self._clusters.clear()
        self._capacity.clear()
        self._page_clusters.clear()

    def ay_add_page(self, cluster_id, vaddr):
        """Register ``vaddr``'s page with a cluster."""
        pages = self._require(cluster_id)
        base = page_base(vaddr)
        cap = self._capacity[cluster_id]
        if base not in pages and cap is not None and len(pages) >= cap:
            raise PolicyError(
                f"cluster {cluster_id} is full ({cap} pages)"
            )
        pages.add(base)
        self._page_clusters.setdefault(base, set()).add(cluster_id)

    def ay_remove_page(self, cluster_id, vaddr):
        """De-register ``vaddr``'s page from a cluster."""
        pages = self._require(cluster_id)
        base = page_base(vaddr)
        pages.discard(base)
        owners = self._page_clusters.get(base)
        if owners is not None:
            owners.discard(cluster_id)
            if not owners:
                del self._page_clusters[base]

    def ay_get_cluster_ids(self, vaddr):
        """All clusters containing ``vaddr``'s page."""
        return sorted(self._page_clusters.get(page_base(vaddr), ()))

    # -- system-side operations ----------------------------------------------

    def new_cluster(self, capacity=None):
        cluster_id = self._next_id
        self._next_id += 1
        self._clusters[cluster_id] = set()
        self._capacity[cluster_id] = capacity
        return cluster_id

    def pages_of(self, cluster_id):
        return set(self._require(cluster_id))

    def cluster_count(self):
        return len(self._clusters)

    def clustered(self, vaddr):
        return page_base(vaddr) in self._page_clusters

    def fetch_closure(self, vaddr):
        """All pages that must be fetched together with ``vaddr``.

        BFS over the cluster-sharing graph: the faulting page's
        clusters, every page in them, every cluster those pages belong
        to, and so on.  Disjoint clusters degenerate to a single
        cluster's page set."""
        base = page_base(vaddr)
        seed = self._page_clusters.get(base)
        if not seed:
            raise PolicyError(f"page {base:#x} is not in any cluster")
        seen_clusters = set()
        pages = set()
        frontier = deque(seed)
        while frontier:
            cluster_id = frontier.popleft()
            if cluster_id in seen_clusters:
                continue
            seen_clusters.add(cluster_id)
            for page in self._clusters[cluster_id]:
                if page in pages:
                    continue
                pages.add(page)
                for other in self._page_clusters.get(page, ()):
                    if other not in seen_clusters:
                        frontier.append(other)
        return pages

    def merge_sparse_clusters(self, target_fill):
        """Merge under-filled capped clusters so they stay near-full
        (the libOS allocator's response to frees, §5.2.3).  Returns the
        number of merges performed."""
        sparse = [
            cid for cid, pages in self._clusters.items()
            if self._capacity[cid] is not None
            and 0 < len(pages) < target_fill
        ]
        merges = 0
        while len(sparse) >= 2:
            dst = sparse.pop()
            src = sparse.pop()
            cap = self._capacity[dst]
            for page in list(self._clusters[src]):
                if cap is not None and len(self._clusters[dst]) >= cap:
                    sparse.append(src)
                    break
                self.ay_remove_page(src, page)
                self.ay_add_page(dst, page)
            merges += 1
            if not self._clusters[src]:
                del self._clusters[src]
                del self._capacity[src]
            if (self._capacity[dst] is not None
                    and len(self._clusters[dst]) < target_fill):
                sparse.append(dst)
        return merges

    def check_invariant(self, is_resident):
        """Verify the §5.2.3 invariant given a residency predicate over
        page bases.  Returns the set of violating pages (empty = holds)."""
        violations = set()
        for base, owners in self._page_clusters.items():
            if is_resident(base):
                continue
            ok = any(
                all(not is_resident(p) for p in self._clusters[cid])
                for cid in owners
            )
            if not ok:
                violations.add(base)
        return violations

    # -- internals -----------------------------------------------------------

    def _require(self, cluster_id):
        pages = self._clusters.get(cluster_id)
        if pages is None:
            raise PolicyError(f"unknown cluster {cluster_id}")
        return pages
