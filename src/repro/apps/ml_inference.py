"""Decision-forest inference: the paper's "machine learning task".

§5.2.4 gives ML inference as a rate-limited paging client ("a machine
learning task may express its limit in faults per memory allocation").
It is also a canonical controlled-channel victim: tree traversal takes
a root-to-leaf path determined by the (secret) input features, and
when nodes spread across pages, the page trace spells the path out —
recovering the model's decision and with it a bundle of input
predicates.

The model here is a real classifier: deterministic pseudo-random
trees, genuine threshold comparisons, majority vote.  Node *layout* is
the attack surface: breadth-first across pages, so deeper levels fan
out over more pages and leak more.
"""

from __future__ import annotations

import zlib

from repro.errors import PolicyError
from repro.runtime.rate_limit import ProgressKind
from repro.sgx.params import PAGE_SIZE


def _node_hash(tree, node, salt):
    return zlib.crc32(f"{salt}:{tree}:{node}".encode())


class DecisionForest:
    """A random-forest classifier over an enclave memory region."""

    #: Bytes per node record (feature idx, threshold, child pointers).
    NODE_SIZE = 32
    #: Comparison + pointer chase per node visited.
    NODE_COMPUTE = 180

    def __init__(self, engine, region_start, n_trees=8, depth=10,
                 n_features=16, n_classes=4, seed=77):
        if depth < 1 or n_trees < 1:
            raise PolicyError("need at least one tree of depth ≥ 1")
        self.engine = engine
        self.region_start = region_start
        self.n_trees = n_trees
        self.depth = depth
        self.n_features = n_features
        self.n_classes = n_classes
        self.seed = seed
        self.nodes_per_tree = (1 << (depth + 1)) - 1
        self.nodes_per_page = PAGE_SIZE // self.NODE_SIZE
        self.tree_pages = -(-self.nodes_per_tree // self.nodes_per_page)
        self.classifications = 0

    @property
    def total_pages(self):
        return self.n_trees * self.tree_pages

    def pages(self):
        return [
            self.region_start + i * PAGE_SIZE
            for i in range(self.total_pages)
        ]

    def node_page(self, tree, node):
        page_index = tree * self.tree_pages + node // self.nodes_per_page
        return self.region_start + page_index * PAGE_SIZE

    # -- the model itself ---------------------------------------------------

    def _node_params(self, tree, node):
        h = _node_hash(tree, node, self.seed)
        feature = h % self.n_features
        threshold = ((h >> 8) % 1_000) / 1_000.0
        return feature, threshold

    def _leaf_class(self, tree, leaf):
        return _node_hash(tree, leaf, self.seed ^ 0xC1A55) \
            % self.n_classes

    def _walk(self, tree, features):
        node = 0
        for _level in range(self.depth):
            # repro: allow[leakage] deliberate victim (Table 2):
            # the decision path selects the node pages
            self.engine.data_access(self.node_page(tree, node))
            self.engine.compute(self.NODE_COMPUTE)
            feature, threshold = self._node_params(tree, node)
            # repro: allow[leakage] feature-indexed comparison picks
            # the child, and with it the next page
            node = 2 * node + (1 if features[feature] < threshold
                               else 2)
        # repro: allow[leakage] input-dependent leaf page
        self.engine.data_access(self.node_page(tree, node))
        return node

    def classify(self, features):
        """Majority vote over all trees (the real computation)."""
        if len(features) != self.n_features:
            raise PolicyError(
                f"expected {self.n_features} features, "
                f"got {len(features)}"
            )
        self.classifications += 1
        votes = [0] * self.n_classes
        for tree in range(self.n_trees):
            leaf = self._walk(tree, features)
            # repro: allow[leakage] leaf class indexes the vote array
            votes[self._leaf_class(tree, leaf)] += 1
        self.engine.progress(ProgressKind.ALLOCATION)
        return max(range(self.n_classes), key=votes.__getitem__)

    # -- the attacker's profiling oracle --------------------------------------

    def path_signature(self, features):
        """The page trace classifying ``features`` produces — computed
        offline from the public model, exactly what an attacker
        profiles."""
        pages = []
        for tree in range(self.n_trees):
            node = 0
            for _level in range(self.depth):
                pages.append(self.node_page(tree, node))
                feature, threshold = self._node_params(tree, node)
                # repro: allow[leakage] the oracle replays _walk()'s
                # input-dependent descent by construction
                node = 2 * node + (1 if features[feature] < threshold
                                   else 2)
            pages.append(self.node_page(tree, node))
        return tuple(pages)
