"""Priority-ordered prefix tree over atom indices.

Every stored path keeps its atoms sorted by a fixed per-atom priority, so
two paths with equal support sets map to the same node chain and set
equality reduces to a prefix walk.  Node priorities are assigned once, at
construction, and hold for the whole search; atoms likely to be shared by
many paths sit near the root, which keeps the tree compact.

Nodes that ever carried a path keep a marker after the path moves on, so
the trie doubles as the memory of which support sets have been opened
before.  Nodes persist for the lifetime of one search.

Live paths are also registered by object identity in an insertion-ordered
dict, so removing a path costs O(1) and never compares path contents.
"""

__all__ = ["SearchTrie"]


class _Node:
    __slots__ = ("atom", "parent", "children", "payload", "was_path")

    def __init__(self, atom, parent):
        self.atom = atom
        self.parent = parent
        self.children = {}
        self.payload = None
        self.was_path = False


class SearchTrie:
    """Prefix tree of live search paths under a fixed atom priority order.

    priority_order lists atom indices from highest to lowest priority and
    must be a permutation of range(N).  Live paths are keyed by identity
    (id(path)), so paths need no equality of their own; paths() lists them
    in insertion order.
    """

    def __init__(self, priority_order):
        self.order = [int(a) for a in priority_order]
        n = len(self.order)
        rank = [0] * n
        seen = [False] * n
        for pos, atom in enumerate(self.order):
            if not 0 <= atom < n or seen[atom]:
                raise ValueError("priority_order must be a permutation of range(n)")
            seen[atom] = True
            rank[atom] = pos
        self._rank = rank
        self._root = _Node(None, None)
        self._live = {}  # id(path) -> path, insertion-ordered
        self.inserted_total = 0

    def canonical(self, support):
        """Support set sorted by descending priority (ascending rank)."""
        return tuple(sorted((int(j) for j in support), key=self._rank.__getitem__))

    @property
    def live_count(self):
        return len(self._live)

    def paths(self):
        """Snapshot list of live paths (insertion order, no aliasing)."""
        return list(self._live.values())

    def _walk(self, canonical):
        node = self._root
        for atom in canonical:
            node = node.children.get(atom)
            if node is None:
                return None
        return node

    def has_equivalent(self, support):
        """True when an equal support set was ever opened as a path."""
        node = self._walk(self.canonical(support))
        return node is not None and node.was_path

    def insert(self, path):
        """Store a live path; its canonical key is attached to the path."""
        canonical = self.canonical(path.support)
        node = self._root
        for atom in canonical:
            child = node.children.get(atom)
            if child is None:
                child = _Node(atom, node)
                node.children[atom] = child
            node = child
        if node.payload is not None:
            raise ValueError("a live path with this support already exists")
        node.payload = path
        node.was_path = True
        path.canonical = canonical
        path.node = node
        self._live[id(path)] = path
        self.inserted_total += 1

    def remove(self, path):
        """Drop a live path; the node keeps its explored marker."""
        node = path.node
        if node is None or node.payload is not path:
            raise ValueError("path is not live in this trie")
        node.payload = None
        path.node = None
        del self._live[id(path)]
