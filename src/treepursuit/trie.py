"""Registry of search paths keyed by their support set.

A path's key is its `canonical` attribute, the support in ascending atom
order, so two paths with equal support sets share one key whatever order
their atoms were selected in; the path derives it when it is built, and
the registry only reads it.  One dict maps every key ever inserted to its
live path, or to None once that path is removed, so the registry doubles
as the memory of which support sets have been opened before and the
equivalence test costs one hash lookup.  Live paths also sit in one list
kept in cost order by bisection, so the search reads its cheapest and its
costliest path off the ends of that list.
"""

from bisect import bisect_left, insort

__all__ = ["SearchTrie"]


class SearchTrie:
    """Live paths in cost order, at most one per support set, and every set opened."""

    def __init__(self):
        self._paths = {}  # canonical support -> live path, None once removed
        self._order = []  # _key(path) + (path,), ascending
        self.inserted_total = 0

    @staticmethod
    def _key(path):
        """The cost order: (cost at insertion, length, canonical support).
        Equal costs break toward the shorter path, then the smaller support,
        which is unique among live paths, so the order is deterministic."""
        return (path.cost, len(path.canonical), path.canonical)

    @property
    def live_count(self):
        return len(self._order)

    def paths(self):
        """Snapshot list of live paths in cost order (no aliasing)."""
        return [entry[-1] for entry in self._order]

    def cheapest(self, accept=None):
        """First live path in cost order that accept(path) takes, or any
        path when accept is None; None when there is none."""
        for entry in self._order:
            if accept is None or accept(entry[-1]):
                return entry[-1]
        return None

    def costliest(self):
        """Last live path in cost order; None when none is live."""
        return self._order[-1][-1] if self._order else None

    def has_equivalent(self, canonical):
        """True when the support set with this sorted key was ever opened."""
        return canonical in self._paths

    def insert(self, path):
        """Store a live path under its canonical key."""
        if self._paths.get(path.canonical) is not None:
            raise ValueError("a live path with this support already exists")
        self._paths[path.canonical] = path
        insort(self._order, self._key(path) + (path,))
        self.inserted_total += 1

    def remove(self, path):
        """Drop a live path that still has the cost it was inserted with;
        its support set stays in the opened memory."""
        if self._paths.get(path.canonical) is not path:
            raise ValueError("path is not live in this trie")
        key = self._key(path)
        i = bisect_left(self._order, key)
        if i == len(self._order) or self._order[i][:-1] != key:
            raise ValueError("path's cost changed while it was live")
        del self._order[i]
        self._paths[path.canonical] = None
