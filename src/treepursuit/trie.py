"""Registry of search paths keyed by their support set.

A path's key is its `canonical` attribute, the support in ascending atom
order, so two paths with equal support sets share one key whatever order
their atoms were selected in; the path derives it when it is built, and
the registry only reads it.  One dict maps every key ever inserted to its
live path, or to None once that path is removed, so the registry doubles
as the memory of which support sets have been opened before and the
equivalence test costs one hash lookup.  Live paths sit in two lists kept
in cost order by bisection: open paths, which the search may still expand,
and closed ones, which have kmax atoms or whose round kept no child.  The
search expands the head of the open list and reads its cheapest and
costliest live path off the heads and the tails of both.  Removing or
closing a path that sits at the head or the tail of its list, as the
expanded and the displaced path do, pops it without a search; any other
is found by bisection on its key.  Either way a path whose cost changed
since its insertion is refused.
"""

from bisect import bisect_left, insort
from heapq import merge

__all__ = ["SearchTrie"]


class SearchTrie:
    """Live paths in cost order, open or closed, one per support set, and
    every set opened.  The paths the search removes or closes leave from
    an end of their list, without a search."""

    def __init__(self, kmax):
        self._kmax = kmax
        self._paths = {}  # canonical support -> live path, None once removed
        self._open = []  # _key(path) + (path,), ascending
        self._closed = []  # the same, for paths the search expands no more
        self.inserted_total = 0

    @staticmethod
    def _key(path):
        """The cost order: (cost at insertion, length, canonical support).
        Ties break toward the shorter path, then the smaller support, which
        is unique among live paths, so two entries never compare their
        paths.  An entry is the key followed by its path."""
        return (path.cost, len(path.canonical), path.canonical)

    @property
    def live_count(self):
        return len(self._open) + len(self._closed)

    def paths(self):
        """Snapshot list of live paths in cost order (no aliasing)."""
        return [entry[-1] for entry in merge(self._open, self._closed)]

    def cheapest_open(self):
        """First open path in cost order; None when none is open."""
        return self._open[0][-1] if self._open else None

    def cheapest(self):
        """First live path in cost order; None when none is live."""
        heads = [order[0] for order in (self._open, self._closed) if order]
        return min(heads)[-1] if heads else None

    def costliest(self):
        """Last live path in cost order; None when none is live."""
        tails = [order[-1] for order in (self._open, self._closed) if order]
        return max(tails)[-1] if tails else None

    def has_equivalent(self, canonical):
        """True when the support set with this sorted key was ever opened."""
        return canonical in self._paths

    def insert(self, path):
        """Store a live path under its canonical key, closed when it has kmax atoms."""
        canonical = path.canonical
        if self._paths.get(canonical) is not None:
            raise ValueError("a live path with this support already exists")
        self._paths[canonical] = path
        length = len(canonical)
        order = self._closed if length >= self._kmax else self._open
        insort(order, (path.cost, length, canonical, path))
        self.inserted_total += 1

    def _take(self, path, orders):
        """Unlink a live path from whichever of `orders` holds it, provided
        it still has the cost it was inserted with; returns its entry."""
        if self._paths.get(path.canonical) is not path:
            raise ValueError("path is not live in this trie")
        # the search takes the open head (the path it expands) or a tail
        # (the costliest path it displaces): those need no search
        cost = path.cost
        for order in orders:
            for end in (0, -1):
                if order and order[end][-1] is path and order[end][0] == cost:
                    return order.pop(end)
        key = self._key(path)
        for order in orders:
            i = bisect_left(order, key)
            if i < len(order) and order[i][:-1] == key:
                return order.pop(i)
        raise ValueError("path's cost changed while it was live, or close met a closed path")

    def close(self, path):
        """Move an open path to the closed list: the search expands it no more."""
        insort(self._closed, self._take(path, (self._open,)))

    def remove(self, path):
        """Drop a live path, open or closed; its support set stays opened."""
        self._take(path, (self._open, self._closed))
        self._paths[path.canonical] = None
