"""Registry of search paths keyed by their support set.

A support set's canonical form is its atoms in ascending index order, so
two paths with equal support sets share one key whatever order their atoms
were selected in.  Every key ever inserted stays in the opened set for the
lifetime of one search, so the registry doubles as the memory of which
support sets have been opened before.  Live paths sit in an
insertion-ordered dict under their key, so insert, remove and the
equivalence test each cost one hash lookup.
"""

__all__ = ["SearchTrie"]


class SearchTrie:
    """Live search paths and the memory of every support set opened.

    At most one live path holds a given support set; paths() lists the
    live paths in insertion order.
    """

    def __init__(self):
        self._opened = set()
        self._live = {}  # canonical support -> live path, insertion-ordered
        self.inserted_total = 0

    @staticmethod
    def canonical(support):
        """Support set as a tuple of ascending atom indices."""
        return tuple(sorted(int(j) for j in support))

    @property
    def live_count(self):
        return len(self._live)

    def paths(self):
        """Snapshot list of live paths (insertion order, no aliasing)."""
        return list(self._live.values())

    def has_equivalent(self, support):
        """True when an equal support set was ever opened as a path."""
        return self.canonical(support) in self._opened

    def insert(self, path):
        """Store a live path; its canonical key is attached to the path."""
        canonical = self.canonical(path.support)
        if canonical in self._live:
            raise ValueError("a live path with this support already exists")
        path.canonical = canonical
        self._opened.add(canonical)
        self._live[canonical] = path
        self.inserted_total += 1

    def remove(self, path):
        """Drop a live path; its support set stays in the opened memory."""
        if self._live.get(path.canonical) is not path:
            raise ValueError("path is not live in this trie")
        del self._live[path.canonical]
