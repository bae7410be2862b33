"""Prefix-tree semantics: canonical ordering, equivalence memory, liveness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepursuit.astar import PathState
from treepursuit.linalg import IncrementalFactorization
from treepursuit.trie import SearchTrie


class FakePath:
    def __init__(self, support):
        self.support = tuple(support)
        self.canonical = ()
        self.node = None


def test_canonical_sorts_by_priority_not_index():
    # priority order: atom 3 highest, then 1, 4, 0, 2
    trie = SearchTrie([3, 1, 4, 0, 2])
    assert trie.canonical((0, 1, 2)) == (1, 0, 2)
    assert trie.canonical((2, 3)) == (3, 2)
    assert trie.canonical(()) == ()


def test_priority_order_must_be_permutation():
    with pytest.raises(ValueError):
        SearchTrie([0, 0, 1])
    with pytest.raises(ValueError):
        SearchTrie([0, 1, 5])


def test_equal_sets_in_any_order_collide():
    trie = SearchTrie(list(range(6)))
    trie.insert(FakePath((2, 4, 1)))
    assert trie.has_equivalent((1, 2, 4))
    assert trie.has_equivalent((4, 1, 2))
    assert not trie.has_equivalent((1, 2))
    assert not trie.has_equivalent((1, 2, 4, 5))


def test_duplicate_live_support_rejected():
    trie = SearchTrie(list(range(5)))
    trie.insert(FakePath((0, 3)))
    with pytest.raises(ValueError):
        trie.insert(FakePath((3, 0)))


def test_removed_path_still_counts_as_explored():
    trie = SearchTrie(list(range(5)))
    p = FakePath((1, 2))
    trie.insert(p)
    trie.remove(p)
    assert trie.live_count == 0
    assert trie.has_equivalent((2, 1))
    # a dead support may be re-opened; the structure allows it
    trie.insert(FakePath((1, 2)))
    assert trie.live_count == 1


def test_prefix_of_explored_path_is_not_equivalent():
    # (0, 1) lies on the node chain of (0, 1, 2) but was never itself a path
    trie = SearchTrie(list(range(4)))
    trie.insert(FakePath((0, 1, 2)))
    assert not trie.has_equivalent((0, 1))


def test_remove_requires_live_path():
    trie = SearchTrie(list(range(3)))
    p = FakePath((0,))
    with pytest.raises(ValueError):
        trie.remove(p)
    trie.insert(p)
    trie.remove(p)
    with pytest.raises(ValueError):
        trie.remove(p)


def test_paths_snapshot_does_not_alias():
    trie = SearchTrie(list(range(4)))
    a, b = FakePath((0,)), FakePath((1,))
    trie.insert(a)
    trie.insert(b)
    snap = trie.paths()
    trie.remove(a)
    assert len(snap) == 2
    assert trie.live_count == 1
    assert trie.inserted_total == 2


def test_remove_drops_exactly_the_given_object():
    # paths with equal field values are still distinct objects: the
    # registry must never confuse them, whatever their contents
    fact = IncrementalFactorization.empty(np.ones(3))
    a = PathState((0,), (1.0, 0.5), 0.5, fact)
    b = PathState((1,), (1.0, 0.5), 0.5, fact)
    twin = PathState((0,), (1.0, 0.5), 0.5, fact)
    assert a != twin
    trie = SearchTrie(list(range(4)))
    trie.insert(a)
    trie.insert(b)
    with pytest.raises(ValueError):
        trie.remove(twin)
    trie.remove(a)
    assert trie.paths() == [b]
    trie.insert(twin)
    assert trie.paths() == [b, twin]
    assert trie.paths()[1] is twin


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=60))
def test_registry_keeps_insertion_order_under_removals(ops):
    supports = [(a,) for a in range(6)] + [(a, b) for a in range(6) for b in range(a + 1, 6)]
    trie = SearchTrie(list(range(6)))
    live = []  # reference registry, insertion order
    for insert, pick in ops:
        if insert:
            taken = {p.canonical for p in live}
            free = [s for s in supports if trie.canonical(s) not in taken]
            if not free:
                continue
            path = FakePath(free[pick % len(free)])
            trie.insert(path)
            live.append(path)
        elif live:
            path = live.pop(pick % len(live))
            trie.remove(path)
            assert path.node is None
        got = trie.paths()
        assert len(got) == len(live) == trie.live_count
        assert all(g is want for g, want in zip(got, live))
