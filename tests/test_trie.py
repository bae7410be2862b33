"""Path registry semantics: the sorted-support key, equivalence memory,
liveness, cost order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepursuit.astar import PathState
from treepursuit.linalg import IncrementalFactorization, check_problem
from treepursuit.trie import SearchTrie

KMAX = 5  # longer than every path below except where a test says otherwise


class FakePath:
    def __init__(self, support, cost=0.0):
        self.support = tuple(support)
        self.cost = cost
        self.canonical = tuple(sorted(self.support))


class SealedPath(FakePath):
    """A FakePath that refuses every attribute write once built."""

    def __init__(self, support, cost=0.0):
        super().__init__(support, cost)
        self._sealed = True

    def __setattr__(self, name, value):
        if getattr(self, "_sealed", False):
            raise AttributeError("sealed path, cannot set %r" % name)
        super().__setattr__(name, value)


def test_equal_sets_in_any_order_collide():
    # a path's key is its sorted support, derived when the path is built
    fact = IncrementalFactorization.empty(check_problem(np.ones((3, 1)), np.ones(3)))
    a = PathState((2, 4, 1), (1.0,) * 4, 0.5, fact)
    b = PathState((4, 1, 2), (1.0,) * 4, 0.5, fact)
    assert a.canonical == b.canonical == (1, 2, 4)
    trie = SearchTrie(KMAX)
    trie.insert(a)
    with pytest.raises(ValueError):
        trie.insert(b)
    assert trie.has_equivalent((1, 2, 4))
    assert not trie.has_equivalent((1, 2))
    assert not trie.has_equivalent((1, 2, 4, 5))


def test_registry_never_writes_to_a_path():
    trie = SearchTrie(KMAX)
    a, b = SealedPath((3, 1), 1.0), SealedPath((0,), 2.0)
    trie.insert(a)
    trie.insert(b)
    trie.close(b)
    trie.remove(a)
    assert trie.paths() == [b]
    assert trie.cheapest_open() is None
    assert trie.has_equivalent((1, 3))


def test_duplicate_live_support_rejected():
    trie = SearchTrie(KMAX)
    trie.insert(FakePath((0, 3)))
    with pytest.raises(ValueError):
        trie.insert(FakePath((3, 0)))


def test_removed_path_still_counts_as_explored():
    trie = SearchTrie(KMAX)
    p = FakePath((1, 2))
    trie.insert(p)
    trie.remove(p)
    assert trie.live_count == 0
    assert trie.has_equivalent((1, 2))
    # a dead support may be re-opened; the structure allows it
    trie.insert(FakePath((1, 2)))
    assert trie.live_count == 1


def test_prefix_of_explored_path_is_not_equivalent():
    # (0, 1) is a prefix of the opened (0, 1, 2) but was never itself a path
    trie = SearchTrie(KMAX)
    trie.insert(FakePath((0, 1, 2)))
    assert not trie.has_equivalent((0, 1))


def test_remove_requires_live_path():
    trie = SearchTrie(KMAX)
    p = FakePath((0,))
    with pytest.raises(ValueError):
        trie.remove(p)
    trie.insert(p)
    trie.remove(p)
    with pytest.raises(ValueError):
        trie.remove(p)


def test_paths_snapshot_does_not_alias():
    trie = SearchTrie(KMAX)
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
    fact = IncrementalFactorization.empty(check_problem(np.ones((3, 1)), np.ones(3)))
    a = PathState((0,), (1.0, 0.5), 0.5, fact)
    b = PathState((1,), (1.0, 0.5), 0.5, fact)
    twin = PathState((0,), (1.0, 0.5), 0.5, fact)
    assert a != twin
    trie = SearchTrie(KMAX)
    trie.insert(a)
    trie.insert(b)
    with pytest.raises(ValueError):
        trie.remove(twin)
    trie.remove(a)
    assert trie.paths() == [b]
    trie.insert(twin)
    # equal costs and lengths: the smaller support (0,) comes first
    assert trie.paths() == [twin, b]
    assert trie.paths()[0] is twin


def test_remove_after_a_cost_change_raises_and_keeps_the_registry():
    # the order holds the cost a path was inserted with; a path whose cost
    # changed while live is not found there, and no neighbour is dropped
    trie = SearchTrie(KMAX)
    a, b, c = FakePath((0,), 1.0), FakePath((1,), 2.0), FakePath((2,), 3.0)
    for p in (a, b, c):
        trie.insert(p)
    for changed in (1.0, 2.5, 3.0, 9.0, 0.0):
        b.cost = changed
        with pytest.raises(ValueError, match="cost changed"):
            trie.remove(b)
        assert trie.paths() == [a, b, c]
        assert trie.live_count == 3
        assert trie.cheapest() is a and trie.costliest() is c
    b.cost = 2.0
    trie.remove(b)
    assert trie.paths() == [a, c]


def test_a_head_or_tail_is_taken_only_at_its_inserted_cost():
    # the open head and the tails are taken without a search, but only
    # while their cost is the one they were inserted with
    trie = SearchTrie(KMAX)
    head, tail, closed = FakePath((0,), 1.0), FakePath((1,), 3.0), FakePath(range(KMAX), 2.0)
    for p in (head, tail, closed):
        trie.insert(p)
    for path in (head, tail, closed):
        path.cost += 0.5
        with pytest.raises(ValueError, match="cost changed"):
            trie.remove(path)
        assert trie.live_count == 3
        path.cost -= 0.5
    trie.close(head)
    trie.remove(tail)
    assert trie.paths() == [head, closed]
    assert trie.cheapest_open() is None
    trie.remove(closed)
    trie.remove(head)
    assert trie.live_count == 0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_registry_keeps_cost_order_under_removals(data):
    # model-based: the open, closed and removed paths and every support
    # ever opened (as frozensets) against the registry, with each support
    # drawn in a random atom order and each cost from a small set, so ties
    # occur, and some paths long enough to be filed closed at insertion;
    # the order, the cheapest open, the cheapest and the costliest path
    # against a brute-force sort of the two sets
    kmax = 3
    trie = SearchTrie(kmax)
    open_, closed, dead, opened = set(), set(), [], set()
    inserts = 0
    ops = ["insert", "remove", "remove-dead", "close", "close-closed"]
    for _ in range(data.draw(st.integers(0, 60), label="steps")):
        op = data.draw(st.sampled_from(ops), label="op")
        atoms = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True))
        support = tuple(data.draw(st.permutations(atoms), label="support"))
        live = _by_cost(open_ | closed)
        if op == "insert":
            path = FakePath(support, data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="cost"))
            if frozenset(support) in {frozenset(p.support) for p in live}:
                with pytest.raises(ValueError):
                    trie.insert(path)
            else:
                trie.insert(path)
                (closed if len(support) >= kmax else open_).add(path)
                opened.add(frozenset(support))
                inserts += 1
        elif op == "remove" and live:
            path = live[data.draw(st.integers(0, len(live) - 1), label="pick")]
            trie.remove(path)
            open_.discard(path)
            closed.discard(path)
            dead.append(path)
        elif op == "close" and open_:
            path = data.draw(st.sampled_from(_by_cost(open_)), label="pick")
            trie.close(path)
            open_.remove(path)
            closed.add(path)
        elif op == "close-closed" and closed:
            # a closed path is not open, so it cannot be closed again
            with pytest.raises(ValueError):
                trie.close(data.draw(st.sampled_from(_by_cost(closed)), label="pick"))
        else:
            # a removed path, maybe sharing its support with a live one, or
            # a path never inserted
            path = data.draw(st.sampled_from(dead)) if dead else FakePath(support)
            with pytest.raises(ValueError):
                trie.remove(path)
            with pytest.raises(ValueError):
                trie.close(path)
        assert trie.has_equivalent(tuple(sorted(support))) == (frozenset(support) in opened)
        got = trie.paths()
        want = _by_cost(open_ | closed)
        assert len(got) == len(want) == trie.live_count
        assert all(g is w for g, w in zip(got, want))
        want_open = _by_cost(open_)
        assert trie.cheapest_open() is (want_open[0] if want_open else None)
        assert trie.cheapest() is (want[0] if want else None)
        assert trie.costliest() is (want[-1] if want else None)
        assert trie.inserted_total == inserts


def _by_cost(paths):
    return sorted(paths, key=lambda p: (p.cost, len(p.support), tuple(sorted(p.support))))
