"""Kernel checks: correlation scores, top-k selection, incremental QR.

The projection oracle is numpy's own dense least squares; the incremental
factorization must agree with it to tight tolerance on every prefix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepursuit.linalg import (
    IncrementalFactorization,
    SingularSupportError,
    _top_few,
    check_problem,
    correlations,
    project,
    top_indices,
)


def test_correlations_matches_manual_dots():
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(10, 7))
    r = rng.normal(size=10)
    scores = correlations(phi, r)
    for j in range(7):
        assert scores[j] == pytest.approx(abs(float(phi[:, j] @ r)), abs=1e-15)
    assert (scores >= 0).all()


def test_correlations_rejects_bad_shapes():
    with pytest.raises(ValueError):
        correlations(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        correlations(np.zeros(3), np.zeros(3))


def test_top_indices_orders_by_score_then_index():
    scores = np.array([0.5, 2.0, 2.0, 0.1, 2.0])
    assert top_indices(scores, 4) == [1, 2, 4, 0]


def test_top_indices_exclusion_and_bounds():
    scores = np.array([3.0, 2.0, 1.0])
    assert top_indices(scores, 2, exclude={0}) == [1, 2]
    with pytest.raises(ValueError):
        top_indices(scores, 3, exclude={0})
    with pytest.raises(ValueError):
        top_indices(scores, 0)


def test_top_indices_ties_are_deterministic_over_permutations():
    rng = np.random.default_rng(3)
    scores = np.repeat([1.0, 2.0, 3.0], 4)
    for _ in range(20):
        rng.shuffle(scores)
        picked = top_indices(scores, 5)
        resorted = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        assert picked == resorted[:5]


def test_incremental_matches_dense_least_squares_on_every_prefix():
    rng = np.random.default_rng(11)
    for trial in range(25):
        m, n = 12, 20
        phi = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        support = rng.choice(n, size=8, replace=False)
        fact = IncrementalFactorization.empty(y)
        for depth, j in enumerate(support, start=1):
            fact = fact.appended(j, phi[:, j])
            sub = phi[:, support[:depth]]
            z_ref, *_ = np.linalg.lstsq(sub, y, rcond=None)
            r_ref = y - sub @ z_ref
            scale = max(1.0, float(np.linalg.norm(z_ref)))
            assert np.linalg.norm(fact.coefficients() - z_ref) <= 1e-8 * scale
            assert abs(fact.residue_norm - np.linalg.norm(r_ref)) <= 1e-8 * max(
                1.0, np.linalg.norm(y)
            )


def test_incremental_q_orthonormal_and_residue_orthogonal():
    rng = np.random.default_rng(4)
    for trial in range(10):
        phi = rng.normal(size=(16, 24))
        y = rng.normal(size=16)
        fact = IncrementalFactorization.empty(y)
        for j in rng.choice(24, size=10, replace=False):
            fact = fact.appended(j, phi[:, j])
        q = fact.q
        gram = q.T @ q
        assert np.max(np.abs(gram - np.eye(q.shape[1]))) < 1e-10
        held = np.abs(phi[:, list(fact.support)].T @ fact.residue)
        assert held.max() < 1e-10 * np.linalg.norm(y)


def test_appended_leaves_parent_untouched():
    rng = np.random.default_rng(9)
    phi = rng.normal(size=(8, 6))
    y = rng.normal(size=8)
    parent = IncrementalFactorization.empty(y).appended(0, phi[:, 0])
    frozen_support = parent.support
    frozen_residue = parent.residue.copy()
    left = parent.appended(1, phi[:, 1])
    right = parent.appended(2, phi[:, 2])
    assert parent.support == frozen_support
    assert np.array_equal(parent.residue, frozen_residue)
    assert left.support == (0, 1) and right.support == (0, 2)


def test_dependent_column_raises():
    rng = np.random.default_rng(21)
    phi = rng.normal(size=(10, 4))
    phi[:, 3] = 2.0 * phi[:, 0] - phi[:, 1]
    y = rng.normal(size=10)
    fact = IncrementalFactorization.empty(y)
    fact = fact.appended(0, phi[:, 0]).appended(1, phi[:, 1])
    with pytest.raises(SingularSupportError):
        fact.appended(3, phi[:, 3])
    with pytest.raises(SingularSupportError):
        fact.appended(2, np.zeros(10))


def test_project_matches_lstsq_and_validates():
    rng = np.random.default_rng(15)
    phi = rng.normal(size=(9, 14))
    y = rng.normal(size=9)
    support = [3, 7, 1]
    z, r = project(y, phi, support)
    z_ref, *_ = np.linalg.lstsq(phi[:, support], y, rcond=None)
    assert np.allclose(z, z_ref, atol=1e-9)
    assert np.allclose(r, y - phi[:, support] @ z_ref, atol=1e-9)
    with pytest.raises(ValueError):
        project(y, phi, [99])
    with pytest.raises(ValueError):
        project(y, phi, list(range(10)))
    z, r = project(y, phi, [])
    assert z.size == 0
    assert np.array_equal(r, y) and r is not y


def test_empty_factorization_residue_is_y():
    y = np.array([1.0, -2.0, 3.0])
    fact = IncrementalFactorization.empty(y)
    assert fact.length == 0
    assert np.array_equal(fact.residue, y)
    assert fact.coefficients().size == 0


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), min_size=1, max_size=30),
    data=st.data(),
)
def test_top_indices_matches_sorted_reference(scores, data):
    n = len(scores)
    excluded = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    form = data.draw(st.sampled_from([set, tuple, list]))
    available = n - len(set(excluded))
    reference = [
        i for i in sorted(range(n), key=lambda i: (-scores[i], i)) if i not in set(excluded)
    ]
    if available == 0:
        with pytest.raises(ValueError):
            top_indices(scores, 1, exclude=form(excluded))
        return
    count = data.draw(st.integers(1, available))
    picked = top_indices(np.array(scores), count, exclude=form(excluded))
    assert picked == reference[:count]
    assert all(type(i) is int for i in picked)
    # the unchecked kernel of the solver inner loops, on the same draw
    few = _top_few(np.array(scores), count, form(excluded))
    assert few == reference[:count]
    assert all(type(i) is int for i in few)
    with pytest.raises(ValueError):
        top_indices(scores, available + 1, exclude=form(excluded))


def _chain(y, phi, support):
    fact = IncrementalFactorization.empty(y)
    for j in support:
        fact = fact.appended(j, phi[:, j])
    return fact


def _eager_chain(y, phi, support):
    """Reference: every append copies Q, R and Q^T y at once, with the same
    arithmetic as the lazy factorization, so results must agree bit for bit."""
    m = y.shape[0]
    q, rmat, qty, residue = np.empty((m, 0)), np.empty((0, 0)), np.empty(0), y.copy()
    for j in support:
        v = phi[:, j].copy()
        coef = q.T @ v
        v -= q @ coef
        extra = q.T @ v
        v -= q @ extra
        coef += extra
        vnorm = float(np.linalg.norm(v))
        qhat = v / vnorm
        l = q.shape[1]
        grown = np.zeros((l + 1, l + 1))
        grown[:l, :l] = rmat
        grown[:l, l] = coef
        grown[l, l] = vnorm
        proj = float(qhat @ residue)
        q, rmat = np.column_stack([q, qhat]), grown
        qty = np.append(qty, proj)
        residue = residue - proj * qhat
    return q, rmat, qty, residue


def _values(fact):
    return fact.q.copy(), fact.rmat.copy(), fact.qty.copy(), fact.coefficients()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(3, 10),
    steps=st.lists(
        st.tuples(
            st.integers(0, 10**6),  # which existing factorization to extend
            st.integers(0, 10**6),  # which atom to append
            st.booleans(),  # read the parent before appending to it
            st.sampled_from(["none", "q", "rmat", "qty", "coefficients"]),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_factorization_branches_agree_with_lstsq(seed, m, steps):
    # sibling branches appended from one parent in any order, with reads
    # before and after the siblings, give the values of an eager chain of
    # appends along the same support, and those agree with dense lstsq
    rng = np.random.default_rng(seed)
    n = m + 4
    phi = rng.normal(size=(m, n))
    y = rng.normal(size=m)
    nodes = [IncrementalFactorization.empty(y)]
    seen = {}
    for pick, atom, read_parent, read in steps:
        parent = nodes[pick % len(nodes)]
        before = _values(parent) if read_parent and parent.length else None
        j = atom % n
        if j in parent.support:
            with pytest.raises(SingularSupportError):
                parent.appended(j, phi[:, j])
            continue
        if parent.length >= m - 1:
            continue
        child = parent.appended(j, phi[:, j])
        nodes.append(child)
        if read == "coefficients":
            child.coefficients()
        elif read != "none":
            getattr(child, read)
        if before is not None:
            for old, new in zip(before, _values(parent)):
                assert np.array_equal(old, new)
        # read some earlier node again, after its siblings were appended
        other = nodes[atom % len(nodes)]
        if other.length:
            seen.setdefault(id(other), (other, _values(other)))
    for node, frozen in seen.values():
        for old, new in zip(frozen, _values(node)):
            assert np.array_equal(old, new)
    for node in nodes[1:]:
        q, rmat, qty, residue = _eager_chain(y, phi, node.support)
        assert np.array_equal(node.q, q)
        assert np.array_equal(node.rmat, rmat)
        assert np.array_equal(node.qty, qty)
        assert np.array_equal(node.residue, residue)
        assert node.residue_norm == float(np.linalg.norm(residue))
        assert node.length == len(node.support)
        sub = phi[:, list(node.support)]
        z_ref, *_ = np.linalg.lstsq(sub, y, rcond=None)
        tol = 1e-10 * np.linalg.cond(sub) * max(1.0, float(np.linalg.norm(z_ref)))
        assert np.linalg.norm(node.coefficients() - z_ref) <= tol
        assert np.allclose(node.q @ node.rmat, sub, atol=1e-10)
        assert np.allclose(node.residue, y - sub @ z_ref, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 9), data=st.data())
def test_dependent_and_zero_columns_raise_on_lazy_children(seed, m, data):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(m, m + 2))
    y = rng.normal(size=m)
    support = data.draw(st.lists(st.integers(0, m + 1), min_size=1, max_size=m - 1, unique=True))
    fact = _chain(y, phi, support)  # the last append is still unmaterialized
    with pytest.raises(SingularSupportError):
        fact.appended(support[-1], phi[:, support[-1]])
    with pytest.raises(SingularSupportError):
        fact.appended(m + 2, np.zeros(m))
    weights = rng.normal(size=len(support))
    with pytest.raises(SingularSupportError):
        fact.appended(m + 3, phi[:, support] @ weights)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12), data=st.data())
def test_project_agrees_with_lstsq_and_the_incremental_factorization(seed, m, data):
    rng = np.random.default_rng(seed)
    n = m + 4
    phi = rng.normal(size=(m, n))
    y = rng.normal(size=m)
    support = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=m - 1, unique=True))
    z, r = project(y, phi, support)
    sub = phi[:, support]
    z_ref, *_ = np.linalg.lstsq(sub, y, rcond=None)
    tol = 1e-9 * np.linalg.cond(sub) * max(1.0, float(np.linalg.norm(z_ref)))
    fact = _chain(y, phi, support)
    assert np.linalg.norm(z - z_ref) <= tol
    assert np.linalg.norm(z - fact.coefficients()) <= tol
    assert np.allclose(r, y - sub @ z_ref, atol=1e-9)
    assert np.allclose(r, fact.residue, atol=1e-9)

    # a repeated atom, a zero column anywhere, a combination of earlier columns
    with pytest.raises(SingularSupportError):
        project(y, phi, support + [data.draw(st.sampled_from(support))])
    zeroed = np.column_stack([phi, np.zeros(m)])
    at = data.draw(st.integers(0, len(support)))
    with pytest.raises(SingularSupportError, match="atom %d" % n) as err:
        project(y, zeroed, support[:at] + [n] + support[at:])
    assert err.value.atom == n
    combined = np.column_stack([phi, sub @ rng.normal(size=len(support))])
    with pytest.raises(SingularSupportError, match="atom %d" % n) as err:
        project(y, combined, support + [n])
    assert err.value.atom == n


def test_check_problem_rejects_bad_input():
    phi = np.eye(3)
    y = np.ones(3)
    got_phi, got_y = check_problem(phi.tolist(), y.tolist())
    assert got_phi.dtype == float and got_y.dtype == float
    with pytest.raises(ValueError, match="NaN"):
        check_problem(phi, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match="phi contains"):
        check_problem(np.diag([1.0, np.inf, 1.0]), y)
    with pytest.raises(ValueError, match="phi must be real"):
        check_problem(phi + 0j, y)
    with pytest.raises(ValueError, match="y must be real"):
        check_problem(phi, [1.0, 2.0, 1j])
    with pytest.raises(ValueError, match="length M"):
        check_problem(phi, np.ones(4))
    with pytest.raises(ValueError, match="length M"):
        check_problem(np.ones(3), y)
