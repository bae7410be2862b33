"""Kernel checks: correlation scores, top-k selection, incremental QR.

The projection oracle is numpy's own dense least squares; the incremental
factorization must agree with it to tight tolerance on every prefix.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treepursuit.linalg import (
    IncrementalFactorization,
    SingularSupportError,
    _norm,
    _project,
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
        fact = IncrementalFactorization.empty(check_problem(phi, y))
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
        fact = IncrementalFactorization.empty(check_problem(phi, y))
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
    parent = IncrementalFactorization.empty(check_problem(phi, y)).appended(0, phi[:, 0])
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
    fact = IncrementalFactorization.empty(check_problem(phi, y))
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
    problem = check_problem(phi, y)
    z, r = project(problem, support)
    z_ref, *_ = np.linalg.lstsq(phi[:, support], y, rcond=None)
    assert np.allclose(z, z_ref, atol=1e-9)
    assert np.allclose(r, y - phi[:, support] @ z_ref, atol=1e-9)
    with pytest.raises(ValueError):
        project(problem, [99])
    with pytest.raises(ValueError):
        project(problem, list(range(10)))
    z, r = project(problem, [])
    assert z.size == 0
    assert np.array_equal(r, y) and r is not y


def test_empty_factorization_residue_is_y():
    y = np.array([1.0, -2.0, 3.0])
    fact = IncrementalFactorization.empty(check_problem(np.eye(3), y))
    assert fact.length == 0
    assert np.array_equal(fact.residue, y)
    z = fact.coefficients()
    assert z.dtype == np.float64 and z.shape == (0,)


def test_the_coefficient_of_one_atom_is_its_qty_over_its_diagonal():
    rng = np.random.default_rng(6)
    phi = rng.normal(size=(5, 3))
    problem = check_problem(phi, rng.normal(size=5))
    for fact in (IncrementalFactorization.empty(problem).appended(2, phi[:, 2]),
                 IncrementalFactorization.empty(problem)._priced(2, 0.0)):
        (_, diag, proj), = fact._columns
        z = fact.coefficients()
        assert z.dtype == np.float64 and z.tolist() == [proj / diag]


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


@settings(max_examples=200, deadline=None)
@given(
    free=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=12),
    data=st.data(),
)
def test_top_few_masks_the_exclusion_once_an_excluded_index_wins(free, data):
    # excluded indices hold the largest scores or tie with free indices
    # before or after them, so the argmax passes reach an excluded index
    # and _top_few falls back to masking the exclusion
    n = len(free) + data.draw(st.integers(1, 6))
    excluded = data.draw(st.lists(st.integers(0, n - 1), min_size=n - len(free),
                                  max_size=n - len(free), unique=True))
    free_at = [i for i in range(n) if i not in excluded]
    scores = np.empty(n)
    scores[free_at] = free
    for i in excluded:
        scores[i] = data.draw(st.sampled_from([3.0] + free), label="excluded score")
    count = data.draw(st.integers(1, len(free_at)))
    reference = [i for i in sorted(range(n), key=lambda i: (-scores[i], i)) if i not in excluded]
    form = data.draw(st.sampled_from([set, tuple, list]))
    assert _top_few(scores.copy(), count, form(excluded)) == reference[:count]


def test_top_few_fallback_cases():
    # an excluded winner, and excluded ties after and before a free index
    for scores, exclude, count, picks in [
        ([1.0, 3.0, 2.0], (1,), 2, [2, 0]),
        ([2.0, 2.0, 1.0], (1,), 2, [0, 2]),
        ([2.0, 2.0, 1.0], (0,), 1, [1]),
        ([0.0, 0.0, 0.0, 0.0], [0, 2], 2, [1, 3]),
    ]:
        for form in (set, tuple, list):
            assert _top_few(np.array(scores), count, form(exclude)) == picks


def _chain(y, phi, support):
    fact = IncrementalFactorization.empty(check_problem(phi, y))
    for j in support:
        fact = fact.appended(j, phi[:, j])
    return fact


def _eager_chain(y, phi, support):
    """Reference: every append copies Q^T, R and Q^T y at once, with the
    same arithmetic as the lazy factorization, Q stored by rows, so results
    must agree bit for bit.  A second Gram-Schmidt pass runs only when the
    first leaves less than 1/sqrt(2) of the column's norm.  Returns Q as
    the transposed view of the rows."""
    m = y.shape[0]
    qt, rmat, qty, residue = np.empty((0, m)), np.empty((0, 0)), np.empty(0), y.copy()
    for j in support:
        v = phi[:, j].copy()
        colnorm = float(np.linalg.norm(v))
        coef = qt @ v
        v -= coef @ qt
        vnorm = float(np.linalg.norm(v))
        if vnorm < 1.0 / np.sqrt(2.0) * colnorm:
            extra = qt @ v
            v -= extra @ qt
            coef += extra
            vnorm = float(np.linalg.norm(v))
        qhat = v / vnorm
        l = qt.shape[0]
        grown = np.zeros((l + 1, l + 1))
        grown[:l, :l] = rmat
        grown[:l, l] = coef
        grown[l, l] = vnorm
        proj = float(qhat @ residue)
        qt, rmat = np.vstack([qt, qhat]), grown
        qty = np.append(qty, proj)
        residue = residue - proj * qhat
    return qt.T, rmat, qty, residue


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
    nodes = [IncrementalFactorization.empty(check_problem(phi, y))]
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
        # q is the transposed view of the stored rows, not a copy
        assert node.q.shape == q.shape and np.shares_memory(node.q, node._q)
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


def _off_span(rng, sub, distance):
    """A column at relative distance `distance` from the span of `sub`'s
    columns: a combination of them plus that share of a unit vector
    orthogonal to them."""
    q, _ = np.linalg.qr(sub, mode="complete")
    inside = sub @ rng.normal(size=sub.shape[1])
    away = q[:, sub.shape[1]:] @ rng.normal(size=sub.shape[0] - sub.shape[1])
    return inside + distance * np.linalg.norm(inside) * away / np.linalg.norm(away)


@st.composite
def nearly_dependent_chains(draw):
    """(seed, m, length, distance, extra): `length` Gaussian columns, one
    at relative `distance` from their span and two more Gaussian ones,
    drawn from `seed`; the support is the first length + 1 columns, then
    the atoms `extra` of the last two."""
    m = draw(st.integers(4, 12))
    length = draw(st.integers(1, m - 2))
    distance = draw(st.sampled_from([1e-4, 1e-6, 1e-8]))
    extra = draw(st.lists(st.sampled_from([length + 1, length + 2]),
                          max_size=m - length - 1, unique=True))
    return draw(st.integers(0, 2**32 - 1)), m, length, distance, extra


def _nearly_dependent_problem(case):
    # (phi, y, support) of a `nearly_dependent_chains` case
    seed, m, length, distance, extra = case
    rng = np.random.default_rng(seed)
    sub = rng.normal(size=(m, length))
    phi = np.column_stack([sub, _off_span(rng, sub, distance), rng.normal(size=(m, 2))])
    return phi, rng.normal(size=m), list(range(length + 1)) + extra


@settings(max_examples=40, deadline=None)
@given(case=nearly_dependent_chains())
# cond 3.0e6 and ||r|| = 0.667 ||y||: the error is 2.0e-4, over a bound
# without the cond^2 term
@example(case=(58667, 11, 3, 1e-6, [4, 5]))
def test_nearly_dependent_columns_agree_with_lstsq(case):
    # the appended column lies close to the span of the support before it,
    # so the first Gram-Schmidt pass leaves less than 1/sqrt(2) of its norm
    # in a short v whose rounding error is a share of about eps / distance
    # of v instead of eps; the second pass runs and adds its `extra` to the
    # R column, which is still the eager chain's, bit for bit, and the
    # coefficients agree with dense lstsq within the first-order bound of
    # least squares, 8 eps cond (||z|| + cond ||r|| / ||A||) (Wedin; Higham,
    # Accuracy and Stability of Numerical Algorithms, ch. 20): its cond^2
    # term is most of it when the residual r is not small
    phi, y, support = _nearly_dependent_problem(case)
    fact = _chain(y, phi, support)
    q, rmat, qty, residue = _eager_chain(y, phi, support)
    assert np.array_equal(fact.rmat, rmat) and np.array_equal(fact.qty, qty)
    block = phi[:, support]
    z_ref, *_ = np.linalg.lstsq(block, y, rcond=None)
    singular = np.linalg.svd(block, compute_uv=False)
    cond = singular[0] / singular[-1]
    rnorm = np.linalg.norm(y - block @ z_ref)
    tol = 8 * np.finfo(float).eps * cond * (np.linalg.norm(z_ref) + cond * rnorm / singular[0])
    assert np.linalg.norm(fact.coefficients() - z_ref) <= tol
    assert np.allclose(fact.q @ fact.rmat, block, atol=1e-12 * np.abs(block).max())
    # the residue of a least-squares problem moves by up to about
    # cond * eps * ||y|| under rounding
    basis, _ = np.linalg.qr(block)
    drift = np.linalg.norm(fact.residue - (y - basis @ (basis.T @ y)))
    assert drift <= 1e-14 * np.linalg.cond(block) * np.linalg.norm(y)


@st.composite
def triangular_chains(draw):
    """(phi, y, support, build): a chain of 0..25 Gaussian atoms, or a
    `nearly_dependent_chains` one, built by `appended` or by `_priced`."""
    build = draw(st.sampled_from(["appended", "priced"]))
    if draw(st.booleans()):
        return (*_nearly_dependent_problem(draw(nearly_dependent_chains())), build)
    m = draw(st.integers(1, 30))
    length = draw(st.integers(0, min(25, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = draw(st.permutations(range(length + 3)))[:length]
    return rng.normal(size=(m, length + 3)), rng.normal(size=m), support, build


@settings(max_examples=100, deadline=None)
@given(triangular_chains())
def test_coefficients_solve_r_with_a_small_backward_error(case):
    # on every prefix, the back-substituted z solves R z = Q^T y with the
    # backward error of a triangular solve (Higham, Accuracy and Stability
    # of Numerical Algorithms, Thm 8.5): |R z - Q^T y| <= gamma_l |R| |z|
    # elementwise, gamma_l ~ l eps / 2, held to 2 l eps with R z - Q^T y
    # taken exactly
    phi, y, support, build = case
    fact = IncrementalFactorization.empty(check_problem(phi, y))
    eps = np.finfo(float).eps
    for j in [None] + list(support):
        if j is not None:
            fact = fact.appended(j, phi[:, j]) if build == "appended" else fact._priced(j, 0.0)
        rmat, qty, z = fact.rmat, fact.qty, fact.coefficients()
        l = fact.length
        assert z.dtype == np.float64 and z.shape == (l,)
        scale = np.abs(rmat) @ np.abs(z)
        for i in range(l):
            exact = sum(Fraction(rmat[i, c]) * Fraction(z[c]) for c in range(i, l))
            assert abs(exact - Fraction(qty[i])) <= 2 * l * eps * scale[i]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 16), data=st.data())
def test_q_stays_orthonormal_past_a_nearly_dependent_column(seed, m, data):
    # one column of the chain lies 1e-4..1e-8 of its norm from the span of
    # the columns before it: the first Gram-Schmidt pass leaves less than
    # 1/sqrt(2) of its norm, so the second pass runs and Q stays orthonormal
    # to working precision, as does the residue to Q, along the whole chain
    rng = np.random.default_rng(seed)
    length = data.draw(st.integers(2, m - 1))
    near = data.draw(st.integers(1, length - 1))
    distance = data.draw(st.sampled_from([1e-4, 1e-6, 1e-8]))
    phi = rng.normal(size=(m, length))
    phi[:, near] = _off_span(rng, phi[:, :near], distance)
    y = rng.normal(size=m)
    fact = _chain(y, phi, range(length))
    q = fact.q
    assert np.abs(q.T @ q - np.eye(length)).max() <= 1e-13
    assert np.abs(q.T @ fact.residue).max() <= 1e-13 * np.linalg.norm(y)


@pytest.mark.parametrize("seed", range(5))
def test_dependency_tolerance_is_relative_1e12(seed):
    # a column 1e-10 of its norm away from the span of the support is
    # independent, one 1e-14 away is dependent, for the incremental
    # factorization and for the whole-support kernel behind project
    rng = np.random.default_rng(seed)
    m, length = 12, 5
    sub = rng.normal(size=(m, length))
    y = rng.normal(size=m)
    fact = _chain(y, sub, range(length))
    for distance, independent in ((1e-10, True), (1e-14, False)):
        phi = np.column_stack([sub, _off_span(rng, sub, distance)])
        support = list(range(length + 1))
        if independent:
            assert fact.appended(length, phi[:, length]).length == length + 1
            assert project(check_problem(phi, y), support)[0].shape == (length + 1,)
            continue
        with pytest.raises(SingularSupportError):
            fact.appended(length, phi[:, length])
        with pytest.raises(SingularSupportError, match="atom %d" % length):
            project(check_problem(phi, y), support)


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
    z, r = project(check_problem(phi, y), support)
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
        project(check_problem(phi, y), support + [data.draw(st.sampled_from(support))])
    zeroed = np.column_stack([phi, np.zeros(m)])
    at = data.draw(st.integers(0, len(support)))
    with pytest.raises(SingularSupportError, match="atom %d" % n) as err:
        project(check_problem(zeroed, y), support[:at] + [n] + support[at:])
    assert err.value.atom == n
    combined = np.column_stack([phi, sub @ rng.normal(size=len(support))])
    with pytest.raises(SingularSupportError, match="atom %d" % n) as err:
        project(check_problem(combined, y), support + [n])
    assert err.value.atom == n


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 10),
    integer=st.booleans(),
    data=st.data(),
)
def test_prepared_projection_equals_project_bit_for_bit(seed, m, integer, data):
    # SP and FBP call `_project` on one problem per solve, whose block and
    # column norms are built once; twin and zero columns make many
    # supports dependent.  The checked `project` on a fresh problem gives
    # the same bits and names the same atom, whatever the layout of the
    # arrays the problems were checked from
    rng = np.random.default_rng(seed)
    n = m + 5
    phi = rng.integers(-2, 3, size=(m, n)).astype(float) if integer else rng.normal(size=(m, n))
    twins = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    phi[:, twins] = phi[:, data.draw(st.lists(st.integers(0, n - 1), min_size=len(twins),
                                              max_size=len(twins)))]
    phi[:, data.draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    y = rng.normal(size=m)
    wide = np.zeros((m, 2))
    wide[:, 0] = y
    prepared = check_problem(np.asfortranarray(phi), wide[:, 0])
    for _ in range(2):  # the second pass reads the block and norms the first built
        support = data.draw(st.lists(st.integers(0, n - 1), max_size=m, unique=True))
        try:
            z, r = project(check_problem(phi, y), support)
        except SingularSupportError as err:
            with pytest.raises(SingularSupportError) as again:
                _project(prepared, support)
            assert again.value.atom == err.atom
        else:
            z_again, r_again = _project(prepared, support)
            assert z_again.tobytes() == z.tobytes()
            assert r_again.tobytes() == r.tobytes()


def test_check_problem_rejects_bad_input():
    phi = np.eye(3)
    y = np.ones(3)
    problem = check_problem(phi.tolist(), y.tolist())
    assert problem.phi.dtype == float and problem.y.dtype == float
    assert problem.ynorm == math.sqrt(3.0)
    # a C-ordered float64 phi and a contiguous y are not copied; any other
    # layout is, to C order
    problem = check_problem(phi, y)
    assert problem.phi is phi and problem.y is y
    strided = check_problem(np.asfortranarray(phi[:, ::-1]), np.ones(6)[::2])
    assert strided.phi.flags.c_contiguous and strided.y.flags.c_contiguous
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


@st.composite
def priced_chains(draw):
    """(phi, y, support, limit): a Gaussian, integer or twin-column phi and
    the atoms of a chain of priced children along it."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "integer", "twins"]))
    if kind == "integer":
        phi = rng.integers(-3, 4, size=(m, n)).astype(float)
    else:
        phi = rng.normal(size=(m, n))
    if kind == "twins":
        phi = np.repeat(phi, 2, axis=1)[:, :n]
    if kind == "integer" and draw(st.booleans()):
        y = phi @ rng.integers(-2, 3, size=n).astype(float)
    else:
        y = rng.normal(size=m)
    support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=m, unique=True))
    limit = draw(st.sampled_from([0.0, 1e-6, 0.5])) * np.linalg.norm(y)
    return phi, y, support, limit


@settings(max_examples=200, deadline=None)
@given(priced_chains())
def test_priced_children_agree_with_a_whole_support_projection(case):
    # each child is priced from its parent's correlations and squared
    # norm, its residue formed only when read; along the chain its norm,
    # its formed residue and its coefficients are those of a projection of
    # y on the whole support
    phi, y, support, limit = case
    ynorm = np.linalg.norm(y)
    fact = IncrementalFactorization.empty(check_problem(phi, y))
    for j in support:
        try:
            fact = fact._priced(j, limit)
        except SingularSupportError:
            break
        sub = phi[:, list(fact.support)]
        z, r = project(check_problem(phi, y), list(fact.support))
        ref = np.linalg.norm(r)
        # a residue at rounding level has no relative accuracy to keep
        floor = 1e-15 * np.linalg.cond(sub) * ynorm
        assert abs(fact.residue_norm - ref) <= 1e-12 * ref + floor
        assert np.linalg.norm(fact.residue - r) <= 1e-12 * ynorm + floor
        z_ref, *_ = np.linalg.lstsq(sub, y, rcond=None)
        tol = 1e-12 * np.linalg.cond(sub) * max(1.0, float(np.linalg.norm(z_ref)))
        assert np.linalg.norm(fact.coefficients() - z_ref) <= tol


def _built_formed(parent, j, phi, limit):
    """The child `_priced` builds, after checking that it was formed at
    once, by the arithmetic of `appended`, bit for bit."""
    child = parent._priced(j, limit)
    assert child._residue is not None
    reference = parent.appended(j, phi[:, j])
    assert np.array_equal(child.residue, reference.residue)
    assert child.qty.tobytes() == reference.qty.tobytes()
    assert child.residue_norm == reference.residue_norm == _norm(child.residue)
    return child


def test_a_second_gram_schmidt_pass_builds_a_formed_child():
    # atom 1 lies 1e-3 of its norm from atom 0, so its first pass leaves
    # 1e-3 of the column; its residue drop (0.01 of 1.01) and the limit 0
    # would have allowed a priced child
    phi = np.array([[1.0, 1.0], [0.0, 1e-3], [0.0, 0.0]])
    y = np.array([0.0, 0.1, 1.0])
    first = IncrementalFactorization.empty(check_problem(phi, y))._priced(0, 0.0)
    assert first._residue is None
    _built_formed(first, 1, phi, 0.0)


def test_a_residue_drop_below_half_builds_a_formed_child():
    # on orthonormal atoms, atom 1 takes the squared norm from 1.05 to 0.05,
    # below a quarter of it, where s - p^2 cancels
    phi = np.eye(3)
    y = np.array([0.1, 1.0, 0.2])
    _built_formed(IncrementalFactorization.empty(check_problem(phi, y)), 1, phi, 0.0)


def test_a_residue_near_the_limit_builds_a_formed_child():
    # atom 1 takes the squared norm from 3.5 to 1.25, so the child's norm
    # is 1.118: within a limit of 2 it is formed at once, past a limit of 1
    # it is priced and its residue waits for its first read
    phi = np.eye(3)
    y = np.array([1.0, 1.5, 0.5])
    root = IncrementalFactorization.empty(check_problem(phi, y))
    _built_formed(root, 1, phi, 2.0)
    priced = root._priced(1, 1.0)
    assert priced._residue is None
    assert priced.residue_norm == math.sqrt(1.25)
    assert np.array_equal(priced.residue, [1.0, 0.0, 0.5])


@pytest.mark.parametrize("built", ["appended", "fallback"])
def test_a_formed_child_holds_no_parent(built):
    # a formed child writes its row of Q^T when it is built, so it keeps no
    # reference to its parent, and its q is the eager chain's Q, a view of
    # the stored rows; a limit above ||y|| makes the search's `_priced`
    # build every child by the arithmetic of an append
    rng = np.random.default_rng(9)
    phi, y = rng.normal(size=(8, 12)), rng.normal(size=8)
    fact = IncrementalFactorization.empty(check_problem(phi, y))
    limit = 2.0 * float(np.linalg.norm(y))
    for j in (3, 7, 1, 10):
        fact = fact.appended(j, phi[:, j]) if built == "appended" else fact._priced(j, limit)
        assert fact._parent is None and fact._residue is not None
        q = _eager_chain(y, phi, fact.support)[0]
        assert np.array_equal(fact.q, q) and np.shares_memory(fact.q, fact._q)
    # a priced child holds its parent until it is formed, and no longer
    children = [fact._priced(j, 0.0) for j in range(12) if j not in fact.support]
    priced = next(child for child in children if child._q is None)
    assert priced._parent is fact
    assert np.array_equal(priced.q, _eager_chain(y, phi, priced.support)[0])
    assert priced._parent is None


def test_a_long_priced_chain_keeps_its_norms_to_rounding():
    # orthonormal atoms and y_i = 0.6^i: each atom takes the squared norm
    # down by 0.36, so every child is priced, and after 30 atoms it is
    # 1e-13 of where it began.  Each expanded parent's s is its formed
    # residue's r.r, so no subtraction error carries down the chain
    phi = np.eye(40)
    y = 0.6 ** np.arange(40)
    fact = IncrementalFactorization.empty(check_problem(phi, y))
    for j in range(30):
        fact = fact._priced(j, 0.0)
        assert fact._residue is None
        exact = np.linalg.norm(y[j + 1:])
        assert abs(fact.residue_norm - exact) <= 1e-14 * exact


@st.composite
def tied_problems(draw):
    """A small integer or Gaussian phi, with twin and zero columns, and a
    y; integer entries make correlations exact, so ties are exact."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        phi = rng.integers(-2, 3, size=(m, n)).astype(float)
        y = rng.integers(-3, 4, size=m).astype(float)
    else:
        phi = rng.normal(size=(m, n))
        y = rng.normal(size=m)
    columns = st.integers(0, n - 1)
    for source, target in draw(st.lists(st.tuples(columns, columns), max_size=3)):
        phi[:, target] = phi[:, source]
    for j in draw(st.lists(columns, max_size=2)):
        phi[:, j] = 0.0
    return phi, y


@settings(max_examples=300, deadline=None)
@given(tied_problems(), st.data())
def test_seeds_by_repeated_argmax_are_the_checked_ranking(case, data):
    # the search ranks its seeds with _top_few on the root's own signed
    # correlations: the picks of the checked kernels, ties included, in
    # ascending index order
    phi, y = case
    count = data.draw(st.integers(1, phi.shape[1]), label="count")
    assert _top_few(np.abs(phi.T.dot(y)), count, ()) == top_indices(correlations(phi, y), count)


@settings(max_examples=150, deadline=None)
@given(tied_problems())
def test_every_step_of_a_priced_tree_is_the_appended_step(case):
    # a search tree shares one list of column norms, looked up by atom:
    # each child of one root, and each of their children, takes the
    # Gram-Schmidt step of a lone append (R column above the diagonal bit
    # for bit), or is singular where the append is.  A priced child takes
    # its diagonal nu from Pythagoras, so its diagonal and its direction
    # agree with the append's to 8 eps ||c||^2 / nu and 8 eps ||c||^2 / nu^2
    phi, y = case
    n = phi.shape[1]
    eps = np.finfo(float).eps

    def step(parent, alone, j):
        try:
            child = parent._priced(j, 0.0)
        except SingularSupportError:
            with pytest.raises(SingularSupportError):
                alone.appended(j, phi[:, j])
            return None, None
        reference = alone.appended(j, phi[:, j])
        q, ref_q = child.q, reference.q
        assert q[:, :-1].tobytes() == ref_q[:, :-1].tobytes()
        (coef, diagonal, _), (ref_coef, ref_diagonal, _) = child._columns[-1], reference._columns[-1]
        assert coef.tobytes() == ref_coef.tobytes()
        unit = 8 * eps * float(phi[:, j].dot(phi[:, j])) / ref_diagonal
        assert abs(diagonal - ref_diagonal) <= unit
        assert np.linalg.norm(q[:, -1] - ref_q[:, -1]) <= unit / ref_diagonal
        return child, reference

    root = IncrementalFactorization.empty(check_problem(phi, y))
    for a in range(n):
        child, reference = step(root, IncrementalFactorization.empty(check_problem(phi, y)), a)
        if child is not None:
            for b in range(n):
                if b != a:
                    step(child, reference, b)


@st.composite
def scaled_problems(draw):
    """(phi, y): Gaussian columns scaled by 1e-3, 1 or 1e3, a few of them
    replaced by zeros or by a twin of another column at relative distance
    0 (exact), 1e-12, 1e-6 or 0.3."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.normal(size=(m, n)) * rng.choice([1e-3, 1.0, 1e3], size=n)
    columns = st.integers(0, n - 1)
    distances = st.sampled_from([0.0, 1e-12, 1e-6, 0.3])
    for source, target, distance in draw(st.lists(st.tuples(columns, columns, distances), max_size=3)):
        away = rng.normal(size=m)
        phi[:, target] = phi[:, source] + distance * np.linalg.norm(phi[:, source]) * away / np.linalg.norm(away)
    for j in draw(st.lists(columns, max_size=2)):
        phi[:, j] = 0.0
    return phi, rng.normal(size=m)


@settings(max_examples=150, deadline=None)
@given(scaled_problems(), st.data())
def test_a_child_is_priced_by_pythagoras_only_where_it_cannot_cancel(case, data):
    # along a chain of priced children, every other atom is priced and
    # appended to each link.  A priced child passed the cut
    # nu^2 = ||c||^2 - coef.coef >= ||c||^2 / 2, and its diagonal, its
    # projection p and its residue norm agree with the append's to
    # 8 eps ||c||^2 / nu and 8 m eps ||r|| ||c||^2 / nu^2 (the correlation
    # is a length-m product), a first atom's diagonal bit for bit.  Every
    # other child, zero and twin columns among them, is the append bit for
    # bit or is singular where the append is
    phi, y = case
    m, n = phi.shape
    eps = np.finfo(float).eps
    problem = check_problem(phi, y)
    chain = data.draw(st.lists(st.integers(0, n - 1), max_size=m - 1, unique=True), label="chain")
    parent = IncrementalFactorization.empty(problem)
    for link in [None] + chain:
        if link is not None:
            try:
                parent = parent._priced(link, 0.0)
            except SingularSupportError:
                break
        residue = parent.residue
        sq = float(residue.dot(residue))
        for j in range(n):
            if j in parent.support:
                continue
            try:
                child = parent._priced(j, 0.0)
            except SingularSupportError:
                with pytest.raises(SingularSupportError):
                    parent.appended(j, phi[:, j])
                continue
            reference = parent.appended(j, phi[:, j])
            colsq = problem.norms[j] ** 2
            coef = problem.rows[j].dot(parent.q)
            cut = colsq > 0.0 and colsq - coef.dot(coef) >= 0.5 * colsq
            (_, diagonal, proj), (_, ref_diagonal, ref_proj) = child._columns[-1], reference._columns[-1]
            if child._residue is None:
                assert cut
                unit = 8 * eps * colsq / ref_diagonal
                assert abs(diagonal - ref_diagonal) <= unit
                if not parent.support:
                    assert diagonal == ref_diagonal
                unit *= m * math.sqrt(sq) / ref_diagonal
                assert abs(proj - ref_proj) <= unit
                assert abs(child.residue_norm - reference.residue_norm) <= unit
            else:
                # formed at once: under the cut, or where s' <= s / 4
                assert not cut or reference.residue_norm ** 2 <= (0.25 + 1e-9) * sq
                assert np.array_equal(child.residue, reference.residue)
                assert child.qty.tobytes() == reference.qty.tobytes()
                assert child.rmat.tobytes() == reference.rmat.tobytes()
                assert child.residue_norm == reference.residue_norm


def _mask_assembly(columns):
    """Reference: R and Q^T y from a factorization's kept columns through
    a boolean mask of R's strict upper triangle, built per call."""
    l = len(columns)
    rmat = np.zeros((l, l))
    if l:
        coefs, diagonal, _ = zip(*columns)
        i = np.arange(l)
        rmat.T[i[:, None] > i] = np.concatenate(coefs)
        rmat.ravel()[::l + 1] = diagonal
    return rmat, np.array([proj for _, _, proj in columns])


def test_r_is_placed_by_columns_as_the_mask_places_it():
    # every order 0..70 of one chain, the empty root included: R and Q^T y
    # equal the mask assembly bit for bit
    rng = np.random.default_rng(70)
    phi = rng.normal(size=(80, 70))
    fact = IncrementalFactorization.empty(check_problem(phi, rng.normal(size=80)))
    for l in range(71):
        if l:
            fact = fact.appended(l - 1, phi[:, l - 1])
        rmat, qty = _mask_assembly(fact._columns)
        assert fact.rmat.shape == (l, l) and fact.qty.shape == (l,)
        assert fact.rmat.tobytes() == rmat.tobytes()
        assert fact.qty.tobytes() == qty.tobytes()


def test_problem_rows_are_phi_transposed_as_one_c_order_array():
    rng = np.random.default_rng(5)
    phi = np.asfortranarray(rng.normal(size=(6, 9)))
    problem = check_problem(phi, rng.normal(size=6))
    rows = problem.rows
    assert isinstance(rows, np.ndarray) and rows.flags.c_contiguous
    assert rows.shape == (9, 6) and rows.tobytes() == np.ascontiguousarray(phi.T).tobytes()
    for j in range(9):
        assert rows[j].flags.c_contiguous
        assert rows[j].tobytes() == np.ascontiguousarray(phi[:, j]).tobytes()
    assert problem.rows is rows
