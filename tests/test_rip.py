"""Isometry constants and recovery-condition arithmetic.

The brute-force constant is cross-checked against the closed-form
eigenvalues of 2x2 Gram blocks, which are computable by hand:
lambda = (a+b)/2 +- sqrt(((a-b)/2)^2 + c^2).
"""

import math

import numpy as np
import pytest

from treepursuit.rip import (
    CombinatorialBudgetError,
    RicTable,
    condition_report,
    lemma2_sandwich,
    lemma3_cross,
    lemma4_audit,
    nc_lower_bound,
    ric_bruteforce,
    ric_table,
    theorem1_bound,
    theorem2_bound,
    theorem2_check,
    theorem3_check,
    theorem4_check,
    theorem5_window,
)
from treepursuit.siggen import derive_seed, gen_matrix


def pairwise_delta2(phi):
    best = 0.0
    n = phi.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            a = float(phi[:, i] @ phi[:, i])
            b = float(phi[:, j] @ phi[:, j])
            c = float(phi[:, i] @ phi[:, j])
            half_tr = (a + b) / 2.0
            disc = math.sqrt(((a - b) / 2.0) ** 2 + c**2)
            best = max(best, (half_tr + disc) - 1.0, 1.0 - (half_tr - disc))
    return best


def test_delta2_matches_pairwise_closed_form():
    for s in range(10):
        phi = gen_matrix(8, 12, derive_seed(5, "ric", s), entry_std=1 / math.sqrt(8)).phi
        assert ric_bruteforce(phi, 2) == pytest.approx(pairwise_delta2(phi), abs=1e-10)


def test_delta1_is_worst_column_norm_deviation():
    phi = gen_matrix(10, 15, 3, entry_std=0.3).phi
    norms2 = np.sum(phi * phi, axis=0)
    want = max(float(np.max(norms2)) - 1.0, 1.0 - float(np.min(norms2)))
    assert ric_bruteforce(phi, 1) == pytest.approx(want, abs=1e-12)


def test_delta_is_monotone_in_order():
    for s in range(5):
        phi = gen_matrix(8, 12, derive_seed(6, "mono", s)).phi
        table = ric_table(phi, 5)
        ds = [table.delta(l) for l in range(1, 6)]
        assert all(a <= b + 1e-12 for a, b in zip(ds, ds[1:]))


def test_orthonormal_columns_have_zero_delta():
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(12, 6)))
    assert ric_bruteforce(q, 3) == pytest.approx(0.0, abs=1e-12)


def test_subset_guard_refuses_large_enumerations():
    phi = np.zeros((5, 40))
    with pytest.raises(CombinatorialBudgetError):
        ric_bruteforce(phi, 12, guard=10_000)
    with pytest.raises(ValueError):
        ric_bruteforce(phi, 0)


def test_table_missing_order_raises():
    table = RicTable(m=8, n=12, deltas={1: 0.1, 2: 0.2})
    assert table.delta(2) == 0.2
    with pytest.raises(ValueError):
        table.delta(3)


def test_theorem1_bound_branches_and_domain():
    # sqrt branch: B=1, fresh path on K=10
    assert theorem1_bound(10, 1, 0) == pytest.approx(1.0 / (math.sqrt(10) + 1.0), abs=1e-15)
    # saturated branch: nearly complete path
    assert theorem1_bound(10, 2, 9) == 0.5
    assert theorem1_bound(4, 9, 0) == 0.5  # wide branching saturates immediately
    # monotone in recovered atoms
    bounds = [theorem1_bound(10, 2, nc) for nc in range(10)]
    assert all(x <= y + 1e-15 for x, y in zip(bounds, bounds[1:]))
    with pytest.raises(ValueError):
        theorem1_bound(10, 2, 10)
    with pytest.raises(ValueError):
        theorem1_bound(10, 0, 0)


def test_theorem2_bound_frozen_values():
    assert theorem2_bound(2, 2) == 0.5  # sqrt(2)/(2 sqrt(2)) exactly
    assert theorem2_bound(9, 1) == pytest.approx(0.25, abs=1e-15)


def test_theorem2_check_is_strict():
    table = RicTable(m=8, n=12, deltas={4: 0.5})
    check = theorem2_check(table, 2, 2)
    assert check.passes is False  # equality must fail
    assert check.bound == 0.5
    assert check.detail["omp_bound"] == pytest.approx(1.0 / (math.sqrt(2) + 1.0))
    table = RicTable(m=8, n=12, deltas={4: 0.499})
    assert theorem2_check(table, 2, 2).passes is True


def test_theorem3_reduces_to_theorem2_on_fresh_paths():
    rng = np.random.default_rng(12)
    for _ in range(50):
        k = int(rng.integers(1, 8))
        b = int(rng.integers(1, 4))
        deltas = {k + b: float(rng.uniform(0.0, 1.0))}
        table = RicTable(m=8, n=20, deltas=deltas)
        fresh = theorem3_check(table, k, b, 0, 0, kmax=k)
        base = theorem2_check(table, k, b)
        assert fresh.passes == base.passes
        assert fresh.bound == pytest.approx(base.bound, abs=1e-15)
        assert fresh.delta == base.delta


def test_theorem3_frozen_bound_and_length_gate():
    table = RicTable(m=8, n=20, deltas={13: 0.1})
    check = theorem3_check(table, 10, 2, 9, 1, kmax=11)
    assert check.bound == pytest.approx(0.5857864376269051, abs=1e-12)
    assert check.passes is True
    # same numbers but no room on the path: fails no matter the constant
    gated = theorem3_check(table, 10, 2, 9, 2, kmax=11)
    assert gated.passes is False
    assert gated.detail["length_ok"] is False


def test_theorem4_is_fresh_path_theorem3():
    table = RicTable(m=8, n=20, deltas={7: 0.2})
    a = theorem4_check(table, 5, 2, kmax=9)
    b = theorem3_check(table, 5, 2, 0, 0, kmax=9)
    assert a.name == "theorem4"
    assert (a.passes, a.delta, a.bound) == (b.passes, b.delta, b.bound)


def test_nc_lower_bound_frozen_values():
    valid, bound = nc_lower_bound(49, 4)
    assert valid is True
    assert bound == 48.0  # (8*49 + 4*14 - 16) / 9 lands exactly on 48
    valid, bound = nc_lower_bound(25, 1)
    assert valid is True
    assert bound == 24.0
    valid, _ = nc_lower_bound(48, 4)
    assert valid is False  # threshold is (3 + 2 sqrt(4))^2 = 49
    with pytest.raises(ValueError):
        nc_lower_bound(0, 1)


def test_theorem5_window_boundary_cases():
    # K=25, B=1, n_c=24: both endpoints equal 1/2, a single-point window
    w = theorem5_window(None, 25, 1, 24, 0)
    assert not w.empty
    assert w.lo == pytest.approx(0.5, abs=1e-15)
    assert w.hi == pytest.approx(0.5, abs=1e-15)
    # K=36, B=1: the true-atom requirement is 308/9 > 34, so n_c=34 is short
    w = theorem5_window(None, 36, 1, 34, 0)
    assert w.empty and "true-atom" in w.reason
    # K too small for the regime
    w = theorem5_window(None, 10, 1, 9, 0)
    assert w.empty and "(3 + 2 sqrt(B))^2" in w.reason
    # n_f + B outside the allowed band
    w = theorem5_window(None, 25, 1, 24, 13)
    assert w.empty and "n_f + B" in w.reason
    # delta placement is reported when the table has the right order
    table = RicTable(m=8, n=40, deltas={26: 0.5})
    w = theorem5_window(table, 25, 1, 24, 0)
    assert w.delta == 0.5 and w.delta_inside is True


def test_lemma4_audit_and_degenerate_flag():
    # K=3, B=2 compares delta_5 against delta_6 / 3
    phi = gen_matrix(8, 12, 77).phi
    # normalize columns so the constants are moderate but nonzero
    phi = phi / np.linalg.norm(phi, axis=0)
    table = RicTable(8, 12, {l: ric_bruteforce(phi, l) for l in (5, 6)})
    check = lemma4_audit(table, 3, 2)
    assert check.delta == pytest.approx(ric_bruteforce(phi, 5), abs=1e-12)
    assert check.bound == pytest.approx(ric_bruteforce(phi, 6) / 3.0, abs=1e-12)
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(12, 12)))
    table = RicTable(12, 12, {l: ric_bruteforce(q, l) for l in (5, 6)})
    check = lemma4_audit(table, 3, 2)
    assert check.detail["degenerate"] is True


def test_lemma_sandwiches_on_random_matrices():
    rng = np.random.default_rng(8)
    for s in range(5):
        phi = gen_matrix(8, 12, derive_seed(9, "lem", s), entry_std=1 / math.sqrt(8)).phi
        d4 = ric_bruteforce(phi, 4)
        assert lemma2_sandwich(phi, [0, 3, 7, 9], d4, rng, vectors=100)
        assert lemma3_cross(phi, [0, 3], [7, 9], d4, rng, vectors=100)
    with pytest.raises(ValueError):
        lemma3_cross(phi, [0, 3], [3, 9], 0.5, rng)


def test_condition_report_bundles_everything():
    phi = gen_matrix(8, 12, 4).phi
    table = ric_table(phi, 6)
    report = condition_report(table, 3, 2, n_c=1, n_f=1, kmax=5)
    assert report["K"] == 3 and report["B"] == 2
    assert set(report) >= {"nc_lower_bound", "theorem1", "theorem2", "theorem3",
                           "theorem4", "theorem5", "lemma4"}
    assert report["theorem3"]["length_ok"] is True
