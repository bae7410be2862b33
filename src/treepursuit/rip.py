"""Brute-force restricted isometry constants and recovery-condition checks.

ric_bruteforce computes the exact constant delta_L of a small matrix by
enumerating every size-L support.  On top of the resulting table the module
offers a family of numbered sufficient-condition checks for tree-search
pursuit (theorem1..theorem5, with lemma4_audit and nc_lower_bound as
supporting pieces); each docstring states its formula in full.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CombinatorialBudgetError",
    "RicTable",
    "ric_bruteforce",
    "ric_table",
    "theorem1_bound",
    "theorem2_bound",
    "theorem2_check",
    "theorem3_check",
    "theorem4_check",
    "nc_lower_bound",
    "lemma4_audit",
    "theorem5_window",
    "lemma2_sandwich",
    "lemma3_cross",
    "condition_report",
]

SUBSET_GUARD = 10_000_000


class CombinatorialBudgetError(ValueError):
    """Enumerating the requested supports would exceed the subset guard."""


@dataclass
class RicTable:
    """Restricted isometry constants of one matrix, keyed by support size."""

    m: int
    n: int
    deltas: dict = field(default_factory=dict)

    def delta(self, l):
        if l not in self.deltas:
            raise ValueError("delta_%d is not in the table" % l)
        return self.deltas[l]

    def to_dict(self):
        return {
            "M": self.m,
            "N": self.n,
            "deltas": {str(l): float(d) for l, d in sorted(self.deltas.items())},
        }


def ric_bruteforce(phi, l, guard=SUBSET_GUARD, progress=None):
    """Exact restricted isometry constant delta_l by support enumeration.

    delta_l is the smallest delta with
    (1 - delta) ||x||^2 <= ||phi x||^2 <= (1 + delta) ||x||^2 for every
    l-sparse x, i.e. the worst eigenvalue deviation of any l-column Gram
    submatrix from identity.  Refuses to enumerate more than `guard`
    supports.  `progress`, when given, is called as progress(done, total)
    every few thousand supports.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2:
        raise ValueError("phi must be a 2-d array")
    n = phi.shape[1]
    if not 1 <= l <= n:
        raise ValueError("l must satisfy 1 <= l <= N")
    total = math.comb(n, l)
    if total > guard:
        raise CombinatorialBudgetError(
            "delta_%d needs %d supports, above the guard of %d" % (l, total, guard)
        )
    gram = phi.T @ phi
    assert float(np.max(np.abs(gram - gram.T))) <= 1e-10
    delta = 0.0
    for done, subset in enumerate(itertools.combinations(range(n), l)):
        w = np.linalg.eigvalsh(gram[np.ix_(subset, subset)])
        delta = max(delta, float(w[-1]) - 1.0, 1.0 - float(w[0]))
        if progress is not None and done % 5000 == 0:
            progress(done, total)
    if progress is not None:
        progress(total, total)
    return delta


def ric_table(phi, lmax, guard=SUBSET_GUARD, progress=None):
    """Table of delta_1 .. delta_lmax for one matrix."""
    phi = np.asarray(phi, dtype=float)
    deltas = {}
    for l in range(1, lmax + 1):
        deltas[l] = ric_bruteforce(phi, l, guard=guard, progress=progress)
    return RicTable(m=phi.shape[0], n=phi.shape[1], deltas=deltas)


def _path_bound(k, b, n_c=0, factor=1.0):
    """factor * sqrt(B)/(sqrt(K - n_c) + sqrt(B)): the isometry bound of
    a path that holds n_c true atoms, factor applied to the numerator."""
    return factor * math.sqrt(b) / (math.sqrt(k - n_c) + math.sqrt(b))


def theorem1_bound(k, b, n_c):
    """Per-expansion success bound min(sqrt(B)/(sqrt(K - n_c) + sqrt(B)), 1/2).

    n_c counts the true atoms already on the path.  Nondecreasing in n_c;
    the square-root branch saturates at 1/2 once sqrt(B) >= sqrt(K - n_c).
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    if not 0 <= n_c < k:
        raise ValueError("n_c must satisfy 0 <= n_c < k")
    return min(_path_bound(k, b, n_c), 0.5)


def theorem2_bound(k, b):
    return _path_bound(k, b)


@dataclass
class ConditionCheck:
    name: str
    passes: bool
    delta: float
    bound: float
    detail: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "name": self.name,
            "passes": bool(self.passes),
            "delta": None if self.delta is None else float(self.delta),
            "bound": float(self.bound),
            **{k: v for k, v in self.detail.items()},
        }


def theorem2_check(ric, k, b):
    """Exact-recovery condition delta_{K+B} < sqrt(B)/(sqrt(K) + sqrt(B)).

    Strict inequality; equality fails.  The single-atom special case
    (B = 1) reduces to delta_{K+1} < 1/(sqrt(K) + 1), reported alongside.
    """
    if b < 1 or k < 1:
        raise ValueError("k and b must be >= 1")
    delta = ric.delta(k + b)
    bound = theorem2_bound(k, b)
    return ConditionCheck(
        name="theorem2",
        passes=delta < bound,
        delta=delta,
        bound=bound,
        detail={"omp_bound": _path_bound(k, 1), "K": k, "B": b},
    )


def theorem3_check(ric, k, b, n_c, n_f, kmax):
    """Recovery-from-a-partial-path condition.

    Requires room on the path, K + n_f <= kmax, together with
    delta_{K + n_f + B} < sqrt(B)/(sqrt(K - n_c) + sqrt(B)), where n_c
    true and n_f false atoms are already selected.  The length test fails
    the check regardless of delta.
    """
    if b < 1 or k < 1:
        raise ValueError("k and b must be >= 1")
    if not 0 <= n_c <= k or n_f < 0:
        raise ValueError("need 0 <= n_c <= k and n_f >= 0")
    bound = _path_bound(k, b, n_c) if n_c < k else 1.0
    length_ok = (k + n_f) <= kmax
    if length_ok:
        delta = ric.delta(k + n_f + b)
    else:
        delta = ric.deltas.get(k + n_f + b) if ric is not None else None
    return ConditionCheck(
        name="theorem3",
        passes=length_ok and delta < bound,
        delta=delta,
        bound=bound,
        detail={"length_ok": length_ok, "K": k, "B": b, "n_c": n_c, "n_f": n_f, "kmax": kmax},
    )


def theorem4_check(ric, k, b, kmax):
    """theorem3 specialized to a fresh path (n_c = n_f = 0)."""
    check = theorem3_check(ric, k, b, 0, 0, kmax)
    check.name = "theorem4"
    return check


def nc_lower_bound(k, b):
    """How many true atoms a surviving path must already hold.

    Returns (valid, bound) with bound = (8K + 4 sqrt(BK) - 4B) / 9.  The
    bound only applies when K >= (3 + 2 sqrt(B))^2; below that threshold
    valid is False and the bound value is still reported.
    """
    if k < 1 or b < 1:
        raise ValueError("k and b must be >= 1")
    valid = k >= (3.0 + 2.0 * math.sqrt(b)) ** 2
    bound = (8.0 * k + 4.0 * math.sqrt(b * k) - 4.0 * b) / 9.0
    return valid, bound


def lemma4_audit(ric, k, b):
    """Audit of the gap delta_{K+B} > delta_{3*ceil(K/2)} / 3 on one matrix.

    Both sides vanish for an orthonormal matrix; that case is flagged
    degenerate instead of a plain failure.
    """
    if k < 1 or b < 1:
        raise ValueError("k and b must be >= 1")
    lhs = ric.delta(k + b)
    rhs_src = ric.delta(3 * math.ceil(k / 2))
    rhs = rhs_src / 3.0
    # on an (effectively) orthonormal matrix both sides vanish and the
    # strict gap is meaningless rather than violated
    degenerate = lhs <= 1e-12 and rhs_src <= 1e-12
    return ConditionCheck(
        name="lemma4",
        passes=lhs > rhs,
        delta=lhs,
        bound=rhs,
        detail={"degenerate": degenerate, "K": k, "B": b},
    )


@dataclass
class ConditionWindow:
    empty: bool
    reason: str = ""
    lo: float = None
    hi: float = None
    delta: float = None
    delta_inside: bool = None

    def to_dict(self):
        return {
            "empty": bool(self.empty),
            "reason": self.reason,
            "lo": None if self.lo is None else float(self.lo),
            "hi": None if self.hi is None else float(self.hi),
            "delta": None if self.delta is None else float(self.delta),
            "delta_inside": self.delta_inside,
        }


def theorem5_window(ric, k, b, n_c, n_f):
    """Isometry-constant window where mid-search recovery still succeeds
    although a fresh-path guarantee is impossible.

    The window is [3 sqrt(B)/(sqrt(K) + sqrt(B)),
    sqrt(B)/(sqrt(K - n_c) + sqrt(B))], valid only when
    1 <= n_f + B <= ceil(K/2), K >= (3 + 2 sqrt(B))^2, and n_c is at least
    the nc_lower_bound value; otherwise the window is empty with a reason.
    When `ric` holds delta_{K + n_f + B} the report also says whether the
    measured constant falls inside.
    """
    if k < 1 or b < 1 or n_c < 0 or n_f < 0:
        raise ValueError("k, b must be >= 1 and n_c, n_f >= 0")
    if not 1 <= n_f + b <= math.ceil(k / 2):
        return ConditionWindow(True, "n_f + B outside [1, ceil(K/2)]")
    valid, bound = nc_lower_bound(k, b)
    if not valid:
        return ConditionWindow(True, "K below (3 + 2 sqrt(B))^2")
    if n_c >= k:
        return ConditionWindow(True, "n_c must be below K")
    if n_c < bound:
        return ConditionWindow(True, "n_c below the required true-atom count")
    lo = _path_bound(k, b, factor=3.0)
    hi = _path_bound(k, b, n_c)
    if lo > hi:
        return ConditionWindow(True, "window endpoints cross", lo=lo, hi=hi)
    delta = None
    inside = None
    if ric is not None and (k + n_f + b) in ric.deltas:
        delta = ric.delta(k + n_f + b)
        inside = bool(lo <= delta <= hi)
    return ConditionWindow(False, "", lo=lo, hi=hi, delta=delta, delta_inside=inside)


def lemma2_sandwich(phi, subset, delta, rng, vectors=100, slack=1e-10):
    """Check (1-delta)||z|| <= ||phi_I^T phi_I z|| <= (1+delta)||z|| on
    random unit vectors z for the given support I.  Returns True when no
    draw violates the sandwich beyond `slack`.
    """
    phi = np.asarray(phi, dtype=float)
    sub = phi[:, list(subset)]
    g = sub.T @ sub
    for _ in range(vectors):
        z = rng.standard_normal(g.shape[0])
        zn = float(np.linalg.norm(z))
        if zn == 0.0:
            continue
        v = float(np.linalg.norm(g @ z))
        if v < (1.0 - delta) * zn - slack or v > (1.0 + delta) * zn + slack:
            return False
    return True


def lemma3_cross(phi, set_i, set_j, delta, rng, vectors=100, slack=1e-10):
    """Check ||phi_I^T phi_J z|| <= delta ||z|| on random z for disjoint
    supports I, J, where delta bounds the isometry constant of order
    |I| + |J|.
    """
    set_i = list(set_i)
    set_j = list(set_j)
    if set(set_i) & set(set_j):
        raise ValueError("supports must be disjoint")
    phi = np.asarray(phi, dtype=float)
    cross = phi[:, set_i].T @ phi[:, set_j]
    for _ in range(vectors):
        z = rng.standard_normal(len(set_j))
        zn = float(np.linalg.norm(z))
        if zn == 0.0:
            continue
        if float(np.linalg.norm(cross @ z)) > delta * zn + slack:
            return False
    return True


def condition_report(ric, k, b, n_c=0, n_f=0, kmax=None):
    """Bundle of every check for one (matrix, K, B, n_c, n_f, kmax) tuple."""
    if kmax is None:
        kmax = k
    valid, bound = nc_lower_bound(k, b)
    bound1 = theorem1_bound(k, b, n_c) if n_c < k else None
    report = {
        "K": k,
        "B": b,
        "n_c": n_c,
        "n_f": n_f,
        "kmax": kmax,
        "nc_lower_bound": {"valid": valid, "bound": bound},
        "theorem1": {
            "bound": bound1,
            "branch": None if bound1 is None else ("sqrt" if bound1 < 0.5 else "half"),
        },
        "theorem5": theorem5_window(ric, k, b, n_c, n_f).to_dict(),
    }
    if ric is not None:
        if (k + b) in ric.deltas:
            report["theorem2"] = theorem2_check(ric, k, b).to_dict()
            report["lemma4"] = lemma4_audit(ric, k, b).to_dict()
        if (k + n_f + b) in ric.deltas:
            report["theorem3"] = theorem3_check(ric, k, b, n_c, n_f, kmax).to_dict()
            report["theorem4"] = theorem4_check(ric, k, b, kmax).to_dict()
    return report
