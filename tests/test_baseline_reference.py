"""OMP, MMP-DF, SP and FBP against plain references written from their rules.

Each reference takes every residue from numpy's dense least squares
(`np.linalg.lstsq` on the whole support) and every ranking from `sorted`
on (-|<phi_j, r>|, j), so it shares no kernel with the library: neither
the incremental Gram-Schmidt step that OMP, MMP-DF and the tree search
share, the Householder least squares of SP and FBP, nor `_top_few`.  Agreement on support, reason and work counters
checks the selection rule, the dependency test and the stopping rules.

The two sides round differently, so a decision whose margin is within
rounding (two different columns correlated alike, a residue at the
threshold, two complete paths with one residue, two coefficients alike
at a pruning edge) may go either way; the reference raises `Ambiguous`
there and the draw is discarded.  Identical
columns tie exactly in exact arithmetic, but a matrix-vector product may
round their two scores differently, so supports are compared with each
atom mapped to the first column identical to it.
"""

from itertools import combinations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treepursuit.baselines import fbp_recover, mmp_df_recover, omp_recover, sp_recover
from treepursuit.results import REASON_MAX_ITER, REASON_RESIDUE, REASON_STALLED

EPSILON = 1e-6
TOL = 1e-9  # relative margin below which a decision is rounding's


def canonical(phi, support):
    """The support with each atom mapped to the first column identical to it."""
    return tuple(next(i for i in range(j + 1) if np.array_equal(phi[:, i], phi[:, j]))
                 for j in support)


class Ambiguous(Exception):
    """A decision of the reference lies within rounding of its boundary."""


class Reference:
    """The rules both solvers share: ranking, residues, dependency."""

    def __init__(self, phi, y):
        self.phi, self.y = phi, y
        self.n = phi.shape[1]
        self.ynorm = float(np.linalg.norm(y))
        self.threshold = EPSILON * self.ynorm
        # every score is at most this; a score below TOL of it is rounding
        self.noise = TOL * self.ynorm * max(1.0, float(np.linalg.norm(phi, axis=0).max()))

    def residue(self, support, v=None):
        """v (by default y) less its least-squares fit on the support."""
        v = self.y if v is None else v
        if not support:
            return v
        sub = self.phi[:, support]
        return v - sub @ np.linalg.lstsq(sub, v, rcond=None)[0]

    def met(self, r):
        """Whether the residue r meets the threshold."""
        norm = float(np.linalg.norm(r))
        if abs(norm - self.threshold) <= TOL * self.ynorm:
            raise Ambiguous("residue at the threshold")
        return norm <= self.threshold

    def dependent(self, support, j):
        """Whether column j lies in the span of the support's columns."""
        c = self.phi[:, j]
        cnorm = float(np.linalg.norm(c))
        if cnorm == 0.0:
            return True
        distance = float(np.linalg.norm(self.residue(support, c))) / cnorm
        if distance < 1e-10:
            return True
        if distance > 1e-6:
            return False
        raise Ambiguous("column near the span of the support")

    def twins(self, a, b):
        return np.array_equal(self.phi[:, a], self.phi[:, b])

    def scores(self, r, support):
        """The atoms outside the support by descending |<phi_j, r>|, ties
        by ascending index, and their scores."""
        free = [j for j in range(self.n) if j not in support]
        score = {j: abs(float(self.phi[:, j] @ r)) for j in free}
        return sorted(free, key=lambda j: (-score[j], j)), score

    def tied(self, score, a, others):
        """Whether an atom of `others`, not a twin of a, scores within
        rounding of a."""
        return any(abs(score[a] - score[b]) <= self.noise and not self.twins(a, b)
                   for b in others)

    def ranked(self, r, support, width):
        """The width atoms outside the support best correlated with r,
        ties by ascending index."""
        order, score = self.scores(r, support)
        picks = order[:width]
        for i, a in enumerate(picks):
            if score[a] > self.noise and self.tied(score, a, order[i + 1:]):
                raise Ambiguous("two columns correlated alike")
        if any(score[j] <= self.noise for j in picks):
            # rounding orders these; it matters not if all are dependent
            if not all(self.dependent(support, j) for j in order if score[j] <= self.noise):
                raise Ambiguous("an independent column with a rounding-level score")
        return picks

    def picked(self, r, support, width):
        """The set of width atoms that `ranked` takes, for the solvers that
        take many at once, sorted; Ambiguous when rounding could change the
        set, including an arbitrary choice among rounding-level scores."""
        order, score = self.scores(r, support)
        if any(self.tied(score, a, order[width:]) for a in order[:width]):
            raise Ambiguous("two columns correlated alike at the edge of the set")
        return sorted(order[:width])

    def independent(self, support):
        """The support less every atom in the span of the atoms before it."""
        kept = []
        for j in support:
            if not self.dependent(kept, j):
                kept.append(j)
        return kept

    def coefficients(self, support):
        return np.linalg.lstsq(self.phi[:, support], self.y, rcond=None)[0]


def largest(z, count):
    """Positions of the count largest |z|, sorted; Ambiguous when the
    edge of the set lies within rounding."""
    size = np.abs(z)
    order = sorted(range(len(z)), key=lambda i: (-size[i], i))
    if 0 < count < len(z) and size[order[count - 1]] - size[order[count]] <= TOL * size.max():
        raise Ambiguous("two coefficients alike at the edge of the set")
    return sorted(order[:count])


def omp_reference(phi, y):
    """(support, reason, iterations) of OMP with its default settings."""
    ref = Reference(phi, y)
    max_iter = min(phi.shape)
    support = []
    reason = REASON_MAX_ITER
    r = ref.residue(support)
    while not ref.met(r) and len(support) < max_iter:
        if len(support) == ref.n:
            reason = REASON_STALLED
            break
        (j,) = ref.ranked(r, support, 1)
        if ref.dependent(support, j):
            reason = REASON_STALLED
            break
        support.append(j)
        r = ref.residue(support)
    if ref.met(r):
        reason = REASON_RESIDUE
    return canonical(phi, support), reason, len(support)


def mmp_df_reference(phi, y, k, branching, max_paths):
    """(support, reason, counters) of depth-first multipath matching pursuit."""
    ref = Reference(phi, y)
    count = {"paths_opened": 0, "nodes_expanded": 0, "singular_skips": 0}
    best = {"support": None, "norm": np.inf}

    def dfs(support):
        r = ref.residue(support)
        if ref.met(r):
            return support
        if len(support) == k:
            count["paths_opened"] += 1
            norm = float(np.linalg.norm(r))
            if best["support"] is not None and abs(norm - best["norm"]) <= TOL * ref.ynorm:
                if canonical(phi, support) != canonical(phi, best["support"]):
                    raise Ambiguous("two complete paths with one residue")
            if norm < best["norm"]:
                best["support"], best["norm"] = support, norm
            return None
        for j in ref.ranked(r, support, min(branching, ref.n - len(support))):
            if count["paths_opened"] >= max_paths:
                return None
            if ref.dependent(support, j):
                count["singular_skips"] += 1
                continue
            count["nodes_expanded"] += 1
            hit = dfs(support + [j])
            if hit is not None:
                return hit
        return None

    hit = dfs([])
    if hit is None:
        hit = best["support"]
    if hit is None:
        return (), REASON_STALLED, count
    reason = REASON_RESIDUE if ref.met(ref.residue(hit)) else REASON_MAX_ITER
    return canonical(phi, hit), reason, count


def sp_reference(phi, y, k):
    """(support, reason, iterations) of subspace pursuit with its default
    settings."""
    ref = Reference(phi, y)
    if ref.ynorm == 0.0:
        return (), REASON_RESIDUE, 0
    support = ref.independent(ref.picked(y, [], k))
    best = float(np.linalg.norm(ref.residue(support)))
    reason = REASON_STALLED
    for iterations in range(1, 101):
        width = min(k, ref.n - len(support))
        if width < 1:
            break
        if best <= TOL * ref.ynorm:
            # every score is rounding, so the picks are arbitrary: SP stalls
            # unless some pick could change the support it prunes back to.
            # The picks' coefficients are zero, so pruning keeps the support
            # when its own stand clear of zero
            largest(np.append(ref.coefficients(support), 0.0), len(support))
            free = [j for j in range(ref.n) if j not in support]
            for picks in combinations(free, width):
                union = ref.independent(sorted(support + list(picks)))
                if union != support and not (len(support) == k and set(support) <= set(union)):
                    raise Ambiguous("an arbitrary pick could change the support")
            break
        union = ref.independent(sorted(support + ref.picked(ref.residue(support), support, width)))
        new = union if len(union) <= k else [union[i] for i in largest(ref.coefficients(union), k)]
        if new == support:
            break
        res = float(np.linalg.norm(ref.residue(new)))
        if abs(res - best) <= TOL * ref.ynorm:
            raise Ambiguous("a residue as small as the best so far")
        if res > best:
            break
        support, best = new, res
    else:
        reason = REASON_MAX_ITER
    if ref.met(ref.residue(support)):
        reason = REASON_RESIDUE
    return canonical(phi, support), reason, iterations


def fbp_reference(phi, y):
    """(support, reason, iterations) of forward-backward pursuit with its
    default settings."""
    ref = Reference(phi, y)
    m = phi.shape[0]
    alpha = max(2, round(0.2 * m))
    if ref.ynorm == 0.0:
        return (), REASON_RESIDUE, 0
    support, reason, iterations = [], REASON_MAX_ITER, 0
    for iterations in range(1, m + 1):
        width = min(alpha, ref.n - len(support))
        if width < 1 or len(support) + width > m:
            reason = REASON_STALLED
            break
        expanded = sorted(support + ref.picked(ref.residue(support), support, width))
        kept = ref.independent(expanded)
        if not kept:
            reason = REASON_STALLED
            break
        count = min(alpha - 1, width - 1) - (len(expanded) - len(kept))
        support = [kept[i] for i in largest(ref.coefficients(kept), len(kept) - max(count, 0))]
        if ref.met(ref.residue(support)):
            break
    z = ref.coefficients(support) if support else np.empty(0)
    size = np.abs(z) / max(np.abs(z).max(initial=0.0), 1e-300)
    if np.any((size > 1e-12) & (size < 1e-8)):
        raise Ambiguous("a coefficient near the noise cut")
    keep = size > 1e-10
    final = [j for j, kept in zip(support, keep) if kept]
    if ref.met(y - phi[:, final] @ z[keep]):
        reason = REASON_RESIDUE
    return canonical(phi, final), reason, iterations


@st.composite
def problems(draw):
    """An integer or Gaussian phi with twin and zero columns, and a y that
    is a few of its columns, with or without noise."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        phi = rng.integers(-2, 3, size=(m, n)).astype(float)
    else:
        phi = rng.normal(size=(m, n))
    columns = st.integers(0, n - 1)
    for source, target in draw(st.lists(st.tuples(columns, columns), max_size=3)):
        phi[:, target] = phi[:, source]
    for j in draw(st.lists(columns, max_size=2)):
        phi[:, j] = 0.0
    x = np.zeros(n)
    picked = draw(st.lists(columns, min_size=1, max_size=min(m, n), unique=True))
    x[picked] = rng.normal(size=len(picked))
    y = phi @ x
    if draw(st.booleans()) or not y.any():
        y = y + rng.normal(size=m)
    return phi, y


def check(reference, *args):
    try:
        return reference(*args)
    except Ambiguous:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(problems())
def test_omp_matches_the_reference(case):
    phi, y = case
    support, reason, iterations = check(omp_reference, phi, y)
    out = omp_recover(phi, y)
    assert (canonical(phi, out.support), out.reason, out.iterations) == (support, reason, iterations)


@settings(max_examples=300, deadline=None)
@given(problems(), st.data())
def test_mmp_df_matches_the_reference(case, data):
    phi, y = case
    k = data.draw(st.integers(1, min(3, phi.shape[0])), label="k")
    branching = data.draw(st.integers(1, 3), label="branching")
    max_paths = data.draw(st.integers(1, 12), label="max_paths")
    support, reason, count = check(mmp_df_reference, phi, y, k, branching, max_paths)
    out = mmp_df_recover(phi, y, k, branching=branching, max_paths=max_paths)
    assert (canonical(phi, out.support), out.reason) == (support, reason)
    assert {name: getattr(out, name) for name in count} == count


@settings(max_examples=300, deadline=None)
@given(problems(), st.data())
def test_sp_matches_the_reference(case, data):
    phi, y = case
    k = data.draw(st.integers(1, min(phi.shape[0] // 2, phi.shape[1])), label="k")
    support, reason, iterations = check(sp_reference, phi, y, k)
    out = sp_recover(phi, y, k)
    assert (sorted(canonical(phi, out.support)), out.reason, out.iterations) == (
        sorted(support), reason, iterations)


@settings(max_examples=300, deadline=None)
@given(problems())
def test_fbp_matches_the_reference(case):
    phi, y = case
    support, reason, iterations = check(fbp_reference, phi, y)
    out = fbp_recover(phi, y)
    assert (sorted(canonical(phi, out.support)), out.reason, out.iterations) == (
        sorted(support), reason, iterations)
