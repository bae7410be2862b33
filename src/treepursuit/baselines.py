"""Greedy and thresholding baselines: OMP, SP, IHT, FBP, MMP-DF.

Every solver returns through `results.finish`.  Variants are documented
per function; all tie-breaking is by ascending atom index so results are
deterministic.
"""

import time

import numpy as np

from .linalg import (
    IncrementalFactorization,
    SingularSupportError,
    _lstsq,
    _top_few,
    _top_sorted,
    check_problem,
    correlations,
    top_indices,
)
from .results import (
    REASON_RESIDUE,
    REASON_MAX_ITER,
    REASON_STALLED,
    REASON_DIVERGED,
    SettingsError,
    check_epsilon,
    finish,
)

__all__ = [
    "SETTINGS",
    "check_settings",
    "omp_recover",
    "sp_recover",
    "iht_recover",
    "fbp_recover",
    "mmp_df_recover",
]

DEFAULT_EPSILON = 1e-6


def _count(value):
    """an int >= 1"""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def _count_or_default(value):
    """an int >= 1 or None (the default, sized from M)"""
    return value is None or _count(value)


def _step(value):
    """a finite number > 0"""
    return 0.0 < value < np.inf


def _epsilon(value):
    check_epsilon(value)
    return True


# the settings each baseline takes, each with the rule its value meets
SETTINGS = {
    "omp": {"epsilon": _epsilon, "max_iter": _count_or_default},
    "sp": {"max_iter": _count},
    "iht": {"step": _step, "max_iter": _count},
    "fbp": {"alpha": _count_or_default, "beta": _count_or_default, "epsilon": _epsilon,
            "max_iter": _count_or_default},
    "mmp-df": {"branching": _count, "max_paths": _count, "epsilon": _epsilon},
}


def check_settings(name, **settings):
    """Raise unless the given settings of baseline `name` fit some instance:
    each meets its SETTINGS rule and FBP's alpha exceeds beta (alpha - 1
    when None).  A bad epsilon raises ValueError, any other SettingsError.
    Solvers run this at entry and SolverSpec when built; limits that need
    M, such as OMP's max_iter <= M, wait for the instance."""
    for key, value in settings.items():
        rule = SETTINGS[name][key]
        if not rule(value):
            raise SettingsError("%s: %s must be %s, got %r" % (name, key, rule.__doc__, value))
    alpha, beta = settings.get("alpha"), settings.get("beta")
    if alpha is not None and not alpha > (1 if beta is None else beta):
        raise SettingsError("%s needs alpha > beta >= 1" % name)


def _prep(phi, y):
    phi, y = check_problem(phi, y)
    return phi, y, float(np.linalg.norm(y))


def _augmented(phi, y):
    """[phi | y] and the column norms of phi, built once per solve.  The
    block is in Fortran order, so gathering a support copies whole columns
    and phi's column norms equal, bit for bit, those of any gathered
    support, which `project` computes."""
    m, n = phi.shape
    aug = np.empty((m, n + 1), order="F")
    aug[:, :n] = phi
    aug[:, n] = y
    return aug, np.linalg.norm(aug[:, :n], axis=0)


def _project(aug, colnorms, support):
    """`project(y, phi, support)` on a prepared problem, unchecked: one
    gather of `[phi_S | y]` for `_lstsq`.  `support` is a list."""
    return _lstsq(aug[:, support + [aug.shape[1] - 1]], colnorms[support], support)


def _project_independent(aug, colnorms, support):
    """`_project` on `support` less every atom it finds dependent on the
    atoms before it; returns (kept, z, r), kept in support order.  One
    factorization marks all of them: dropping a column in the span of the
    columns before it leaves the span of every later prefix unchanged."""
    kept = list(support)
    while True:
        try:
            return (kept, *_project(aug, colnorms, kept))
        except SingularSupportError as err:
            dependent = set(err.dependent)
            kept = [j for j in kept if j not in dependent]


def omp_recover(phi, y, epsilon=DEFAULT_EPSILON, max_iter=None):
    """Orthogonal matching pursuit.

    Repeatedly selects the atom with the largest absolute correlation to
    the current residue (ties by ascending index) and reprojects on the
    augmented support.  Stops when ||r|| <= epsilon * ||y||, after
    max_iter atoms (default min(M, N)), or as stalled when the augmented
    support turns rank deficient or no atom is left outside it.
    """
    t0 = time.perf_counter()
    phi, y, ynorm = _prep(phi, y)
    m, n = phi.shape
    if max_iter is None:
        max_iter = min(m, n)
    check_settings("omp", epsilon=epsilon, max_iter=max_iter)
    if max_iter > m:
        raise SettingsError("max_iter must satisfy 1 <= max_iter <= M")
    threshold = epsilon * ynorm
    fact = IncrementalFactorization.empty(y)
    reason = REASON_MAX_ITER
    while fact.residue_norm > threshold and fact.length < max_iter:
        if fact.length == n:
            reason = REASON_STALLED  # no atom left outside the support
            break
        j = _top_few(np.abs(phi.T @ fact.residue), 1, fact.support)[0]
        try:
            fact = fact.appended(j, phi[:, j])
        except SingularSupportError:
            reason = REASON_STALLED
            break
    return finish(
        phi, y, fact.support, fact.coefficients(), epsilon, reason, "omp", t0,
        iterations=fact.length,
    )


def sp_recover(phi, y, k, max_iter=100):
    """Subspace pursuit.

    Keeps a working support of size k.  Each iteration unions the k atoms
    best correlated with the residue, solves least squares on the union,
    prunes back to the k largest-magnitude coefficients (ties by ascending
    index), and reprojects.  Terminates when the residue norm stops
    decreasing, returning the previous iterate, or when no atom is left
    outside the support (2k > N).  No support is projected twice: a pruned
    support equal to the current one stops at once, and a union of at most
    k atoms is kept with its projection.  An atom that lies in the span of
    the atoms before it in a support is dropped from that support.
    """
    t0 = time.perf_counter()
    phi, y, ynorm = _prep(phi, y)
    check_settings("sp", max_iter=max_iter)
    m, n = phi.shape
    if not 1 <= k <= min(m // 2, n):
        raise ValueError("sp_recover needs 1 <= k <= min(M/2, N)")
    if ynorm == 0.0:
        return finish(phi, y, (), (), DEFAULT_EPSILON, REASON_RESIDUE, "sp", t0)
    aug, colnorms = _augmented(phi, y)
    first = sorted(top_indices(correlations(phi, y), k))
    support, z, r = _project_independent(aug, colnorms, first)
    best_res = float(np.linalg.norm(r))
    reason = REASON_MAX_ITER
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        width = min(k, n - len(support))
        if width < 1:
            reason = REASON_STALLED
            break
        cand = _top_sorted(np.abs(phi.T @ r), width, support)
        union, z_new, r_new = _project_independent(aug, colnorms, sorted(support + cand))
        new_support = union
        if len(union) > k:
            new_support = sorted(union[i] for i in _top_sorted(np.abs(z_new), k, ()))
            if new_support == support:
                # projecting the same support again would leave the same residue
                reason = REASON_STALLED
                break
            z_new, r_new = _project(aug, colnorms, new_support)
        res_new = float(np.linalg.norm(r_new))
        if res_new >= best_res:
            reason = REASON_STALLED
            break
        support, z, r, best_res = new_support, z_new, r_new, res_new
    return finish(phi, y, support, z, DEFAULT_EPSILON, reason, "sp", t0, iterations=iterations)


def _hard_threshold(v, k):
    keep = top_indices(np.abs(v), k)
    out = np.zeros_like(v)
    out[keep] = v[keep]
    return out


def iht_recover(phi, y, k, step=1.0, max_iter=500):
    """Iterative hard thresholding: x <- H_k(x + step * phi^T (y - phi x)).

    Columns are used exactly as given (no normalization) and the default
    step is 1.  Stops on an (essentially) zero residue, when the residue
    norm stalls, or after max_iter sweeps; flags non-convergence when the
    residue grows past 10x its starting value.  The step must be a finite
    number > 0.
    """
    t0 = time.perf_counter()
    phi, y, ynorm = _prep(phi, y)
    check_settings("iht", step=step, max_iter=max_iter)
    n = phi.shape[1]
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= N")
    if ynorm == 0.0:
        return finish(phi, y, (), (), DEFAULT_EPSILON, REASON_RESIDUE, "iht", t0)
    x = np.zeros(n)
    r = y.copy()
    reason = REASON_MAX_ITER
    prev = np.inf
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        x = _hard_threshold(x + step * (phi.T @ r), k)
        r = y - phi @ x
        rn = float(np.linalg.norm(r))
        if rn > 10.0 * ynorm:
            reason = REASON_DIVERGED
            break
        if rn <= DEFAULT_EPSILON * ynorm:
            break
        if abs(prev - rn) <= 1e-12 * max(1.0, ynorm):
            reason = REASON_STALLED
            break
        prev = rn
    support = np.flatnonzero(x)
    return finish(
        phi, y, support, x[support], DEFAULT_EPSILON, reason, "iht", t0, iterations=iterations
    )


def fbp_recover(phi, y, alpha=None, beta=None, epsilon=DEFAULT_EPSILON, max_iter=None):
    """Forward-backward pursuit.

    Each iteration adds the alpha best-correlated new atoms, projects,
    drops the beta smallest-magnitude coefficients (ties by ascending
    index), and projects again, so the support grows by alpha - beta per
    round.  Defaults: alpha = round(0.2 M), beta = alpha - 1.  Terminates
    on the residue criterion, when the expanded support would exceed M, or
    after max_iter rounds (default M).  An atom that lies in the span of
    the atoms before it in the expanded support is dropped and counts
    toward the beta.  Atoms with |z_j| <= 1e-10 max|z| are rounding noise
    and are left out of the returned support.
    """
    t0 = time.perf_counter()
    phi, y, ynorm = _prep(phi, y)
    m, n = phi.shape
    if alpha is None:
        alpha = max(2, round(0.2 * m))
    if max_iter is None:
        max_iter = m
    check_settings("fbp", alpha=alpha, beta=beta, epsilon=epsilon, max_iter=max_iter)
    if beta is None:
        beta = alpha - 1
    if ynorm == 0.0:
        return finish(phi, y, (), (), epsilon, REASON_RESIDUE, "fbp", t0)
    threshold = epsilon * ynorm
    aug, colnorms = _augmented(phi, y)
    support = []
    z = np.empty(0)
    r = y.copy()
    reason = REASON_MAX_ITER
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        width = min(alpha, n - len(support))
        if width < 1 or len(support) + width > m:
            reason = REASON_STALLED
            break
        fwd = _top_sorted(np.abs(phi.T @ r), width, support)
        expanded = sorted(support + fwd)
        kept, z_exp, _ = _project_independent(aug, colnorms, expanded)
        if not kept:
            reason = REASON_STALLED  # every atom offered is a zero column
            break
        # with fewer than alpha atoms left, fewer than beta may be expanded;
        # atoms found dependent count toward the beta dropped
        count = min(beta, len(expanded)) - (len(expanded) - len(kept))
        drop = _top_sorted(-np.abs(z_exp), count, ()) if count > 0 else ()
        dropped = {kept[i] for i in drop}
        support = [j for j in kept if j not in dropped]
        z, r = _project(aug, colnorms, support)
        if float(np.linalg.norm(r)) <= threshold:
            break
    keep = np.abs(z) > 1e-10 * np.abs(z).max(initial=0.0)
    support, z = [j for j, kept in zip(support, keep) if kept], z[keep]
    return finish(phi, y, support, z, epsilon, reason, "fbp", t0, iterations=iterations)


def mmp_df_recover(phi, y, k, branching=6, max_paths=200, epsilon=DEFAULT_EPSILON):
    """Depth-first multipath matching pursuit.

    Explores the tree whose children at each node are the `branching`
    atoms best correlated with the node's residue (ties by ascending
    index), depth-first in candidate-rank order down to depth k, with no
    support-set deduplication.  Stops as soon as any node's residue meets
    epsilon * ||y||, or after max_paths complete depth-k paths, returning
    the minimum-residue complete path seen.
    """
    t0 = time.perf_counter()
    phi, y, ynorm = _prep(phi, y)
    check_settings("mmp-df", branching=branching, max_paths=max_paths, epsilon=epsilon)
    m, n = phi.shape
    if not 1 <= k <= m:
        raise ValueError("k must satisfy 1 <= k <= M")
    threshold = epsilon * ynorm
    state = {"complete": 0, "nodes": 0, "singular": 0, "best": None, "best_res": np.inf}

    def dfs(fact):
        # returns a factorization meeting the residue criterion, else None
        if fact.residue_norm <= threshold:
            return fact
        if fact.length == k:
            state["complete"] += 1
            if fact.residue_norm < state["best_res"]:
                state["best"] = fact
                state["best_res"] = fact.residue_norm
            return None
        corr = np.abs(phi.T @ fact.residue)
        width = min(branching, n - fact.length)
        for j in _top_few(corr, width, fact.support):
            if state["complete"] >= max_paths:
                return None
            try:
                child = fact.appended(j, phi[:, j])
            except SingularSupportError:
                state["singular"] += 1
                continue
            state["nodes"] += 1
            hit = dfs(child)
            if hit is not None:
                return hit
        return None

    hit = dfs(IncrementalFactorization.empty(y))
    if hit is None:
        hit = state["best"]
    if hit is None:
        support, values, reason = (), (), REASON_STALLED
    else:
        support, values, reason = hit.support, hit.coefficients(), REASON_MAX_ITER
    return finish(
        phi, y, support, values, epsilon, reason, "mmp-df", t0,
        paths_opened=state["complete"], nodes_expanded=state["nodes"],
        singular_skips=state["singular"],
    )
