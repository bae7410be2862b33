"""The tree search against a plain reference written from its rules.

The reference keeps its live paths in a list and its opened support sets
in a set, picks with min and max on (cost, length, sorted support) and
orders candidates with sorted.  It shares only the path builder
(`PathState.extended`), the correlation kernel and the exit rule
(`results.finish`) with the library, so agreement checks the policy:
seed I paths; pop the cheapest incomplete path; branch B; stop at once
on the residue test; skip a support opened before; replace the parent,
then fill the cap, then displace the costliest path when cheaper; mark a
path exhausted when it accepts nothing.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treepursuit.astar import COST_MODELS, TERMINATIONS, AompConfig, PathState, aomp_recover
from treepursuit.linalg import (
    IncrementalFactorization,
    SingularSupportError,
    check_problem,
    correlations,
)
from treepursuit.results import REASON_ALL_COMPLETE, REASON_BUDGET, finish

COUNTERS = ("iterations", "nodes_expanded", "equivalent_hits", "singular_skips", "paths_opened")


def full_key(path):
    return (path.cost, path.length, path.canonical)


def reference_search(phi, y, config, key=full_key):
    """(output, counters) of the search, written plainly."""
    n = phi.shape[1]
    ynorm = float(np.linalg.norm(y))
    threshold = config.effective_epsilon() * ynorm
    count = dict.fromkeys(COUNTERS, 0)
    live, opened, spent = [], set(), set()

    def ranked(residue, taken, width):
        corr = correlations(phi, residue)
        return sorted((j for j in range(n) if j not in taken), key=lambda j: (-corr[j], j))[:width]

    def open_path(path):
        live.append(path)
        opened.add(path.canonical)
        count["paths_opened"] += 1

    root = PathState((), (ynorm,), 0.0, IncrementalFactorization.empty(check_problem(phi, y)))
    chosen = root if ynorm == 0.0 else None
    reason = REASON_ALL_COMPLETE
    for j in ranked(y, (), config.initial_paths) if chosen is None else ():
        try:
            path = root.extended(j, config)
        except SingularSupportError:
            continue
        open_path(path)
        if chosen is None and path.fact.residue_norm <= threshold:
            chosen = path
    while chosen is None:
        incomplete = [p for p in live if id(p) not in spent and p.length < config.kmax]
        if not incomplete:
            break
        if count["iterations"] == config.max_iterations:
            reason = REASON_BUDGET
            break
        count["iterations"] += 1
        best = min(incomplete, key=key)
        consumed = False
        for j in ranked(best.fact.residue, best.support, config.branch):
            count["nodes_expanded"] += 1
            try:
                child = best.extended(j, config)
            except SingularSupportError:
                count["singular_skips"] += 1
                continue
            if child.fact.residue_norm <= threshold:
                chosen = child
                break
            if child.canonical in opened:
                count["equivalent_hits"] += 1
                continue
            if not consumed:
                live.remove(best)
                consumed = True
            elif len(live) >= config.max_paths:
                worst = max(live, key=key)
                if not child.cost < worst.cost:
                    continue
                live.remove(worst)
            open_path(child)
        if not consumed:
            spent.add(id(best))
    if chosen is None and live:
        chosen = min(live, key=key)
    support = chosen.support if chosen is not None else ()
    values = chosen.fact.coefficients() if chosen is not None else ()
    out = finish(check_problem(phi, y), support, values, config.effective_epsilon(), reason, "reference", 0.0)
    return out, count


def assert_same(phi, y, config):
    out = aomp_recover(phi, y, config)
    ref, count = reference_search(phi, y, config)
    assert (out.support, out.reason) == (ref.support, ref.reason)
    assert out.xhat.tobytes() == ref.xhat.tobytes()
    assert {name: getattr(out, name) for name in COUNTERS} == count
    return out


@st.composite
def searches(draw):
    m = draw(st.integers(2, 8))
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        phi = np.array(draw(st.lists(st.integers(-2, 2), min_size=m * n, max_size=m * n)), float)
    else:
        phi = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=m * n)
    phi = phi.reshape(m, n)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        phi[:, j] = phi[:, i]
    x = np.zeros(n)
    picked = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(m, n), unique=True))
    x[picked] = draw(st.lists(st.sampled_from([-2.0, -1.0, 1.0, 3.0]), min_size=len(picked),
                              max_size=len(picked)))
    y = phi @ x
    if draw(st.booleans()):
        y = y + np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=m)
    initial = draw(st.integers(1, 3))
    config = AompConfig(
        initial_paths=initial,
        branch=draw(st.integers(1, 3)),
        max_paths=draw(st.integers(initial, initial + 4)),
        kmax=draw(st.integers(1, m)),
        cost_model=draw(st.sampled_from(COST_MODELS)),
        termination=draw(st.sampled_from(TERMINATIONS)),
        max_iterations=draw(st.integers(1, 60)),
    )
    return phi, y, config


@settings(deadline=None, max_examples=300)
@given(searches())
def test_search_matches_the_reference(case):
    assert_same(*case)


def test_cost_ties_across_lengths_go_to_the_shorter_path():
    # orthonormal atoms and alpha_mul 1/2 make every cost exact.  On
    # y = (6, 8, 5) with kmax 3, round 2 exhausts {0}, and round 3 picks
    # between {2} (residue 10, cost 10/4) and {0, 1} (residue 5, cost 5/2):
    # the length rule takes {2}, though (0, 1) sorts before (2,)
    phi, y = np.eye(3), np.array([6.0, 8.0, 5.0])
    config = AompConfig(initial_paths=3, branch=1, max_paths=5, kmax=3, cost_model="mul",
                        alpha_mul=0.5, termination="sparsity", max_iterations=7)
    out = assert_same(phi, y, config)
    assert out.iterations == 4
    _, count = reference_search(phi, y, config, key=lambda p: (p.cost, p.canonical))
    assert count["iterations"] == 3
