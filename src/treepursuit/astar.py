"""Best-first tree-search recovery (the A*OMP family).

The search keeps up to P candidate support paths in cost order in a
registry keyed by their sorted support sets, which also remembers every set
ever opened.  Each round the cheapest incomplete path is expanded with its
B best-correlated atoms.  A candidate whose support set has been opened
before is skipped without being factorized: a set is opened only after it
failed the residue test or ended the search, and the same set leaves the
same residue.  Any other candidate that meets the residue criterion ends
the search at once; otherwise it is inserted, replacing the expanded path
first, filling spare capacity next, and finally displacing the costliest
live path when it is cheaper.  Two multiplicative cost models make paths
of different lengths comparable, and termination is either sparsity-based
(paths capped at K atoms, best complete path returned) or residue-based
(terminate once some candidate's residue drops below epsilon * ||y||).
"""

import time
from bisect import bisect
from dataclasses import dataclass, asdict, fields

import numpy as np

from .baselines import omp_recover
from .linalg import (
    IncrementalFactorization,
    SingularSupportError,
    _top_few,
    check_problem,
    problem_shape,
)
from .results import (
    REASON_ALL_COMPLETE,
    REASON_BUDGET,
    REASON_RESIDUE,
    SettingsError,
    check_count,
    check_epsilon,
    finish,
)
from .trie import SearchTrie

__all__ = [
    "COST_MUL",
    "COST_AMUL",
    "TERM_SPARSITY",
    "TERM_RESIDUE",
    "COST_MODELS",
    "TERMINATIONS",
    "AompConfig",
    "PathState",
    "AuditError",
    "init_search",
    "select_best_incomplete",
    "expand",
    "ExpansionReport",
    "aomp_recover",
    "hybrid_recover",
]

COST_MUL = "mul"
COST_AMUL = "amul"
TERM_SPARSITY = "sparsity"
TERM_RESIDUE = "residue"
COST_MODELS = (COST_MUL, COST_AMUL)
TERMINATIONS = (TERM_RESIDUE, TERM_SPARSITY)

# sparsity-based runs still terminate early on an (essentially) exact hit
SPARSITY_EPSILON_FLOOR = 1e-6


class AuditError(AssertionError):
    """A search invariant was violated (only raised with audit enabled)."""


# the two cost formulas of `AompConfig.path_cost`, on a path's last two
# residue norms and the terms of `AompConfig.round_terms`
def _mul_cost(prev, cur, exponent, alpha):
    return alpha ** exponent * cur


def _amul_cost(prev, cur, exponent, alpha):
    if prev == 0.0:
        return 0.0
    return (alpha * cur / prev) ** exponent * cur


@dataclass(frozen=True)
class AompConfig:
    """Knobs of the tree search.

    initial_paths, branch and max_paths are the I/B/P of the search: how
    many single-atom paths seed the tree, how many children each expansion
    evaluates, and how many paths may be live at once.  kmax caps the path
    length; with sparsity termination it must equal the sparsity K of the
    problem.  epsilon is the residue threshold relative to ||y||.  A config
    is immutable and checks itself when built (ValueError).
    """

    initial_paths: int = 3
    branch: int = 2
    max_paths: int = 200
    kmax: int = 55
    epsilon: float = 1e-6
    cost_model: str = COST_AMUL
    alpha_mul: float = 0.9
    alpha_amul: float = 0.97
    termination: str = TERM_RESIDUE
    audit: bool = False  # per-iteration invariant checks
    max_iterations: int = 1_000_000

    def __post_init__(self):
        self.validate()

    def validate(self):
        for key, kinds in _FIELD_KINDS.items():
            value = getattr(self, key)
            if type(value) not in kinds:  # a listed type skips isinstance; one config per solve
                _check_type(key, value)
        for key in ("initial_paths", "branch", "kmax", "max_iterations"):
            check_count(key, getattr(self, key))
        if self.max_paths < self.initial_paths:
            raise ValueError("max_paths must be >= initial_paths")
        check_epsilon(self.epsilon)
        if self.cost_model not in COST_MODELS:
            raise ValueError("unknown cost model %r" % (self.cost_model,))
        if self.termination not in TERMINATIONS:
            raise ValueError("unknown termination rule %r" % (self.termination,))
        if not 0.0 < self.alpha_amul <= 1.0:
            raise ValueError("alpha_amul must lie in (0, 1]")
        if self.cost_model == COST_MUL and not 0.0 < self.alpha_mul < 1.0:
            raise ValueError("alpha_mul must lie in (0, 1)")

    @staticmethod
    def check_setting(key, value):
        """Raise ValueError unless `for_problem` takes `value` for `key`:
        a value of the field's type, or kmax "auto".  Returns whether the
        value is known before the instance: False only for kmax "auto",
        which `for_problem` sizes from the instance."""
        if key not in _FIELD_KINDS:
            raise ValueError("unknown config key %r" % key)
        if (key, value) == ("kmax", "auto"):
            return False
        _check_type(key, value)
        return True

    @staticmethod
    def reads(cost_model, termination):
        """The keys a search with this cost model and termination reads."""
        unused = {"alpha_amul" if cost_model == COST_MUL else "alpha_mul"}
        if termination == TERM_SPARSITY:
            unused.add("kmax")  # paths stop at K
        return tuple(key for key in _FIELD_KINDS if key not in unused)

    def effective_epsilon(self):
        if self.termination == TERM_SPARSITY:
            return max(self.epsilon, SPARSITY_EPSILON_FLOOR)
        return self.epsilon

    def path_cost(self, norms):
        """The cost of a path of length l = len(norms) - 1, 1 <= l <= kmax,
        whose residue-norm history is `norms` (norms[0] = ||y||).

        mul: alpha_mul^(kmax - l) * ||r_l||, a fixed decay per unexplored
        position.  amul: (alpha_amul * ||r_l|| / ||r_{l-1}||)^(kmax - l) *
        ||r_l||, the decay of the path's own last step; zero when
        ||r_{l-1}|| = 0, a path that already met y exactly.  Checks nothing:
        `validate` checked alpha, and the search builds no path outside
        1..kmax.  The formula and its terms are those `round_terms` gives
        the children of the path's parent."""
        formula, exponent, alpha = self.round_terms(norms[:-1])
        return formula(norms[-2], norms[-1], exponent, alpha)

    def round_terms(self, norms):
        """(formula, exponent, alpha) of the children of a path whose
        residue-norm history is `norms`: a child of length l = len(norms)
        costs formula(norms[-1], ||r_l||, kmax - l, alpha).  Taken once per
        round by `expand` and `init_search`, and by `path_cost`."""
        if self.cost_model == COST_MUL:
            return _mul_cost, self.kmax - len(norms), self.alpha_mul
        return _amul_cost, self.kmax - len(norms), self.alpha_amul

    @classmethod
    def sparsity_based(cls, k, **settings):
        """Search capped at K atoms; the conventional decay is 0.8.  K is
        checked by `results.check_count` (SettingsError); K <= M waits for
        the instance."""
        check_count("k", k, error=SettingsError)
        if settings.get("kmax", "auto") not in ("auto", k):
            raise ValueError(
                "sparsity termination caps paths at K = %d, not kmax = %r" % (k, settings["kmax"])
            )
        return cls.from_dict(
            {"alpha_mul": 0.8, **settings, "kmax": int(k), "termination": TERM_SPARSITY}
        )

    @classmethod
    def for_problem(cls, m, n, k, **settings):
        """The search config for an M x N problem of sparsity K.

        Sparsity termination is `sparsity_based(k)`.  Under residue
        termination kmax "auto" (the default) is the widest useful path
        length for the undersampling ratio M/N, capped at M.  K is checked
        by `results.check_count` (SettingsError); unknown keys raise
        ValueError.
        """
        if settings.get("termination") == TERM_SPARSITY:
            return cls.sparsity_based(k, **settings)
        check_count("k", k, error=SettingsError)
        if settings.get("kmax", "auto") == "auto":
            settings["kmax"] = min(m, max(k + 1, round((0.5 + 0.5 * (m / n)) * m)))
        return cls.from_dict(settings)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        return cls(**d)


# the values a field of each declared type takes, that type first; a
# bool, though an int, only where the field is a bool
_KINDS = {
    int: (int, np.integer),
    float: (float, int, np.floating, np.integer),
    str: (str,),
    bool: (bool, np.bool_),
}
_FIELD_KINDS = {f.name: _KINDS[f.type] for f in fields(AompConfig)}


def _check_type(key, value):
    kinds = _FIELD_KINDS[key]
    if not isinstance(value, kinds) or (type(value) is bool and kinds[0] is not bool):
        raise ValueError(
            "config key %r must be of type %s, not %r" % (key, kinds[0].__name__, value)
        )


@dataclass(eq=False, slots=True)
class PathState:
    """One search path: ordered support, residue-norm history, cost.

    norms[0] is ||y||; norms[i] is the residue norm after the first i
    atoms.  canonical, the support in ascending atom order and the path's
    registry key, is derived once, when the path is built: a child's is
    its parent's with the new atom inserted (`_with_atom`), and a path built
    without one sorts its support.  Paths compare by identity, so the trie
    can tell a live path from an equal-valued copy.
    """

    support: tuple
    norms: tuple
    cost: float
    fact: IncrementalFactorization
    canonical: tuple = None

    def __post_init__(self):
        if self.canonical is None:
            self.canonical = tuple(sorted(self.support))

    @property
    def length(self):
        return len(self.support)

    def extended(self, j, config, key=None):
        """The child path with atom j appended, keyed by `key` (by default
        its sorted support); SingularSupportError when atom j lies numerically
        in the span of the support.  The child is priced from this path's
        correlations; its residue is formed at once only within twice the
        residue threshold, so every termination test reads a formed one."""
        if key is None:
            key = _with_atom(self.canonical, j)
        norms = self.norms
        limit = 2.0 * config.effective_epsilon() * norms[0]
        return _child(self.fact, norms, j, limit, config.round_terms(norms), key)


def _with_atom(key, j):
    """The registry key `key`, a sorted support, with atom j inserted."""
    i = bisect(key, j)
    return key[:i] + (j,) + key[i:]


def _child(parent, norms, j, limit, terms, key):
    """The path with atom j appended to the path of factorization `parent`
    and residue norms `norms`, priced by `terms`, the parent's
    `AompConfig.round_terms`: the one builder of `PathState.extended`,
    `init_search` and `expand`, which take `limit` and `terms` once per
    round."""
    fact = parent._priced(j, limit)
    cur = fact.residue_norm
    formula, exponent, alpha = terms
    cost = formula(norms[-1], cur, exponent, alpha)
    return PathState(fact.support, norms + (cur,), cost, fact, key)


@dataclass(slots=True)
class ExpansionReport:
    """What one expansion round did."""

    terminated: PathState = None
    accepted: int = 0
    children_evaluated: int = 0
    equivalent_hits: int = 0
    singular_skips: int = 0
    cost_rejected: int = 0


def init_search(problem, config):
    """Seed the trie with the best single-atom paths of a checked `Problem`.

    The initial_paths atoms maximizing |<phi_j, y>| (ties by ascending
    index) extend the root path over the empty support into length-1
    paths with projected residues.  They are ranked from the root's own
    signed correlations phi^T y, the product that prices them.
    Returns (trie, done) where done is a path that already meets the
    residue criterion (the root itself for y = 0) or None.
    """
    m, n = problem.phi.shape
    _check_fits(config, m)
    trie = SearchTrie(config.kmax)
    fact = IncrementalFactorization.empty(problem)
    ynorm = problem.ynorm
    # the root is never ranked, so its cost is a placeholder
    root = PathState((), (ynorm,), 0.0, fact)
    if ynorm == 0.0:
        return trie, root
    threshold = config.effective_epsilon() * ynorm
    limit = 2.0 * threshold
    norms = root.norms
    terms = config.round_terms(norms)
    done = None
    # the seeds are ranked from the correlations that price them
    corr = np.abs(fact.signed_correlations())
    for j in _top_few(corr, min(config.initial_paths, n), ()):
        try:
            path = _child(fact, norms, j, limit, terms, (j,))
        except SingularSupportError:
            continue
        trie.insert(path)
        if done is None and path.fact.residue_norm <= threshold:
            done = path
    return trie, done


def _check_fits(config, m):
    """The config's paths fit M measurements: kmax <= M."""
    if config.kmax > m:
        raise SettingsError(
            "kmax = %d exceeds the number of measurements M = %d" % (config.kmax, m)
        )


def select_best_incomplete(trie):
    """Minimum-cost open path, ties broken by the trie's cost order; None
    when every live path is closed (kmax atoms, or its round kept no child)."""
    return trie.cheapest_open()


def expand(trie, best, config):
    """One expansion round: evaluate the branch best-correlated children.

    Candidates are taken in descending-correlation order (ties ascending
    index).  A candidate whose support set was opened before counts as an
    equivalent hit and is not factorized: that set failed the residue test
    when it was opened (or ended the search), and the same set leaves the
    same residue.  Any other candidate whose residue meets the criterion
    terminates the round immediately.  Otherwise it is inserted when it
    beats the current replacement target: the expanded path itself is
    replaced by its first accepted child, spare capacity absorbs further
    children while fewer than max_paths are live, and after that a child
    must beat the worst live path by cost.  A path whose round accepts no
    child is closed: it stays live but is not expanded again.
    """
    # what every child reads of its parent, and below of the config, is
    # read once per round
    fact, norms, canonical = best.fact, best.norms, best.canonical
    # the children are priced from the same signed correlations
    corr = np.abs(fact.signed_correlations())
    if config.audit and canonical:
        held = float(np.max(corr[list(canonical)]))
        if held > 1e-10 * norms[0]:
            raise AuditError("expansion candidates overlap the path support")
    width = min(config.branch, fact.problem.phi.shape[1] - len(canonical))
    if width < 1:
        trie.close(best)
        return ExpansionReport()
    threshold = config.effective_epsilon() * norms[0]
    limit = 2.0 * threshold
    terms = config.round_terms(norms)
    terminated = None
    accepted = evaluated = hits = singular = rejected = 0
    for j in _top_few(corr, width, best.support):
        evaluated += 1
        key = _with_atom(canonical, j)
        if trie.has_equivalent(key):
            hits += 1
            continue
        try:
            child = _child(fact, norms, j, limit, terms, key)
        except SingularSupportError:
            singular += 1
            continue
        if child.fact.residue_norm <= threshold:
            terminated = child
            break
        if not accepted:
            trie.remove(best)
            trie.insert(child)
            accepted += 1
        elif trie.live_count < config.max_paths:
            trie.insert(child)
            accepted += 1
        else:
            worst = trie.costliest()
            if child.cost < worst.cost:
                trie.remove(worst)
                trie.insert(child)
                accepted += 1
            else:
                rejected += 1
    if terminated is None and not accepted:
        trie.close(best)
    return ExpansionReport(terminated, accepted, evaluated, hits, singular, rejected)


def _audit_trie(trie, config, checked):
    """Check the live paths; returns, for the next round's `checked`, the
    (norms, cost) each live path passed with.  The cap and the distinct
    supports are checked every round; a path's cost and residue history
    only when its norms or cost differ from its entry in `checked`, since
    a tuple cannot change in place and the config is frozen."""
    live = trie.paths()
    if len(live) > config.max_paths:
        raise AuditError("live paths exceed max_paths")
    keys = set()
    passed = {}
    for p in live:
        if p.canonical in keys:
            raise AuditError("two live paths share a support set")
        keys.add(p.canonical)
        norms, cost = p.norms, p.cost
        if checked.get(p) != (norms, cost):
            if abs(config.path_cost(norms) - cost) > 1e-12:
                raise AuditError("stored cost is stale")
            slack = 1e-12 * max(1.0, norms[0])
            for a, b in zip(norms, norms[1:]):
                if b > a + slack:
                    raise AuditError("residue history increased along a path")
        passed[p] = norms, cost
    return passed


def aomp_recover(phi, y, config=None):
    """Recover a sparse coefficient vector by best-first tree search.

    Deterministic: identical (phi, y, config) give identical
    output apart from wall_time_ms.  The returned reason is residue_met
    exactly when ||y - phi @ xhat|| <= epsilon * ||y|| for the effective
    epsilon; otherwise budget_exhausted when max_iterations ran out, else
    all_complete (the search fell back to the best path it holds, a
    recovery failure under residue-based termination).
    """
    t0 = time.perf_counter()
    if config is None:
        config = AompConfig()
    problem = check_problem(phi, y)
    trie, done = init_search(problem, config)
    iterations = nodes_expanded = equivalent_hits = singular_skips = 0
    checked = {}
    chosen = done
    reason = REASON_ALL_COMPLETE
    if chosen is None:
        while True:
            best = select_best_incomplete(trie)
            if best is None:
                break
            if iterations >= config.max_iterations:
                reason = REASON_BUDGET
                break
            iterations += 1
            report = expand(trie, best, config)
            nodes_expanded += report.children_evaluated
            equivalent_hits += report.equivalent_hits
            singular_skips += report.singular_skips
            if config.audit:
                checked = _audit_trie(trie, config, checked)
            if report.terminated is not None:
                chosen = report.terminated
                break
        if chosen is None:
            chosen = trie.cheapest()
    support, values = (), ()
    if chosen is not None:
        support, values = chosen.support, chosen.fact.coefficients()
    return finish(
        problem, support, values, config.effective_epsilon(), reason, "aomp", t0,
        paths_opened=trie.inserted_total, iterations=iterations, nodes_expanded=nodes_expanded,
        equivalent_hits=equivalent_hits, singular_skips=singular_skips,
    )


def hybrid_recover(phi, y, config, k):
    """Greedy first, search only on failure.

    Runs plain orthogonal matching pursuit up to k atoms; when that
    already meets the residue criterion its result is returned unchanged
    (stage "omp").  Otherwise the tree search runs from scratch with the
    same config (stage "astar").  Checks the shape of the problem, k and
    the config; each stage checks the rest of the problem.
    """
    t0 = time.perf_counter()
    m = problem_shape(phi, y)[0]
    check_count("k", k, m, "M", SettingsError)
    _check_fits(config, m)
    out = omp_recover(phi, y, epsilon=config.effective_epsilon(), max_iter=k)
    out.hybrid_stage = "omp"
    if out.reason != REASON_RESIDUE:
        out = aomp_recover(phi, y, config)
        out.hybrid_stage = "astar"
    out.solver = "hybrid"
    out.wall_time_ms = (time.perf_counter() - t0) * 1e3
    return out
