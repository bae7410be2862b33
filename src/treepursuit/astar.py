"""Best-first tree-search recovery (the A*OMP family).

The search keeps up to P candidate support paths in cost order in a
registry keyed by their sorted support sets, which also remembers every set
ever opened.  Each round the cheapest incomplete path is expanded with its
B best-correlated atoms.  A candidate that meets the residue criterion ends
the search at once; otherwise it is inserted unless an equal support set
has been opened before, replacing the expanded path first, filling spare
capacity next, and finally displacing the costliest live path when it is
cheaper.  Two multiplicative cost models make paths of different lengths
comparable, and termination is either sparsity-based (paths capped at K
atoms, best complete path returned) or residue-based (terminate once some
candidate's residue drops below epsilon * ||y||).
"""

import time
from dataclasses import dataclass, asdict, field, fields

import numpy as np

from .baselines import omp_recover
from .linalg import (
    IncrementalFactorization,
    SingularSupportError,
    check_problem,
    correlations,
    top_indices,
)
from .results import (
    REASON_ALL_COMPLETE,
    REASON_BUDGET,
    REASON_RESIDUE,
    SettingsError,
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
    "cost_mul",
    "cost_amul",
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


def cost_mul(norms, kmax, alpha_mul):
    """Fixed-decay path cost: alpha^(kmax - l) * ||r_l||.

    norms is the residue-norm history of the path (norms[0] = ||y||), so
    the path length l is len(norms) - 1.  Unexplored positions are assumed
    to shrink the residue by the constant factor alpha_mul per atom.
    """
    if not 0.0 < alpha_mul < 1.0:
        raise ValueError("alpha_mul must lie in (0, 1)")
    length = len(norms) - 1
    if length > kmax:
        raise ValueError("path longer than kmax")
    return alpha_mul ** (kmax - length) * norms[-1]


def cost_amul(norms, kmax, alpha_amul):
    """Adaptive-decay path cost: (alpha * ||r_l|| / ||r_{l-1}||)^(kmax - l) * ||r_l||.

    The expected per-atom decay is taken from the path's own last step, so
    a path needs at least one selected atom.  A zero previous residue means
    the path already hit the signal exactly; its cost is zero.
    """
    if not 0.0 < alpha_amul <= 1.0:
        raise ValueError("alpha_amul must lie in (0, 1]")
    length = len(norms) - 1
    if length < 1:
        raise ValueError("adaptive cost needs at least one selected atom")
    if length > kmax:
        raise ValueError("path longer than kmax")
    prev, cur = norms[-2], norms[-1]
    if prev == 0.0:
        return 0.0
    return (alpha_amul * cur / prev) ** (kmax - length) * cur


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
        if self.initial_paths < 1:
            raise ValueError("initial_paths must be >= 1")
        if self.branch < 1:
            raise ValueError("branch must be >= 1")
        if self.max_paths < self.initial_paths:
            raise ValueError("max_paths must be >= initial_paths")
        if self.kmax < 1:
            raise ValueError("kmax must be >= 1")
        check_epsilon(self.epsilon)
        if self.cost_model not in COST_MODELS:
            raise ValueError("unknown cost model %r" % (self.cost_model,))
        if self.termination not in TERMINATIONS:
            raise ValueError("unknown termination rule %r" % (self.termination,))
        if not 0.0 < self.alpha_amul <= 1.0:
            raise ValueError("alpha_amul must lie in (0, 1]")
        if self.cost_model == COST_MUL and not 0.0 < self.alpha_mul < 1.0:
            raise ValueError("alpha_mul must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    @staticmethod
    def check_setting(key, value):
        """Raise ValueError unless `for_problem` takes `value` for `key`:
        a value of the field's type, or kmax "auto"."""
        if key not in _FIELD_KINDS:
            raise ValueError("unknown config key %r" % key)
        if (key, value) != ("kmax", "auto"):
            _check_type(key, value)

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
        if self.cost_model == COST_MUL:
            return cost_mul(norms, self.kmax, self.alpha_mul)
        return cost_amul(norms, self.kmax, self.alpha_amul)

    @classmethod
    def sparsity_based(cls, k, **settings):
        """Search capped at K atoms; the conventional decay is 0.8."""
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
        length for the undersampling ratio M/N, capped at M.  Unknown keys
        raise ValueError.
        """
        if settings.get("termination") == TERM_SPARSITY:
            return cls.sparsity_based(k, **settings)
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


@dataclass(eq=False)
class PathState:
    """One search path: ordered support, residue-norm history, cost.

    norms[0] is ||y||; norms[i] is the residue norm after the first i
    atoms.  canonical, the support in ascending atom order and the path's
    registry key, is derived once, when the path is built.  Paths compare
    by identity, so the trie can tell a live path from an equal-valued copy.
    exhausted marks a path whose expansion produced no new child; it is
    treated as complete so the search cannot revisit it.
    """

    support: tuple
    norms: tuple
    cost: float
    fact: IncrementalFactorization
    canonical: tuple = field(init=False)
    exhausted: bool = False

    def __post_init__(self):
        self.canonical = tuple(sorted(self.support))

    @property
    def length(self):
        return len(self.support)

    def complete(self, kmax):
        return self.exhausted or self.length >= kmax

    def extended(self, j, phi, config):
        """The child path with atom j appended; SingularSupportError when
        atom j lies numerically in the span of the support."""
        fact = self.fact.appended(j, phi[:, j])
        norms = self.norms + (fact.residue_norm,)
        return PathState(fact.support, norms, config.path_cost(norms), fact)


@dataclass
class ExpansionReport:
    """What one expansion round did."""

    terminated: PathState = None
    consumed: bool = False
    accepted: int = 0
    children_evaluated: int = 0
    equivalent_hits: int = 0
    singular_skips: int = 0
    cost_rejected: int = 0


def init_search(phi, y, config):
    """Seed the trie with the best single-atom paths.

    The initial_paths atoms maximizing |<phi_j, y>| extend the root path
    over the empty support into length-1 paths with projected residues.
    Returns (trie, done) where done is a path that already meets the
    residue criterion (the root itself for y = 0) or None.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_fits(config, phi.shape[0])
    n = phi.shape[1]
    corr = correlations(phi, y)
    trie = SearchTrie()
    ynorm = float(np.linalg.norm(y))
    # the root is never ranked, so its cost is a placeholder
    root = PathState((), (ynorm,), 0.0, IncrementalFactorization.empty(y))
    if ynorm == 0.0:
        return trie, root
    threshold = config.effective_epsilon() * ynorm
    done = None
    for j in top_indices(corr, min(config.initial_paths, n)):
        try:
            path = root.extended(j, phi, config)
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


def select_best_incomplete(trie, config):
    """Minimum-cost live path shorter than kmax, ties broken by the trie's
    cost order; None when all complete."""
    return trie.cheapest(lambda p: not p.complete(config.kmax))


def expand(trie, best, phi, y, config):
    """One expansion round: evaluate the branch best-correlated children.

    Candidates are taken in descending-correlation order (ties ascending
    index).  A candidate whose residue meets the criterion terminates the
    round immediately, before any pruning test.  Otherwise it is inserted
    when no equal support set was opened before and it beats the current
    replacement target: the expanded path itself is replaced by its first
    accepted child, spare capacity absorbs further children while fewer
    than max_paths are live, and after that a child must beat the worst
    live path by cost.  A path whose round accepts no child is marked
    exhausted.
    """
    report = ExpansionReport()
    n = phi.shape[1]
    corr = correlations(phi, best.fact.residue)
    if config.audit and best.support:
        held = float(np.max(corr[list(best.support)]))
        if held > 1e-10 * best.norms[0]:
            raise AuditError("expansion candidates overlap the path support")
    width = min(config.branch, n - best.length)
    if width < 1:
        best.exhausted = True
        return report
    threshold = config.effective_epsilon() * best.norms[0]
    for j in top_indices(corr, width, exclude=set(best.support)):
        report.children_evaluated += 1
        try:
            child = best.extended(j, phi, config)
        except SingularSupportError:
            report.singular_skips += 1
            continue
        if child.fact.residue_norm <= threshold:
            report.terminated = child
            return report
        if trie.has_equivalent(child.canonical):
            report.equivalent_hits += 1
            continue
        if not report.consumed:
            trie.remove(best)
            trie.insert(child)
            report.consumed = True
            report.accepted += 1
        elif trie.live_count < config.max_paths:
            trie.insert(child)
            report.accepted += 1
        else:
            worst = trie.costliest()
            if child.cost < worst.cost:
                trie.remove(worst)
                trie.insert(child)
                report.accepted += 1
            else:
                report.cost_rejected += 1
    if not report.consumed:
        best.exhausted = True
    return report


def _audit_trie(trie, config):
    live = trie.paths()
    if len(live) > config.max_paths:
        raise AuditError("live paths exceed max_paths")
    keys = set()
    for p in live:
        if p.canonical in keys:
            raise AuditError("two live paths share a support set")
        keys.add(p.canonical)
        if abs(config.path_cost(p.norms) - p.cost) > 1e-12:
            raise AuditError("stored cost is stale")
        slack = 1e-12 * max(1.0, p.norms[0])
        for a, b in zip(p.norms, p.norms[1:]):
            if b > a + slack:
                raise AuditError("residue history increased along a path")


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
    phi, y = check_problem(phi, y)
    trie, done = init_search(phi, y, config)
    counters = dict.fromkeys(
        ("iterations", "nodes_expanded", "equivalent_hits", "singular_skips"), 0
    )
    chosen = done
    reason = REASON_ALL_COMPLETE
    if chosen is None:
        while True:
            best = select_best_incomplete(trie, config)
            if best is None:
                break
            if counters["iterations"] >= config.max_iterations:
                reason = REASON_BUDGET
                break
            counters["iterations"] += 1
            report = expand(trie, best, phi, y, config)
            counters["nodes_expanded"] += report.children_evaluated
            counters["equivalent_hits"] += report.equivalent_hits
            counters["singular_skips"] += report.singular_skips
            if config.audit:
                _audit_trie(trie, config)
            if report.terminated is not None:
                chosen = report.terminated
                break
        if chosen is None:
            chosen = trie.cheapest()
    support, values = (), ()
    if chosen is not None:
        support, values = chosen.support, chosen.fact.coefficients()
    return finish(
        phi, y, support, values, config.effective_epsilon(), reason, "aomp", t0,
        paths_opened=trie.inserted_total, **counters,
    )


def hybrid_recover(phi, y, config, k):
    """Greedy first, search only on failure.

    Runs plain orthogonal matching pursuit up to k atoms; when that
    already meets the residue criterion its result is returned unchanged
    (stage "omp").  Otherwise the tree search runs from scratch with the
    same config (stage "astar").
    """
    t0 = time.perf_counter()
    phi, y = check_problem(phi, y)
    if not 1 <= k <= phi.shape[0]:
        raise ValueError("k must satisfy 1 <= k <= M")
    _check_fits(config, phi.shape[0])
    out = omp_recover(phi, y, epsilon=config.effective_epsilon(), max_iter=k)
    out.hybrid_stage = "omp"
    if out.reason != REASON_RESIDUE:
        out = aomp_recover(phi, y, config)
        out.hybrid_stage = "astar"
    out.solver = "hybrid"
    out.wall_time_ms = (time.perf_counter() - t0) * 1e3
    return out
