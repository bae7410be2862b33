"""Recovery result container shared by every solver, and its one builder."""

import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import _norm

__all__ = [
    "RecoveryOutput",
    "finish",
    "REASON_RESIDUE",
    "REASON_ALL_COMPLETE",
    "REASON_MAX_ITER",
    "REASON_STALLED",
    "REASON_DIVERGED",
    "REASON_BUDGET",
    "NUMERICAL_ERRORS",
    "SettingsError",
    "check_epsilon",
    "check_count",
    "attempt",
]

REASON_RESIDUE = "residue_met"
REASON_ALL_COMPLETE = "all_complete"
REASON_MAX_ITER = "max_iter"
REASON_STALLED = "stalled"
REASON_DIVERGED = "diverged"
REASON_BUDGET = "budget_exhausted"

# what a solver may raise on a numerically bad instance; `attempt` records
# these as failed recoveries and lets anything else, SettingsError too, out
NUMERICAL_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError)


class SettingsError(ValueError):
    """Solver settings that fit no instance of this shape, such as kmax > M."""


def check_epsilon(epsilon):
    """Raise ValueError unless epsilon, the residue target relative to
    ||y||, is >= 0; a negative or NaN target can never be met."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0, got %r" % (epsilon,))


def _count(value):
    """an integer >= 1"""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def check_count(name, value, limit=None, bound=None, error=ValueError):
    """Raise `error` unless `value`, the count argument `name`, is an int
    or numpy integer, not a bool, with 1 <= value <= limit (no upper limit
    when limit is None); `bound` names the limit, such as "M", in the
    message.  The one rule and message of every count argument."""
    if _count(value) and (limit is None or value <= limit):
        return
    if limit is None:
        rule = ">= 1"
    elif bound is None:
        rule = "with 1 <= %s <= %d" % (name, limit)
    else:
        rule = "with 1 <= %s <= %s = %d" % (name, bound, limit)
    raise error("%s must be an integer %s, got %r" % (name, rule, value))


def attempt(solver, phi, y, k):
    """(output, reason) of `solver.run(phi, y, k)` for a batch driver.

    A NUMERICAL_ERRORS exception gives (None, "<ExcType>: <message>");
    a SettingsError, or any other exception, propagates.
    """
    try:
        out = solver.run(phi, y, k)
    except SettingsError:
        raise
    except NUMERICAL_ERRORS as exc:
        return None, "%s: %s" % (type(exc).__name__, exc)
    return out, out.reason


@dataclass
class RecoveryOutput:
    """What a solver found and how hard it had to work.

    xhat is the dense length-N coefficient estimate, zero off support.
    support is kept in selection order.  residual_norm is ||y - phi @ xhat||
    for the returned estimate.  Solvers build it through `finish`.
    """

    n: int
    support: tuple
    xhat: np.ndarray
    reason: str
    solver: str = ""
    residual_norm: float = 0.0
    iterations: int = 0
    paths_opened: int = 0
    nodes_expanded: int = 0
    equivalent_hits: int = 0
    singular_skips: int = 0
    wall_time_ms: float = 0.0
    hybrid_stage: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def converged(self):
        """False when the solver ran out of budget or diverged."""
        return self.reason not in (REASON_BUDGET, REASON_DIVERGED)

    def to_dict(self, include_times=True):
        d = {
            "solver": self.solver,
            "n": self.n,
            "support": [int(j) for j in self.support],
            "coefficients": [float(self.xhat[j]) for j in self.support],
            "reason": self.reason,
            "residual_norm": float(self.residual_norm),
            "iterations": self.iterations,
            "paths_opened": self.paths_opened,
            "nodes_expanded": self.nodes_expanded,
            "equivalent_hits": self.equivalent_hits,
            "singular_skips": self.singular_skips,
            "converged": self.converged,
        }
        if self.hybrid_stage:
            d["hybrid_stage"] = self.hybrid_stage
        if self.extra:
            d["extra"] = self.extra
        if include_times:
            d["wall_time_ms"] = float(self.wall_time_ms)
        return d


def finish(problem, support, values, epsilon, reason, solver, t0, **counters):
    """The RecoveryOutput of every solver: one rule for residual and reason.

    `problem` is the solver's checked `linalg.Problem` and `values` are the
    coefficients of `support`, in its order.  The residual is recomputed
    as ||y - phi @ xhat||; the reason is residue_met exactly when it is at
    most epsilon * ||y||, and otherwise the `reason` the solver passed for
    stopping short.  `counters` are RecoveryOutput fields (iterations,
    paths_opened, ...); t0 is the solver's perf_counter start.
    """
    phi = problem.phi
    xhat = np.zeros(phi.shape[1])
    support = tuple(map(int, support))
    xhat[list(support)] = values
    residual = _norm(problem.y - phi.dot(xhat))
    if residual <= epsilon * problem.ynorm:
        reason = REASON_RESIDUE
    return RecoveryOutput(
        n=xhat.size,
        support=support,
        xhat=xhat,
        reason=reason,
        solver=solver,
        residual_norm=residual,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        **counters,
    )
