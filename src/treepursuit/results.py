"""Recovery result container shared by every solver."""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RecoveryOutput",
    "REASON_RESIDUE",
    "REASON_ALL_COMPLETE",
    "REASON_MAX_ITER",
    "REASON_STALLED",
    "REASON_DIVERGED",
    "REASON_BUDGET",
    "NUMERICAL_ERRORS",
]

REASON_RESIDUE = "residue_met"
REASON_ALL_COMPLETE = "all_complete"
REASON_MAX_ITER = "max_iter"
REASON_STALLED = "stalled"
REASON_DIVERGED = "diverged"
REASON_BUDGET = "budget_exhausted"

# what a solver may raise on a numerically bad instance; batch drivers
# record these as failed recoveries and let anything else propagate
NUMERICAL_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError)


@dataclass
class RecoveryOutput:
    """What a solver found and how hard it had to work.

    xhat is the dense length-N coefficient estimate, zero off support.
    support is kept in selection order.  residual_norm is ||y - phi @ xhat||
    for the returned estimate.
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
    converged: bool = True
    hybrid_stage: str = ""
    extra: dict = field(default_factory=dict)

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
