"""Sparse-signal recovery with best-first tree search over matching pursuits.

The central solver keeps a bounded set of candidate supports, extends the
most promising one by its best-correlated atoms, and scores partial
supports with cost models that anticipate the residue decay still to come.
Classic greedy baselines, restricted-isometry diagnostics, seeded problem
generation, batch experiment drivers, and a block-sparse image pipeline
round out the toolkit.  The top level re-exports the entry points of the
quick start; everything else is imported from its module.
"""

__version__ = "0.1.0"

from .astar import AompConfig, aomp_recover
from .experiments import EXACT_RTOL, make_solver, relative_error, run_batch
from .haar import haar_basis
from .imaging import recover_image, synthetic_image
from .siggen import gen_problem

__all__ = [
    "__version__",
    "AompConfig",
    "aomp_recover",
    "EXACT_RTOL",
    "gen_problem",
    "haar_basis",
    "make_solver",
    "recover_image",
    "relative_error",
    "run_batch",
    "synthetic_image",
]
