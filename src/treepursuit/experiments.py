"""Seeded recovery batches, sparsity sweeps, and empirical phase transitions.

Instances are keyed by (base_seed, trial), never by solver, so different
solvers run on byte-identical instances and comparisons are paired.  Wall
time per trial covers the solver call only.  Aggregates (exact-recovery
rate, average normalized MSE, mean time) are all recomputable from the
emitted per-trial records.
"""

import csv
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .astar import (
    COST_AMUL,
    COST_MUL,
    TERM_RESIDUE,
    TERM_SPARSITY,
    AompConfig,
    aomp_recover,
    hybrid_recover,
)
from .baselines import (
    SETTINGS,
    _count,
    check_settings,
    omp_recover,
    sp_recover,
    iht_recover,
    fbp_recover,
    mmp_df_recover,
)
from .linalg import problem_shape
from .results import SettingsError, attempt
from .siggen import derive_seed, gen_problem

__all__ = [
    "EXACT_RTOL",
    "relative_error",
    "anmse",
    "SOLVERS",
    "SolverSpec",
    "make_solver",
    "TrialRecord",
    "TrialBatchResult",
    "run_batch",
    "sweep_k",
    "SweepResult",
    "fit_rho_star",
    "phase_transition",
    "PhaseTransitionCurve",
    "write_records_csv",
]

# an instance counts as exactly recovered when ||x - xhat|| <= 0.01 ||x||
EXACT_RTOL = 1e-2

RECORD_FIELDS = [
    "solver", "seed", "N", "M", "K", "ensemble", "exact", "rel_err", "time_ms", "failed", "reason",
]
SUMMARY_FIELDS = ["solver", "K", "rate", "anmse", "mean_time_ms", "trials"]


def relative_error(x, xhat):
    xn = float(np.linalg.norm(x))
    if xn == 0.0:
        raise ValueError("reference vector has zero norm")
    return float(np.linalg.norm(np.asarray(x) - np.asarray(xhat))) / xn


def anmse(rel_errors):
    """Average normalized squared error: mean of squared relative errors.

    Non-finite entries are excluded with a warning.
    """
    errs = np.asarray(list(rel_errors), dtype=float)
    if errs.size == 0:
        raise ValueError("anmse needs at least one error")
    finite = np.isfinite(errs)
    if not finite.all():
        warnings.warn("excluding %d non-finite errors" % int((~finite).sum()))
        errs = errs[finite]
        if errs.size == 0:
            raise ValueError("no finite errors left")
    return float(np.mean(errs**2))


# the shape is checked before it picks kmax "auto"; the solver called
# checks the rest of the problem
def _search(phi, y, k, **settings):
    return aomp_recover(phi, y, AompConfig.for_problem(*problem_shape(phi, y), k, **settings))


def _hybrid(phi, y, k, **settings):
    return hybrid_recover(phi, y, AompConfig.for_problem(*problem_shape(phi, y), k, **settings), k)


class Solver(NamedTuple):
    call: Callable  # (phi, y, k, **params) -> RecoveryOutput
    fixed: dict  # the settings its label fixes


# Every solver by label; a tree-search label fixes its cost model and
# termination.  The calls look their solver function up when they run,
# so a wrapper installed on a module attribute sees every call.
SOLVERS = {
    "amul-aompe": Solver(_search, {"cost_model": COST_AMUL, "termination": TERM_RESIDUE}),
    "mul-aompe": Solver(_search, {"cost_model": COST_MUL, "termination": TERM_RESIDUE}),
    "mul-aompk": Solver(_search, {"cost_model": COST_MUL, "termination": TERM_SPARSITY}),
    "amul-aompk": Solver(_search, {"cost_model": COST_AMUL, "termination": TERM_SPARSITY}),
    "hybrid": Solver(_hybrid, {}),
    "omp": Solver(lambda phi, y, k, **p: omp_recover(phi, y, **p), {}),
    "sp": Solver(lambda phi, y, k, **p: sp_recover(phi, y, k, **p), {}),
    "iht": Solver(lambda phi, y, k, **p: iht_recover(phi, y, k, **p), {}),
    "fbp": Solver(lambda phi, y, k, **p: fbp_recover(phi, y, **p), {}),
    "mmp-df": Solver(lambda phi, y, k, **p: mmp_df_recover(phi, y, k, **p), {}),
}


def _search_kind(params):
    """The cost model and termination of params, AompConfig's defaults
    standing in for those not given."""
    return {
        key: params.get(key, getattr(AompConfig, key)) for key in ("cost_model", "termination")
    }


def _aomp_label(params):
    """The tree-search label whose fixed settings match params."""
    wanted = _search_kind(params)
    for label, solver in SOLVERS.items():
        if solver.fixed == wanted:
            return label
    raise ValueError("no tree search with %s" % wanted)


@dataclass
class SolverSpec:
    """A named, parameterized solver that can be run on any instance.

    name is a label of SOLVERS, or "aomp" for the tree search whose
    cost_model and termination params (default amul, residue) pick the
    label.  Params are checked when the spec is built, search settings
    through AompConfig; only kmax "auto" and kmax <= M wait for the
    instance.  Plain data, so specs travel across process boundaries for
    parallel batches; the sparsity k of the instance is always passed to
    `run`.
    """

    name: str
    params: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        params = dict(self.params)
        if self.name == "aomp":
            self.name = _aomp_label(params)
        if self.name not in SOLVERS:
            raise ValueError(
                "unknown solver %r (known: aomp, %s)" % (self.name, ", ".join(SOLVERS))
            )
        solver = SOLVERS[self.name]
        for key, value in params.items():
            if key in solver.fixed and value != solver.fixed[key]:
                raise ValueError("%s fixes %s=%r" % (self.name, key, solver.fixed[key]))
        self.params = {**solver.fixed, **params}
        for key in params.keys() - solver.fixed.keys():
            if key not in self.accepts:
                raise ValueError(
                    "%s takes no %r (it takes: %s)" % (self.name, key, ", ".join(self.accepts))
                )
        if solver.call in (_search, _hybrid):
            AompConfig.from_dict(
                {key: v for key, v in self.params.items() if AompConfig.check_setting(key, v)}
            )
        else:
            check_settings(self.name, **self.params)
        self.label = self.label or self.name

    @property
    def accepts(self):
        """The param names the solver takes besides its fixed ones."""
        solver = SOLVERS[self.name]
        if solver.call in (_search, _hybrid):
            keys = AompConfig.reads(**_search_kind(self.params))
            return tuple(key for key in keys if key not in solver.fixed)
        return tuple(SETTINGS[self.name])

    def run(self, phi, y, k):
        return SOLVERS[self.name].call(phi, y, k, **self.params)


def make_solver(name, **params):
    label = params.pop("label", "")
    return SolverSpec(name=name, params=params, label=label)


@dataclass
class TrialRecord:
    solver: str
    seed: int
    n: int
    m: int
    k: int
    ensemble: str
    exact: bool
    rel_err: float
    time_ms: float
    failed: bool = False
    reason: str = ""


@dataclass
class TrialBatchResult:
    records: list

    @property
    def trials(self):
        return len(self.records)

    @property
    def rate(self):
        return float(np.mean([r.exact for r in self.records]))

    @property
    def anmse(self):
        return anmse([r.rel_err for r in self.records])

    @property
    def mean_time_ms(self):
        return float(np.mean([r.time_ms for r in self.records]))


def _run_trial(solver, n, m, k, ensemble, seed):
    ens, inst = gen_problem(m, n, k, ensemble, seed)
    t0 = time.perf_counter()
    out, reason = attempt(solver, ens.phi, inst.y, k)
    elapsed = (time.perf_counter() - t0) * 1e3
    failed = out is None
    rel = 1.0 if failed else relative_error(inst.x, out.xhat)
    return TrialRecord(
        solver=solver.label,
        seed=seed,
        n=n,
        m=m,
        k=k,
        ensemble=ensemble,
        exact=bool(rel <= EXACT_RTOL),
        rel_err=rel,
        time_ms=elapsed,
        failed=failed,
        reason=reason,
    )


def _run_trial_star(args):
    return _run_trial(*args)


def run_batch(solver, n, m, k, ensemble, trials, base_seed, jobs=1):
    """`trials` paired instances through one solver.

    Instance seeds derive from (base_seed, trial index) only, so a second
    call with another solver sees the same instances.  With jobs > 1 the
    trials run in a process pool; results are identical either way.
    Trials run through `results.attempt`, so a SettingsError propagates.
    jobs must be an int >= 1 (not a bool); it is checked before any trial
    runs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not _count(jobs):
        raise ValueError("jobs must be an integer >= 1, got %r" % (jobs,))
    args = [
        (solver, n, m, k, ensemble, derive_seed(base_seed, "trial", t))
        for t in range(trials)
    ]
    if jobs == 1:
        records = [_run_trial(*a) for a in args]
    else:
        # imported here so that importing the package loads no process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_trial_star, args))
    return TrialBatchResult(records)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_records_csv(records, path):
    _write_csv(path, RECORD_FIELDS, ([
        r.solver, r.seed, r.n, r.m, r.k, r.ensemble, int(r.exact),
        repr(r.rel_err), repr(r.time_ms), int(r.failed), r.reason,
    ] for r in records))


@dataclass
class SweepResult:
    n: int
    m: int
    ensemble: str
    trials: int
    batches: dict  # {k: {label: TrialBatchResult}}

    def records(self):
        out = []
        for k in sorted(self.batches):
            for label in sorted(self.batches[k]):
                out.extend(self.batches[k][label].records)
        return out

    def summary_rows(self):
        rows = []
        for k in sorted(self.batches):
            for label in sorted(self.batches[k]):
                b = self.batches[k][label]
                values = (label, k, b.rate, b.anmse, b.mean_time_ms, b.trials)
                rows.append(dict(zip(SUMMARY_FIELDS, values)))
        return rows

    def write_summary_csv(self, path):
        _write_csv(path, SUMMARY_FIELDS, (row.values() for row in self.summary_rows()))


def sweep_k(solvers, n, m, k_values, ensemble, trials, base_seed, jobs=1):
    """Rate/ANMSE/time for each solver across sparsity levels, paired."""
    labels = [s.label for s in solvers]
    if len(set(labels)) != len(labels):
        raise ValueError("solver labels must be unique")
    k_values = [int(k) for k in k_values]
    if len(set(k_values)) != len(k_values):
        raise ValueError("k values must be unique")
    batches = {}
    for k in k_values:
        seed_k = derive_seed(base_seed, "sweep", k)
        batches[k] = {
            s.label: run_batch(s, n, m, k, ensemble, trials, seed_k, jobs=jobs)
            for s in solvers
        }
    return SweepResult(n=n, m=m, ensemble=ensemble, trials=trials, batches=batches)


def _logistic_mle(rho, successes, trials, max_iter=60):
    """Newton-scored two-parameter logistic fit; None on failure/separation."""
    x = np.column_stack([np.ones(len(rho)), np.asarray(rho, dtype=float)])
    s = np.asarray(successes, dtype=float)
    t = np.asarray(trials, dtype=float)
    theta = np.zeros(2)
    for _ in range(max_iter):
        eta = np.clip(x @ theta, -35.0, 35.0)
        p = 1.0 / (1.0 + np.exp(-eta))
        w = t * p * (1.0 - p)
        grad = x.T @ (s - t * p)
        hess = x.T @ (x * w[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return None
        theta = theta + step
        if float(np.max(np.abs(step))) < 1e-10:
            if abs(theta[1]) > 1e4:  # quasi-separation, slope runs away
                return None
            return theta
    return None


def _pav_nonincreasing(values, weights):
    """Pool-adjacent-violators fit of a nonincreasing sequence."""
    blocks = [[-v, w] for v, w in zip(values, weights)]
    merged = []
    for val, w in blocks:
        merged.append([val, w])
        while len(merged) > 1 and merged[-2][0] > merged[-1][0]:
            v2, w2 = merged.pop()
            v1, w1 = merged.pop()
            merged.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    out = []
    idx = 0
    for val, w in merged:
        taken = 0
        while idx < len(blocks) and taken < w:
            taken += blocks[idx][1]
            out.append(-val)
            idx += 1
    return np.asarray(out)


def fit_rho_star(rhos, successes, trials):
    """Crossing point of the success curve with 1/2 along rho.

    Fits a two-parameter logistic by maximum likelihood; when the fit
    degenerates (separated data, runaway slope, wrong-signed slope) it
    falls back to bisecting a monotone isotonic fit.  Returns
    (rho_star, censored) where censored is None, "low" (success never
    reaches 1/2 inside the tested range) or "high" (success never drops
    to 1/2).
    """
    rhos = np.asarray(rhos, dtype=float)
    successes = np.asarray(successes, dtype=float)
    trials = np.asarray(trials, dtype=float)
    if rhos.size == 0:
        raise ValueError("empty rho grid")
    order = np.argsort(rhos)
    rhos, successes, trials = rhos[order], successes[order], trials[order]
    if np.all(successes == trials):
        return None, "high"
    if np.all(successes == 0):
        return None, "low"
    theta = _logistic_mle(rhos, successes, trials)
    if theta is not None and theta[1] < 0:
        star = -theta[0] / theta[1]
        if rhos[0] <= star <= rhos[-1]:
            return float(star), None
        return None, ("high" if star > rhos[-1] else "low")
    iso = _pav_nonincreasing(successes / trials, trials)
    below = np.flatnonzero(iso < 0.5)
    if below.size == 0:
        return None, "high"
    i = int(below[0])
    if i == 0:
        return None, "low"
    hi_rate, lo_rate = iso[i - 1], iso[i]
    star = rhos[i - 1] + (hi_rate - 0.5) * (rhos[i] - rhos[i - 1]) / (hi_rate - lo_rate)
    return float(star), None


@dataclass
class PhaseCell:
    """One (lambda, rho) cell; successes is None when the solver cannot
    take its (M, K)."""

    lam: float
    rho: float
    m: int
    k: int
    successes: int
    trials: int

    @property
    def rate(self):
        return None if self.successes is None else self.successes / self.trials


@dataclass
class PhasePoint:
    lam: float
    rho_star: float
    censored: str
    trials: int


@dataclass
class PhaseTransitionCurve:
    solver: str
    n: int
    ensemble: str
    cells: list
    points: list

    def write_points_csv(self, path):
        _write_csv(path, ["lambda", "rho_star", "censored", "trials"], ([
            repr(p.lam), "" if p.rho_star is None else repr(p.rho_star), p.censored or "", p.trials,
        ] for p in self.points))

    def write_grid_csv(self, path):
        _write_csv(path, ["lambda", "rho", "M", "K", "successes", "trials", "rate"], (
            [repr(c.lam), repr(c.rho), c.m, c.k, "" if c.successes is None else c.successes,
             c.trials, "" if c.rate is None else repr(c.rate)]
            for c in self.cells
        ))


def phase_transition(solver, n, lambdas, rhos, trials, base_seed, ensemble="gaussian", jobs=1):
    """Empirical phase-transition curve on the (lambda, rho) grid.

    lambda = M/N fixes the undersampling, rho = K/M the sparsity fraction
    of each cell; every cell runs `trials` paired instances and per-lambda
    columns are reduced to the rho where the logistic success fit crosses
    1/2 (censored when it never does inside the grid).  A cell whose batch
    raises SettingsError, a K the solver cannot take at that M, is not
    applicable: it keeps no successes and the fit leaves it out, and a
    column with no applicable cell is censored "n/a".  When no cell of the
    grid is applicable the first error propagates.
    """
    lambdas = [float(l) for l in lambdas]
    rhos = [float(r) for r in rhos]
    if not lambdas or not rhos:
        raise ValueError("lambda and rho grids must be nonempty")
    if any(not 0 < l <= 1 for l in lambdas) or any(not 0 < r <= 1 for r in rhos):
        raise ValueError("lambda and rho values must lie in (0, 1]")
    cells = []
    points = []
    refused = None
    for li, lam in enumerate(lambdas):
        m = max(1, round(lam * n))
        col = []
        for ri, rho in enumerate(rhos):
            k = min(m, max(1, round(rho * m)))
            try:
                batch = run_batch(
                    solver, n, m, k, ensemble, trials,
                    derive_seed(base_seed, "phase", li, ri), jobs=jobs,
                )
            except SettingsError as exc:
                refused = refused or exc
                successes = None
            else:
                successes = int(sum(r.exact for r in batch.records))
            cell = PhaseCell(lam=lam, rho=rho, m=m, k=k, successes=successes, trials=trials)
            cells.append(cell)
            if successes is not None:
                col.append(cell)
        star, censored = None, "n/a"
        if col:
            star, censored = fit_rho_star(
                [c.rho for c in col], [c.successes for c in col], [c.trials for c in col]
            )
        points.append(PhasePoint(lam=lam, rho_star=star, censored=censored, trials=trials))
    if all(c.successes is None for c in cells):
        raise refused
    return PhaseTransitionCurve(
        solver=solver.label, n=n, ensemble=ensemble, cells=cells, points=points
    )
