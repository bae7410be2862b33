"""The benchmark's workloads: seeded inputs, one timed op, output checks.

Every workload builds a pool of inputs from its seed, times one op per
pool item in a closed loop, and afterwards checks each solver output
against the inputs rather than against the solver's own fields.  Each
check yields a fingerprint record (support, work counters, reason) that
must repeat exactly for the same input.
"""

from dataclasses import dataclass

import numpy as np

from treepursuit import (
    EXACT_RTOL,
    AompConfig,
    aomp_recover,
    haar_basis,
    make_solver,
    recover_image,
    synthetic_image,
)
from treepursuit.imaging import PSNR_CAP_DB
from treepursuit.siggen import derive_seed, gen_problem

# residue target every solver configuration below uses
EPSILON = 1e-6
REASON_RESIDUE = "residue_met"
# relative agreement demanded between recomputed and reported floats
FLOAT_RTOL = 1e-8

COUNTER_FIELDS = (
    "iterations", "nodes_expanded", "paths_opened", "equivalent_hits", "singular_skips",
)


@dataclass
class Problem:
    phi: np.ndarray
    y: np.ndarray
    x: np.ndarray
    k: int


@dataclass
class Solve:
    """One solver call: its inputs, its output or the exception it raised."""

    label: str
    phi: np.ndarray
    y: np.ndarray
    x: np.ndarray
    out: object = None
    error: str = ""


def describe(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def check_solve(solve):
    """Independent check of one output; returns (exact, record, problems).

    Recomputes ||y - phi @ xhat|| and demands that it matches the reported
    residual, that reason == residue_met exactly when it is at most
    EPSILON * ||y||, and that xhat is finite and zero off the support.
    """
    if solve.error:
        return False, (solve.label, "error", solve.error), [solve.error]
    out, phi, y = solve.out, solve.phi, solve.y
    n = phi.shape[1]
    problems = []
    xhat = np.asarray(out.xhat)
    support = tuple(int(j) for j in out.support)
    if xhat.shape != (n,) or not np.all(np.isfinite(xhat)):
        problems.append("xhat is not a finite length-%d vector" % n)
        return False, (solve.label, "bad-xhat"), problems
    if len(set(support)) != len(support) or not all(0 <= j < n for j in support):
        problems.append("support %r is not a set of atom indices" % (support,))
        return False, (solve.label, "bad-support"), problems
    off = np.ones(n, dtype=bool)
    off[list(support)] = False
    if np.any(xhat[off] != 0.0):
        problems.append("xhat is nonzero off its support")
    ynorm = float(np.linalg.norm(y))
    residual = float(np.linalg.norm(y - phi @ xhat))
    if abs(residual - out.residual_norm) > FLOAT_RTOL * max(ynorm, 1.0):
        problems.append(
            "reported residual %.17g, recomputed %.17g" % (out.residual_norm, residual)
        )
    met = residual <= EPSILON * ynorm
    if (out.reason == REASON_RESIDUE) != met:
        problems.append(
            "reason %r but residual / ||y|| = %.3g" % (out.reason, residual / ynorm)
        )
    xnorm = float(np.linalg.norm(solve.x))
    err = float(np.linalg.norm(solve.x - xhat))
    exact = err <= EXACT_RTOL * xnorm if xnorm > 0.0 else err == 0.0
    record = (
        solve.label, support, out.reason, out.hybrid_stage,
        tuple(int(getattr(out, f)) for f in COUNTER_FIELDS),
    )
    return bool(exact), record, problems


class Workload:
    """Pool construction, the timed op and the op's checks.

    Subclasses set name, pool_size, window (ops whose fingerprint and
    exact counts are compared between runs) and solves_per_op.
    """

    name = ""
    pool_size = 0
    window = 0
    solves_per_op = 1

    def make_item(self, seed, index):
        raise NotImplementedError

    def make_pool(self, seed):
        return [self.make_item(seed, i) for i in range(self.pool_size)]

    def warmup_item(self):
        # one fixed input whatever the seed, so set-up does the same work
        return self.make_item(0, "warmup")

    def op(self, item):
        """The timed unit of work; returns what check() needs."""
        raise NotImplementedError

    def solves(self, item, raw):
        raise NotImplementedError

    def check(self, item, raw):
        """Check every solve of one op.

        Returns a dict: solves, failed (solves with a problem), exact,
        records (fingerprint records), problems (messages) and, where the
        workload has one, psnr_db.
        """
        report = {"solves": 0, "failed": 0, "exact": 0, "records": [], "problems": []}
        for solve in self.solves(item, raw):
            exact, record, found = check_solve(solve)
            report["solves"] += 1
            report["failed"] += bool(found)
            report["exact"] += exact
            report["records"].append(record)
            report["problems"].extend(found)
        return report


class _ProblemWorkload(Workload):
    m = n = k = 0
    ensemble = ""

    def make_item(self, seed, index):
        ens, inst = gen_problem(
            self.m, self.n, self.k, self.ensemble, derive_seed(seed, self.name, index)
        )
        return Problem(ens.phi, inst.y, inst.x, inst.k)


class Desk(_ProblemWorkload):
    """Paired desk-size comparison: tree search, hybrid, OMP and SP."""

    name = "desk"
    m, n, k, ensemble = 100, 256, 30, "gaussian"
    pool_size = 256
    window = 64
    solves_per_op = 4

    def __init__(self):
        # the aomp spec resolves kmax by the automatic rule: 70 at this size
        self.specs = [make_solver(s) for s in ("aomp", "hybrid", "omp", "sp")]

    def op(self, item):
        return [spec.run(item.phi, item.y, item.k) for spec in self.specs]

    def solves(self, item, raw):
        return [
            Solve(spec.label, item.phi, item.y, item.x, out)
            for spec, out in zip(self.specs, raw)
        ]


class Deep(_ProblemWorkload):
    """Constant-amplitude signs: long searches that fill the path cap."""

    name = "deep"
    m, n, k, ensemble = 100, 256, 27, "cars"
    pool_size = 160
    window = 24

    def __init__(self):
        self.config = AompConfig(kmax=70)

    def op(self, item):
        return aomp_recover(item.phi, item.y, self.config)

    def solves(self, item, raw):
        return [Solve("amul-aompe", item.phi, item.y, item.x, raw)]


class Large(_ProblemWorkload):
    """The 1024/400/120 target size, tree search with the automatic kmax."""

    name = "large"
    m, n, k, ensemble = 400, 1024, 120, "gaussian"
    pool_size = 24
    window = 3

    def __init__(self):
        self.spec = make_solver("aomp")

    def op(self, item):
        return self.spec.run(item.phi, item.y, item.k)

    def solves(self, item, raw):
        return [Solve(self.spec.label, item.phi, item.y, item.x, raw)]


class _Recorder:
    """Solver handed to recover_image that keeps every block's call.

    recover_image turns a solver exception into a failed block; the
    recorder keeps the exception type and message before re-raising.
    """

    def __init__(self, spec):
        self.spec = spec
        self.label = spec.label
        self.calls = []

    def run(self, phi, y, k):
        try:
            out = self.spec.run(phi, y, k)
        except Exception as exc:
            self.calls.append((phi, y, None, describe(exc)))
            raise
        self.calls.append((phi, y, out, ""))
        return out


class Image(Workload):
    """64x64 synthetic images measured through one fixed dictionary.

    The measurement matrix is the one the image command draws at its
    default seed: it belongs to the system, like a sensor's, and is shared
    by every block of every image, while the images vary with the seed.
    """

    name = "image"
    size, k, m = 64, 12, 40
    matrix_seed = 0
    pool_size = 128
    window = 8
    solves_per_op = 64

    def __init__(self):
        # the image command's search settings
        self.spec = make_solver("aomp", kmax=20, alpha_amul=0.85)
        self.psi = haar_basis()

    def make_item(self, seed, index):
        return synthetic_image(self.size, seed=derive_seed(seed, self.name, index))

    def op(self, item):
        recorder = _Recorder(self.spec)
        result = recover_image(item, self.k, self.m, recorder, self.matrix_seed)
        return result, recorder.calls

    def _blocks(self, image):
        b = 8
        for i in range(0, image.shape[0], b):
            for j in range(0, image.shape[1], b):
                yield (slice(i, i + b), slice(j, j + b))

    def solves(self, item, raw):
        result, calls = raw
        psi = self.psi
        out = []
        for (phi, y, res, error), block in zip(calls, self._blocks(item)):
            x = psi @ result.sparsified[block].ravel()
            out.append(Solve(self.spec.label, phi, y, x, res, error))
        return out

    def check(self, item, raw):
        result, calls = raw
        report = super().check(item, raw)
        problems = []
        psi = self.psi
        blocks = list(self._blocks(item))
        if len(calls) != len(blocks) or result.blocks != len(blocks):
            problems.append("%d solver calls for %d blocks" % (len(calls), len(blocks)))
            return self._with_image_problems(report, problems)
        errors = sum(1 for c in calls if c[3])
        if result.failed_blocks != errors:
            problems.append("failed_blocks %d, exceptions %d" % (result.failed_blocks, errors))
        met = sum(1 for c in calls if c[2] is not None and c[2].reason == REASON_RESIDUE)
        if result.residue_met_blocks != met:
            problems.append("residue_met_blocks %d, recorded %d" % (result.residue_met_blocks, met))
        recon = np.empty_like(item)
        for (phi, y, res, error), block in zip(calls, blocks):
            kept = psi @ result.sparsified[block].ravel()
            full = psi @ item[block].ravel()
            nz = np.abs(kept) > 1e-9 * np.abs(full).max()
            if nz.sum() > self.k:
                problems.append("sparsified block keeps %d > K coefficients" % nz.sum())
            if not np.allclose(kept[nz], full[nz], rtol=0, atol=1e-9 * np.abs(full).max()):
                problems.append("sparsified block changed a kept coefficient")
            if nz.any() and (~nz).any() and np.abs(full[nz]).min() < np.abs(full[~nz]).max() - 1e-9:
                problems.append("sparsified block dropped a larger coefficient")
            if np.linalg.norm(y - phi @ kept) > FLOAT_RTOL * max(np.linalg.norm(y), 1.0):
                problems.append("block measurement does not match the sparsified block")
            z = res.xhat if res is not None else np.zeros(psi.shape[0])
            recon[block] = (psi.T @ z).reshape(8, 8)
        recon = np.clip(recon, 0.0, 255.0)
        if not np.allclose(recon, result.reconstruction, rtol=0, atol=1e-9):
            problems.append("reconstruction does not match the block solutions")
        mse = float(np.mean((result.sparsified - result.reconstruction) ** 2))
        psnr_db = PSNR_CAP_DB if mse == 0.0 else min(PSNR_CAP_DB, 10.0 * np.log10(255.0**2 / mse))
        if abs(psnr_db - result.psnr_db) > 1e-9 * PSNR_CAP_DB:
            problems.append("reported psnr %.17g, recomputed %.17g" % (result.psnr_db, psnr_db))
        report["psnr_db"] = psnr_db
        return self._with_image_problems(report, problems)

    @staticmethod
    def _with_image_problems(report, problems):
        # a wrong image-level output counts as one more failed solve
        if problems:
            report["failed"] += 1
            report["problems"].extend(problems)
        return report


WORKLOADS = {w.name: w for w in (Desk, Deep, Large, Image)}
