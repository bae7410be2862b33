"""Dense linear-algebra kernel shared by every solver.

Input validation, correlation scores, deterministic top-k selection, and
least-squares projection, on numpy alone.  The public kernels check their
inputs on every call.  A solver checks its problem once, at entry
(`check_problem`); the inner loops of the tree search, OMP and MMP-DF
then score correlations as the bare `np.abs(phi.T @ r)` and pick their
few best atoms with `_top_few`, neither of which checks anything.
`project` solves least squares on a whole support with one Householder
QR of `[phi_S | y]` in LAPACK's raw form (`np.linalg.qr(..., mode="raw")`):
R is the leading block and Q^T y the last column, so no Q is formed; SP
and FBP, which rebuild their support every round, use it.  The solvers
that extend a support one atom at a time (OMP, MMP-DF and the tree
search) keep an incremental QR factorization instead (modified
Gram-Schmidt with one reorthogonalization pass), so search paths that
share a prefix can branch cheaply: appending one atom costs O(M*l) and
copies nothing of the parent's factorization.  A child keeps a reference
to its parent plus its own new direction, R column and entry of Q^T y.
Materializing, which the next append needs, builds Q only; R and Q^T y
are assembled from the kept columns when they are first read, which a
solver does once, for the factorization it returns.  Both solve the square
upper-triangular system R z = Q^T y with `np.linalg.solve`: every
diagonal entry of R has passed the DEPENDENCY_TOL test and everything
below it is zero, so partial pivoting swaps no rows and the LU solve is
the back-substitution.
"""

import math

import numpy as np

__all__ = [
    "SingularSupportError",
    "check_problem",
    "correlations",
    "top_indices",
    "project",
    "IncrementalFactorization",
]

# A column whose orthogonalized norm (|R_ii| in a QR) falls below this
# fraction of its original norm is treated as linearly dependent on the
# columns before it.
DEPENDENCY_TOL = 1e-12


class SingularSupportError(Exception):
    """The requested support set is numerically rank deficient; `atom` is
    the first atom that lies in the span of the atoms before it."""

    def __init__(self, atom):
        super().__init__(atom)
        self.atom = atom

    def __str__(self):
        return "atom %d is linearly dependent on the current support" % self.atom


def _real_finite(x, name):
    if np.iscomplexobj(x):
        raise ValueError("%s must be real, got a complex array" % name)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("%s contains NaN or infinite entries" % name)
    return x


def check_problem(phi, y):
    """Validate a recovery problem; returns (phi, y) as float arrays.

    phi must be a real (M, N) matrix with M, N >= 1 and y a real vector
    of length M, both free of NaN and infinite entries.  Raises ValueError
    otherwise.
    """
    phi = _real_finite(phi, "phi")
    y = _real_finite(y, "y")
    if phi.ndim != 2 or y.ndim != 1 or phi.shape[0] != y.shape[0]:
        raise ValueError("phi must be (M, N) and y length M")
    if phi.size == 0:
        raise ValueError("phi must have at least one row and one column, got %d x %d" % phi.shape)
    return phi, y


def _norm(v):
    # the expression np.linalg.norm evaluates for a real vector, so results
    # are bit-identical, without its per-call dispatch
    return math.sqrt(v.dot(v))


def correlations(phi, r):
    """Absolute inner products |<phi_j, r>| for every column of phi.

    No normalization by column norms is applied.

    Parameters
    ----------
    phi : (M, N) array
    r : (M,) array

    Returns
    -------
    (N,) array of nonnegative scores.
    """
    phi = np.asarray(phi, dtype=float)
    r = np.asarray(r, dtype=float)
    if phi.ndim != 2:
        raise ValueError("phi must be a 2-d array")
    if r.ndim != 1 or r.shape[0] != phi.shape[0]:
        raise ValueError("r must be a vector with one entry per row of phi")
    return np.abs(phi.T @ r)


def top_indices(scores, count, exclude=()):
    """Indices of the `count` largest scores outside `exclude`.

    Ordered by descending score; ties broken by ascending index, so the
    result is fully deterministic.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise ValueError("scores must be a vector")
    excluded = set(exclude)
    if count < 1:
        raise ValueError("count must be a positive integer")
    if count > scores.shape[0] - len(excluded):
        raise ValueError(
            "requested %d indices but only %d are available"
            % (count, scores.shape[0] - len(excluded))
        )
    # stable sort on the negated scores keeps ties in ascending-index order
    order = np.negative(scores)
    if excluded:
        order[list(excluded)] = np.inf
    return np.argsort(order, kind="stable")[:count].tolist()


def _top_few(scores, count, exclude):
    """`top_indices` without its checks, for the few children of an inner
    loop: `count` repeated argmax passes over the scores, each pick masked
    to -inf.  It consumes `scores`: the array is masked in place, so the
    caller hands it a fresh array it reads no more.  argmax takes the
    first of equal scores, which is the ascending-index rule.  The caller
    guarantees finite scores and at least `count` indices outside
    `exclude`; at larger counts the sort is faster."""
    if exclude:
        scores[list(exclude)] = -np.inf
    picked = []
    for _ in range(count):
        j = int(scores.argmax())
        picked.append(j)
        scores[j] = -np.inf
    return picked


class IncrementalFactorization:
    """QR factorization of phi restricted to an ordered support, together
    with the residue of y against that support.

    `appended` returns a new factorization and leaves the original intact,
    so paths that share a prefix branch without aliasing.  Each
    factorization keeps, per support atom, its R column above the
    diagonal, its diagonal entry and its entry of Q^T y, shared with its
    ancestors.  A child stores its new orthonormal direction plus a
    reference to its parent; `q` is assembled on first read, after which
    the parent reference is dropped, so at most one generation is held.
    `rmat` and `qty` are assembled from the kept columns on first read and
    cached.  The residue and its norm are computed eagerly.
    Orthogonalization is modified Gram-Schmidt with one full
    reorthogonalization pass, float64 only.
    """

    __slots__ = (
        "support", "residue", "residue_norm",
        "_columns", "_q", "_parent", "_qhat", "_rmat", "_qty",
    )

    def __init__(self, support, columns, q, residue):
        self.support = support
        self.residue = residue
        self.residue_norm = _norm(residue)
        self._columns = columns  # (R column above the diagonal, R_ll, (Q^T y)_l) per atom
        self._q = q
        self._parent = None
        self._rmat = self._qty = None

    @classmethod
    def empty(cls, y):
        """Factorization over the empty support; the residue is y itself."""
        y = np.asarray(y, dtype=float)
        if y.ndim != 1:
            raise ValueError("y must be a vector")
        fact = cls((), (), np.empty((y.shape[0], 0)), y.copy())
        fact._rmat, fact._qty = np.empty((0, 0)), np.empty(0)
        return fact

    @property
    def length(self):
        return len(self.support)

    @property
    def q(self):
        parent = self._parent
        if parent is not None:
            # the parent was materialized when this child was appended to it
            l = len(parent.support)
            q = np.empty((self.residue.shape[0], l + 1))
            q[:, :l] = parent._q
            q[:, l] = self._qhat
            self._q = q
            self._parent = self._qhat = None
        return self._q

    def _assemble(self):
        above, diagonal, qty = zip(*self._columns)
        l = len(diagonal)
        rmat = np.zeros((l, l))
        # column c of R holds c entries above its diagonal; in column order
        # they fill the strictly lower triangle of R^T in row order
        i = np.arange(l)
        rmat.T[i[:, None] > i] = np.concatenate(above)
        rmat.ravel()[::l + 1] = diagonal
        self._rmat, self._qty = rmat, np.array(qty)

    @property
    def rmat(self):
        if self._rmat is None:
            self._assemble()
        return self._rmat

    @property
    def qty(self):
        if self._qty is None:
            self._assemble()
        return self._qty

    def appended(self, index, column):
        """New factorization with `column` (atom `index`) appended.

        Raises SingularSupportError when the column is numerically in the
        span of the current support.
        """
        column = np.asarray(column, dtype=float)
        if column.shape != self.residue.shape:
            raise ValueError("column length must match the measurement size")
        q = self.q
        qt = q.T
        v = column.copy()
        colnorm = _norm(v)
        coef = qt.dot(v)
        v -= q.dot(coef)
        extra = qt.dot(v)
        v -= q.dot(extra)
        coef += extra
        vnorm = _norm(v)
        if colnorm == 0.0 or vnorm < DEPENDENCY_TOL * colnorm:
            raise SingularSupportError(int(index))
        qhat = v / vnorm
        # residue is orthogonal to span(q), so <qhat, y> = <qhat, residue>
        proj = float(qhat.dot(self.residue))
        child = IncrementalFactorization(
            self.support + (int(index),), self._columns + ((coef, vnorm, proj),), None,
            self.residue - proj * qhat,
        )
        child._parent = self
        child._qhat = qhat
        return child

    def coefficients(self):
        """Least-squares coefficients of y over the support, support order:
        R z = Q^T y of this factorization, solved by `np.linalg.solve`."""
        if self.length == 0:
            return np.empty(0)
        return np.linalg.solve(self.rmat, self.qty)


def project(y, phi, support):
    """Least-squares projection of y onto the given columns of phi.

    Returns (z, r) with z the coefficients in support order and
    r = y - phi[:, support] @ z.  One Householder QR of `[phi_S | y]` in
    raw form (`np.linalg.qr(..., mode="raw")`) gives R as its leading
    block and Q^T y as the top of its last column, so Q is never formed;
    `np.linalg.solve` on R z = Q^T y solves it.  The incremental
    factorization serves only the solvers that extend a support one atom
    at a time.  Raises SingularSupportError when a column is zero or lies
    numerically in the span of the columns before it, ValueError on
    dimension mismatch.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if phi.ndim != 2 or y.ndim != 1 or phi.shape[0] != y.shape[0]:
        raise ValueError("phi must be (M, N) and y length M")
    support = [int(j) for j in support]
    if len(support) > phi.shape[0]:
        raise ValueError("support larger than the measurement size")
    for j in support:
        if not 0 <= j < phi.shape[1]:
            raise ValueError("support index %d out of range" % j)
    if not support:
        return np.empty(0), y.copy()
    k = len(support)
    sub = phi[:, support]
    # raw mode returns the factored matrix transposed: R is the upper
    # triangle of h.T, below it lie the Householder vectors
    h, _ = np.linalg.qr(np.column_stack([sub, y]), mode="raw")
    rmat = np.triu(h[:k, :k].T)
    # |R_ii| is the distance of column i from the span of columns 0..i-1
    colnorms = np.linalg.norm(sub, axis=0)
    dependent = (colnorms == 0.0) | (np.abs(np.diag(rmat)) < DEPENDENCY_TOL * colnorms)
    if dependent.any():
        i = int(np.argmax(dependent))
        raise SingularSupportError(support[i])
    z = np.linalg.solve(rmat, h[k, :k])
    return z, y - sub @ z
