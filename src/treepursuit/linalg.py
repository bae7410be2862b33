"""Dense linear-algebra kernel shared by every solver, on numpy alone.

A solver checks its problem once, at entry: `check_problem` returns a
`Problem`, and the solver's loops run on unchecked kernels that read it.
The public `correlations`, `top_indices` and `project` check their
arguments on every call.

- Correlations are `phi.T.dot(r)`; `ndarray.dot` calls the same product as
  `@`, bit for bit, with less dispatch.  The prepared phi is C-ordered,
  so the product, and every output bit, is the same for any layout of
  the caller's phi.
- Selection is deterministic: the largest scores first, ties by
  ascending index.  `_top_sorted` takes many by a stable sort,
  `_top_few` a few by repeated argmax.
- Least squares on a whole support (`_project`, for SP and FBP) is one
  Householder QR of the gathered block `[phi_S | y]` in LAPACK's raw
  form: R is its leading block and Q^T y its last column, so no Q is
  formed.
- A support grown one atom at a time (OMP, MMP-DF, the tree search) keeps
  an `IncrementalFactorization` of its `Problem`: appending an atom costs
  O(M l) and copies nothing of its parent's.  Its Q is stored by rows
  (see `IncrementalFactorization`).
- Column norms have one store, `Problem.colnorms`, taken once per problem:
  `_project` reads it, the search's `_priced` its list form
  `Problem.norms`.  `_priced` prices a child by Pythagoras, from the
  contiguous column `Problem.rows[j]`, where the downdate cannot cancel,
  and forms its direction only when the child is expanded; a priced step
  is the append's step to rounding, not bit for bit (see
  `IncrementalFactorization`).
- Both solve the upper-triangular R z = Q^T y with `np.linalg.solve`:
  every diagonal entry of R has passed the DEPENDENCY_TOL test and
  everything below it is zero, so partial pivoting swaps no rows and the
  LU solve is the back-substitution.
"""

import math

import numpy as np

__all__ = [
    "SingularSupportError",
    "Problem",
    "check_problem",
    "problem_shape",
    "correlations",
    "top_indices",
    "project",
    "IncrementalFactorization",
]

# A column whose orthogonalized norm (|R_ii| in a QR) falls below this
# fraction of its original norm is treated as linearly dependent on the
# columns before it.
DEPENDENCY_TOL = 1e-12

# An appended column is orthogonalized a second time only when the first
# Gram-Schmidt pass leaves less than this fraction of its norm (Daniel,
# Gragg, Kaufman & Stewart, Math. Comp. 1976).
REORTHOGONALIZE_TOL = 1.0 / math.sqrt(2.0)


class SingularSupportError(Exception):
    """The requested support set is numerically rank deficient; `atom` is
    the first atom that lies in the span of the atoms before it."""

    def __init__(self, atom):
        super().__init__(atom)
        self.atom = atom

    def __str__(self):
        return "atom %d is linearly dependent on the current support" % self.atom


class Problem:
    """A checked recovery problem, the input every solver reads.

    `phi` is a float64 (M, N) matrix in C order, `y` a contiguous float64
    vector of length M and `ynorm` = ||y||.  Built on first read:
    `aug`, the Fortran-order block [phi | y] a support is gathered from;
    `colnorms`, the column norms of phi; and, for the search's pricing,
    `rows`, phi^T as one C-order array (row j is column j, contiguous),
    and `norms`, `colnorms` as a list.  `rows` and `norms` are slots
    filled by `__getattr__` on their first read, so each later read is a
    plain attribute lookup.  Built by `check_problem`.
    """

    __slots__ = ("phi", "y", "ynorm", "_aug", "_colnorms", "rows", "norms")

    def __init__(self, phi, y):
        self.phi, self.y = phi, y
        self.ynorm = _norm(y)
        self._aug = self._colnorms = None

    def __getattr__(self, name):
        # reached only while the slot `rows` or `norms` is still empty
        if name == "rows":
            self.rows = np.ascontiguousarray(self.phi.T)
        elif name == "norms":
            self.norms = self.colnorms.tolist()
        else:
            raise AttributeError(name)
        return object.__getattribute__(self, name)

    @property
    def aug(self):
        if self._aug is None:
            m, n = self.phi.shape
            self._aug = np.empty((m, n + 1), order="F")
            self._aug[:, :n] = self.phi
            self._aug[:, n] = self.y
        return self._aug

    @property
    def colnorms(self):
        if self._colnorms is None:
            # the expression np.linalg.norm(phi, axis=0) evaluates for a
            # real phi, without its wrapper
            phi = self.phi
            self._colnorms = np.sqrt(np.add.reduce(phi * phi, axis=0))
        return self._colnorms


def check_problem(phi, y):
    """Validate a recovery problem; returns it as a `Problem`.

    phi must be a real (M, N) matrix with M, N >= 1 and y a real vector
    of length M, both free of NaN and infinite entries.  Raises ValueError
    otherwise.  phi is copied only when it is not C-ordered float64, y
    only when it is not contiguous float64.
    """
    arrays = [
        np.ascontiguousarray(_as_real_finite(x, name)) for x, name in ((phi, "phi"), (y, "y"))
    ]
    problem_shape(*arrays)
    return Problem(*arrays)


def _as_real_finite(x, name):
    """x as a float array; ValueError naming it as `name` when x is
    complex or holds a NaN or an infinite entry.  The one value check of
    every array that enters the package: a problem's phi and y, an image
    and the two images `psnr` compares."""
    if np.iscomplexobj(x):
        raise ValueError("%s must be real, got a complex array" % name)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("%s contains NaN or infinite entries" % name)
    return x


def problem_shape(phi, y):
    """The shape half of `check_problem`: returns (M, N) after checking
    that phi is an (M, N) matrix with M, N >= 1 and y a vector of length
    M.  It reads no entry, so a caller that hands the problem on to a
    solver leaves the rest of the check to that solver."""
    phi_shape, y_shape = np.shape(phi), np.shape(y)
    if len(phi_shape) != 2 or len(y_shape) != 1 or phi_shape[0] != y_shape[0]:
        raise ValueError("phi must be (M, N) and y length M")
    if 0 in phi_shape:
        raise ValueError("phi must have at least one row and one column, got %d x %d" % phi_shape)
    return phi_shape


def _norm(v):
    # the expression np.linalg.norm evaluates for a real vector, without its
    # per-call dispatch; bit-identical only for a contiguous v, since
    # np.linalg.norm first copies a strided vector and the dot of the copy
    # can round differently
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
    return _top_sorted(scores, count, list(excluded))


def _top_sorted(scores, count, exclude):
    """`top_indices` without its checks, for the wide selections of SP and
    FBP: a stable sort of the negated scores, which keeps ties in
    ascending-index order.  `exclude` is a list of indices.  The caller
    guarantees finite scores and at least `count` indices outside
    `exclude`."""
    order = np.negative(scores)
    if exclude:
        order[exclude] = np.inf
    return np.argsort(order, kind="stable")[:count].tolist()


def _top_few(scores, count, exclude):
    """`top_indices` without its checks, for the few children of an inner
    loop: `count` repeated argmax passes over the scores, each pick masked
    to -inf.  It consumes `scores`: the array is masked in place, so the
    caller hands it a fresh array it reads no more.  argmax takes the
    first of equal scores, which is the ascending-index rule.  `exclude`
    is masked only once one of its indices wins a pass: a free winner is
    the winner of the masked scores too, so the picks are those of
    masking first.  The caller guarantees finite scores and at least
    `count` indices outside `exclude`; at larger counts the sort is
    faster."""
    picked = []
    while len(picked) < count:
        j = int(scores.argmax())
        if j in exclude:
            # no excluded index wins a pass once they are masked
            scores[list(exclude)] = -np.inf
            continue
        picked.append(j)
        scores[j] = -np.inf
    return picked


# the R column above the diagonal of a support's first atom
_NO_COEF = np.empty(0)
_NO_COEF.flags.writeable = False


class IncrementalFactorization:
    """QR factorization of the columns of a checked `Problem`'s phi on an
    ordered support, together with the residue r of y against that
    support.  Every factorization built from a root keeps the root's
    `problem`.

    - Immutable branching: `appended` and `_priced` return a new
      factorization and leave this one intact.  Each keeps, per support
      atom, its R column above the diagonal, its diagonal entry and its
      entry of Q^T y, shared with its ancestors, so `rmat` and `qty` are
      assembled from the kept columns on first read.  A child holds a
      reference to its parent until its `q` is assembled, on first read.
    - Q stored by rows: the factorization keeps Q^T, an (l, M) C-order
      array.  A child copies its parent's rows as one block and fills its
      one contiguous new row, and both Gram-Schmidt passes take
      coef = Q^T c as `qt.dot(c)` and subtract `coef.dot(qt)`.  `q` is
      the M x l Q, returned as the transposed view of the stored rows:
      the same values, no copy.
    - Gram-Schmidt: classical, float64, with a second pass only when the
      first leaves less than REORTHOGONALIZE_TOL = 1/sqrt(2) of the
      column's norm (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 1976).
      A column whose orthogonalized norm falls below DEPENDENCY_TOL of its
      norm raises SingularSupportError.
    - Residues: `appended` (OMP, MMP-DF) forms the child's direction and
      residue.  `_priced` (the search) prices the child of atom j with
      column c from this factorization's Q, squared residue norm s and
      signed correlations g = phi^T r (`signed_correlations`, computed
      once).  It takes coef = Q^T c from `problem.rows[j]` and the
      diagonal nu from Pythagoras, nu^2 = ||c||^2 - coef.coef with
      ||c|| = `problem.norms[j]`, then p = g_j / nu and s' = s - p^2
      (Sturm & Christensen, EUSIPCO 2012).  The downdated nu is used only
      where it cannot cancel: nu^2 >= ||c||^2 / 2, the cut at which the
      append would need no second pass (Drmac & Bujanovic, ACM TOMS
      2008).  A priced child keeps coef, nu and p; its direction
      v = c - Q coef is formed when its residue or `q` is read, as
      v / nu written into its new row of Q^T, so a formed child keeps the
      priced diagonal, and s is then retaken from its formed residue, so
      pricing errors do not add up along a path.  Every other child is
      built at once by `appended`'s arithmetic: a zero column, one that
      fails the nu^2 cut (twins and dependent columns among them), one
      with s' <= s / 4 (the subtraction cancels) and one with
      sqrt(s') <= `limit`, which the search sets to twice its residue
      threshold, so every termination decision reads a formed residue.
      A priced step is the append's step in its R column above the
      diagonal bit for bit, and in its diagonal and direction to rounding
      (within 8 eps ||c||^2 / nu and 8 eps ||c||^2 / nu^2).
    - Column norms: `_priced` reads ||c|| from `problem.norms`, the list
      form of the problem's one store.  A first atom takes the `_norm` of
      its own row, the value `appended` takes for its column, since it
      becomes R's first diagonal entry.
    """

    __slots__ = (
        "problem", "support", "residue_norm",
        "_columns", "_q", "_parent", "_qhat", "_rmat", "_qty",
        "_residue", "_sq", "_g",
    )

    def __init__(self, problem, support, columns, residue, sq, parent=None, qhat=None):
        self.problem = problem
        self.support = support
        # per atom: its R column above the diagonal, R_ll and (Q^T y)_l
        self._columns = columns
        self._residue = residue  # None until a priced child is formed
        self._sq = sq
        self.residue_norm = math.sqrt(sq)
        self._parent = parent
        self._qhat = qhat
        self._q = None
        self._g = None
        self._rmat = self._qty = None

    @classmethod
    def empty(cls, problem):
        """Factorization of a checked `Problem` over the empty support; the
        residue is y itself."""
        residue = problem.y.copy()
        fact = cls(problem, (), (), residue, float(residue.dot(residue)))
        fact._q = np.empty((0, residue.shape[0]))
        fact._rmat, fact._qty = np.empty((0, 0)), np.empty(0)
        return fact

    @property
    def length(self):
        return len(self.support)

    @property
    def residue(self):
        if self._residue is None:
            self._form()
        return self._residue

    def _grown_q(self):
        # the parent's rows of Q^T copied as one block, and the new row left
        # for the caller to fill; the parent was materialized when this
        # child was built from it
        parent = self._parent
        rows = parent._q
        l = rows.shape[0]
        qt = np.empty((l + 1, rows.shape[1]))
        qt[:l] = rows
        self._q, self._parent = qt, None
        return qt[l]

    def _form(self):
        # a priced child: v = c - Q coef divided by the priced diagonal,
        # straight into its new row of Q^T, and its residue
        parent = self._parent
        coef, nu, proj = self._columns[-1]
        v = self.problem.rows[self.support[-1]] - coef.dot(parent._q)
        qhat = self._grown_q()
        np.divide(v, nu, out=qhat)
        residue = parent._residue - proj * qhat
        self._residue, self._sq = residue, float(residue.dot(residue))

    def signed_correlations(self):
        """phi^T r for the residue r of this factorization, computed once."""
        g = self._g
        if g is None:
            g = self._g = self.problem.phi.T.dot(self.residue)
        return g

    def _rows(self):
        # Q^T, the stored rows, formed on first read
        if self._parent is not None:
            if self._residue is None:
                self._form()
            else:
                self._grown_q()[:] = self._qhat
                self._qhat = None
        return self._q

    @property
    def q(self):
        """Q, M x l: the transposed view of the stored rows, no copy."""
        return self._rows().T

    def _assemble(self):
        coefs, diagonal, qty = zip(*self._columns)
        l = len(diagonal)
        rmat = np.zeros((l, l))
        # column c of R holds c entries above its diagonal, concatenated in
        # column order
        rows, cols = _above_diagonal(l)
        rmat[rows, cols] = np.concatenate(coefs)
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

    def _orthogonalized(self, index, v, colnorm):
        """The Gram-Schmidt step of every append: (coef, v, nu) with
        coef = Q^T c, v = c - Q coef and nu = ||v||.  `v` is a fresh
        contiguous copy of the column c, which the step consumes, and
        `colnorm` = ||c||.  On the empty support v = c and nu = ||c||
        exactly, so neither product runs.  Raises SingularSupportError
        when the column is numerically in the span of the support."""
        if not self.support:
            if colnorm == 0.0:
                raise SingularSupportError(int(index))
            return _NO_COEF, v, colnorm
        qt = self._rows() if self._q is None else self._q
        coef = qt.dot(v)
        v -= coef.dot(qt)
        vnorm = _norm(v)
        if vnorm < REORTHOGONALIZE_TOL * colnorm:
            # the first pass cancelled most of the column, so its rounding
            # error is a large share of v: a second pass removes it
            extra = qt.dot(v)
            v -= extra.dot(qt)
            coef += extra
            vnorm = _norm(v)
        if colnorm == 0.0 or vnorm < DEPENDENCY_TOL * colnorm:
            raise SingularSupportError(int(index))
        return coef, v, vnorm

    def _formed_child(self, index, coef, v, vnorm):
        qhat = v / vnorm
        residue = self.residue
        # residue is orthogonal to span(q), so <qhat, y> = <qhat, residue>
        proj = float(qhat.dot(residue))
        residue = residue - proj * qhat
        return IncrementalFactorization(
            self.problem, self.support + (int(index),), self._columns + ((coef, vnorm, proj),),
            residue, float(residue.dot(residue)), self, qhat,
        )

    def appended(self, index, column):
        """New factorization with `column` (atom `index`) appended, its
        residue formed.

        Raises SingularSupportError when the column is numerically in the
        span of the current support.
        """
        column = np.asarray(column, dtype=float)
        if column.shape != self.residue.shape:
            raise ValueError("column length must match the measurement size")
        v = column.copy()
        return self._formed_child(index, *self._orthogonalized(index, v, _norm(v)))

    def _priced(self, index, limit):
        """The child with atom `index` appended, priced by Pythagoras from
        this factorization's Q and correlations, its direction and residue
        formed only when read; built as `appended` builds it where the
        price could cancel or sqrt(s') <= `limit` (see the class
        docstring).  Checks nothing: the problem was checked at entry."""
        problem = self.problem
        row = problem.rows[index]
        if self.support:
            colnorm = problem.norms[index]
            qt = self._rows() if self._q is None else self._q
            coef = qt.dot(row)
        else:
            # a first atom's norm is R's diagonal entry: that of its own row
            colnorm, coef = _norm(row), _NO_COEF
        colsq = colnorm * colnorm
        nusq = colsq - float(coef.dot(coef))
        # a zero column, and one whose downdate may cancel, is formed
        if 0.0 < 0.5 * colsq <= nusq:
            g = self._g
            if g is None:
                g = self.signed_correlations()  # forms this residue, and so s
            nu = math.sqrt(nusq)
            proj = g.item(index) / nu
            sq = self._sq
            rest = sq - proj * proj
            if rest > 0.25 * sq and rest > limit * limit:
                return IncrementalFactorization(
                    problem, self.support + (int(index),), self._columns + ((coef, nu, proj),),
                    None, rest, self,
                )
        return self._formed_child(index, *self._orthogonalized(index, row.copy(), colnorm))

    def coefficients(self):
        """Least-squares coefficients of y over the support, support order:
        R z = Q^T y of this factorization, solved by `np.linalg.solve`."""
        if self.length == 0:
            return np.empty(0)
        return np.linalg.solve(self.rmat, self.qty)


# the (row, column) of every entry above R's diagonal, column by column,
# grown to the largest order asked for: the entries of order l's columns
# lead, so its first l(l - 1)/2 pairs place them, where a mask of R's
# strict upper triangle would be built on every assembly
_ABOVE = np.empty((2, 0), dtype=np.intp)


def _above_diagonal(l):
    global _ABOVE
    above = _ABOVE
    count = l * (l - 1) // 2
    if above.shape[1] < count:
        cols, rows = np.tril_indices(2 * l, -1)
        above = np.stack([rows, cols])
        above.flags.writeable = False
        _ABOVE = above
    return above[:, :count]


# upper-triangular ones, grown to the largest order asked for: its
# leading block zeroes the Householder vectors below R by one multiply,
# where np.triu would build a fresh mask on every call
_UPPER = np.ones((0, 0))


def _upper(k):
    global _UPPER
    upper = _UPPER
    if upper.shape[0] < k:
        upper = np.triu(np.ones((2 * k, 2 * k)))
        upper.flags.writeable = False
        _UPPER = upper
    return upper[:k, :k]


def _project(problem, support):
    """Least squares of y on the columns `support` (a list) of the
    prepared problem; returns (z, r) with z in support order and
    r = y - phi_S z.  One Householder QR of `[phi_S | y]`, gathered from
    `problem.aug`.  Raises SingularSupportError naming the first atom
    whose column is zero or lies within DEPENDENCY_TOL of the span of the
    columns before it: past a dependent column the diagonal of R measures
    no distance, since its Householder step still takes a row.  Checks
    nothing; `project` is its checked form."""
    aug = problem.aug
    k = len(support)
    block = aug[:, support + [aug.shape[1] - 1]]
    # raw mode returns the factored matrix transposed: R is the upper
    # triangle of h.T, below it lie the Householder vectors
    h, _ = np.linalg.qr(block, mode="raw")
    rmat = h[:k, :k].T * _upper(k)
    colnorms = problem.colnorms[support]
    dependent = (colnorms == 0.0) | (np.abs(rmat.diagonal()) < DEPENDENCY_TOL * colnorms)
    if dependent.any():
        raise SingularSupportError(support[int(dependent.argmax())])
    z = np.linalg.solve(rmat, h[k, :k])
    return z, block[:, k] - block[:, :k] @ z


def project(problem, support):
    """Least-squares projection of y onto the columns `support` of a
    checked `Problem`: `_project` after checking the support.  Raises
    ValueError on an index out of range or a support larger than M."""
    support = [int(j) for j in support]
    m, n = problem.phi.shape
    if len(support) > m:
        raise ValueError("support larger than the measurement size")
    for j in support:
        if not 0 <= j < n:
            raise ValueError("support index %d out of range" % j)
    return _project(problem, support)
