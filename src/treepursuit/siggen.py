"""Reproducible measurement matrices and sparse test instances.

All randomness flows through one seeded 64-bit PRNG family with an
independent stream per (seed, purpose) pair, so an instance is fully
determined by its integer seed and its shape parameters: `gen_problem`
rebuilds it from them bit for bit.
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ENSEMBLES",
    "substream",
    "derive_seed",
    "MeasurementEnsemble",
    "SparseInstance",
    "gen_matrix",
    "gen_instance",
    "gen_problem",
]

ENSEMBLES = ("gaussian", "uniform", "cars")

_SEED_MASK = (1 << 64) - 1


def _key_ints(keys):
    out = []
    for k in keys:
        if isinstance(k, str):
            out.append(zlib.crc32(k.encode("utf-8")))
        else:
            out.append(int(k) & _SEED_MASK)
    return out


def substream(seed, *keys):
    """Independent Generator for the given (seed, keys) combination."""
    entropy = [int(seed) & _SEED_MASK] + _key_ints(keys)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed, *keys):
    """Deterministic 63-bit child seed for (seed, keys).

    Used to key per-trial instances off a single experiment seed while
    keeping every instance reproducible from its own integer seed.
    """
    entropy = [int(seed) & _SEED_MASK] + _key_ints(keys)
    state = np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)
    return int(state[0] >> 1)


@dataclass(frozen=True)
class MeasurementEnsemble:
    """A measurement matrix together with how it was drawn."""

    phi: np.ndarray
    m: int
    n: int
    seed: int
    entry_std: float


@dataclass(frozen=True)
class SparseInstance:
    """An exactly sparse signal and its noiseless measurements."""

    x: np.ndarray
    y: np.ndarray
    support: tuple
    values: np.ndarray
    k: int
    ensemble: str
    seed: int


def gen_matrix(m, n, seed, entry_std=None):
    """M x N matrix with i.i.d. zero-mean Gaussian entries.

    The entry standard deviation defaults to 1/N; pass entry_std in
    (0, inf) to override it (any other value raises ValueError).  The
    same (m, n, seed, entry_std) always reproduces the same matrix bit for
    bit.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    std = 1.0 / n if entry_std is None else float(entry_std)
    if not 0.0 < std < math.inf:
        raise ValueError("entry_std must be positive and finite, got %r" % std)
    rng = substream(seed, "matrix")
    phi = rng.normal(0.0, std, size=(m, n))
    return MeasurementEnsemble(phi=phi, m=int(m), n=int(n), seed=int(seed), entry_std=std)


def _draw_values(rng, ensemble, k):
    if ensemble == "gaussian":
        vals = rng.standard_normal(k)
    elif ensemble == "uniform":
        vals = rng.uniform(-1.0, 1.0, size=k)
    elif ensemble == "cars":
        vals = rng.choice(np.array([-1.0, 1.0]), size=k)
    else:
        raise ValueError("unknown ensemble %r" % (ensemble,))
    # nonzero entries must be exactly nonzero; resample any zero draw
    while True:
        zero = vals == 0.0
        if not zero.any():
            return vals
        vals[zero] = _draw_values(rng, ensemble, int(zero.sum()))


def gen_instance(n, k, ensemble, seed, phi):
    """K-sparse signal with support drawn uniformly without replacement.

    Nonzero values follow the named ensemble: standard normal entries,
    uniform on [-1, 1], or random +-1 signs.  y = phi @ x is computed, not
    stored independently.
    """
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if ensemble not in ENSEMBLES:
        raise ValueError("unknown ensemble %r" % (ensemble,))
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[1] != n:
        raise ValueError("phi must have n columns")
    rng = substream(seed, "signal")
    support = np.sort(rng.choice(n, size=k, replace=False))
    values = _draw_values(rng, ensemble, k)
    x = np.zeros(n)
    x[support] = values
    return SparseInstance(
        x=x,
        y=phi @ x,
        support=tuple(int(j) for j in support),
        values=values,
        k=int(k),
        ensemble=ensemble,
        seed=int(seed),
    )


def gen_problem(m, n, k, ensemble, seed, entry_std=None):
    """Matrix and instance drawn from one seed; returns (ensemble, instance)."""
    ens = gen_matrix(m, n, seed, entry_std=entry_std)
    inst = gen_instance(n, k, ensemble, seed, ens.phi)
    return ens, inst
