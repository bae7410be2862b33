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

from .results import check_count

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


def _entropy(seed, keys):
    """The SeedSequence entropy of (seed, keys); ValueError unless the
    seed is an int or numpy integer, not a bool.  A str key enters as its
    CRC-32, any other as an int."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError("seed must be an integer, got %r" % (seed,))
    out = [int(seed) & _SEED_MASK]
    for k in keys:
        if isinstance(k, str):
            out.append(zlib.crc32(k.encode("utf-8")))
        else:
            out.append(int(k) & _SEED_MASK)
    return out


def substream(seed, *keys):
    """Independent Generator for the given (seed, keys) combination; the
    seed is checked as `derive_seed` checks it."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, keys)))


def derive_seed(seed, *keys):
    """Deterministic 63-bit child seed for (seed, keys).

    Used to key per-trial instances off a single experiment seed while
    keeping every instance reproducible from its own integer seed.  The
    seed must be an int or numpy integer, not a bool; ValueError
    otherwise, so a seed of 2.5 never runs seed 2's trials.
    """
    state = np.random.SeedSequence(_entropy(seed, keys)).generate_state(1, dtype=np.uint64)
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

    m and n must be ints >= 1 and seed an int, none of them a bool.  The
    entry standard deviation defaults to 1/N; pass entry_std in (0, inf)
    to override it.  Any other value raises ValueError.  The same
    (m, n, seed, entry_std) always reproduces the same matrix bit for bit.
    """
    check_count("m", m)
    check_count("n", n)
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
    stored independently.  n and k must be ints with 1 <= k <= n and seed
    an int, none of them a bool; ValueError otherwise.
    """
    check_count("n", n)
    check_count("k", k, n, "n")
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
