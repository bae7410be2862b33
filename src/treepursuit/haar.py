"""Orthonormal multilevel Haar transform on 8x8 blocks.

The 1-d transform recursively splits a signal into pairwise averages and
differences (each scaled by 1/sqrt(2)) and recurses on the averages, so
the full matrix is orthonormal.  The 2-d block transform applies it to
rows and columns; as a 64x64 operator on flattened blocks it is the
Kronecker square of the 1-d matrix.

`haar2d` and `haar2d_inverse` take one block.  `sparsify_blocks` and
`block_sparsity` take a whole image and transform all of its blocks at
once, as a stack of (8, 8) matrices: `W @ block @ W.T` per block in one
stacked product, which rounds each block as `haar2d` does.
"""

from functools import lru_cache

import numpy as np

from .linalg import _as_real_finite
from .results import check_count

__all__ = [
    "BLOCK",
    "haar_matrix",
    "haar_basis",
    "haar2d",
    "haar2d_inverse",
    "check_image",
    "sparsify_blocks",
    "block_sparsity",
]

BLOCK = 8


@lru_cache(maxsize=None)
def haar_matrix(size=BLOCK):
    """Orthonormal 1-d multilevel Haar matrix of the given power-of-two size."""
    if size < 1 or size & (size - 1):
        raise ValueError("size must be a positive power of two")
    w = np.array([[1.0]])
    while w.shape[0] < size:
        n = w.shape[0]
        avg = np.zeros((n, 2 * n))
        diff = np.zeros((n, 2 * n))
        for i in range(n):
            avg[i, 2 * i] = avg[i, 2 * i + 1] = 1.0 / np.sqrt(2.0)
            diff[i, 2 * i] = 1.0 / np.sqrt(2.0)
            diff[i, 2 * i + 1] = -1.0 / np.sqrt(2.0)
        w = np.vstack([w @ avg, diff])
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def haar_basis(size=BLOCK):
    """The 2-d transform as an orthonormal (size^2, size^2) matrix.

    coeffs = haar_basis() @ block.ravel() and block pixels are recovered
    with the transpose.
    """
    w = haar_matrix(size)
    psi = np.kron(w, w)
    psi.setflags(write=False)
    return psi


def haar2d(block):
    """All 64 transform coefficients of one 8x8 block, row-major order."""
    block = np.asarray(block, dtype=float)
    if block.shape != (BLOCK, BLOCK):
        raise ValueError("block must be 8x8")
    w = haar_matrix(BLOCK)
    return (w @ block @ w.T).ravel()


def haar2d_inverse(coeffs):
    """Exact inverse of haar2d."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (BLOCK * BLOCK,):
        raise ValueError("expected %d coefficients" % (BLOCK * BLOCK))
    w = haar_matrix(BLOCK)
    c = coeffs.reshape(BLOCK, BLOCK)
    return w.T @ c @ w


def check_image(image):
    """An image as a float array, checked: a real 2-d array whose sides
    are positive multiples of 8 and whose entries are all finite.  Raises
    ValueError otherwise."""
    image = _as_real_finite(image, "image")
    if image.ndim != 2 or 0 in image.shape or image.shape[0] % BLOCK or image.shape[1] % BLOCK:
        raise ValueError("image dimensions must be positive multiples of %d, got %r"
                         % (BLOCK, image.shape))
    return image


def _blocks(image):
    # the (H/8, W/8, 8, 8) array of an image's blocks, a view: splitting
    # an axis never copies
    rows, cols = image.shape
    return image.reshape(rows // BLOCK, BLOCK, cols // BLOCK, BLOCK).swapaxes(1, 2)


def _block_coefficients(image):
    # haar2d of every block at once, an (H/8, W/8, 64) array: a stacked
    # matmul multiplies each block as haar2d does, so every bit is the same
    w = haar_matrix(BLOCK)
    coeffs = w @ _blocks(image) @ w.T
    return coeffs.reshape(coeffs.shape[:2] + (BLOCK * BLOCK,))


def sparsify_blocks(image, k):
    """Keep only the k largest-magnitude transform coefficients per block.

    Magnitude ties are resolved by ascending coefficient index.  The
    returned image is float and exactly k-sparse in the block transform;
    no rounding or clamping is applied, otherwise the sparsity would be
    destroyed.  Every block is transformed, truncated and inverted at
    once, bit for bit as `haar2d`, `top_indices` and `haar2d_inverse`
    do it block by block.  The image is checked by `check_image` and k,
    the coefficients kept per block, by `results.check_count` with
    1 <= k <= 64 (ValueError).
    """
    image = check_image(image)
    check_count("k", k, BLOCK * BLOCK)
    coeffs = _block_coefficients(image)
    # a stable sort of the negated magnitudes keeps ties in ascending
    # index order, as top_indices does
    keep = np.argsort(np.negative(np.abs(coeffs)), axis=-1, kind="stable")[..., :k]
    sparse = np.zeros_like(coeffs)
    np.put_along_axis(sparse, keep, np.take_along_axis(coeffs, keep, axis=-1), axis=-1)
    w = haar_matrix(BLOCK)
    out = np.empty_like(image)
    _blocks(out)[...] = w.T @ sparse.reshape(coeffs.shape[:2] + (BLOCK, BLOCK)) @ w
    return out


def block_sparsity(image):
    """Largest per-block count of nonzero transform coefficients; the
    image is checked by `check_image`."""
    coeffs = _block_coefficients(check_image(image))
    return int(np.count_nonzero(np.abs(coeffs) > 1e-9, axis=-1).max(initial=0))
