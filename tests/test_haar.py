"""Block transform: orthonormality, round trips, truncation optimality."""

import itertools
import re

import numpy as np
import pytest

from treepursuit.haar import (
    BLOCK,
    block_sparsity,
    check_image,
    haar2d,
    haar2d_inverse,
    haar_basis,
    haar_matrix,
    sparsify_blocks,
)
from treepursuit.linalg import top_indices


def test_matrix_is_orthonormal():
    for size in (2, 4, 8):
        w = haar_matrix(size)
        assert w.shape == (size, size)
        assert np.max(np.abs(w @ w.T - np.eye(size))) < 1e-14


def test_basis_is_orthonormal_kron_square():
    psi = haar_basis()
    assert psi.shape == (64, 64)
    assert np.max(np.abs(psi @ psi.T - np.eye(64))) < 1e-13
    assert not psi.flags.writeable


def test_matrix_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        haar_matrix(6)
    with pytest.raises(ValueError):
        haar_matrix(0)


def test_dc_row_averages():
    w = haar_matrix(8)
    # first analysis function is the normalized constant
    assert np.allclose(w[0], 1.0 / np.sqrt(8))


def test_round_trip_and_parseval_on_random_blocks():
    rng = np.random.default_rng(42)
    worst_rt = 0.0
    worst_pv = 0.0
    for _ in range(1000):
        block = rng.uniform(0.0, 255.0, size=(BLOCK, BLOCK))
        coeffs = haar2d(block)
        back = haar2d_inverse(coeffs)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - block))))
        worst_pv = max(
            worst_pv,
            abs(float(np.sum(coeffs**2)) - float(np.sum(block**2)))
            / max(1.0, float(np.sum(block**2))),
        )
    assert worst_rt < 1e-12
    assert worst_pv < 1e-12


def test_transform_agrees_with_basis_matrix():
    rng = np.random.default_rng(7)
    block = rng.normal(size=(8, 8))
    coeffs = haar2d(block)
    assert np.allclose(coeffs, haar_basis() @ block.ravel(), atol=1e-12)


def test_sparsify_keeps_best_subset_exhaustively():
    # Parseval makes the top-k coefficient choice optimal in image space;
    # verify against every 3-subset on one block
    rng = np.random.default_rng(3)
    block = rng.uniform(0.0, 255.0, size=(8, 8))
    truncated = sparsify_blocks(block, 3)
    best = np.inf
    coeffs = haar2d(block)
    for subset in itertools.combinations(range(64), 3):
        kept = np.zeros(64)
        kept[list(subset)] = coeffs[list(subset)]
        err = float(np.sum((haar2d_inverse(kept) - block) ** 2))
        best = min(best, err)
    got = float(np.sum((truncated - block) ** 2))
    assert got <= best + 1e-9


def test_sparsify_output_is_exactly_k_sparse():
    rng = np.random.default_rng(11)
    image = rng.uniform(0.0, 255.0, size=(16, 24))
    out = sparsify_blocks(image, 5)
    assert block_sparsity(out) <= 5
    for i in range(0, 16, 8):
        for j in range(0, 24, 8):
            coeffs = haar2d(out[i : i + 8, j : j + 8])
            assert int(np.sum(np.abs(coeffs) > 1e-9)) <= 5
    again = sparsify_blocks(out, 5)
    assert np.allclose(again, out, atol=1e-10)


def test_sparsify_validates_arguments():
    with pytest.raises(ValueError):
        sparsify_blocks(np.zeros((10, 16)), 3)
    with pytest.raises(ValueError):
        sparsify_blocks(np.zeros((16, 16)), 0)
    with pytest.raises(ValueError):
        sparsify_blocks(np.zeros((16, 16)), 65)


@pytest.mark.parametrize("shape", [(8, 0), (0, 16), (0, 0)])
def test_check_image_rejects_a_side_of_zero(shape):
    # an (8, 0) image gave 0 blocks and a capped 120 dB from recover_image
    with pytest.raises(ValueError, match="positive multiples of 8, got " + re.escape(repr(shape))):
        check_image(np.zeros(shape))


def _per_block_reference(image, k):
    """Reference: each block on its own through haar2d, the checked
    top_indices and haar2d_inverse."""
    image = np.asarray(image, dtype=float)
    out = np.empty_like(image)
    for i in range(0, image.shape[0], BLOCK):
        for j in range(0, image.shape[1], BLOCK):
            coeffs = haar2d(image[i : i + BLOCK, j : j + BLOCK])
            keep = top_indices(np.abs(coeffs), k)
            sparse = np.zeros_like(coeffs)
            sparse[keep] = coeffs[keep]
            out[i : i + BLOCK, j : j + BLOCK] = haar2d_inverse(sparse)
    return out


def _images():
    rng = np.random.default_rng(25)
    for shape in ((8, 8), (16, 24), (64, 64), (24, 8)):
        yield "uniform %dx%d" % shape, rng.uniform(0.0, 255.0, size=shape)
    # a transposed, so non-contiguous, input
    yield "transposed", rng.uniform(0.0, 255.0, size=(24, 40)).T
    # integer values and constant blocks tie in magnitude exactly
    yield "integer", rng.integers(0, 4, size=(16, 24)).astype(float)
    yield "constant", np.full((16, 16), 7.0)
    yield "integer, constant block", np.block([
        [np.full((8, 8), 3.0), rng.integers(-2, 3, size=(8, 8)).astype(float)],
    ])


@pytest.mark.parametrize("k", [1, 12, 64])
@pytest.mark.parametrize("name, image", list(_images()), ids=[n for n, _ in _images()])
def test_batched_sparsify_is_the_per_block_path_bit_for_bit(name, image, k):
    got = sparsify_blocks(image, k)
    want = _per_block_reference(image, k)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    worst = max(
        int(np.sum(np.abs(haar2d(image[i : i + 8, j : j + 8])) > 1e-9))
        for i in range(0, image.shape[0], 8)
        for j in range(0, image.shape[1], 8)
    )
    assert block_sparsity(image) == worst


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sparsify_rejects_a_non_finite_image(bad):
    image = np.zeros((16, 16))
    image[3, 5] = bad
    with pytest.raises(ValueError, match="image contains NaN or infinite"):
        sparsify_blocks(image, 3)
    with pytest.raises(ValueError, match="image must be real"):
        sparsify_blocks(np.zeros((8, 8)) + 1j, 3)


@pytest.mark.parametrize("k", [2.5, 12.0, True, False, "3", None, 0, 65, np.float64(3.0)])
def test_sparsify_rejects_a_k_that_is_not_an_int_in_1_to_64(k):
    with pytest.raises(ValueError, match="k must be an integer with 1 <= k <= 64"):
        sparsify_blocks(np.zeros((8, 8)), k)


def test_sparsify_takes_a_numpy_integer_k():
    image = np.random.default_rng(1).uniform(0.0, 255.0, size=(16, 8))
    assert sparsify_blocks(image, np.int64(4)).tobytes() == sparsify_blocks(image, 4).tobytes()
