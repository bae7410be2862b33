"""Image pipeline: PSNR, synthetic scenes, block recovery, PGM files."""

import re

import numpy as np
import pytest

from treepursuit.experiments import make_solver
from treepursuit.haar import block_sparsity
from treepursuit.imaging import (
    psnr,
    read_pgm,
    recover_image,
    synthetic_image,
    write_pgm,
)


def test_psnr_known_values():
    ref = np.zeros((4, 4))
    # uniform error of 255 gives exactly 0 dB at peak 255
    assert psnr(ref, np.full((4, 4), 255.0)) == pytest.approx(0.0, abs=1e-12)
    # mse 1 -> 10 log10(255^2) = 48.1308...
    noisy = ref.copy()
    noisy += 1.0
    assert psnr(ref, noisy) == pytest.approx(48.1308036086791, abs=1e-10)
    assert psnr(ref, ref) == 120.0  # identical images hit the cap
    with pytest.raises(ValueError):
        psnr(ref, np.zeros((2, 2)))


def test_synthetic_image_is_reproducible_and_in_range():
    a = synthetic_image(seed=5)
    b = synthetic_image(seed=5)
    assert np.array_equal(a, b)
    assert a.shape == (64, 64)
    assert a.min() >= 30.0 - 1e-9 and a.max() <= 225.0 + 1e-9
    assert not np.array_equal(a, synthetic_image(seed=6))
    small = synthetic_image(size=16, seed=1)
    assert small.shape == (16, 16)


def test_recover_image_exact_when_search_succeeds():
    image = synthetic_image(size=16, seed=2)
    out = recover_image(image, 6, 28, make_solver("aomp", kmax=12), seed=2)
    assert out.blocks == 4
    assert out.failed_blocks == 0
    assert block_sparsity(out.sparsified) <= 6
    # every block met the residue target, so the reconstruction matches
    # the sparsified target to search precision
    assert out.residue_met_blocks == 4
    assert out.psnr_db > 100.0
    assert out.reconstruction.min() >= 0.0 and out.reconstruction.max() <= 255.0


def test_recover_image_clamps_blocks_that_overshoot():
    # three Haar atoms of a lone bright pixel dip below 0, and of a lone
    # dark pixel in a bright block rise above 255; the assembled
    # reconstruction is clamped, the sparsified reference is not
    image = np.zeros((8, 16))
    image[0, 0] = 255.0
    image[:, 8:] = 255.0
    image[0, 8] = 0.0
    out = recover_image(image, 3, 40, make_solver("omp"), seed=1)
    assert out.residue_met_blocks == 2
    assert out.sparsified.min() < -1.0 and out.sparsified.max() > 256.0
    assert out.reconstruction.min() == 0.0 and out.reconstruction.max() == 255.0
    assert np.allclose(out.reconstruction, np.clip(out.sparsified, 0.0, 255.0), atol=1e-9)


def test_recover_image_validates_arguments():
    with pytest.raises(ValueError):
        recover_image(np.zeros((10, 16)), 4, 24, make_solver("omp"), seed=0)
    # a float or bool m ended in a numpy TypeError drawing the matrix
    for m in (2.5, True, 0, 65, "24"):
        with pytest.raises(ValueError, match=r"m must be an integer with 1 <= m <= 64, got "):
            recover_image(np.zeros((16, 16)), 4, m, make_solver("omp"), seed=0)


@pytest.mark.parametrize("size", [0, -8, 12, 8.0, True])
def test_synthetic_image_rejects_a_size_that_is_not_a_positive_multiple_of_8(size):
    # size 0 and -8 passed the multiple-of-8 test and failed inside numpy
    with pytest.raises(ValueError, match=r"size must be an integer multiple of 8, got "):
        synthetic_image(size=size)


def test_recover_image_survives_solver_failure():
    class Broken:
        label = "broken"

        def run(self, phi, y, k):
            raise np.linalg.LinAlgError("boom")

    image = synthetic_image(size=16, seed=4)
    out = recover_image(image, 4, 24, Broken(), seed=4)
    assert out.failed_blocks == 4
    assert set(out.block_reasons) == {"LinAlgError: boom"}
    assert np.all(out.reconstruction == 0.0)


def test_recover_image_lets_a_solver_bug_through():
    class Buggy:
        label = "buggy"

        def run(self, phi, y, k):
            raise TypeError("not a numerical failure")

    with pytest.raises(TypeError, match="not a numerical failure"):
        recover_image(synthetic_image(size=16, seed=4), 4, 24, Buggy(), seed=4)


def test_recover_image_aborts_on_settings_that_fit_no_block():
    with pytest.raises(ValueError, match="exceeds"):
        recover_image(synthetic_image(size=16, seed=4), 4, 16, make_solver("aomp", kmax=30), seed=4)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    image = rng.integers(0, 256, size=(16, 24)).astype(float)
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    back = read_pgm(path)
    assert back.shape == (16, 24)
    assert np.array_equal(back, image)


def test_pgm_reader_handles_comments_and_rejects_other_formats(tmp_path):
    path = tmp_path / "c.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment line\n2 2\n255\n" + bytes([0, 10, 20, 250]))
    img = read_pgm(path)
    assert img.tolist() == [[0.0, 10.0], [20.0, 250.0]]
    bad = tmp_path / "bad.pgm"
    with open(bad, "wb") as fh:
        fh.write(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError):
        read_pgm(bad)


def test_write_pgm_rounds_and_clamps(tmp_path):
    path = tmp_path / "x.pgm"
    write_pgm(path, np.array([[-5.0, 0.4, 254.6, 300.0]]))
    assert read_pgm(path).tolist() == [[0.0, 0.0, 255.0, 255.0]]
    with pytest.raises(ValueError):
        write_pgm(path, np.zeros(8))


@pytest.mark.parametrize("header, pixels, message", [
    (b"P5\n8", b"", "header ends before its height"),
    (b"P5\n# a comment\n", b"", "header ends before its width"),
    (b"P5\n8 8\n255\n", bytes(63), "pixel data holds 63 bytes, 8 x 8 needs 64"),
    (b"P5\n0 8\n255\n", b"", "width must be a positive decimal integer, got b'0'"),
    (b"P5\n8 x8\n255\n", bytes(64), "height must be a positive decimal integer"),
], ids=["cut-header", "comment-only", "short-pixels", "zero-width", "bad-height"])
def test_read_pgm_names_what_is_missing_or_wrong(tmp_path, header, pixels, message):
    # a cut header raised int()'s "invalid literal ... b''", short pixels
    # numpy's "buffer is smaller than requested size", and a 0 8 header
    # gave an (8, 0) image
    path = tmp_path / "cut.pgm"
    path.write_bytes(header + pixels)
    with pytest.raises(ValueError, match="PGM " + re.escape(message)):
        read_pgm(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_write_pgm_rejects_a_non_finite_image(tmp_path, bad):
    # a NaN pixel was cast to 0, with a numpy warning
    image = np.zeros((2, 2))
    image[1, 0] = bad
    with pytest.raises(ValueError, match="image contains NaN or infinite"):
        write_pgm(tmp_path / "x.pgm", image)
    with pytest.raises(ValueError, match="image must be real"):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)) + 1j)


def test_an_empty_image_is_rejected_not_scored_the_cap():
    # the mean of no squared errors was NaN, and min(cap, nan) the cap
    for shape in ((0, 0), (8, 0)):
        with pytest.raises(ValueError, match="images must hold at least one pixel"):
            psnr(np.zeros(shape), np.zeros(shape))
    with pytest.raises(ValueError, match="positive multiples of 8"):
        recover_image(np.zeros((8, 0)), 4, 16, make_solver("omp"), 0)


@pytest.mark.parametrize("side", ["reference", "reconstruction"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_psnr_rejects_a_non_finite_image(side, bad):
    # min(cap, nan) keeps the cap, so a NaN reconstruction scored 120 dB
    images = {"reference": np.zeros((8, 8)), "reconstruction": np.zeros((8, 8))}
    images[side][0, 0] = bad
    with pytest.raises(ValueError, match="%s contains NaN or infinite" % side):
        psnr(images["reference"], images["reconstruction"])


def test_psnr_rejects_complex_input():
    ref = np.zeros((4, 4))
    with pytest.raises(ValueError, match="reconstruction must be real"):
        psnr(ref, ref + 1j)
    with pytest.raises(ValueError, match="reference must be real"):
        psnr(ref.astype(complex), ref)


@pytest.mark.parametrize("peak", [-5.0, 0.0, np.nan, np.inf])
def test_psnr_rejects_a_peak_that_is_not_finite_and_positive(peak):
    ref = np.zeros((4, 4))
    with pytest.raises(ValueError, match="peak must be a finite number > 0"):
        psnr(ref, ref + 1.0, peak=peak)


def test_recover_image_rejects_a_non_finite_image_and_a_bad_k():
    # one NaN pixel gave a failed block and a capped 120 dB; a float k
    # failed deep inside slicing and k=True ran as 1
    solver = make_solver("omp")
    image = np.full((16, 16), 100.0)
    image[9, 2] = np.nan
    with pytest.raises(ValueError, match="image contains NaN or infinite"):
        recover_image(image, 4, 24, solver, seed=0)
    with pytest.raises(ValueError, match="image must be real"):
        recover_image(np.full((8, 8), 1j), 4, 24, solver, seed=0)
    for k in (2.5, True, 0, 65):
        with pytest.raises(ValueError, match="k must be an integer"):
            recover_image(np.full((8, 8), 100.0), k, 24, solver, seed=0)
