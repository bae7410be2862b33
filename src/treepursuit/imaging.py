"""Block-sparse image recovery pipeline and 8-bit PGM input/output.

Images are processed in 8x8 blocks: each block is measured through one
Gaussian matrix shared by all blocks and its transform
coefficients recovered against the composed dictionary
measurement_matrix @ haar_basis().T.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .haar import BLOCK, check_image, haar_basis, sparsify_blocks
from .linalg import _as_real_finite
from .results import REASON_RESIDUE, _count, attempt, check_count
from .siggen import gen_matrix, substream

__all__ = [
    "psnr",
    "synthetic_image",
    "recover_image",
    "ImageRecovery",
    "read_pgm",
    "write_pgm",
]

PSNR_CAP_DB = 120.0


def psnr(reference, reconstruction, peak=255.0, cap=PSNR_CAP_DB):
    """Peak signal-to-noise ratio in dB, capped for identical images.

    Both images must be real and finite, of one shape that holds at least
    one pixel, and peak a finite number > 0; ValueError otherwise, so
    neither a NaN nor an empty image scores the cap.
    """
    reference = _as_real_finite(reference, "reference")
    reconstruction = _as_real_finite(reconstruction, "reconstruction")
    if reference.shape != reconstruction.shape:
        raise ValueError("shapes must match")
    if reference.size == 0:
        raise ValueError("images must hold at least one pixel, got shape %r" % (reference.shape,))
    if not 0.0 < peak < np.inf:
        raise ValueError("peak must be a finite number > 0, got %r" % (peak,))
    mse = float(np.mean((reference - reconstruction) ** 2))
    if mse == 0.0:
        return cap
    return min(cap, 10.0 * np.log10(peak * peak / mse))


def _bilinear_upsample(grid, size):
    coords = np.linspace(0.0, grid.shape[0] - 1.0, size)
    i0 = np.floor(coords).astype(int)
    i1 = np.minimum(i0 + 1, grid.shape[0] - 1)
    frac = coords - i0
    rows = grid[i0] * (1.0 - frac)[:, None] + grid[i1] * frac[:, None]
    cols = rows[:, i0] * (1.0 - frac)[None, :] + rows[:, i1] * frac[None, :]
    return cols


def synthetic_image(size=64, seed=0, lo=30.0, hi=225.0):
    """Smooth random grayscale test image with values inside [lo, hi].

    The margin keeps the image comfortably inside [0, 255] so that the
    small overshoots introduced by per-block sparsification stay in range.
    size must be an int (not a bool) and a positive multiple of 8;
    ValueError otherwise.
    """
    if not _count(size) or size % BLOCK:
        raise ValueError("size must be an integer multiple of %d, got %r" % (BLOCK, size))
    rng = substream(seed, "image")
    coarse = rng.normal(size=(size // BLOCK + 1, size // BLOCK + 1))
    img = _bilinear_upsample(coarse, size)
    img = img + 0.15 * rng.normal(size=(size, size))
    span = float(img.max() - img.min()) or 1.0
    return lo + (hi - lo) * (img - img.min()) / span


@dataclass
class ImageRecovery:
    reconstruction: np.ndarray
    sparsified: np.ndarray
    psnr_db: float
    blocks: int
    failed_blocks: int
    residue_met_blocks: int
    solver: str
    wall_time_ms: float
    block_reasons: list = field(default_factory=list)


def recover_image(image, k, m, solver, seed):
    """Measure and recover a block-sparse image; returns an ImageRecovery.

    The image is first truncated to its k largest-magnitude transform
    coefficients per 8x8 block; that sparsified image is the signal being
    recovered and the PSNR reference.  Each block is measured as
    y = phi @ block.ravel() with an M x 64 Gaussian matrix (entry standard
    deviation 1/64) drawn from seed and shared by all blocks.  The solver
    sees the composed dictionary phi @ haar_basis().T; the assembled
    reconstruction is clamped to [0, 255], the reference is not.  Blocks
    run through `results.attempt`, so a SettingsError propagates.  The
    image, m, k and seed are checked before any block runs (ValueError):
    the image by `haar.check_image`, m by `results.check_count` with
    1 <= m <= 64, k as `haar.sparsify_blocks` checks it and the seed as
    `siggen.gen_matrix` does.
    """
    t0 = time.perf_counter()
    image = check_image(image)
    dim = BLOCK * BLOCK
    check_count("m", m, dim)
    target = sparsify_blocks(image, k)
    psi = haar_basis()
    ens = gen_matrix(m, dim, seed)
    dictionary = ens.phi @ psi.T
    recon = np.empty_like(image)
    failed = 0
    reasons = []
    for i in range(0, image.shape[0], BLOCK):
        for j in range(0, image.shape[1], BLOCK):
            x = target[i : i + BLOCK, j : j + BLOCK].ravel()
            out, reason = attempt(solver, dictionary, ens.phi @ x, k)
            reasons.append(reason)
            if out is None:
                failed += 1
                z = np.zeros(dim)
            else:
                z = out.xhat
            recon[i : i + BLOCK, j : j + BLOCK] = (psi.T @ z).reshape(BLOCK, BLOCK)
    clamped = np.clip(recon, 0.0, 255.0)
    return ImageRecovery(
        reconstruction=clamped,
        sparsified=target,
        psnr_db=psnr(target, clamped),
        blocks=len(reasons),
        failed_blocks=failed,
        residue_met_blocks=reasons.count(REASON_RESIDUE),
        solver=getattr(solver, "label", str(solver)),
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        block_reasons=reasons,
    )


def write_pgm(path, image):
    """Binary 8-bit PGM writer; values are rounded and clamped to [0, 255].
    The image must be a real, finite 2-d array; ValueError otherwise."""
    image = _as_real_finite(image, "image")
    if image.ndim != 2:
        raise ValueError("image must be 2-d")
    data = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (data.shape[1], data.shape[0]))
        fh.write(data.tobytes())


_PGM_FIELDS = ("magic", "width", "height", "maxval")


def read_pgm(path):
    """Binary 8-bit PGM reader (magic P5, maxval 255, # comments allowed).
    A file that is not such a PGM, or whose header is cut short, names a
    field that is not a positive decimal integer, or holds fewer pixel
    bytes than width x height, raises ValueError naming what is wrong."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        if pos == len(data):
            raise ValueError("PGM header ends before its %s" % _PGM_FIELDS[len(tokens)])
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if tokens[0] != b"P5":
        raise ValueError("not a binary PGM file")
    for name, token in zip(_PGM_FIELDS[1:], tokens[1:]):
        if not token.isdigit() or int(token) == 0:
            raise ValueError("PGM %s must be a positive decimal integer, got %r" % (name, token))
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError("only 8-bit PGM is supported")
    pos += 1  # single whitespace byte after maxval
    if len(data) - pos < width * height:
        raise ValueError("PGM pixel data holds %d bytes, %d x %d needs %d"
                         % (max(len(data) - pos, 0), width, height, width * height))
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width).astype(float)
