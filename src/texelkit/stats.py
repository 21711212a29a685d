"""Gray-level histograms and first-order statistical features.

The six features are computed from the gray-level probability distribution
p_k = counts[k] / n alone, ignoring pixel arrangement:

    mean      =  sum k * p_k
    variance  =  sum (k - mean)^2 * p_k
    skewness  =  sum (k - mean)^3 * p_k     (raw third central moment)
    kurtosis  =  sum (k - mean)^4 * p_k     (raw fourth central moment)
    energy    =  sum p_k^2
    entropy   = -sum p_k * log2(p_k)        (bits; 0*log2(0) taken as 0)

Skewness and kurtosis are deliberately not standardized by powers of the
standard deviation; downstream conformance checks compare them as-is. A
region's features are one float64 row, its columns in FEATURE_NAMES order.

The first five are exact rationals of the counts, each rounded once to the
nearest float64, from integer power sums (feature_matrix). So they depend
on the counts alone, not on an order of float sums: adding a constant to
every pixel (without clipping) keeps the bits of all but the mean, and
mirroring the levels (255 - x) keeps variance, kurtosis and energy and
negates skewness exactly. Entropy is a float64 sum of p_k log2(p_k).
"""

from __future__ import annotations

import itertools

import numpy as np

from .image import GrayImage, _sealed

__all__ = ["FEATURE_NAMES", "GRAY_LEVELS", "features_of_region"]

GRAY_LEVELS = 256

FEATURE_NAMES = ("mean", "variance", "skewness", "kurtosis", "energy", "entropy")

# k, k^2, k^3 and k^4 of each gray level k, one column each
_POWERS = np.arange(GRAY_LEVELS, dtype=np.float64)[:, None] ** np.arange(1, 5)

# budget for the working set of one run of blocks in block_features
_CHUNK_BYTES = 1 << 19
# arrays of 256 levels per block alive at once: the counts and the two
# float64 arrays feature_matrix computes in
_LEVEL_ARRAYS = 3
# words per block beside its level arrays: its feature row (6), its power
# sums as float64 and as int64 (5 + 5) and up to four int64 numerators
_BLOCK_WORDS = 20

# The first five features, each an integer numerator over n^j: (j, a bound
# on |numerator / n^j| for levels in 0..255, the numerator from n and the
# sums s = (Q, S1, S2, S3, S4)). The bounds are the largest mean, variance
# (255^2 / 4), |skewness| (255^3 / (6 sqrt 3) < 255^3 / 10), kurtosis
# (255^4 / 12, at levels 0 and 255 with p (1 - p) = 1/6) and energy.
_EXACT_FEATURES = (
    (1, 255, lambda n, s: s[1]),
    (2, 255**2 / 4, lambda n, s: n * s[2] - s[1] * s[1]),
    (3, 255**3 / 10, lambda n, s: (n * s[3] - 3 * s[1] * s[2]) * n + 2 * s[1] ** 3),
    (4, 255**4 / 12,
     lambda n, s: ((n * s[4] - 4 * s[1] * s[3]) * n + 6 * s[1] * s[1] * s[2]) * n - 3 * s[1] ** 4),
    (2, 1, lambda n, s: s[0]),
)


def feature_matrix(counts: np.ndarray, n: int, work: np.ndarray | None = None) -> np.ndarray:
    """(m, 6) features of an (m, 256) matrix of gray-level counts c_k, one
    region of n >= 1 pixels per row.

    The first five are correctly rounded (_EXACT_FEATURES): mean S1 / n,
    variance (n S2 - S1^2) / n^2, skewness (n^2 S3 - 3 n S1 S2 + 2 S1^3) /
    n^3, kurtosis (n^3 S4 - 4 n^2 S1 S3 + 6 n S1^2 S2 - 3 S1^4) / n^4 and
    energy Q / n^2, from the power sums S_j = sum c_k k^j and Q = sum c_k^2.
    While n 255^4 < 2^53 every term and partial sum of those is an integer
    double, so one float64 matrix product takes them exactly; past that they
    are int64, or Python ints. A numerator that its bound keeps below 2^53
    is an exact int64, and one float64 division rounds it once; a larger
    one is a Python int, whose true division is correctly rounded. So a
    row's features depend on its counts alone.

    Entropy is a float64 sum of p log2(p), p = counts / n, along the
    contiguous last axis, which numpy takes pairwise over one row at a time:
    it does not depend on m or on the rows beside it, and regions whose
    counts are multiples of one another (a tile and a tiling of it) get the
    same bits. When a table of n + 1 entries is no larger than the counts,
    p log2(p) is looked up per count from t = arange(n + 1) / n: each entry
    is the same float operation on the same operands as the direct formula,
    so the entropy is bit-identical.

    Beside the counts, two float64 arrays of the counts' shape are alive
    (_LEVEL_ARRAYS counts them): p or the counts as floats, and the entropy
    terms. They are the first counts.size entries of each row of `work`, a
    (2, >= counts.size) float64 array, so that runs of blocks reuse one
    buffer; without it they are made here.
    """
    if work is None:
        work = np.empty((2, counts.size))
    c, a = (w[: counts.size].reshape(counts.shape) for w in work)
    out = np.empty((len(counts), len(FEATURE_NAMES)))
    # +0.0 normalizes the -0.0 entropy of single-level regions
    if n + 1 <= counts.size:
        t = np.arange(n + 1) / n
        t_log_t = t * np.log2(t, out=np.zeros_like(t), where=t > 0)
        out[:, 5] = -np.take(t_log_t, counts, out=a, mode="clip").sum(axis=-1) + 0.0
    else:
        p = np.divide(counts, n, out=c)
        a.fill(0.0)
        np.log2(p, out=a, where=p > 0)
        out[:, 5] = -np.multiply(p, a, out=a).sum(axis=-1) + 0.0
    if n * 255**4 < 2**53:  # each term and partial sum is an integer double
        np.copyto(c, counts)
        sums = np.empty((5, len(counts)))
        np.einsum("ij,ij->i", c, c, out=sums[0])
        np.matmul(_POWERS.T, c.T, out=sums[1:])
        sums = sums.astype(np.int64)
    else:  # int64, or Python ints past 2^63; one block a run at this n
        wide = counts.astype(np.int64 if n * 255**4 < 2**63 else object, copy=False)
        powers = _POWERS.T.astype(np.int64).astype(wide.dtype)
        sums = np.vstack([(wide * wide).sum(axis=-1), powers @ wide.T])
    for col, (j, bound, numerator) in enumerate(_EXACT_FEATURES):
        d = n**j
        # an int64 numerator below 2^53 over d < 2^53 rounds once in float64;
        # past that each row is a Python int, whose / is correctly rounded
        out[:, col] = (numerator(n, sums) / d if d * bound < 2**53
                       else [numerator(n, s.tolist()) / d for s in sums.T])
    return out


def block_features(blocks: np.ndarray, total: np.ndarray | None = None) -> np.ndarray:
    """(n_rows * n_cols, 6) features of the blocks of a BlockGrid.blocks
    view of uint8 pixels, row-major: the one place that counts gray levels
    (an edge strip or a whole image is one block, pixels[None, :, None]).
    Each run's counts, summed over its blocks, are added into `total`
    (int64, 256 levels) when one is given.

    A run of blocks is one bincount of block_id * 256 + level over the
    (n_rows, block_h, n_cols, block_w) view. Runs take whole block rows
    while their int64 bin ids and counts, then counts, feature_matrix's
    arrays and each block's own words (_BLOCK_WORDS), fit _CHUNK_BYTES; when one block row does not fit, it is cut
    into runs of whole blocks that do (one block at the least). One buffer,
    made once, holds a run's bin ids while it is counted and feature_matrix's
    arrays after. A block whose bin ids alone do not fit (a 1024x1024 image
    in one block) is counted in runs of pixel rows that do, and their
    integer counts are added exactly.
    """
    n_rows, block_h, n_cols, block_w = blocks.shape
    n = block_h * block_w
    per_block = 8 * max(n + GRAY_LEVELS, _LEVEL_ARRAYS * GRAY_LEVELS + _BLOCK_WORDS)
    fit = max(1, _CHUNK_BYTES // per_block)
    # a run is `rows` whole block rows, or `cols` whole blocks of one block row
    rows, cols = max(1, min(n_rows, fit // n_cols)), min(fit, n_cols)
    # pixel rows per bincount: block_h unless one block does not fit
    pixel_rows = min(block_h, max(1, _CHUNK_BYTES // (8 * cols * block_w)))
    first_bin = np.arange(0, rows * cols * GRAY_LEVELS, GRAY_LEVELS).reshape(rows, 1, cols, 1)
    # one buffer: a bincount's int64 bin ids, then feature_matrix's float64 arrays
    level_size = (_LEVEL_ARRAYS - 1) * rows * cols * GRAY_LEVELS
    work = np.empty(max(rows * pixel_rows * cols * block_w, level_size))
    bin_ids, levels = work.view(np.int64), work[:level_size].reshape(_LEVEL_ARRAYS - 1, -1)
    out = np.empty((n_rows * n_cols, len(FEATURE_NAMES)))
    for r0, c0 in itertools.product(range(0, n_rows, rows), range(0, n_cols, cols)):
        run = blocks[r0 : r0 + rows, :, c0 : c0 + cols]
        bins = first_bin[: run.shape[0], :, : run.shape[2]]
        m, k = bins.size, r0 * n_cols + c0  # k: the run's first block, row-major
        for y0 in range(0, block_h, pixel_rows):
            part = run[:, y0 : y0 + pixel_rows]
            ids = bin_ids[: part.size].reshape(part.shape)
            # one cast, then a same-type add: mixing the types in one ufunc
            # would allocate numpy's casting buffers
            np.copyto(ids, part)
            ids += bins
            hist = np.bincount(ids.ravel(), minlength=m * GRAY_LEVELS)
            counts = np.add(counts, hist, out=counts) if y0 else hist
        counts = counts.reshape(m, GRAY_LEVELS)
        if total is not None:
            total += counts.sum(axis=0)
        out[k : k + m] = feature_matrix(counts, n, levels)
        del counts, hist  # before the next run is counted
    return out


def features_of_region(img: GrayImage) -> np.ndarray:
    """The whole image's six features, from its gray-level counts, a
    read-only 1-D float64 row in FEATURE_NAMES order: block_features of the
    image as one block."""
    return _sealed(block_features(img.pixels[None, :, None])[0])
