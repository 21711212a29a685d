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
"""

from __future__ import annotations

import itertools

import numpy as np

from .image import GrayImage, _sealed

GRAY_LEVELS = 256

FEATURE_NAMES = ("mean", "variance", "skewness", "kurtosis", "energy", "entropy")

_LEVELS = np.arange(GRAY_LEVELS, dtype=np.float64)

# budget for the working set of one run of blocks in block_features
_CHUNK_BYTES = 1 << 19
# arrays of 256 levels per block alive at once: the counts and the three
# float64 arrays feature_matrix computes in (p and two scratch arrays)
_LEVEL_ARRAYS = 4


def feature_matrix(counts: np.ndarray, n: int, work: np.ndarray | None = None) -> np.ndarray:
    """(m, 6) features of an (m, 256) matrix of gray-level counts, one region
    of n >= 1 pixels per row.

    Each reduction is a float64 sum along the contiguous last axis, which
    numpy takes pairwise over one row at a time: a row's features do not
    depend on m or on the rows beside it. Everything is computed from
    p = counts / n, so regions whose counts are multiples of one another
    (a tile and a tiling of it) get bit-identical features.

    When a table of n + 1 entries is no larger than the counts, p, p^2 and
    p * log2(p) are looked up per count from t = arange(n + 1) / n: each
    entry is the same float operation on the same operands as the direct
    formula, so the features are bit-identical.

    Beside the counts, three float64 arrays of the counts' shape are alive
    (_LEVEL_ARRAYS counts them): p and two scratch arrays that hold the
    centred levels, their powers and each product before its row sum. They
    are the first counts.size entries of each row of `work`, a (3, >=
    counts.size) float64 array, so that runs of blocks reuse one buffer;
    without it they are made here.
    """
    if work is None:
        work = np.empty((3, counts.size))
    p, a, b = (w[: counts.size].reshape(counts.shape) for w in work)
    out = np.empty((len(counts), len(FEATURE_NAMES)))
    # +0.0 normalizes the -0.0 entropy of single-level regions
    if n + 1 <= counts.size:
        t = np.arange(n + 1) / n
        t_log_t = t * np.log2(t, out=np.zeros_like(t), where=t > 0)
        out[:, 4] = np.take(t * t, counts, out=a, mode="clip").sum(axis=-1)
        out[:, 5] = -np.take(t_log_t, counts, out=a, mode="clip").sum(axis=-1) + 0.0
        np.take(t, counts, out=p, mode="clip")
    else:
        np.divide(counts, n, out=p)
        a.fill(0.0)
        np.log2(p, out=a, where=p > 0)
        out[:, 5] = -np.multiply(p, a, out=a).sum(axis=-1) + 0.0
        out[:, 4] = np.multiply(p, p, out=a).sum(axis=-1)
    # a ufunc that broadcasts an operand allocates numpy's iteration buffers,
    # so the levels and the means are first spread over whole arrays; the
    # products and differences keep their operands and so their bits
    np.copyto(a, _LEVELS)
    mean = np.multiply(a, p, out=a).sum(axis=-1, keepdims=True)
    out[:, 0] = mean[:, 0]
    np.copyto(a, _LEVELS)
    np.copyto(b, mean)
    centred = np.subtract(a, b, out=a)
    c2 = np.multiply(centred, centred, out=b)
    # (c2 * centred) * p, c2 * p and (c2 * c2) * p, as products of the same operands
    out[:, 2] = np.multiply(np.multiply(c2, centred, out=a), p, out=a).sum(axis=-1)
    out[:, 1] = np.multiply(c2, p, out=a).sum(axis=-1)
    out[:, 3] = np.multiply(np.multiply(c2, c2, out=b), p, out=b).sum(axis=-1)
    return out


def block_features(blocks: np.ndarray, total: np.ndarray | None = None) -> np.ndarray:
    """(n_rows * n_cols, 6) features of the blocks of a BlockGrid.blocks
    view of uint8 pixels, row-major: the one place that counts gray levels
    (an edge strip or a whole image is one block, pixels[None, :, None]).
    Each run's counts, summed over its blocks, are added into `total`
    (int64, 256 levels) when one is given.

    A run of blocks is one bincount of block_id * 256 + level over the
    (n_rows, block_h, n_cols, block_w) view. Runs take whole block rows
    while their int64 bin ids and counts, then counts and feature_matrix's
    arrays, fit _CHUNK_BYTES; when one block row does not fit, it is cut
    into runs of whole blocks that do (one block at the least). One buffer,
    made once, holds a run's bin ids while it is counted and feature_matrix's
    arrays after. A block whose bin ids alone do not fit (a 1024x1024 image
    in one block) is counted in runs of pixel rows that do, and their
    integer counts are added exactly.
    """
    n_rows, block_h, n_cols, block_w = blocks.shape
    n = block_h * block_w
    per_block = 8 * max(n + GRAY_LEVELS, _LEVEL_ARRAYS * GRAY_LEVELS)
    fit = max(1, _CHUNK_BYTES // per_block)
    # a run is `rows` whole block rows, or `cols` whole blocks of one block row
    rows, cols = (max(1, min(n_rows, fit // n_cols)), n_cols) if fit >= n_cols else (1, fit)
    # pixel rows per bincount: block_h unless one block does not fit
    pixel_rows = min(block_h, max(1, _CHUNK_BYTES // (8 * cols * block_w)))
    first_bin = np.arange(0, rows * cols * GRAY_LEVELS, GRAY_LEVELS).reshape(rows, 1, cols, 1)
    # one buffer: a bincount's int64 bin ids, then feature_matrix's three float64 arrays
    work = np.empty(max(rows * pixel_rows * cols * block_w, 3 * rows * cols * GRAY_LEVELS))
    bin_ids, levels = work.view(np.int64), work[: 3 * rows * cols * GRAY_LEVELS].reshape(3, -1)
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
