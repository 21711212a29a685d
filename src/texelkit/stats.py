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
standard deviation; downstream conformance checks compare them as-is.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .image import GrayImage, Rect

GRAY_LEVELS = 256

FEATURE_NAMES = ("mean", "variance", "skewness", "kurtosis", "energy", "entropy")

_LEVELS = np.arange(GRAY_LEVELS, dtype=np.float64)

# budget for the working set of one run of blocks in block_features
_CHUNK_BYTES = 1 << 19
# arrays of 256 levels per block alive at once: the counts and the four
# float64 arrays of feature_matrix (p, a scratch array, centered and c2)
_LEVEL_ARRAYS = 5


@dataclass(frozen=True)
class FeatureVector:
    """The six first-order statistics of one region."""

    mean: float
    variance: float
    skewness: float
    kurtosis: float
    energy: float
    entropy: float

    def as_tuple(self) -> tuple[float, ...]:
        return astuple(self)

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


def feature_matrix(counts: np.ndarray, n: int) -> np.ndarray:
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

    Beside the counts, four float64 arrays of the counts' shape are alive at
    once (_LEVEL_ARRAYS counts them): p, one scratch array that each product
    is written into before its sum, and the centred levels and their squares.
    """
    # +0.0 normalizes the -0.0 entropy of single-level regions
    if n + 1 <= counts.size:
        t = np.arange(n + 1) / n
        t_log_t = t * np.log2(t, out=np.zeros_like(t), where=t > 0)
        energy = (t * t)[counts].sum(axis=-1)
        entropy = -t_log_t[counts].sum(axis=-1) + 0.0
        p = t[counts]
        tmp = np.empty_like(p)
    else:
        p = counts / n
        tmp = np.log2(p, out=np.zeros_like(p), where=p > 0)
        entropy = -np.multiply(p, tmp, out=tmp).sum(axis=-1) + 0.0
        energy = np.multiply(p, p, out=tmp).sum(axis=-1)
    mean = np.multiply(p, _LEVELS, out=tmp).sum(axis=-1, keepdims=True)
    centered = _LEVELS - mean
    c2 = centered * centered
    variance = np.multiply(c2, p, out=tmp).sum(axis=-1)
    np.multiply(c2, centered, out=tmp)
    skewness = np.multiply(tmp, p, out=tmp).sum(axis=-1)
    np.multiply(c2, c2, out=tmp)
    kurtosis = np.multiply(tmp, p, out=tmp).sum(axis=-1)
    return np.stack([mean[:, 0], variance, skewness, kurtosis, energy, entropy], axis=-1)


def block_features(pixels: np.ndarray, block_h: int, block_w: int) -> np.ndarray:
    """(n_rows * n_cols, 6) features of the whole block_h x block_w blocks
    of a 2-D uint8 array, row-major: the one place that counts gray levels.

    A run of blocks is one bincount of block_id * 256 + level over the
    (n_rows, block_h, n_cols, block_w) view. Runs take whole block rows
    while their int64 bin ids and counts, then counts and feature_matrix's
    temporaries, fit _CHUNK_BYTES (one block row at the least). A block row
    whose bin ids alone do not fit (one block over a whole image) is counted
    in runs of pixel rows that do, and their integer counts are added exactly.
    """
    n_rows, n_cols = pixels.shape[0] // block_h, pixels.shape[1] // block_w
    blocks = pixels[: n_rows * block_h, : n_cols * block_w].reshape(n_rows, block_h, n_cols, block_w)
    n = block_h * block_w
    per_block = 8 * max(n + GRAY_LEVELS, _LEVEL_ARRAYS * GRAY_LEVELS)
    step = max(1, _CHUNK_BYTES // (n_cols * per_block))
    # pixel rows per bincount: block_h or more unless one block row does not fit
    pixel_rows = max(1, _CHUNK_BYTES // (8 * n_cols * block_w))
    out = np.empty((n_rows * n_cols, len(FEATURE_NAMES)))
    for r0 in range(0, n_rows, step):
        chunk = blocks[r0 : r0 + step]
        m = chunk.shape[0] * n_cols
        first_bin = np.arange(0, m * GRAY_LEVELS, GRAY_LEVELS).reshape(-1, 1, n_cols, 1)
        # the bin ids are temporaries, freed before feature_matrix runs
        counts = functools.reduce(np.add, (
            np.bincount((first_bin + chunk[:, y0 : y0 + pixel_rows]).ravel(), minlength=m * GRAY_LEVELS)
            for y0 in range(0, block_h, pixel_rows)
        ))
        out[r0 * n_cols : r0 * n_cols + m] = feature_matrix(counts.reshape(m, GRAY_LEVELS), n)
    return out


def features_of_region(img: GrayImage, region: Rect | None = None) -> FeatureVector:
    """Feature vector of the pixels inside `region` (whole image when
    omitted): block_features of the region taken as one block."""
    block = img.pixels
    if region is not None:
        region.check_inside(img)
        block = block[region.y0 : region.y0 + region.h, region.x0 : region.x0 + region.w]
    return FeatureVector(*block_features(block, *block.shape)[0].tolist())
