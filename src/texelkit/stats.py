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

from dataclasses import dataclass

import numpy as np

from .image import GrayImage, Rect

GRAY_LEVELS = 256

FEATURE_NAMES = ("mean", "variance", "skewness", "kurtosis", "energy", "entropy")

_LEVELS = np.arange(GRAY_LEVELS, dtype=np.float64)

# budget for the int64 copy that bincount makes of one run of rows
_CHUNK_BYTES = 1 << 19


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
        return (self.mean, self.variance, self.skewness, self.kurtosis,
                self.energy, self.entropy)

    def to_dict(self) -> dict[str, float]:
        return dict(zip(FEATURE_NAMES, self.as_tuple()))


def feature_matrix(counts: np.ndarray) -> np.ndarray:
    """(m, 6) features of an (m, 256) matrix of gray-level counts, one region
    per row; every row needs at least one counted pixel.

    Each reduction is a float64 sum along the contiguous last axis, which
    numpy takes pairwise over one row at a time: a row's features do not
    depend on m or on the rows beside it. Everything is computed from
    p = counts / n, so regions whose counts are multiples of one another
    (a tile and a tiling of it) get bit-identical features.

    When every row counts the same n pixels and a table of n + 1 entries is
    no larger than the counts, p, p^2 and p * log2(p) are looked up per count
    from t = arange(n + 1) / n: each entry is the same float operation on the
    same operands as the direct formula, so the features are bit-identical.
    """
    n = counts.sum(axis=-1, keepdims=True)
    if not n.all():
        raise ValueError("cannot compute features of an empty histogram")
    n0 = int(n.flat[0])
    if n0 + 1 <= counts.size and (n == n0).all():
        t = np.arange(n0 + 1) / n0
        t_log_t = t * np.log2(t, out=np.zeros_like(t), where=t > 0)
        p, p_sq, p_log_p = t[counts], (t * t)[counts], t_log_t[counts]
    else:
        p = counts / n
        p_sq = p * p
        p_log_p = p * np.log2(p, out=np.zeros_like(p), where=p > 0)
    mean = (p * _LEVELS).sum(axis=-1, keepdims=True)
    centered = _LEVELS - mean
    c2 = centered * centered
    variance = (c2 * p).sum(axis=-1)
    skewness = (c2 * centered * p).sum(axis=-1)
    kurtosis = (c2 * c2 * p).sum(axis=-1)
    energy = p_sq.sum(axis=-1)
    # +0.0 normalizes the -0.0 produced by single-level regions
    entropy = -p_log_p.sum(axis=-1) + 0.0
    return np.stack([mean[:, 0], variance, skewness, kurtosis, energy, entropy], axis=-1)


def features_of_region(img: GrayImage, region: Rect | None = None) -> FeatureVector:
    """Feature vector of the pixels inside `region` (whole image when omitted):
    one row of feature_matrix over the region's gray-level counts.

    The counts are the sum of one bincount per run of rows whose int64 copy,
    which bincount makes, fits _CHUNK_BYTES (one row at the least), so the
    working memory does not grow with the region. Counts are integers, so
    the sum is exact in any order.
    """
    block = img.pixels
    if region is not None:
        region.check_inside(img)
        block = block[region.y0 : region.y0 + region.h, region.x0 : region.x0 + region.w]
    step = max(1, _CHUNK_BYTES // (8 * block.shape[1]))
    counts = np.zeros(GRAY_LEVELS, dtype=np.int64)
    for r0 in range(0, block.shape[0], step):
        counts += np.bincount(block[r0 : r0 + step].ravel(), minlength=GRAY_LEVELS)
    return FeatureVector(*feature_matrix(counts[None])[0].tolist())
