"""Texture periodicity estimation via distance matching functions.

A distance matching function (DMF) measures how much an image disagrees with
a copy of itself shifted by d pixels along one axis: the mean squared
gray-level difference over all overlapping pixel pairs. Per-row (or
per-column) contributions are superposed into a single curve, a read-only
1-D float64 array whose [d - 1] holds displacement d; displacements where
the curve dips to a local minimum are candidate periods, located by sign
changes of the curve's forward differences.

Curve values at exact multiples of a true period are exactly zero: the
squared-difference sums are exact integers (see _dmf) and only the final
per-pair normalization is floating point.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .image import GrayImage

__all__ = ["MINIMA_DEPTH_FRACTION", "PeriodEstimate", "column_dmf", "estimate_periods",
           "find_minima", "row_dmf"]

# A local minimum only counts toward period selection when its value is within
# this fraction of the way from the curve's global minimum up to the curve
# mean. Random/noisy textures produce many shallow dips (neighbouring
# displacements fluctuate around the curve's high plateau); true periods dip
# close to the global minimum and survive this cut.
MINIMA_DEPTH_FRACTION = 0.25

# _dmf takes row chunks whose float64 pixels and spectra fit this many bytes
# together, so its working set stays bounded whatever the image size.
_FFT_CHUNK_BYTES = 1 << 18

# _dmf rounds lag sums only while their error bound is below this.
_MAX_ROUNDING_ERROR = 0.5


@dataclass(frozen=True)
class PeriodEstimate:
    """Estimated row/column periods with the candidate minima behind them.

    A degenerate axis had no usable minima (constant image, or no dip inside
    the probed range); its period comes from the curve's global minimum and
    should be treated as a guess. row_curve and col_curve are the DMF curves
    the periods came from (read-only arrays, None for manual periods); they
    are not compared and stay out of to_dict(), which copies the candidate
    lists.
    """

    row_period: int
    col_period: int
    row_candidates: list[int]
    col_candidates: list[int]
    row_degenerate: bool = False
    col_degenerate: bool = False
    row_curve: np.ndarray | None = field(default=None, repr=False, compare=False)
    col_curve: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {f.name: copy.copy(getattr(self, f.name)) for f in fields(self) if f.compare}


def _d_max(length: int, fraction: float) -> int:
    """Displacements probed along an axis of `length` pixels."""
    return min(int(fraction * length), length - 1)


def _corr_error_bound(n: int, rows: int, w: int) -> float:
    """Bound on the float error of the lag sums of `rows` rows of w pixels,
    padded to n, that _dmf sums in float64 and then rounds.

    No centred pixel is more than 128 from mid-gray, so energy = 128**2 *
    rows * w bounds every |C[d]| and, times n, the 1-norm of the power
    spectrum (Parseval). A length-n FFT is taken to err by eps = 10 u
    log2(n): forward in the 2-norm of its output, inverse per output against
    the 1-norm of its input over n (the radix-2 analysis in Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 24.1, gives
    about 6.7 u per stage). n is 5-smooth, so numpy's pocketfft takes
    radix-3 and radix-5 passes too. Such a pass rounds each output at most 4
    (radix 3) or 5 (radix 5) times over its r inputs, so it errs by at most
    4 u sqrt(3) = 6.9 u or 5 u sqrt(5) = 11.2 u in the 2-norm; with about
    3 u for its twiddle products, that is 6.3 u and 6.1 u per unit of
    log2 n, under the 10 u taken. Each power value adds two roundings and
    the sum over the rows a chain of at most `rows` additions, however _dmf
    groups them into chunks.
    """
    u = np.finfo(np.float64).eps / 2
    eps = 10 * u * math.log2(n)
    gamma = (rows + 1) * u / (1 - (rows + 1) * u)
    spectrum = 2 * eps + eps * eps + gamma * (1 + eps) ** 2  # relative to n * energy
    return 128 * 128 * rows * w * (spectrum + eps * (1 + spectrum))


def _fft_length(m: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= m (m >= 1): numpy's FFT is fast at
    these lengths, which lie no farther above m than a power of two."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << ((m - 1) // p).bit_length())  # the least p * 2**a >= m
            p *= 3
        p5 *= 5
    return best


def _chunk_rows(h: int, w: int, n: int) -> int:
    """Rows per _dmf chunk: its float64 pixels and their complex128 spectra,
    padded to n, fit _FFT_CHUNK_BYTES together (at least one row, at most h)."""
    return max(1, min(h, _FFT_CHUNK_BYTES // (8 * w + 16 * (n // 2 + 1))))


def _dmf(pix: np.ndarray, d_max: int) -> np.ndarray:
    """DMF values for displacements 1..d_max (at most w - 1) along the last axis.

    The squared-difference sum at d is (S[w] - S[d]) + S[w - d] - 2 C[d]:
    S is the exact prefix sum of per-column sums of squares, C[d] the lag-d
    autocorrelation summed over rows. C is the inverse real FFT of the
    row-summed power spectrum, each row zero-padded to the 5-smooth length
    n >= w + d_max (_fft_length, so no lag wraps around), and is an integer:
    rounding recovers it exactly while _corr_error_bound for the rows summed
    stays below 0.5. The spectrum is summed over row chunks and rounded once
    for the whole axis when the bound for all h rows allows it; otherwise it
    is rounded after each run of chunks the bound covers (the whole count
    halved until it does, one chunk at the least), and the runs' shares of C
    are summed in int64, which is exact. An axis too long for the bound of
    one chunk (about 3e8 pixels) raises ValueError. The bounds are checked
    before any FFT.

    The chunk and its spectrum are two buffers of _chunk_rows rows, made
    once and reused by every chunk; the power is formed in the spectrum's
    own memory. The values come back read-only.
    """
    h, w = pix.shape
    if not 1 <= d_max <= w - 1:
        raise ValueError(f"d_max must be in 1..{w - 1}, got {d_max}")
    n = _fft_length(w + d_max)
    rows = _chunk_rows(h, w, n)
    bound = _corr_error_bound(n, rows, w)
    if bound >= _MAX_ROUNDING_ERROR:
        raise ValueError(
            f"DMF along an axis of {w} pixels cannot be summed exactly "
            f"(rounding error bound {bound:.3g})"
        )
    # chunks summed per rounding
    per_round = -(-h // rows)
    while per_round > 1 and (
        _corr_error_bound(n, min(h, per_round * rows), w) >= _MAX_ROUNDING_ERROR
    ):
        per_round //= 2
    chunk = np.empty((rows, w))
    spec = np.empty((rows, n // 2 + 1), dtype=np.complex128)
    total = np.zeros(n // 2 + 1)
    col_sq = np.zeros(w, dtype=np.int64)
    corr = np.zeros(d_max, dtype=np.int64)
    for i, r0 in enumerate(range(0, h, rows), 1):
        m = min(rows, h - r0)
        c, s = chunk[:m], spec[:m]
        # Centring on mid-gray changes no difference and quarters the
        # worst-case energy the error bound scales with; it is done in
        # float64, as uint8 would wrap.
        c[...] = pix[r0 : r0 + m]
        c -= 128
        # integer partial sums below 2**53, so exact
        col_sq += np.einsum("ij,ij->j", c, c).astype(np.int64)
        np.fft.rfft(c, n, out=s)
        # re*re + im*im into the real slots of the spectrum
        parts = s.view(np.float64)
        np.square(parts, out=parts)
        power = parts[:, 0::2]
        power += parts[:, 1::2]
        total += power.sum(axis=0)
        if i % per_round == 0 or r0 + m == h:
            corr += np.rint(np.fft.irfft(total, n)[1 : d_max + 1]).astype(np.int64)
            total[...] = 0
    prefix = np.concatenate(([0], np.cumsum(col_sq)))
    d = np.arange(1, d_max + 1)
    values = ((prefix[w] - prefix[d]) + prefix[w - d] - 2 * corr) / (h * (w - d))
    values.setflags(write=False)
    return values


def column_dmf(img: GrayImage, d_max: int) -> np.ndarray:
    """DMF over column displacements: [d - 1] is the mean squared
    difference between pixels d columns apart, over all rows.
    """
    return _dmf(img.pixels, d_max)


def row_dmf(img: GrayImage, d_max: int) -> np.ndarray:
    """DMF over row displacements: [d - 1] compares pixels d rows apart."""
    return _dmf(img.pixels.T, d_max)


def find_minima(values: np.ndarray) -> list[int]:
    """All strict local minima of a curve (values[d - 1] at displacement d),
    ascending.

    A minimum is a displacement where the forward difference turns from
    negative to positive; an exact plateau at the trough is reported at the
    plateau's first displacement. Endpoints (the first and last
    displacements) never qualify.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 3:
        raise ValueError("curve needs at least 3 values in one dimension to locate minima")
    diffs = np.diff(values)
    # the nonzero steps in order (a NaN step counts as zero): a fall from d =
    # i + 1 followed next by a rise makes a minimum at d = i + 2
    steps = np.flatnonzero((diffs < 0) | (diffs > 0))
    fall = diffs[steps] < 0
    return (steps[:-1][fall[:-1] & ~fall[1:]] + 2).tolist()


def _select_period(values: np.ndarray) -> tuple[int, list[int], bool]:
    """Most plausible period of one curve, the minima actually used, and
    whether the fallback fired.

    Selection: take the significant local minima (see MINIMA_DEPTH_FRACTION),
    pool the first minimum's displacement with the spacings between
    consecutive minima, and return the pool's mode, ties broken toward the
    smallest value. A curve without minima falls back to the displacement of
    its global minimum.
    """
    minima = find_minima(values)
    if not minima:
        return int(np.argmin(values)) + 1, [], True
    gmin = float(values.min())
    tau = gmin + MINIMA_DEPTH_FRACTION * (float(values.mean()) - gmin)
    used = [d for d in minima if values[d - 1] <= tau] or minima
    pool, counts = np.unique([used[0]] + np.diff(used).tolist(), return_counts=True)
    return int(pool[counts.argmax()]), used, False  # the first top count is the smallest


def estimate_periods(img: GrayImage, d_max_fraction: float = 0.5) -> PeriodEstimate:
    """Estimate row and column periods of an image independently.

    Each axis is probed up to floor(d_max_fraction * dimension) displacements
    (capped at dimension - 1). A period longer than half the axis cannot be
    confirmed by two full repetitions, hence the 0.5 default.
    """
    if not 0 < d_max_fraction <= 1:
        raise ValueError(f"d_max_fraction must be in (0, 1], got {d_max_fraction}")
    d_max_r = _d_max(img.height, d_max_fraction)
    d_max_c = _d_max(img.width, d_max_fraction)
    if d_max_r < 3 or d_max_c < 3:
        raise ValueError(
            f"image {img.width}x{img.height} too small for fraction {d_max_fraction}: "
            "need at least 3 displacements per axis"
        )
    row_curve = row_dmf(img, d_max_r)
    col_curve = column_dmf(img, d_max_c)
    row_period, row_used, row_degen = _select_period(row_curve)
    col_period, col_used, col_degen = _select_period(col_curve)
    return PeriodEstimate(
        row_period=row_period,
        col_period=col_period,
        row_candidates=row_used,
        col_candidates=col_used,
        row_degenerate=row_degen,
        col_degenerate=col_degen,
        row_curve=row_curve,
        col_curve=col_curve,
    )
