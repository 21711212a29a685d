"""Block-grid texture analysis: local versus global first-order statistics.

The image is divided by a period-sized grid anchored at (0, 0). Each whole
block's feature vector is compared against the whole-image features (both
come from the gray-level counts of stats.block_features, to which the whole
image adds the edge strips the grid leaves out); a block conforms
when every per-feature relative deviation stays within the threshold. The
most typical conforming block (smallest worst-case deviation) becomes the
representative texel; the blocks the `conforming` mask leaves False are the
anomalies (defects or camouflaged regions).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np
import orjson

from .image import GrayImage, _sealed
from .stats import FEATURE_NAMES, GRAY_LEVELS, block_features, feature_matrix

DEFAULT_EPSILON = 1e-6

# bytes of the report's float64 values in one of _deviation_runs' runs of block rows
_REPORT_CHUNK_BYTES = 1 << 16
_MARK = "\0"  # no report holds it: json.dumps writes it where a block's values go


def _float_texts(values: np.ndarray) -> list[str]:
    """list(map(repr, values.tolist())) for a float64 array, by orjson's Ryu:
    it writes the same shortest round-trip digits as repr where repr uses no
    exponent, that is for 0 and 1e-4 <= |x| < 1e16. The rest (nan and inf,
    which orjson writes as null, and the values repr writes with an exponent,
    which orjson writes in its own notation) go through repr."""
    flat = np.ascontiguousarray(values, np.float64).ravel()  # orjson refuses a strided array
    if not flat.size:
        return []
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(flat)
    (odd,) = np.nonzero(~((size >= 1e-4) & (size < 1e16) | (flat == 0)))  # nan compares False
    for i, x in zip(odd.tolist(), flat[odd].tolist()):
        texts[i] = repr(x)
    return texts


@dataclass(frozen=True)
class BlockGrid:
    """Grid of whole blocks of size block_w x block_h anchored at (0, 0).

    Partial blocks at the right/bottom edges are not part of the grid.
    """

    block_h: int
    block_w: int
    n_rows: int
    n_cols: int

    def __post_init__(self):
        if self.block_h < 1 or self.block_w < 1:
            raise ValueError("block size must be positive")
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("grid must contain at least one whole block")

    def blocks(self, pixels: np.ndarray) -> np.ndarray:
        """The (n_rows, block_h, n_cols, block_w) view of the grid's blocks
        in a 2-D pixel array: block (i, j) is [i, :, j, :]. The grid must fit
        inside the array."""
        h, w = self.n_rows * self.block_h, self.n_cols * self.block_w
        if h > pixels.shape[0] or w > pixels.shape[1]:
            raise ValueError("grid does not fit inside the image")
        return pixels[:h, :w].reshape(self.n_rows, self.block_h, self.n_cols, self.block_w)

    def block(self, pixels: np.ndarray, i: int, j: int) -> np.ndarray:
        """The (block_h, block_w) view of block (i, j) in a 2-D pixel array."""
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise ValueError(
                f"block ({i}, {j}) outside {self.n_rows}x{self.n_cols} grid"
            )
        return self.blocks(pixels)[i, :, j]


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    """Full block classification outcome for one image, made from grid,
    global_features (the whole image's row of six), features (one row per
    block, row-major: block (i, j) is row i * n_cols + j), threshold and
    epsilon. The verdict is derived from them by the constructor, and so by
    dataclasses.replace: `max_deviation` and `conforming` (max_deviation <=
    threshold), one entry per block, and `representative` (the conforming
    block of least max_deviation, earliest in row-major order on ties; None
    when none conforms). A block's six deviations are not stored: they are
    deviation_matrix of its features, derived one run of block rows at a
    time by _deviation_runs, for the verdict and again for the report.
    """

    grid: BlockGrid
    global_features: np.ndarray
    features: np.ndarray = field(repr=False)
    threshold: float
    epsilon: float
    max_deviation: np.ndarray = field(init=False, repr=False)
    conforming: np.ndarray = field(init=False, repr=False)
    representative: tuple[int, int] | None = field(init=False)

    def __post_init__(self):
        k = self.grid.n_rows * self.grid.n_cols
        for name, shape in (("features", (k, 6)), ("global_features", (6,))):
            if (got := np.shape(getattr(self, name))) != shape:
                raise ValueError(f"{name} must have shape {shape}, got {got}")
        max_dev = np.empty(k)
        for k0, k1, devs in self._deviation_runs():
            # column by column: a reduction along the 6-wide axis is slower
            max_dev[k0:k1] = functools.reduce(np.maximum, devs.T)  # a nan stays nan
        # the report is strict JSON, so a result holds no inf or nan to write;
        # a non-finite feature makes its derived deviation inf or nan too
        if not np.isfinite(max_dev).all():
            raise ValueError(
                f"a relative deviation overflowed: epsilon {self.epsilon!r} is too small"
            )
        conforming = max_dev <= self.threshold
        candidates = np.flatnonzero(conforming)
        representative = None
        if candidates.size:
            # argmin keeps the first minimum: the earliest block in row-major order
            best = int(candidates[np.argmin(max_dev[candidates])])
            representative = divmod(best, self.grid.n_cols)
        object.__setattr__(self, "max_deviation", _sealed(max_dev))
        object.__setattr__(self, "conforming", _sealed(conforming))
        object.__setattr__(self, "representative", representative)

    def to_dict(self) -> dict:
        """The report as a dict: report_parts() read back."""
        return json.loads("".join(self.report_parts()))

    def report_parts(self, periods: dict | None = None) -> Iterator[str]:
        """Pieces of json.dumps(report, indent=2, allow_nan=False) + "\n", where
        report is {"periods": periods, "analysis": ...} when periods are given
        (analyze); its key order is part of the output contract. All but the
        blocks is dumped now, before any piece is taken, with a marker for one
        block: its line gives the blocks' indent, and _block_rows() the blocks."""
        report = {
            "grid": asdict(self.grid),
            "threshold": self.threshold,
            "epsilon": self.epsilon,
            "global": dict(zip(FEATURE_NAMES, self.global_features.tolist())),
            "representative": None if self.representative is None else list(self.representative),
            "blocks": [_MARK],
        }
        if periods is not None:
            report = {"periods": periods, "analysis": report}
        before, after = json.dumps(report, indent=2, allow_nan=False).split(json.dumps(_MARK))
        before, _, indent = before.rpartition("\n")  # before ends with the list's "["
        return itertools.chain((before,), self._block_rows(indent), (after + "\n",))

    def _block_rows(self, indent: str) -> Iterator[str]:
        """The blocks between the list's "[" and its closing line, each at
        `indent`, as json.dumps(indent=2) writes them: "\n" before the first
        block row and ",\n" before each later one, one row per piece. A block
        is json.dumps of a block of markers, split at each and joined by %s.

        The blocks come in the runs of _deviation_runs, each formatted when
        it is asked for: its features, deviations and max_deviation are
        stacked in template order then. Within a run, each distinct float64
        bit pattern (so -0.0 and 0.0 stay apart) is formatted once by
        _float_texts, whose text is repr's, as json writes floats (all are
        finite, or the result could not be made), and the strings are
        gathered back into the row's repeated template.
        """
        features = dict.fromkeys(FEATURE_NAMES, _MARK)
        block = {"index": [_MARK, _MARK], "features": features, "deviations": features,
                 "max_deviation": _MARK, "conforming": _MARK}
        template = "%s".join(json.dumps(block, indent=2).split(json.dumps(_MARK)))
        template = indent + template.replace("\n", "\n" + indent)
        n_cols = self.grid.n_cols
        words = np.array(["false", "true"], dtype=object)
        row = ",\n".join([template] * n_cols)
        for k0, k1, devs in self._deviation_runs():
            run = np.column_stack([self.features[k0:k1], devs, self.max_deviation[k0:k1]])
            bits, at = np.unique(run.view(np.uint64), return_inverse=True)
            # the strings are made here; the matrix and its sort go after it
            texts = _float_texts(bits.view(np.float64))
            del devs, run, bits
            args = np.empty((k1 - k0, 16), dtype=object)  # i, j, 13 floats, true/false
            args[:, 0], args[:, 1] = np.divmod(np.arange(k0, k1), n_cols)
            args[:, 2:15] = np.array(texts, dtype=object)[at.reshape(k1 - k0, 13)]
            args[:, 15] = words[self.conforming[k0:k1].view(np.uint8)]
            for r0 in range(0, k1 - k0, n_cols):
                yield ",\n" if k0 + r0 else "\n"
                yield row % tuple(args[r0 : r0 + n_cols].ravel().tolist())
            del texts, at, args  # the run's strings, before the next run's are made

    def _deviation_runs(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """(k0, k1, deviation_matrix of features[k0:k1]) for runs of whole block
        rows, each about _REPORT_CHUNK_BYTES of the report's 13 floats a block."""
        n_cols, n = self.grid.n_cols, len(self.features)
        step = n_cols * max(1, _REPORT_CHUNK_BYTES // (n_cols * 13 * 8))
        for k0 in range(0, n, step):
            k1 = min(k0 + step, n)
            yield k0, k1, deviation_matrix(self.features[k0:k1], self.global_features, self.epsilon)


def partition(img: GrayImage, block_h: int, block_w: int) -> BlockGrid:
    """Grid of whole block_h x block_w blocks over the image, anchored at (0, 0)."""
    if not 1 <= block_h <= img.height:
        raise ValueError(f"block height {block_h} outside 1..{img.height}")
    if not 1 <= block_w <= img.width:
        raise ValueError(f"block width {block_w} outside 1..{img.width}")
    return BlockGrid(
        block_h=block_h,
        block_w=block_w,
        n_rows=img.height // block_h,
        n_cols=img.width // block_w,
    )


def deviation_matrix(
    local: np.ndarray, reference: np.ndarray, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray:
    """Relative deviations |local - reference| / max(|reference|, epsilon) of
    (m, 6) feature rows from one reference row.

    The epsilon guard keeps ratios finite when a reference feature sits at
    zero (e.g. the skewness of a perfectly symmetric texture) but such ratios
    are then huge: any local asymmetry reads as a strong deviation. A ratio
    beyond the float range is inf.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    # one float64 buffer takes the difference, its magnitude and the ratio
    out = np.subtract(local, reference, dtype=np.float64)
    np.abs(out, out=out)
    with np.errstate(over="ignore"):
        out /= np.maximum(np.abs(reference), epsilon)
    return out


def classify_blocks(
    img: GrayImage,
    grid: BlockGrid,
    threshold: float,
    epsilon: float = DEFAULT_EPSILON,
) -> AnalysisResult:
    """Classify every grid block against the whole-image statistics: the
    AnalysisResult of the blocks' and the whole image's features.

    The grid must fit inside the image. Global features cover all pixels:
    the counts block_features adds up over the grid and over each edge
    strip the grid excludes, as one block, so each pixel is counted once.
    An epsilon so small that a deviation overflows raises ValueError.
    """
    # threshold 0 is a usable degenerate boundary: only blocks with
    # exactly zero deviation (e.g. on perfect tilings) conform
    if not 0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    total = np.zeros(GRAY_LEVELS, np.int64)
    features = _sealed(block_features(grid.blocks(img.pixels), total))
    h, w = grid.n_rows * grid.block_h, grid.n_cols * grid.block_w
    for strip in (img.pixels[h:], img.pixels[:h, w:]):  # below the grid, right of it
        if strip.size:  # block_features takes no empty block
            block_features(strip[None, :, None], total)
    global_features = _sealed(feature_matrix(total[None], img.pixels.size)[0])
    return AnalysisResult(grid, global_features, features, threshold, epsilon)
