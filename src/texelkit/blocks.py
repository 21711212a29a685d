"""Block-grid texture analysis: local versus global first-order statistics.

The image is divided by a period-sized grid anchored at (0, 0). Each whole
block's feature vector is compared against the whole-image features (both
come from stats.block_features, the image as one block); a block conforms
when every per-feature relative deviation stays within the threshold. The
most typical conforming block (smallest worst-case deviation) becomes the
representative texel; the blocks the `conforming` mask leaves False are the
anomalies (defects or camouflaged regions).
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .image import GrayImage, _sealed
from .stats import FEATURE_NAMES, block_features, features_of_region

DEFAULT_EPSILON = 1e-6

# bytes of float64 values in one run of block rows the report writer formats
_REPORT_CHUNK_BYTES = 1 << 16
_MARK = "\0"  # no report holds it: json.dumps writes it where a block's values go


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
    deviation_matrix of its features, derived where they are needed, one
    feature column or one report run at a time.
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
        max_dev = _max_deviation(self.features, self.global_features, self.epsilon)
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

        The blocks come in runs of block rows holding about
        _REPORT_CHUNK_BYTES of floats, each formatted when it is asked for;
        a run's deviations are derived from its features then. Within a run,
        repr (as json writes floats; all are finite, or the result could not
        be made) is called once per distinct float64 bit pattern, so -0.0
        and 0.0 stay apart, and the strings are gathered back into the row's
        repeated template.
        """
        features = dict.fromkeys(FEATURE_NAMES, _MARK)
        block = {"index": [_MARK, _MARK], "features": features, "deviations": features,
                 "max_deviation": _MARK, "conforming": _MARK}
        template = "%s".join(json.dumps(block, indent=2).split(json.dumps(_MARK)))
        template = indent + template.replace("\n", "\n" + indent)
        n_cols, n = self.grid.n_cols, self.conforming.size
        words = np.array(["false", "true"], dtype=object)
        step = n_cols * max(1, _REPORT_CHUNK_BYTES // (n_cols * 13 * 8))
        row = ",\n".join([template] * n_cols)
        for k0 in range(0, n, step):
            k1 = min(k0 + step, n)
            feats = self.features[k0:k1]
            devs = deviation_matrix(feats, self.global_features, self.epsilon)
            run = np.column_stack([feats, devs, self.max_deviation[k0:k1]])  # template order
            bits, at = np.unique(run.view(np.uint64), return_inverse=True)
            texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            args = np.empty((k1 - k0, 16), dtype=object)  # i, j, 13 floats, true/false
            args[:, 0], args[:, 1] = np.divmod(np.arange(k0, k1), n_cols)
            args[:, 2:15] = texts[at.reshape(run.shape)]
            args[:, 15] = words[self.conforming[k0:k1].view(np.uint8)]
            for r0 in range(0, k1 - k0, n_cols):
                yield ",\n" if k0 + r0 else "\n"
                yield row % tuple(args[r0 : r0 + n_cols].ravel().tolist())


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
    (m, 6) feature rows from one reference row, or of one feature column
    from that feature's reference value.

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


def _max_deviation(features: np.ndarray, reference: np.ndarray, epsilon: float) -> np.ndarray:
    """Each row's largest deviation_matrix entry, from one feature column at
    a time: the same subtract, abs and divide per entry, with no (m, 6) array.
    Any nan among a row's deviations makes its maximum nan."""
    out = deviation_matrix(features[:, 0], reference[0], epsilon)
    for j in range(1, features.shape[1]):
        np.maximum(out, deviation_matrix(features[:, j], reference[j], epsilon), out=out)
    return out


def classify_blocks(
    img: GrayImage,
    grid: BlockGrid,
    threshold: float,
    epsilon: float = DEFAULT_EPSILON,
) -> AnalysisResult:
    """Classify every grid block against the whole-image statistics: the
    AnalysisResult of the blocks' and the whole image's features.

    The grid must fit inside the image. Global features cover all pixels,
    including any partial-block edge strips the grid excludes. An epsilon
    so small that a deviation overflows raises ValueError.
    """
    # threshold 0 is a usable degenerate boundary: only blocks with
    # exactly zero deviation (e.g. on perfect tilings) conform
    if not 0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    blocks = grid.blocks(img.pixels)
    return AnalysisResult(grid, features_of_region(img), _sealed(block_features(blocks)),
                          threshold, epsilon)
