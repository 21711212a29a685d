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

import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .image import GrayImage, Rect
from .stats import FEATURE_NAMES, block_features, features_of_region

DEFAULT_EPSILON = 1e-6

# bytes of float64 values in one run of block rows the report writer formats
_REPORT_CHUNK_BYTES = 1 << 16


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

    def rect(self, i: int, j: int) -> Rect:
        """Pixel rectangle of block (i, j)."""
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise ValueError(
                f"block ({i}, {j}) outside {self.n_rows}x{self.n_cols} grid"
            )
        return Rect(j * self.block_w, i * self.block_h, self.block_w, self.block_h)

    def check_inside(self, img: GrayImage) -> None:
        if self.n_rows * self.block_h > img.height or self.n_cols * self.block_w > img.width:
            raise ValueError("grid does not fit inside the image")


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    """Full block classification outcome for one image.

    Per-block values are row-major arrays: block (i, j) is row i * n_cols + j
    of `features` and `deviations` (columns in FEATURE_NAMES order) and entry
    i * n_cols + j of `max_deviation` and `conforming`. `global_features` is
    the whole image's row of six, in the same column order.
    """

    grid: BlockGrid
    global_features: np.ndarray
    features: np.ndarray = field(repr=False)
    deviations: np.ndarray = field(repr=False)
    max_deviation: np.ndarray = field(repr=False)
    conforming: np.ndarray = field(repr=False)
    threshold: float
    epsilon: float
    representative: tuple[int, int] | None

    def __post_init__(self):
        # the report is strict JSON, so a result holds no inf or nan to write
        floats = (self.features, self.deviations, self.max_deviation)
        if not all(np.isfinite(a).all() for a in floats):
            raise ValueError(
                f"a relative deviation overflowed: epsilon {self.epsilon!r} is too small"
            )

    def head(self) -> dict:
        """to_dict() without its "blocks" list; key order is part of the output contract."""
        return {
            "grid": asdict(self.grid),
            "threshold": self.threshold,
            "epsilon": self.epsilon,
            "global": dict(zip(FEATURE_NAMES, self.global_features.tolist())),
            "representative": None if self.representative is None else list(self.representative),
        }

    def to_dict(self) -> dict:
        """The report as a dict: head() and the blocks blocks_json() lays out, read back."""
        return {**self.head(), "blocks": json.loads("".join(self.blocks_json("")))}

    def blocks_json(self, pad: str) -> Iterator[str]:
        """The report's "blocks" list as json.dumps(indent=2, allow_nan=False)
        writes it when its key sits at indent `pad`, from "[" to "]", in
        pieces whose concatenation is that text.

        Each block is one %-template laid out as json lays it out: index i,
        j, six features, six deviations, max deviation, "true" or "false".
        Floats go through float.__repr__ as json writes them; they are
        finite, since the result could not be made otherwise.

        The blocks come in runs of block rows holding about
        _REPORT_CHUNK_BYTES of floats, each formatted when it is asked for.
        Within a run, repr is called once per distinct float64 bit pattern
        (so -0.0 and 0.0 stay apart), and each block row is one piece: the
        strings are gathered back into the row's repeated template. "[\n"
        comes before the first row, ",\n" before each later one, and the
        last piece is the closing "\n{pad}]".
        """
        floats = (self.features, self.deviations, self.max_deviation)
        p = pad + "  "  # the blocks sit one level inside the list
        members = ",\n".join(f'{p}    "{name}": %s' for name in FEATURE_NAMES)
        template = (
            f'{p}{{\n'
            f'{p}  "index": [\n{p}    %d,\n{p}    %d\n{p}  ],\n'
            f'{p}  "features": {{\n{members}\n{p}  }},\n'
            f'{p}  "deviations": {{\n{members}\n{p}  }},\n'
            f'{p}  "max_deviation": %s,\n'
            f'{p}  "conforming": %s\n'
            f'{p}}}'
        )
        n_cols, n = self.grid.n_cols, self.conforming.size
        words = np.array(["false", "true"], dtype=object)
        step = n_cols * max(1, _REPORT_CHUNK_BYTES // (n_cols * 13 * 8))
        row = ",\n".join([template] * n_cols)
        for k0 in range(0, n, step):
            k1 = min(k0 + step, n)
            run = np.column_stack([a[k0:k1] for a in floats])  # the 13 floats in template order
            bits, at = np.unique(run.view(np.uint64), return_inverse=True)
            texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            args = np.empty((k1 - k0, 16), dtype=object)  # i, j, 13 floats, true/false
            args[:, 0], args[:, 1] = np.divmod(np.arange(k0, k1), n_cols)
            args[:, 2:15] = texts[at.reshape(run.shape)]
            args[:, 15] = words[self.conforming[k0:k1].view(np.uint8)]
            for r0 in range(0, k1 - k0, n_cols):
                yield "[\n" if k0 + r0 == 0 else ",\n"
                yield row % tuple(args[r0 : r0 + n_cols].ravel().tolist())
        yield f"\n{pad}]"


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
    """Classify every grid block against the whole-image statistics.

    The grid must fit inside the image. Global features cover all pixels,
    including any partial-block edge strips the grid excludes. A block
    conforms when its largest per-feature deviation is at most `threshold`;
    the representative is the conforming block with the smallest such
    deviation, earliest in row-major order on ties. When no block conforms
    the result carries representative=None rather than failing. An epsilon
    so small that a deviation overflows raises ValueError.
    """
    # threshold 0 is a usable degenerate boundary: only blocks with
    # exactly zero deviation (e.g. on perfect tilings) conform
    if not 0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    grid.check_inside(img)
    bh, bw = grid.block_h, grid.block_w
    global_features = features_of_region(img)
    feats = block_features(img.pixels[: grid.n_rows * bh, : grid.n_cols * bw], bh, bw)
    devs = deviation_matrix(feats, global_features, epsilon)
    max_dev = devs.max(axis=1)
    conforming = max_dev <= threshold
    for arr in (feats, devs, max_dev, conforming):
        arr.setflags(write=False)

    candidates = np.flatnonzero(conforming)
    representative = None
    if candidates.size:
        # argmin keeps the first minimum: the earliest block in row-major order
        best = int(candidates[np.argmin(max_dev[candidates])])
        representative = divmod(best, grid.n_cols)

    return AnalysisResult(
        grid=grid,
        global_features=global_features,
        features=feats,
        deviations=devs,
        max_deviation=max_dev,
        conforming=conforming,
        threshold=threshold,
        epsilon=epsilon,
        representative=representative,
    )
