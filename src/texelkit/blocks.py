"""Block-grid texture analysis: local versus global first-order statistics.

The image is divided by a period-sized grid anchored at (0, 0). Each whole
block's feature vector is compared against the whole-image features; a block
conforms when every per-feature relative deviation stays within the
threshold. The most typical conforming block (smallest worst-case deviation)
becomes the representative texel; non-conforming blocks are reported as
anomalies (defects or camouflaged regions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .image import GrayImage, Rect
from .stats import FEATURE_NAMES, FeatureVector, features_of_region

DEFAULT_EPSILON = 1e-6


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

    def indices(self):
        """All (row, col) block indices in row-major order."""
        for i in range(self.n_rows):
            for j in range(self.n_cols):
                yield i, j


@dataclass(frozen=True)
class BlockReport:
    """Per-block features and their deviations from the global features."""

    index: tuple[int, int]
    features: FeatureVector
    deviations: dict[str, float]
    max_deviation: float
    conforming: bool

    def to_dict(self) -> dict:
        return {
            "index": list(self.index),
            "features": self.features.to_dict(),
            "deviations": dict(self.deviations),
            "max_deviation": self.max_deviation,
            "conforming": self.conforming,
        }


@dataclass(frozen=True)
class AnalysisResult:
    """Full block classification outcome for one image."""

    grid: BlockGrid
    global_features: FeatureVector
    reports: list[BlockReport]
    threshold: float
    epsilon: float
    representative: tuple[int, int] | None
    anomalies: list[tuple[int, int]]

    def report_at(self, i: int, j: int) -> BlockReport:
        return self.reports[i * self.grid.n_cols + j]

    def to_dict(self) -> dict:
        # Key order is part of the output contract.
        return {
            "grid": {
                "block_h": self.grid.block_h,
                "block_w": self.grid.block_w,
                "n_rows": self.grid.n_rows,
                "n_cols": self.grid.n_cols,
            },
            "threshold": self.threshold,
            "epsilon": self.epsilon,
            "global": self.global_features.to_dict(),
            "representative": None if self.representative is None else list(self.representative),
            "blocks": [r.to_dict() for r in self.reports],
        }


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


def deviation(
    local: FeatureVector, reference: FeatureVector, epsilon: float = DEFAULT_EPSILON
) -> dict[str, float]:
    """Per-feature relative deviations |local - reference| / max(|reference|, epsilon).

    The epsilon guard keeps ratios finite when a reference feature sits at
    zero (e.g. the skewness of a perfectly symmetric texture) but such ratios
    are then huge: any local asymmetry reads as a strong deviation.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    out = {}
    for name, lv, rv in zip(FEATURE_NAMES, local.as_tuple(), reference.as_tuple()):
        out[name] = abs(lv - rv) / max(abs(rv), epsilon)
    return out


def classify_blocks(
    img: GrayImage,
    grid: BlockGrid,
    threshold: float,
    epsilon: float = DEFAULT_EPSILON,
) -> AnalysisResult:
    """Classify every grid block against the whole-image statistics.

    Global features cover all pixels, including any partial-block edge strips
    the grid excludes. A block conforms when its largest per-feature deviation
    is at most `threshold`; the representative is the conforming block with
    the smallest such deviation, earliest in row-major order on ties. When no
    block conforms the result carries representative=None rather than failing.
    """
    # threshold 0 is a usable degenerate boundary: only blocks with
    # exactly zero deviation (e.g. on perfect tilings) conform
    if not 0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    if grid.n_rows * grid.block_h > img.height or grid.n_cols * grid.block_w > img.width:
        raise ValueError("grid does not fit inside the image")
    global_features = features_of_region(img)

    reports = []
    representative = None
    best = None
    anomalies = []
    for i, j in grid.indices():
        local = features_of_region(img, grid.rect(i, j))
        devs = deviation(local, global_features, epsilon)
        max_dev = max(devs.values())
        conforming = max_dev <= threshold
        reports.append(BlockReport((i, j), local, devs, max_dev, conforming))
        if conforming:
            if best is None or max_dev < best:
                best = max_dev
                representative = (i, j)
        else:
            anomalies.append((i, j))

    return AnalysisResult(
        grid=grid,
        global_features=global_features,
        reports=reports,
        threshold=threshold,
        epsilon=epsilon,
        representative=representative,
        anomalies=anomalies,
    )
