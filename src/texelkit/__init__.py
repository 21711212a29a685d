"""Texture analysis toolkit for near-regular grayscale textures.

The pipeline: estimate the texture's period per axis from distance matching
function (DMF) curves, partition the image into period-sized blocks, compare
each block's first-order gray-level statistics against the whole image,
then either tile a representative block into a new texture or flag the
blocks that deviate.
"""

from .blocks import (
    DEFAULT_EPSILON,
    AnalysisResult,
    BlockGrid,
    classify_blocks,
    partition,
)
from .image import (
    GrayImage,
    PgmError,
    Rect,
    crop,
    draw_rect_outline,
    load_pgm,
    save_pgm,
)
from .periodicity import (
    MINIMA_DEPTH_FRACTION,
    PeriodEstimate,
    column_dmf,
    estimate_periods,
    find_minima,
    row_dmf,
)
from .stats import (
    FEATURE_NAMES,
    GRAY_LEVELS,
    features_of_region,
)
from .synthesis import extract_texel, highlight_anomalies, synthesize
from .testgen import (
    DEFECT_SHIFT,
    GroundTruth,
    generate,
    has_subperiod,
    random_texel,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "BlockGrid",
    "DEFAULT_EPSILON",
    "DEFECT_SHIFT",
    "FEATURE_NAMES",
    "GRAY_LEVELS",
    "GrayImage",
    "GroundTruth",
    "MINIMA_DEPTH_FRACTION",
    "PeriodEstimate",
    "PgmError",
    "Rect",
    "classify_blocks",
    "column_dmf",
    "crop",
    "draw_rect_outline",
    "estimate_periods",
    "extract_texel",
    "features_of_region",
    "find_minima",
    "generate",
    "has_subperiod",
    "highlight_anomalies",
    "load_pgm",
    "partition",
    "random_texel",
    "row_dmf",
    "save_pgm",
    "synthesize",
]
