"""Texel extraction, tiling synthesis, and anomaly highlighting.

Synthesis is pure tiling: the representative texel repeats across the output
and is cropped at the right/bottom borders when the requested size is not a
whole multiple of the texel. No seam blending is applied; an imperfect texel
tiles with visible junctions by design.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockGrid
from .image import GrayImage, _check_band, _paint_band, crop


def extract_texel(img: GrayImage, grid: BlockGrid, index: tuple[int, int]) -> GrayImage:
    """Pixels of grid block `index`, as a standalone image."""
    i, j = index
    return crop(img, grid.rect(i, j))


def synthesize(texel: GrayImage, out_w: int, out_h: int) -> GrayImage:
    """Tile `texel` into an out_w x out_h image.

    Output pixel (row, col) equals texel pixel (row mod texel.height,
    col mod texel.width).
    """
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output size must be positive, got {out_w}x{out_h}")
    reps_r = -(-out_h // texel.height)
    reps_c = -(-out_w // texel.width)
    tiled = np.tile(texel.pixels, (reps_r, reps_c))
    return GrayImage(tiled[:out_h, :out_w])


def highlight_anomalies(
    img: GrayImage,
    grid: BlockGrid,
    anomalies: list[tuple[int, int]],
    value: int = 255,
    thickness: int = 1,
) -> GrayImage:
    """Copy of `img` with each anomalous block's border band set to `value`.

    A band at least half as wide as a block's shorter side covers the whole
    block. All outlines are painted into one copy of the pixels.
    """
    _check_band(value, thickness)
    out = img.pixels.copy()
    for i, j in anomalies:
        r = grid.rect(i, j)
        r.check_inside(img)
        _paint_band(out, r, value, thickness)
    return GrayImage(out)
