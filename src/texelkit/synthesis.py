"""Texel extraction, tiling synthesis, and anomaly highlighting.

Synthesis is pure tiling: the representative texel repeats across the output
and is cropped at the right/bottom borders when the requested size is not a
whole multiple of the texel. No seam blending is applied; an imperfect texel
tiles with visible junctions by design.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .blocks import BlockGrid
from .image import GrayImage, _check_band, _paint_outlines, _sealed, crop


def extract_texel(img: GrayImage, grid: BlockGrid, index: tuple[int, int]) -> GrayImage:
    """Pixels of grid block `index`, as a standalone image."""
    i, j = index
    return crop(img, grid.rect(i, j))


def tiling_parts(texel: GrayImage, out_w: int, out_h: int) -> Iterator[memoryview]:
    """The row-major raster of synthesize(texel, out_w, out_h), in pieces.

    The one strip of texel.height full-width rows is built before this
    returns, so an output too wide to tile fails here. The pieces are that
    strip's buffer out_h // texel.height times, then its first
    out_h % texel.height rows; none is a copy, so a writer that takes them
    in turn holds one strip, however tall the output.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output size must be positive, got {out_w}x{out_h}")
    tiles = np.tile(texel.pixels, (1, -(-out_w // texel.width)))
    strip = _sealed(np.ascontiguousarray(tiles[:, :out_w]))
    whole, rest = divmod(out_h, texel.height)
    return itertools.chain(itertools.repeat(strip.data, whole), (strip[:rest].data,))


def synthesize(texel: GrayImage, out_w: int, out_h: int) -> GrayImage:
    """Tile `texel` into an out_w x out_h image.

    Output pixel (row, col) equals texel pixel (row mod texel.height,
    col mod texel.width). The pieces of tiling_parts are joined into one
    buffer, which the image keeps: the working memory on top of the output
    is one strip of texel.height rows.
    """
    raster = b"".join(tiling_parts(texel, out_w, out_h))
    return GrayImage(np.frombuffer(raster, dtype=np.uint8).reshape(out_h, out_w))


def highlight_anomalies(
    img: GrayImage,
    grid: BlockGrid,
    anomalies: list[tuple[int, int]],
    value: int = 255,
    thickness: int = 1,
) -> GrayImage:
    """Copy of `img` with each anomalous block's border band set to `value`.

    A band at least half as wide as a block's shorter side covers the whole
    block. All outlines are painted at once by image._paint_outlines, over
    the (rows, block_h, cols, block_w) view of the grid up to the last
    flagged row and column.
    """
    _check_band(value, thickness)
    out = img.pixels.copy()
    if len(anomalies):
        at = np.array(anomalies, dtype=np.intp).reshape(-1, 2)
        bh, bw = grid.block_h, grid.block_w
        fits = (
            (at >= 0) & (at < (grid.n_rows, grid.n_cols)) & ((at + 1) * (bh, bw) <= out.shape)
        ).all(axis=1)
        if not fits.all():
            # the first bad index raises the same error a per-block check would
            i, j = anomalies[int(np.argmin(fits))]
            grid.rect(i, j).check_inside(img)
        n_rows, n_cols = (at.max(axis=0) + 1).tolist()
        flagged = np.zeros((n_rows, 1, n_cols, 1), dtype=bool)
        flagged[at[:, 0], 0, at[:, 1], 0] = True
        view = out[: n_rows * bh, : n_cols * bw].reshape(n_rows, bh, n_cols, bw)
        _paint_outlines(view, flagged, value, thickness)
    return GrayImage(_sealed(out))
