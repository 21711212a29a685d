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


def outline_parts(
    img: GrayImage,
    grid: BlockGrid,
    flagged: np.ndarray,
    value: int = 255,
    thickness: int = 1,
) -> Iterator[memoryview]:
    """The row-major raster of `img` with the border band of each block that
    the (grid.n_rows, grid.n_cols) mask `flagged` marks set to `value`, in
    pieces.

    The value, the thickness, the mask's shape and the fit of the grid
    inside the image are checked before this returns. The pieces are one
    per block row of block_h pixel rows, then the rows below the grid. A
    block row that holds a flagged block is a copy of its band, painted by
    image._paint_outlines with that row of the mask; every other piece is a
    view of the source, so a writer that takes them in turn holds one band.
    """
    _check_band(value, thickness)
    flagged = np.asarray(flagged, dtype=bool)
    if flagged.shape != (grid.n_rows, grid.n_cols):
        raise ValueError(
            f"mask of shape {flagged.shape} does not match the {grid.n_rows}x{grid.n_cols} grid"
        )
    grid.check_inside(img)
    return _outlined_bands(img.pixels, flagged, grid.block_h, grid.block_w, value, thickness)


def _outlined_bands(pixels, flagged, bh, bw, value, thickness) -> Iterator[memoryview]:
    n_rows, n_cols = flagged.shape
    for i, row in enumerate(flagged):
        band = pixels[i * bh : (i + 1) * bh]
        if row.any():
            band = band.copy()
            view = band[:, : n_cols * bw].reshape(1, bh, n_cols, bw)
            _paint_outlines(view, row.reshape(1, 1, n_cols, 1), value, thickness)
        yield band.data
    yield pixels[n_rows * bh :].data


def highlight_anomalies(img: GrayImage, grid: BlockGrid, flagged: np.ndarray,
                        value: int = 255, thickness: int = 1) -> GrayImage:
    """Copy of `img` with the border band of each block that the
    (grid.n_rows, grid.n_cols) mask `flagged` marks set to `value`: the
    pieces of outline_parts, which checks the arguments, joined into one
    buffer, which the image keeps.
    """
    raster = b"".join(outline_parts(img, grid, flagged, value, thickness))
    return GrayImage(np.frombuffer(raster, dtype=np.uint8).reshape(img.height, img.width))
