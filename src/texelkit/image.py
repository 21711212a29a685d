"""Grayscale image container, PGM I/O, cropping, and rectangle outlining.

Images are immutable 8-bit grayscale grids. Every operation returns a new
image, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class PgmError(ValueError):
    """Raised when PGM bytes cannot be parsed."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable 2-D grid of gray levels in [0, 255], row-major."""

    pixels: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image must be a non-empty 2-D grid, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("pixel values must lie in [0, 255]")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and np.array_equal(
            self.pixels, other.pixels
        )

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"

    def transposed(self) -> "GrayImage":
        """Image with rows and columns exchanged."""
        return GrayImage(self.pixels.T)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: x0 is a column index, y0 a row index."""

    x0: int
    y0: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"rect must have positive size, got {self.w}x{self.h}")
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError(f"rect origin must be non-negative, got ({self.x0}, {self.y0})")

    def check_inside(self, img: GrayImage) -> None:
        if self.x0 + self.w > img.width or self.y0 + self.h > img.height:
            raise ValueError(
                f"rect {self} does not fit inside a {img.width}x{img.height} image"
            )


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comments (comment runs to end of line).
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmError("unexpected end of file while reading PGM header")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def _read_header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _read_header_token(data, pos)
    if not token.isdigit():
        raise PgmError(f"malformed PGM header: expected {what}, got {token!r}")
    return int(token), pos


def load_pgm(data: bytes) -> GrayImage:
    """Parse PGM bytes (binary "P5" or ASCII "P2", maxval <= 255) into an image.

    Header whitespace and '#' comments are tolerated; samples are used as-is
    without rescaling, whatever the declared maxval.
    """
    magic, pos = _read_header_token(data, 0)
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"not a PGM file: bad magic {magic!r}")
    width, pos = _read_header_int(data, pos, "width")
    height, pos = _read_header_int(data, pos, "height")
    maxval, pos = _read_header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmError(f"invalid PGM dimensions {width}x{height}")
    if maxval > 255:
        raise PgmError(f"unsupported PGM maxval {maxval} (only maxval <= 255 is handled)")
    if maxval < 1:
        raise PgmError(f"invalid PGM maxval {maxval}")

    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates maxval from the raster.
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise PgmError("malformed PGM header: missing whitespace before P5 raster")
        pos += 1
        raster = data[pos : pos + count]
        if len(raster) < count:
            raise PgmError(
                f"truncated P5 pixel data: expected {count} bytes, got {len(raster)}"
            )
        samples = np.frombuffer(raster, dtype=np.uint8)
    else:
        tokens = []
        while len(tokens) < count:
            try:
                token, pos = _read_header_token(data, pos)
            except PgmError:
                raise PgmError(
                    f"truncated P2 pixel data: expected {count} samples, got {len(tokens)}"
                ) from None
            if not token.isdigit():
                raise PgmError(f"malformed P2 sample: {token!r}")
            tokens.append(int(token))
        try:
            samples = np.array(tokens, dtype=np.int64)
        except OverflowError:  # a sample beyond int64 exceeds any maxval
            raise PgmError(f"P2 sample exceeds declared maxval {maxval}") from None

    if samples.max() > maxval:
        raise PgmError(
            f"sample value {samples.max()} exceeds declared maxval {maxval}"
        )
    return GrayImage(samples.reshape(height, width))


def save_pgm(img: GrayImage, mode: str = "P5") -> bytes:
    """Serialize an image to PGM bytes; output is deterministic per image.

    mode "P5" writes the binary raster, "P2" the ASCII one (rows wrapped to
    keep lines at 70 characters or less).
    """
    if mode not in ("P5", "P2"):
        raise ValueError(f"mode must be 'P5' or 'P2', got {mode!r}")
    header = f"{mode}\n{img.width} {img.height}\n255\n".encode("ascii")
    if mode == "P5":
        return header + img.pixels.tobytes()
    lines = []
    for row in img.pixels:
        line = ""
        for v in row:
            tok = str(int(v))
            if not line:
                line = tok
            elif len(line) + 1 + len(tok) <= 70:
                line += " " + tok
            else:
                lines.append(line)
                line = tok
        lines.append(line)
    return header + "\n".join(lines).encode("ascii") + b"\n"


def crop(img: GrayImage, r: Rect) -> GrayImage:
    """Copy of the sub-image covered by `r`."""
    r.check_inside(img)
    return GrayImage(img.pixels[r.y0 : r.y0 + r.h, r.x0 : r.x0 + r.w])


def _check_band(value: int, thickness: int) -> None:
    if not 0 <= value <= 255:
        raise ValueError(f"outline value must be in [0, 255], got {value}")
    if thickness < 1:
        raise ValueError(f"thickness must be >= 1, got {thickness}")


def _paint_band(pixels: np.ndarray, r: Rect, value: int, thickness: int) -> None:
    """Set the band of width `thickness` just inside `r` to `value`, in place.

    Each side's band is clipped to the rect, so a band at least half as wide
    as the shorter side covers the whole rect and never spills past it.
    """
    th, tw = min(thickness, r.h), min(thickness, r.w)
    y1, x1 = r.y0 + r.h, r.x0 + r.w
    pixels[r.y0 : r.y0 + th, r.x0 : x1] = value
    pixels[y1 - th : y1, r.x0 : x1] = value
    pixels[r.y0 : y1, r.x0 : r.x0 + tw] = value
    pixels[r.y0 : y1, x1 - tw : x1] = value


def draw_rect_outline(img: GrayImage, r: Rect, value: int, thickness: int = 1) -> GrayImage:
    """Copy of `img` with the border band of width `thickness` just inside `r`
    set to `value`; all other pixels unchanged.
    """
    r.check_inside(img)
    _check_band(value, thickness)
    if 2 * thickness > min(r.w, r.h):
        raise ValueError(
            f"thickness {thickness} too large for a {r.w}x{r.h} rect"
        )
    out = img.pixels.copy()
    _paint_band(out, r, value, thickness)
    return GrayImage(out)
