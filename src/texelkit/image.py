"""Grayscale image container, PGM I/O, cropping, and rectangle outlining.

Images are immutable 8-bit grayscale grids. Every operation returns a new
image, so values can be shared freely across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

_COMMENT = re.compile(rb"#[^\r\n]*")
# the six whitespace bytes (\s in a bytes pattern) and whole '#' comments,
# each up to its line end, then one token
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")
# bytes of P2 text per decoded run; its int64 samples take at most four bytes per byte
_P2_RUN_BYTES = 1 << 16
# the bytes a well-formed P2 run holds once its comments are blanked, and its
# first malformed token, from that token's leading digits
_DIGITS_AND_BLANKS = b"0123456789 \t\n\r\x0b\x0c"
_MALFORMED = re.compile(rb"(?<!\d)\d*[^\d\s]\S*")

# P2 text of each gray level: its digits and one space, padded with NUL
_P2_CELL = np.array([list((b"%d " % v).ljust(4, b"\0")) for v in range(256)], np.uint8)
# the longest run of whole samples within 70 characters; '.' stops at a row's '\n'
_P2_LINE = re.compile(rb"\S.{0,69}(?= |\n)")
# a window's last line end or, tried only when it holds none, its last blank before any '#'
_RUN_END = re.compile(rb"(?s:.*)[\r\n]|[^#]*[ \t\x0b\x0c]")
_LINE_END = re.compile(rb"[\r\n]")


class PgmError(ValueError):
    """Raised when PGM bytes cannot be parsed."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable 2-D grid of gray levels in [0, 255], row-major.

    A writable input is copied, so no one can change the image through it and
    the caller's array stays writable. A read-only contiguous uint8 input is
    kept as is: read-only is taken as a promise that nothing writes to it,
    which is how the library's own constructors hand over fresh arrays.
    """

    pixels: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image must be a non-empty 2-D grid, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
        if arr.dtype != np.uint8 and (arr.min() < 0 or arr.max() > 255):
            raise ValueError("pixel values must lie in [0, 255]")
        if arr.flags.writeable:
            arr = np.array(arr, dtype=np.uint8, order="C")
        else:
            arr = np.ascontiguousarray(arr, dtype=np.uint8)
        # a no-op on a kept input, which is read-only already
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


def _sealed(arr: np.ndarray) -> np.ndarray:
    """`arr` marked read-only, for a constructor that hands its fresh array
    to GrayImage, which then keeps it without a copy."""
    arr.setflags(write=False)
    return arr


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
    """The header token at or after data[pos] and the position just past it."""
    match = _HEADER_TOKEN.match(data, pos)
    if match is None:
        raise PgmError("unexpected end of file while reading PGM header")
    return match[1], match.end()


def _read_header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _read_header_token(data, pos)
    if not token.isdigit():
        raise PgmError(f"malformed PGM header: expected {what}, got {token!r}")
    try:
        return int(token), pos
    except ValueError:  # more digits than Python converts to int
        raise PgmError(f"invalid PGM {what} of {len(token)} digits") from None


def _p2_run_end(data: bytes, start: int) -> int:
    """End of the P2 run that starts at data[start], outside any comment.

    The run ends just after the last line end in its window of _P2_RUN_BYTES
    bytes; with none, just after the last whitespace before the window's
    first '#' (these two are _RUN_END); with neither, just after the next
    line end (_LINE_END), or at the end of the data. So a run holds whole
    tokens and whole comments.
    """
    stop = start + _P2_RUN_BYTES
    if stop >= len(data):
        return len(data)
    cut = _RUN_END.match(data, start, stop) or _LINE_END.search(data, stop)
    return cut.end() if cut else len(data)


def _p2_samples(data: bytes, pos: int, count: int, maxval: int) -> tuple[np.ndarray, int]:
    """The first `count` samples of the P2 raster at data[pos:], tokenized as
    the header is, as uint8, and the largest of them.

    The raster is read in runs of whole lines (_p2_run_end) of about
    _P2_RUN_BYTES each, up to the run that holds the count-th sample; bytes
    after it are ignored. A '#' comment becomes one space, so it ends a
    token too. numpy's text reader parses a run up to its first malformed
    token, which is searched for only when bytes.translate finds a byte that
    no sample may hold. The first malformed token among the first `count`
    raises before a short raster does, and both before the first sample of
    1000 or more, named from its text (or its length when it has more digits
    than Python converts to int), since a parsed sample stops at 2**63 - 1.
    The output holds at most one sample per two bytes of text, so a declared
    size the raster cannot hold allocates nothing in proportion to it.
    """
    out = np.empty(min(count, (len(data) - pos + 1) // 2), dtype=np.uint8)
    found, top, big = 0, 0, None
    while pos < len(data) and found < count:
        stop = _p2_run_end(data, pos)
        text = data[pos:stop]
        pos = stop
        if b"#" in text:
            text = _COMMENT.sub(b" ", text)
        bad = _MALFORMED.search(text) if text.translate(None, _DIGITS_AND_BLANKS) else None
        if bad is not None:
            text = text[: bad.start()]
        # whitespace alone would read as one 0
        samples = np.fromstring(b"" if text.isspace() else text, np.int64, sep=" ")[: count - found]
        if bad is not None and found + samples.size < count:
            raise PgmError(f"malformed P2 sample: {bad[0]!r}")
        if big is None and (samples >= 1000).any():
            big = text.split()[int(np.argmax(samples >= 1000))]
        # a sample past 255 wraps here, but then top > 255 >= maxval raises
        out[found : found + samples.size] = samples
        top = max(top, int(samples.max(initial=0)))
        found += samples.size
    if found < count:
        raise PgmError(f"truncated P2 pixel data: expected {count} samples, got {found}")
    if big is not None:
        try:
            value = int(big)
        except ValueError:  # more digits than Python converts to int
            value = f"of {len(big)} digits"
        raise PgmError(f"sample value {value} exceeds declared maxval {maxval}")
    return out, top


def load_pgm(data: bytes) -> GrayImage:
    """Parse PGM bytes (binary "P5" or ASCII "P2", maxval <= 255) into an image.

    Header whitespace and '#' comments are tolerated; samples are used as-is
    without rescaling, whatever the declared maxval. A P2 raster is decoded
    in runs of whole lines within a fixed budget (_p2_samples), straight
    into the image's uint8 buffer; its largest sample, kept as the runs go,
    is checked against maxval here, as a P5 raster's is.
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
        top = int(samples.max())
    else:
        samples, top = _p2_samples(data, pos, count, maxval)

    if top > maxval:
        raise PgmError(f"sample value {top} exceeds declared maxval {maxval}")
    return GrayImage(_sealed(samples.reshape(height, width)))


def pgm_header(width: int, height: int, mode: str = "P5") -> bytes:
    """The PGM header of a width x height image with maxval 255."""
    if mode not in ("P5", "P2"):
        raise ValueError(f"mode must be 'P5' or 'P2', got {mode!r}")
    return f"{mode}\n{width} {height}\n255\n".encode("ascii")


def pgm_parts(img: GrayImage, mode: str = "P5") -> tuple[bytes, memoryview | bytes]:
    """The PGM header and raster of an image, which save_pgm joins; a file
    writer can write them in turn, and a P5 raster is the pixel buffer
    itself, not a copy.

    mode "P5" gives the binary raster, "P2" the ASCII one: each row's _P2_CELL
    text, cut by _P2_LINE into greedy lines of at most 70 characters.
    """
    header = pgm_header(img.width, img.height, mode)
    if mode == "P5":
        return header, img.pixels.data
    cells = _P2_CELL[img.pixels]
    cells[:, -1][cells[:, -1] == ord(" ")] = ord("\n")  # a row's last sample ends its line
    lines = _P2_LINE.findall(cells.tobytes().replace(b"\0", b""))
    del cells  # bytes.join holds an 80-byte buffer struct per line on top of its output
    return header, b"\n".join(lines) + b"\n"


def save_pgm(img: GrayImage, mode: str = "P5") -> bytes:
    """Serialize an image to PGM bytes, the joined pgm_parts(img, mode);
    output is deterministic per image."""
    return b"".join(pgm_parts(img, mode))


def crop(img: GrayImage, r: Rect) -> GrayImage:
    """Copy of the sub-image covered by `r`."""
    r.check_inside(img)
    return GrayImage(img.pixels[r.y0 : r.y0 + r.h, r.x0 : r.x0 + r.w])


def _check_band(value: int, thickness: int) -> None:
    if not 0 <= value <= 255:
        raise ValueError(f"outline value must be in [0, 255], got {value}")
    if thickness < 1:
        raise ValueError(f"thickness must be >= 1, got {thickness}")


def _paint_outlines(view: np.ndarray, flagged, value: int, thickness: int) -> None:
    """Set the band of width `thickness` just inside each block of `view`, a
    (rows, block_h, cols, block_w) view, to `value` where `flagged` (True, or
    a (rows, 1, cols, 1) mask) holds, in place: one write per side, each
    clipped to its block, so a band at least half as wide as the block's
    shorter side covers the whole block and never spills past it."""
    _, bh, _, bw = view.shape
    th, tw = min(thickness, bh), min(thickness, bw)
    for band in (view[:, :th], view[:, bh - th :], view[..., :tw], view[..., bw - tw :]):
        np.copyto(band, value, where=flagged)


def draw_rect_outline(img: GrayImage, r: Rect, value: int, thickness: int = 1) -> GrayImage:
    """Copy of `img` with the border band of width `thickness` just inside `r`
    set to `value`, clipped to `r` as _paint_outlines clips a block's (so a
    band at least half as wide as r's shorter side fills r); all other
    pixels unchanged.
    """
    r.check_inside(img)
    _check_band(value, thickness)
    out = img.pixels.copy()
    _paint_outlines(out[r.y0 : r.y0 + r.h, r.x0 : r.x0 + r.w].reshape(1, r.h, 1, r.w),
                    True, value, thickness)
    return GrayImage(_sealed(out))
