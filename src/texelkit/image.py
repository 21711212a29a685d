"""Grayscale image container, PGM I/O, cropping, and rectangle outlining.

Images are immutable 8-bit grayscale grids. Every operation returns a new
image, so values can be shared freely across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

# True for every byte but the six that bytes.isspace() accepts
_INK = np.ones(256, dtype=bool)
_INK[list(b" \t\n\r\x0b\x0c")] = False
_COMMENT = re.compile(rb"#[^\r\n]*")
# the six whitespace bytes (\s in a bytes pattern) and whole '#' comments,
# each up to its line end, then one token
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")
# bytes of P2 text per decoded run; its masks take about eight bytes per byte
_P2_RUN_BYTES = 1 << 16

# P2 text of each gray level: its digits and one separator, left-aligned
_P2_TEXT = np.frombuffer(b"".join(b"%-4d" % v for v in range(256)), np.uint8).reshape(256, 4)
_P2_WIDTH = np.array([len(b"%d " % v) for v in range(256)])


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


def _token(raw: np.ndarray, inside: np.ndarray, k: int) -> bytes:
    """The token of `raw` that holds byte k, where inside[k + 3] marks the
    bytes of tokens."""
    start = k + 1 - int(np.argmin(inside[k + 3 :: -1]))
    return raw[start : start + int(np.argmin(inside[start + 3 :]))].tobytes()


def _p2_run_end(data: bytes, start: int) -> int:
    """End of the P2 run that starts at data[start], outside any comment.

    The run ends just after the last line end in its window of _P2_RUN_BYTES
    bytes; with none, just after the last whitespace before the window's
    first '#'; with neither, just after the next line end, or at the end of
    the data. So a run holds whole tokens and whole comments.
    """
    stop = start + _P2_RUN_BYTES
    if stop >= len(data):
        return len(data)
    cut = max(data.rfind(b"\n", start, stop), data.rfind(b"\r", start, stop))
    if cut < 0:
        comment = data.find(b"#", start, stop)
        head = np.frombuffer(data, np.uint8, (stop if comment < 0 else comment) - start, start)
        blank = np.flatnonzero(~_INK[head])
        cut = start + int(blank[-1]) if blank.size else -1
    if cut < 0:
        ends = [k for k in (data.find(b"\n", stop), data.find(b"\r", stop)) if k >= 0]
        cut = min(ends, default=len(data) - 1)
    return cut + 1


def _p2_samples(data: bytes, pos: int, count: int, maxval: int) -> tuple[np.ndarray, int]:
    """The first `count` samples of the P2 raster at data[pos:], tokenized as
    the header is, as uint8, and the largest of them.

    The raster is decoded in runs of whole lines (_p2_run_end) of about
    _P2_RUN_BYTES each, so the masks span one run, never the raster, and
    reading stops at the run that holds the count-th sample; bytes after it
    are ignored. A '#' comment becomes one space, so it ends a token too.
    Each sample is rebuilt from its last three digits: a nonzero digit
    before them makes it 1000 or more, past any maxval, however long the
    token. The first non-digit token among the first `count` raises before a
    short raster does, and both before the first sample of 1000 or more,
    whose error names its value, or its length when it has more digits
    than Python converts to int. The output holds at most one sample per
    two bytes of text, so a declared size the raster cannot hold allocates
    nothing in proportion to it.
    """
    out = np.empty(min(count, (len(data) - pos + 1) // 2), dtype=np.uint8)
    found, top, big = 0, 0, None
    while pos < len(data) and found < count:
        stop = _p2_run_end(data, pos)
        if data.find(b"#", pos, stop) >= 0:
            raw = np.frombuffer(_COMMENT.sub(b" ", data[pos:stop]), dtype=np.uint8)
        else:
            raw = np.frombuffer(data, dtype=np.uint8, count=stop - pos, offset=pos)
        pos = stop
        # inside[k + 3]: byte k is part of a token; three blanks pad each side
        inside = np.zeros(raw.size + 6, dtype=bool)
        inside[3:-3] = _INK[raw]
        last = inside[3:-3] > inside[4:-2]  # the last byte of each token
        n = raw.size
        if found + int(np.count_nonzero(last)) > count:
            n = int(np.flatnonzero(last)[count - found - 1]) + 1
            raw, last = raw[:n], last[:n]
            inside[n + 3 :] = False

        tok = inside[3 : n + 3]
        # d[k + 2]: byte k minus b"0"; bytes other than digits wrap past 9
        d = np.zeros(n + 2, dtype=np.uint8)
        np.subtract(raw, 48, out=d[2:])
        hit = tok & (d[2:] > 9)
        if hit.any():
            raise PgmError(f"malformed P2 sample: {_token(raw, inside, int(hit.argmax()))!r}")
        if big is None:
            hit = tok & (d[2:] > 0) & inside[4 : n + 4] & inside[5 : n + 5] & inside[6 : n + 6]
            if hit.any():
                big = _token(raw, inside, int(hit.argmax()))
        d[2:] *= tok
        samples = d[2:][last].astype(np.uint16)
        samples += 10 * d[1:-1][last]
        # a hundreds digit counts only when the tens digit is in the same token
        samples += 100 * d[:-2][last].astype(np.uint16) * inside[2 : n + 2][last]
        if samples.size:
            # a sample past 255 wraps here, but then top > 255 >= maxval raises
            out[found : found + samples.size] = samples
            top = max(top, int(samples.max()))
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

    mode "P5" gives the binary raster, "P2" the ASCII one (rows wrapped to
    keep lines at 70 characters or less).
    """
    header = pgm_header(img.width, img.height, mode)
    if mode == "P5":
        return header, img.pixels.data
    flat = img.pixels.ravel()
    text, width = _P2_TEXT[flat], _P2_WIDTH[flat]
    end = np.cumsum(width)  # offset just past each sample's separator
    row_end = np.arange(img.width, flat.size + 1, img.width)
    line = row_end - img.width  # first sample of each row's open line
    while (todo := line < row_end).any():
        # greedy wrap: a line takes every next sample that keeps it within 70 characters
        limit = end[line[todo]] - width[line[todo]] + 71
        line[todo] = np.minimum(np.searchsorted(end, limit, "right"), row_end[todo])
        text[line[todo] - 1, width[line[todo] - 1] - 1] = ord("\n")
    return header, text[np.arange(4) < width[:, None]].tobytes()


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
    set to `value`; all other pixels unchanged.
    """
    r.check_inside(img)
    _check_band(value, thickness)
    if 2 * thickness > min(r.w, r.h):
        raise ValueError(
            f"thickness {thickness} too large for a {r.w}x{r.h} rect"
        )
    out = img.pixels.copy()
    _paint_outlines(out[r.y0 : r.y0 + r.h, r.x0 : r.x0 + r.w].reshape(1, r.h, 1, r.w),
                    True, value, thickness)
    return GrayImage(_sealed(out))
