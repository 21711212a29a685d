"""Grayscale image container, PGM I/O, and block outlining.

Images are immutable 8-bit grayscale grids. Every operation returns a new
image, so values can be shared freely across threads.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field

import numpy as np

_COMMENT = re.compile(rb"#[^\r\n]*")
# the six whitespace bytes (\s in a bytes pattern) and whole '#' comments,
# each up to its line end, then one token
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")
# bytes of P2 text per decoded run, and of a file per read; a run's int64
# samples take at most four bytes per byte
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


class _Text:
    """The bytes of a PGM input from the cursor `pos` on, read from a file in
    windows by `more`, so the input is never held whole. Bytes-like input is
    read as an io.BytesIO, and a file that cannot seek (a pipe) is read whole
    into one. The file's bytes left are measured once and no more are read,
    so a device that measures 0 (such as /dev/zero) reads as empty."""

    def __init__(self, source):
        if not hasattr(source, "readinto"):
            # io.BytesIO refuses a non-contiguous buffer, which memoryview takes
            source = io.BytesIO(source if isinstance(source, bytes) else memoryview(source).tobytes())
        elif not source.seekable():
            source = io.BytesIO(source.read())
        start = source.tell()
        self.unread = max(source.seek(0, io.SEEK_END) - start, 0)
        source.seek(start)
        self.data, self.pos, self.file = b"", 0, source

    def more(self) -> bool:
        """Drop the bytes before the cursor, which moves to 0, and append the
        file's next bytes: a window of _P2_RUN_BYTES, or as many as are kept
        when that is more, so a line of n bytes is read in O(n). False, with
        nothing changed, at the end of the input."""
        chunk = self.file.read(min(self.unread, max(_P2_RUN_BYTES, len(self.data) - self.pos)))
        if chunk:
            self.data, self.pos = self.data[self.pos :] + chunk, 0
            self.unread -= len(chunk)
        return bool(chunk)

    def left(self) -> int:
        """The number of bytes from the cursor to the end of the input."""
        return len(self.data) - self.pos + self.unread


def _read_header_token(text: _Text) -> bytes:
    """The header token at or after the cursor, which moves just past it. A
    match that reaches the end of the bytes read so far may go on in the
    next window, so it is tried again once that is read."""
    while ((match := _HEADER_TOKEN.match(text.data, text.pos)) is None
           or match.end() == len(text.data)) and text.more():
        pass
    if match is None:
        raise PgmError("unexpected end of file while reading PGM header")
    text.pos = match.end()
    return match[1]


def _read_header_int(text: _Text, what: str) -> int:
    token = _read_header_token(text)
    if not token.isdigit():
        raise PgmError(f"malformed PGM header: expected {what}, got {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than Python converts to int
        raise PgmError(f"invalid PGM {what} of {len(token)} digits") from None


def _p2_run_end(text: _Text) -> int:
    """End of the P2 run that starts at the cursor, outside any comment.

    The run ends just after the last line end in its window of _P2_RUN_BYTES
    bytes; with none, just after the last whitespace before the window's
    first '#' (these two are _RUN_END); with neither, just after the next
    line end (_LINE_END), or at the end of the input. So a run holds whole
    tokens and whole comments. The text is read on until it holds the
    window and the run's end, so the runs are those of the input as bytes.
    """
    while len(text.data) - text.pos <= _P2_RUN_BYTES and text.more():
        pass
    stop = text.pos + _P2_RUN_BYTES
    if stop >= len(text.data):
        return len(text.data)
    cut = _RUN_END.match(text.data, text.pos, stop)
    while cut is None and (cut := _LINE_END.search(text.data, stop)) is None:
        # the search goes on past the run's bytes read so far, which more() moves to 0
        stop = len(text.data) - text.pos
        if not text.more():
            return len(text.data)
    return cut.end()


def _p2_samples(text: _Text, count: int, maxval: int) -> tuple[np.ndarray, int]:
    """The first `count` samples of the P2 raster at the cursor, tokenized as
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
    The output holds at most one sample per two bytes of input left, so a
    declared size the raster cannot hold allocates nothing in proportion to it.
    """
    out = np.empty(min(count, (text.left() + 1) // 2), dtype=np.uint8)
    found, top, big = 0, 0, None
    while found < count and (text.pos < len(text.data) or text.more()):
        stop = _p2_run_end(text)
        run = text.data[text.pos : stop]
        text.pos = stop
        if b"#" in run:
            run = _COMMENT.sub(b" ", run)
        bad = _MALFORMED.search(run) if run.translate(None, _DIGITS_AND_BLANKS) else None
        if bad is not None:
            run = run[: bad.start()]
        # whitespace alone would read as one 0
        samples = np.fromstring(b"" if run.isspace() else run, np.int64, sep=" ")[: count - found]
        if bad is not None and found + samples.size < count:
            raise PgmError(f"malformed P2 sample: {bad[0]!r}")
        if big is None and (samples >= 1000).any():
            big = run.split()[int(np.argmax(samples >= 1000))]
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


def _p5_samples(text: _Text, count: int) -> np.ndarray:
    """The `count` samples of the P5 raster at the cursor, in one fresh
    array: first the part already read, then the rest by readinto. The
    input left is checked first, so a declared size it cannot hold
    allocates nothing in proportion to it."""
    have = text.left()
    if have < count:
        raise PgmError(f"truncated P5 pixel data: expected {count} bytes, got {have}")
    out = np.empty(count, np.uint8)
    done = min(len(text.data) - text.pos, count)
    out[:done] = np.frombuffer(text.data, np.uint8, done, text.pos)
    while done < count:
        read = text.file.readinto(memoryview(out)[done:])
        if not read:  # the file shrank since it was measured
            raise PgmError(f"truncated P5 pixel data: expected {count} bytes, got {done}")
        done += read
    return out


def load_pgm(source) -> GrayImage:
    """Parse a PGM (binary "P5" or ASCII "P2", maxval <= 255) into an image.

    `source` is bytes, any other bytes-like object (a bytearray, memoryview
    or mmap, which can change later, so it is copied into bytes first), or
    an open binary file, read from its current position. Every source is
    read as a file, in windows of _P2_RUN_BYTES, up to the size it had when
    loading began (_Text); bytes are read as an io.BytesIO, and a file that
    cannot seek (a pipe, a piped /dev/stdin) is read whole into one.
    Header whitespace and '#' comments are tolerated; samples are used as-is
    without rescaling, whatever the declared maxval. A P5 raster is read
    into one fresh array (_p5_samples). A P2 raster is decoded in runs of
    whole lines within a fixed budget (_p2_samples), straight into the
    image's uint8 buffer; its largest sample, kept as the runs go, is
    checked against maxval here, as a P5 raster's is.
    """
    text = _Text(source)
    magic = _read_header_token(text)
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"not a PGM file: bad magic {magic!r}")
    width = _read_header_int(text, "width")
    height = _read_header_int(text, "height")
    maxval = _read_header_int(text, "maxval")
    if width < 1 or height < 1:
        raise PgmError(f"invalid PGM dimensions {width}x{height}")
    if maxval > 255:
        raise PgmError(f"unsupported PGM maxval {maxval} (only maxval <= 255 is handled)")
    if maxval < 1:
        raise PgmError(f"invalid PGM maxval {maxval}")

    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates maxval from the raster; a
        # header token ends before the last byte read, so it is read already.
        if not text.data[text.pos : text.pos + 1].isspace():
            raise PgmError("malformed PGM header: missing whitespace before P5 raster")
        text.pos += 1
        samples = _p5_samples(text, count)
        top = int(samples.max())
    else:
        samples, top = _p2_samples(text, count, maxval)

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


def draw_rect_outline(img: GrayImage, grid, index: tuple[int, int], value: int,
                      thickness: int = 1) -> GrayImage:
    """Copy of `img` with the border band of width `thickness` just inside
    block `index` of the BlockGrid `grid` set to `value`, clipped to the
    block as _paint_outlines clips it (so a band at least half as wide as
    the block's shorter side fills the block); all other pixels unchanged.
    """
    _check_band(value, thickness)
    out = img.pixels.copy()
    _paint_outlines(grid.block(out, *index)[None, :, None], True, value, thickness)
    return GrayImage(_sealed(out))
