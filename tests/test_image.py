"""PGM I/O, block views, and outline drawing."""

import io
import itertools
import mmap
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from texelkit import BlockGrid, GrayImage, PgmError, draw_rect_outline, image, load_pgm, save_pgm
from texelkit.image import pgm_header

from conftest import make_image, peak_bytes, random_image
from reference import p2_reference, p2_text_reference


_SEP = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"#c\n", b" # x\n", b""])
_TOKEN = st.one_of(
    st.integers(0, 255).map(b"%d".__mod__),
    st.integers(256, 10**30).map(b"%d".__mod__),
    st.sampled_from([b"P2", b"P5", b"P6", b"-1", b"#", b""]),
    st.binary(max_size=4),
)

_RUN = image._P2_RUN_BYTES
# the errors whose messages p2_reference gives as load_pgm does: those of the
# raster, and those of the header tokens (but for the magic)
_SHARED_ERRORS = (
    "malformed P2 sample", "truncated P2 pixel data", "sample value",
    "unexpected end of file while reading PGM header", "malformed PGM header", "invalid PGM ",
)

# P2 body pieces: samples (with leading zeros and past int64), all six
# whitespace bytes, comment starts and bytes no sample may hold
_P2_PIECE = st.one_of(
    st.sampled_from([b"0", b"7", b"42", b"255", b"256", b"0000255", b"9" * 20]),
    st.integers(0, 10**25).map(b"%d".__mod__),
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"x", b"P", b"-", b"\xff"]),
)


@st.composite
def p2_files(draw) -> bytes:
    """A P2 header of up to 4x4 samples followed by a body of random pieces."""
    w, h, maxval = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 255))
    sep = draw(st.sampled_from([b" ", b"\n", b"#c\n", b""]))
    return b"P2 %d %d %d" % (w, h, maxval) + sep + b"".join(draw(st.lists(_P2_PIECE, max_size=40)))


@st.composite
def mutated_pgm(draw) -> bytes:
    """A valid P2/P5 file with up to three tokens replaced, maybe truncated."""
    magic = draw(st.sampled_from([b"P2", b"P5"]))
    w, h, maxval = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 255))
    tokens = [magic, b"%d" % w, b"%d" % h, b"%d" % maxval]
    if magic == b"P2":
        tokens += [b"%d" % draw(st.integers(0, maxval)) for _ in range(w * h)]
    for _ in range(draw(st.integers(0, 3))):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_TOKEN)
    data = b"".join(token + draw(_SEP) for token in tokens)
    if magic == b"P5":
        data += draw(st.binary(min_size=w * h, max_size=w * h))
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


class TestGrayImage:
    def test_dimensions(self):
        img = make_image([[1, 2, 3], [4, 5, 6]])
        assert img.height == 2 and img.width == 3

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            GrayImage(np.zeros(4, dtype=np.uint8))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0, 256]], dtype=np.int64))
        with pytest.raises(ValueError):
            GrayImage(np.array([[-1, 0]], dtype=np.int64))

    def test_rejects_float_dtype(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((2, 2), dtype=np.float64))

    def test_pixels_read_only(self):
        img = make_image([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 9

    def test_equality_is_pixelwise(self):
        a = make_image([[1, 2], [3, 4]])
        b = make_image([[1, 2], [3, 4]])
        c = make_image([[1, 2], [3, 5]])
        assert a == b and a != c and a != "not an image"

    def test_transposed(self):
        img = make_image([[1, 2, 3], [4, 5, 6]])
        t = GrayImage(img.pixels.T)
        assert t.height == 3 and t.width == 2
        assert t.pixels[2, 1] == 6

    def test_uint8_input_is_stored_read_only_and_contiguous(self):
        strided = np.arange(48, dtype=np.uint8).reshape(4, 12)[:, ::2]
        img = GrayImage(strided)
        assert img.pixels.dtype == np.uint8 and img.pixels.flags.c_contiguous
        assert not img.pixels.flags.writeable
        assert np.array_equal(img.pixels, strided)

    def test_writes_to_a_writable_input_view_do_not_reach_the_image(self):
        base = np.zeros((4, 4), dtype=np.uint8)
        img = GrayImage(base[:2])
        base[0, 0] = 7
        assert img.pixels[0, 0] == 0 and not np.shares_memory(img.pixels, base)

    def test_callers_array_stays_writable(self):
        own = np.zeros((3, 3), dtype=np.uint8)
        img = GrayImage(own)
        own[1, 1] = 9
        assert own.flags.writeable and img.pixels[1, 1] == 0

    def test_read_only_uint8_input_is_kept_without_a_copy(self):
        frozen = np.arange(12, dtype=np.uint8).reshape(3, 4)
        frozen.setflags(write=False)
        assert np.shares_memory(GrayImage(frozen).pixels, frozen)


class TestPgmRoundTrip:
    def test_roundtrip_random_images_both_modes(self, rng):
        for _ in range(40):
            h = int(rng.integers(1, 33))
            w = int(rng.integers(1, 33))
            img = random_image(rng, h, w)
            for mode in ("P5", "P2"):
                assert load_pgm(save_pgm(img, mode)) == img

    def test_p5_layout_is_deterministic(self):
        img = make_image([[0, 128], [255, 7]])
        data = save_pgm(img)
        assert data == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7])
        assert save_pgm(img) == data

    def test_p2_text_matches_reference_loop(self, rng):
        shapes = [(1, 1), (1, 300), (300, 1), (9, 50), (7, 71), (3, 18)]
        shapes += [(int(rng.integers(1, 40)), int(rng.integers(1, 200))) for _ in range(30)]
        for h, w in shapes:
            # narrow ranges give rows of one- and two-digit samples only
            top = int(rng.choice([2, 10, 100, 256]))
            img = GrayImage(rng.integers(0, top, size=(h, w), dtype=np.uint8))
            assert save_pgm(img, "P2") == p2_text_reference(img)
        # a line of exactly 70 characters, and one of 71 that must wrap
        for row in ([255] * 17 + [10, 5], [255] * 17 + [100]):
            img = GrayImage(np.array([row, row], dtype=np.uint8))
            assert save_pgm(img, "P2") == p2_text_reference(img)

    def test_p2_lines_within_70_chars(self, rng):
        img = random_image(rng, 9, 50)
        for line in save_pgm(img, "P2").decode("ascii").splitlines():
            assert len(line) <= 70

    def test_save_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            save_pgm(make_image([[0]]), "P6")


class TestPgmParsing:
    def test_p2_with_comments_and_whitespace(self):
        data = b"P2 # format\n# a comment line\n 3 # width\n2\n255\n1 2 3\n4 5 6\n"
        img = load_pgm(data)
        assert img == make_image([[1, 2, 3], [4, 5, 6]])

    def test_p5_comment_before_dimensions(self):
        data = b"P5\n#ignore me\n2 1\n255\n" + bytes([9, 10])
        assert load_pgm(data) == make_image([[9, 10]])

    def test_maxval_scaling_not_applied(self):
        # samples are taken as-is for any maxval <= 255
        data = b"P2\n2 1\n100\n0 100\n"
        assert load_pgm(data) == make_image([[0, 100]])

    def test_p5_trailing_bytes_ignored(self):
        data = b"P5\n2 1\n255\n" + bytes([1, 2]) + b"garbage"
        assert load_pgm(data) == make_image([[1, 2]])

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"P6\n1 1\n255\n\x00",
            b"P5\n0 1\n255\n",
            b"P5\n1 1\n256\n\x00",
            b"P5\n1 1\n65535\n\x00\x00",
            b"P5\n2 2\n255\n\x00\x00\x00",
            b"P2\n2 1\n255\n5",
            b"P2\n1 1\n100\n101\n",
            b"P2\n1 1\n255\nxy\n",
            b"P5\n1 x\n255\n\x00",
            b"P5\n1 1\n",
        ],
    )
    def test_malformed_inputs_raise(self, data):
        with pytest.raises(PgmError):
            load_pgm(data)

    @settings(max_examples=500, deadline=None)
    @given(
        # a P5 file is no P2 file to the reference, but load_pgm decodes it
        st.one_of(p2_files(), mutated_pgm().filter(lambda data: not data.startswith(b"P5"))),
        st.one_of(st.integers(1, 12), st.just(_RUN)),
    )
    # header tokens between comments and each of the six whitespace bytes
    @example(b"P2\x0b2\x0c1\r255\r7 8", _RUN)
    @example(b"P2#c\r2 #x\n1\r\n255#\x0b\n7 8", _RUN)
    @example(b"P2 2 1 2#55\n 7 8", _RUN)  # a comment ends the maxval
    @example(b"P2\r2\r1", _RUN)  # end of file before the maxval
    @example(b"P2 2 1#c", _RUN)  # the same, inside a comment
    @example(b"P2\x0c2\x0bx 255 7", _RUN)  # a malformed height
    @example(b"P2 2 1 255#c\r\x0b", _RUN)  # a header and no samples
    @example(b"P2 " + b"1" * 5000 + b" 1 255 7", _RUN)  # more digits than int() converts
    @example(b"P2 2 1 255 12#x\n3", _RUN)  # a comment ends a token
    @example(b"P2 2 1 255 1#c\r2", _RUN)  # a comment ended by a carriage return
    @example(b"P2 3 1 255\x0b1\x0c2\x0b3", _RUN)  # vertical tab and form feed separate
    @example(b"P2 1 1 255 0000255", _RUN)  # leading zeros
    @example(b"P2 1 1 255 12345678901234567890", _RUN)  # a 20-digit sample
    @example(b"P2 1 1 255 00000000000000000255", _RUN)  # 20 digits, in range
    @example(b"P2 2 1 9 1 2 x-\xff#", _RUN)  # trailing garbage after the samples
    @example(b"P2 3 1 255 1 x", _RUN)  # a malformed sample, then truncation
    # run boundaries: each window of a few bytes ends where the comment says
    @example(b"P2 2 1 255\n12 345", 4)  # inside a token
    @example(b"P2 2 1 255\n1 #a comment\n2", 6)  # inside a comment
    @example(b"P2 2 1 255\r\n1\r\n2", 4)  # between \r and \n
    @example(b"P2 2 1 255\n00000000000000000255\n7", 4)  # inside a 20-digit token
    @example(b"P2 3 1 255\n1000\n7\nx\n", 6)  # 1000+ in run 1, malformed in run 2
    @example(b"P2 3 1 255\n1000\n7\n", 6)  # 1000+ in run 1, then truncation
    @example(b"P2 3 1 255 1 2 #c\n3", 6)  # a blank before a '#'
    @example(b"P2 1 1 255 #long comment\n7", 4)  # the next line end
    @example(b"P2 1 1 255 #long comment\n12", 4)  # the same, a token just after it
    @example(b"P2 1 1 255 00000000000000000007", 4)  # the end of the data
    @example(b"P2 1 1 255 " + b"1" * 5000, _RUN)  # more digits than int() converts
    @example(b"P2 2 1 255 " + b"0" * 5000 + b"1000 7", _RUN)  # the same, with leading zeros
    # numpy's text reader: whitespace alone reads as one 0, a sign parses,
    # and a value past 2**63 - 1 saturates there
    @example(b"P2 2 1 255\n1\n \t \n#c\n2", 3)  # a run of whitespace, then of a comment
    @example(b"P2 2 1 255\n1\n \t \n#c\n2", 4)
    @example(b"P2 2 1 255 +5 7", _RUN)
    @example(b"P2 2 1 255 7 -0", _RUN)
    @example(b"P2 2 1 255 1 12x", _RUN)  # named as b'12x'
    @example(b"P2 1 1 255 9223372036854775808", _RUN)  # named by its exact value
    def test_p2_decode_matches_reference_loop(self, data, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(image, "_P2_RUN_BYTES", budget)
            try:
                want = p2_reference(data)
            except PgmError as exc:
                with pytest.raises(PgmError) as got:
                    load_pgm(data)
                if str(exc).startswith(_SHARED_ERRORS):
                    assert str(got.value) == str(exc)
                return
            assert load_pgm(data) == want

    def test_sample_too_long_for_int_names_its_length(self):
        with pytest.raises(PgmError) as got:
            load_pgm(b"P2 2 1 255 7 " + b"1" * 5000)
        assert str(got.value) == "sample value of 5000 digits exceeds declared maxval 255"

    def test_header_integer_too_long_for_int_is_invalid_size(self):
        with pytest.raises(PgmError) as got:
            load_pgm(b"P5 " + b"1" * 5000 + b" 1 255 \x00")
        assert str(got.value) == "invalid PGM width of 5000 digits"

    def test_pgm_error_is_value_error(self):
        assert issubclass(PgmError, ValueError)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=64), mutated_pgm()))
    @example(b"P2 1 1 255 99999999999999999999")  # sample beyond int64
    def test_fuzzed_bytes_parse_or_raise_pgm_error(self, data):
        try:
            img = load_pgm(data)
        except PgmError:
            return
        assert isinstance(img, GrayImage)


def decode_or_error(data: bytes) -> GrayImage | PgmError:
    """What load_pgm(data) returns or raises."""
    try:
        return load_pgm(data)
    except PgmError as exc:
        return exc


def decode_peak(data: bytes) -> tuple[GrayImage | PgmError, int]:
    """What load_pgm(data) returns or raises, and the call's tracemalloc peak."""
    return peak_bytes(decode_or_error, data)


def file_decode_peak(data: bytes) -> tuple[GrayImage | PgmError, int]:
    """What load_pgm returns or raises for an open file of `data`, and the
    call's tracemalloc peak, with the file written before the peak is taken."""
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.seek(0)
        return peak_bytes(decode_or_error, fh)


def same_outcome(got, want) -> bool:
    """Equal images, or PgmErrors of one message."""
    if isinstance(want, PgmError):
        return isinstance(got, PgmError) and str(got) == str(want)
    return got == want


class TestFileInput:
    """An open file is read in windows of _P2_RUN_BYTES, as bytes are, and
    loads as its bytes do, wherever the window boundaries fall."""

    @pytest.fixture(params=[1, _RUN], ids=["1-byte", "default"])
    def window(self, request, monkeypatch):
        monkeypatch.setattr(image, "_P2_RUN_BYTES", request.param)
        return request.param

    @staticmethod
    def load_both(data: bytes):
        """load_pgm of `data` read from a file, and of `data` itself."""
        got, _ = file_decode_peak(data)
        return got, decode_or_error(data)

    def test_header_token_split_across_windows(self, window):
        # the width token, leading zeros and all, starts on either side of
        # the first window's end
        for pad in range(max(1, window - 4), max(1, window - 4) + 6):
            data = b"P2" + b" " * pad + b"0000003 1 255\n1 2 3\n"
            got, want = self.load_both(data)
            assert got == want == make_image([[1, 2, 3]])

    def test_header_comment_longer_than_a_window(self, window):
        for magic, raster in ((b"P2", b"\n1 2 3\n"), (b"P5", b"\n\x01\x02\x03")):
            data = magic + b"\n#" + b"c" * (3 * window + 5) + b"\n3 #" + b"d" * window + b"\n1 255"
            got, want = self.load_both(data + raster)
            assert got == want == make_image([[1, 2, 3]])

    def test_p5_separator_and_first_raster_byte_on_a_boundary(self, window):
        head = b"P5\n3 1\n255"
        for sep_at in range(window - 2, window + 2):
            pad = b"#" + b"c" * max(0, sep_at - len(head) - 2) + b"\n"
            data = head[:3] + pad + head[3:] + b"\n\x07\x08\x09"
            got, want = self.load_both(data)
            assert got == want == make_image([[7, 8, 9]])
            # a missing separator and a short raster raise as for bytes
            for bad in (data.replace(b"255\n", b"255x"), data[:-1]):
                got, want = self.load_both(bad)
                assert isinstance(want, PgmError) and same_outcome(got, want)

    def test_p2_sample_split_across_windows(self, window):
        img = GrayImage(np.full((200, 400), 123, np.uint8))
        body = save_pgm(img, "P2")
        assert len(body) > 3 * _RUN
        split = False
        for pad in range(4):  # one of these ends the first window inside a sample
            data = body.replace(b"\n", b"\n" + b" " * pad, 1)
            split |= data[window - 1 : window + 1].isdigit()
            got, want = self.load_both(data)
            assert got == want == img
        # 1-byte windows end inside every sample of two digits or more
        assert split or window == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.binary(max_size=64), mutated_pgm(), p2_files()),
        st.one_of(st.integers(1, 12), st.just(_RUN)),
    )
    @example(b"P5\n2 1\n255\n\x01", 1)  # a short raster
    @example(b"P5 2 1 255", 1)  # no separator
    @example(b"P2 1 1 255 #long comment\n7", 4)
    def test_file_loads_as_its_bytes_do(self, data, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(image, "_P2_RUN_BYTES", budget)
            assert same_outcome(*self.load_both(data))

    def test_file_is_read_from_its_position(self, rng, tmp_path):
        img = random_image(rng, 4, 6)
        (tmp_path / "in.pgm").write_bytes(b"junk" + save_pgm(img, "P2"))
        with open(tmp_path / "in.pgm", "rb") as fh:
            fh.seek(4)
            assert load_pgm(fh) == img

    @pytest.mark.parametrize("mode", ["P5", "P2"])
    def test_non_regular_files_are_read_whole(self, rng, mode):
        # an io.BytesIO is read in windows, and a pipe, which cannot seek,
        # is read whole first
        img = random_image(rng, 5, 7)
        data = save_pgm(img, mode)
        assert load_pgm(io.BytesIO(data)) == img
        read, write = os.pipe()
        os.write(write, data)
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            assert load_pgm(pipe) == img

    @pytest.mark.parametrize("data, error", [
        (b"P5 100000 100000 255\n" + bytes(100),
         "truncated P5 pixel data: expected 10000000000 bytes, got 100"),
        (b"P2 100000 100000 255 1 2 3",
         "truncated P2 pixel data: expected 10000000000 samples, got 3"),
    ], ids=["P5", "P2"])
    def test_declared_size_the_file_cannot_hold_allocates_little(self, data, error):
        # the size left in the file is read before the raster is allocated
        got, peak = file_decode_peak(data)
        assert str(got) == error
        assert peak < 64_000 + 2 * _RUN


class TestP2DecodeMemory:
    """A P2 raster is decoded in runs of whole lines, and a file is read in
    windows: beyond the output, the decoder's working set is one run and one
    window, however long the text and the file."""

    @pytest.fixture(scope="class")
    def noise(self):
        img = GrayImage(np.random.default_rng(12).integers(0, 256, (1024, 1024), np.uint8))
        return img, save_pgm(img, "P2")

    # load_pgm of bytes, whose cost the caller has paid already, and of an
    # open file, which is read within the call
    SOURCES = (decode_peak, file_decode_peak)

    def test_peak_below_output_plus_1_mb(self, noise):
        img, data = noise
        assert len(data) > 3_500_000
        for decode in self.SOURCES:
            got, peak = decode(data)
            assert got == img
            assert peak < 2**20 + 10**6

    def test_commented_lines_peak_below_output_plus_1_mb(self, noise):
        img, data = noise
        header = pgm_header(1024, 1024, "P2")
        commented = header + data[len(header) :].replace(b"\n", b" # comment\n")
        # a comment line after each line, twice as long: the file is tripled
        tripled = header + b"".join(
            line + b"\n#" + b"c" * (2 * len(line) + 1) + b"\n"
            for line in data[len(header) :].splitlines()
        )
        assert len(tripled) > 3 * len(data)
        for decode, text in itertools.product(self.SOURCES, (commented, tripled)):
            got, peak = decode(text)
            assert got == img
            assert peak < 2**20 + 10**6

    def test_long_token_peak_below_3x_text(self):
        # one run of a line longer than the budget: its copies, and no masks
        data = b"P2 1 1 255\n" + b"0" * 2**20 + b"7"
        for decode in self.SOURCES:
            got, peak = decode(data)
            assert got == GrayImage(np.array([[7]], np.uint8))
            assert peak < 3 * len(data)

    def test_p5_file_peak_below_image_plus_128_kib(self, noise):
        img, _ = noise
        got, peak = file_decode_peak(save_pgm(img))
        assert got == img
        assert peak < 2**20 + 128 * 1024

    def test_declared_size_the_raster_cannot_hold_allocates_little(self):
        got, peak = decode_peak(b"P2 100000 100000 255 1 2 3")
        assert str(got) == "truncated P2 pixel data: expected 10000000000 samples, got 3"
        assert peak < 64_000


class TestP5View:
    """A P5 raster is read into one fresh array, from bytes as from a file,
    so a later change to the input buffer leaves the image as it was, and
    bytes cost what a file costs."""

    @pytest.fixture(scope="class")
    def noise(self):
        img = GrayImage(np.random.default_rng(13).integers(0, 256, (960, 960), np.uint8))
        return img, save_pgm(img)

    def test_bytes_peak_below_image_plus_two_windows(self, noise):
        img, data = noise
        got, peak = peak_bytes(load_pgm, data)
        assert got == img
        assert peak < img.width * img.height + 2 * _RUN

    def test_bytearray_input_is_copied(self, noise):
        img, data = noise
        buf = bytearray(data)
        got = load_pgm(buf)
        buf[-1] ^= 0xFF
        buf += b"\0"  # nothing holds a view of the buffer, so it can grow
        assert got == img and not got.pixels.flags.writeable

    def test_read_only_mmap_input_is_copied(self, noise, tmp_path):
        # read-only to this process, yet the file under it can still change
        img, data = noise
        path = tmp_path / "in.pgm"
        path.write_bytes(data)
        with open(path, "rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as m:
            got = load_pgm(m)
            with open(path, "r+b") as w:
                w.seek(-1, 2)
                w.write(bytes([data[-1] ^ 0xFF]))
        assert got == img

    def test_raster_followed_by_trailing_bytes_is_copied(self, noise):
        img, data = noise
        data += bytes(len(data))
        got = load_pgm(data)
        assert got == img
        assert not np.shares_memory(got.pixels, np.frombuffer(data, np.uint8))


_BUFFERS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda data: memoryview(bytearray(data)),
    "read-only memoryview": lambda data: memoryview(bytearray(data)).toreadonly(),
    # every other byte of a buffer twice as long
    "non-contiguous array": lambda data: np.repeat(np.frombuffer(data, np.uint8), 2)[::2],
}


class TestBytesLikeInput:
    @pytest.mark.parametrize("mode", ["P5", "P2"])
    @pytest.mark.parametrize("kind", list(_BUFFERS))
    def test_loads_or_refuses_as_bytes_do(self, rng, kind, mode):
        img = random_image(rng, 5, 7)
        data = save_pgm(img, mode)
        assert load_pgm(_BUFFERS[kind](data)) == img
        # the header and one byte of raster: a PgmError, not a TypeError
        short = data[: len(pgm_header(7, 5, mode)) + 1]
        with pytest.raises(PgmError, match=f"^truncated {mode} pixel data"):
            load_pgm(_BUFFERS[kind](short))

    @pytest.mark.parametrize("kind", [str, Path], ids=["str", "Path"])
    def test_a_path_is_refused_unopened(self, tmp_path, kind):
        path = tmp_path / "in.pgm"
        path.write_bytes(save_pgm(make_image([[1, 2]])))
        with mock.patch("builtins.open") as builtin_open, mock.patch("io.open") as io_open, \
                mock.patch("os.open") as os_open, pytest.raises(TypeError) as refused:
            load_pgm(kind(path))
        assert str(refused.value) == ("load_pgm takes bytes, a bytes-like object or an open "
                                      f"binary file, not the path {kind(path)!r}")
        for opener in (builtin_open, io_open, os_open):
            opener.assert_not_called()

    def test_an_int_keeps_its_type_error(self):
        with pytest.raises(TypeError, match="^memoryview: a bytes-like object is required, not 'int'$"):
            load_pgm(3)


class TestCrop:
    """A block is cropped as BlockGrid.block's view of the pixels."""

    def test_crop_matches_slice(self, rng):
        img = random_image(rng, 12, 17)  # edge strips below and right of the grid
        grid = BlockGrid(block_h=5, block_w=4, n_rows=2, n_cols=4)
        for i, j in np.ndindex(2, 4):
            block = grid.block(img.pixels, i, j)
            assert np.array_equal(block, img.pixels[5 * i : 5 * i + 5, 4 * j : 4 * j + 4])
            assert np.shares_memory(block, img.pixels)

    def test_crop_composition(self, rng):
        # a block of a block is the block of the finer grid at the composed index
        img = random_image(rng, 20, 24)
        outer, inner, fine = BlockGrid(10, 12, 2, 2), BlockGrid(5, 4, 2, 3), BlockGrid(5, 4, 4, 6)
        for (i, j), (k, m) in itertools.product(np.ndindex(2, 2), np.ndindex(2, 3)):
            got = inner.block(outer.block(img.pixels, i, j), k, m)
            assert np.array_equal(got, fine.block(img.pixels, 2 * i + k, 3 * j + m))

    def test_crop_out_of_bounds(self):
        pixels = make_image([[1, 2], [3, 4]]).pixels
        with pytest.raises(ValueError, match="^grid does not fit inside the image$"):
            BlockGrid(1, 2, 1, 2).block(pixels, 0, 0)
        with pytest.raises(ValueError, match="^block size must be positive$"):
            BlockGrid(1, 0, 1, 1)


class TestDrawRectOutline:
    def test_band_pixel_count(self, rng):
        # an outline of thickness t covers w*h - (w-2t)*(h-2t) pixels
        img = GrayImage(np.zeros((30, 30), dtype=np.uint8))
        for t, (w, h) in [(1, (10, 8)), (2, (9, 11)), (3, (7, 6))]:
            out = draw_rect_outline(img, BlockGrid(h, w, 2, 2), (1, 1), 255, t)
            expect = w * h - (w - 2 * t) * (h - 2 * t)
            assert int((out.pixels == 255).sum()) == expect

    def test_interior_and_exterior_untouched(self, rng):
        img = random_image(rng, 24, 24)
        out = draw_rect_outline(img, BlockGrid(8, 8, 3, 3), (1, 1), 200, 2)
        # interior preserved
        assert np.array_equal(out.pixels[10:14, 10:14], img.pixels[10:14, 10:14])
        # exterior preserved
        assert np.array_equal(out.pixels[:8, :], img.pixels[:8, :])
        assert np.array_equal(out.pixels[:, 16:], img.pixels[:, 16:])

    def test_source_image_unmodified(self, rng):
        img = random_image(rng, 8, 8)
        before = img.pixels.copy()
        draw_rect_outline(img, BlockGrid(4, 4, 2, 2), (1, 0), 0, 1)
        assert np.array_equal(img.pixels, before)

    def test_exact_double_thickness_fills_rect(self):
        img = GrayImage(np.zeros((10, 10), dtype=np.uint8))
        out = draw_rect_outline(img, BlockGrid(4, 4, 2, 2), (0, 0), 255, 2)
        assert int((out.pixels == 255).sum()) == 16

    def test_too_thick_outline_fills_rect(self):
        # each side's band is clipped to the block, as outline_parts clips it
        img = GrayImage(np.zeros((10, 10), dtype=np.uint8))
        out = draw_rect_outline(img, BlockGrid(5, 4, 2, 2), (1, 1), 255, 3)
        want = np.zeros((10, 10), dtype=np.uint8)
        want[5:10, 4:8] = 255
        assert np.array_equal(out.pixels, want)

    def test_bad_value_or_thickness(self):
        img = GrayImage(np.zeros((10, 10), dtype=np.uint8))
        grid = BlockGrid(6, 6, 1, 1)
        with pytest.raises(ValueError):
            draw_rect_outline(img, grid, (0, 0), 256, 1)
        with pytest.raises(ValueError):
            draw_rect_outline(img, grid, (0, 0), 255, 0)
