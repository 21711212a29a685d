"""Metamorphic relations: how the outputs must move when the input moves.

Each relation transforms a `testgen` tiling and states the result on the
transformed input in terms of the result on the original, with no second
implementation of the method. Results are compared to the bit, with
np.array_equal or bytes, never with a tolerance:

- a left-right flip, an upside-down flip and a 180-degree turn leave both
  DMF curves unchanged, and permute the block features, their maximum
  deviations and the mask the same way;
- a cyclic roll by whole periods rolls the block features and the mask,
  and keeps the estimated periods of a tiling without defect blocks;
- a transpose about either diagonal swaps the row and column DMF curves
  and the periods, keeps the global features, and moves the block
  features and the mask as it moves the grid;
- inverting the gray levels (255 - x) leaves both DMF curves unchanged;
- the outlined PGM `detect` writes for a flipped input is the flipped
  outlined PGM;
- the encoding of the input (P5, P2, or P2 with CRLF line ends and a
  comment on every line) changes no exit code, message or output file.

The grid is the tiling's texel size, so each transformation maps whole
blocks onto whole blocks.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from texelkit import (
    GrayImage,
    GroundTruth,
    classify_blocks,
    cli,
    estimate_periods,
    features_of_region,
    generate,
    load_pgm,
    partition,
    random_texel,
    save_pgm,
)

# each takes and gives a 2-D pixel array; a block (i, j) of an n_rows x
# n_cols grid goes where the same function sends entry (i, j) of the grid
FLIPS = {
    "left-right": np.fliplr,
    "upside-down": np.flipud,
    "half-turn": lambda a: a[::-1, ::-1],
}

# transposes about the main and the anti-diagonal, which move the first two
# axes of a (rows, cols, features) array as they move the grid; the
# anti-diagonal one also reverses each axis, so each curve is checked
# against the other axis's curve of a reversed image
TRANSPOSES = {
    "main-diagonal": lambda a: a.swapaxes(0, 1),
    "anti-diagonal": lambda a: a[::-1, ::-1].swapaxes(0, 1),
}


@st.composite
def tilings(draw, defects=True):
    """(ground truth, image) of a texel tiled three to six times per axis,
    with up to three shifted blocks and some noise."""
    th, tw = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    rr, rc = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    blocks = st.tuples(st.integers(0, rr - 1), st.integers(0, rc - 1))
    gt = GroundTruth(
        texel_h=th, texel_w=tw, reps_r=rr, reps_c=rc,
        defect_blocks=draw(st.lists(blocks, max_size=3, unique=True)) if defects else [],
        noise_amplitude=draw(st.sampled_from([0, 2, 5, 20])),
        seed=draw(st.integers(0, 1000)),
    )
    texel = random_texel(th, tw, gt.seed, high=draw(st.sampled_from([120, 255])))
    return gt, generate(gt, texel)


def image_of(pixels: np.ndarray) -> GrayImage:
    return GrayImage(np.ascontiguousarray(pixels))


def curves(img: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    est = estimate_periods(img)
    return est.row_curve, est.col_curve


def block_arrays(img: GrayImage, block_h: int, block_w: int, threshold: float) -> list[np.ndarray]:
    """The features, maximum deviations and mask of every block_h x block_w
    block, each laid out on the (n_rows, n_cols) grid."""
    res = classify_blocks(img, partition(img, block_h, block_w), threshold)
    grid = (res.grid.n_rows, res.grid.n_cols)
    return [res.features.reshape(*grid, -1), res.max_deviation.reshape(grid),
            res.conforming.reshape(grid)]


thresholds = st.sampled_from([0.02, 0.1, 0.5])


@settings(max_examples=100, deadline=None)
@given(tilings(), st.sampled_from(sorted(FLIPS)), thresholds)
def test_flip_keeps_the_curves_and_moves_the_blocks(case, flip, threshold):
    gt, img = case
    flipped = image_of(FLIPS[flip](img.pixels))
    for got, want in zip(curves(flipped), curves(img)):
        assert np.array_equal(got, want)
    texel = (gt.texel_h, gt.texel_w)
    for got, want in zip(block_arrays(flipped, *texel, threshold),
                         block_arrays(img, *texel, threshold)):
        assert np.array_equal(got, FLIPS[flip](want))


@settings(max_examples=60, deadline=None)
@given(tilings(), st.data(), thresholds)
def test_roll_by_whole_periods_rolls_the_blocks(case, data, threshold):
    gt, img = case
    k, m = data.draw(st.integers(0, gt.reps_r - 1)), data.draw(st.integers(0, gt.reps_c - 1))
    rolled = image_of(np.roll(img.pixels, (k * gt.texel_h, m * gt.texel_w), axis=(0, 1)))
    texel = (gt.texel_h, gt.texel_w)
    for got, want in zip(block_arrays(rolled, *texel, threshold),
                         block_arrays(img, *texel, threshold)):
        assert np.array_equal(got, np.roll(want, (k, m), axis=(0, 1)))


@settings(max_examples=60, deadline=None)
@given(tilings(defects=False), st.data())
def test_roll_by_whole_periods_keeps_the_periods(case, data):
    gt, img = case
    k, m = data.draw(st.integers(0, gt.reps_r - 1)), data.draw(st.integers(0, gt.reps_c - 1))
    rolled = image_of(np.roll(img.pixels, (k * gt.texel_h, m * gt.texel_w), axis=(0, 1)))
    est, got = estimate_periods(img), estimate_periods(rolled)
    assert (got.row_period, got.col_period) == (est.row_period, est.col_period)


@settings(max_examples=60, deadline=None)
@given(tilings(), st.sampled_from(sorted(TRANSPOSES)), thresholds)
def test_transpose_swaps_the_axes(case, transpose, threshold):
    gt, img = case
    est = estimate_periods(img)
    turned = image_of(TRANSPOSES[transpose](img.pixels))
    got = estimate_periods(turned)
    assert np.array_equal(got.row_curve, est.col_curve)
    assert np.array_equal(got.col_curve, est.row_curve)
    assert (got.row_period, got.col_period) == (est.col_period, est.row_period)
    assert np.array_equal(features_of_region(turned), features_of_region(img))
    for got, want in zip(block_arrays(turned, gt.texel_w, gt.texel_h, threshold),
                         block_arrays(img, gt.texel_h, gt.texel_w, threshold)):
        assert np.array_equal(got, TRANSPOSES[transpose](want))


@settings(max_examples=60, deadline=None)
@given(tilings())
def test_inverted_levels_keep_the_curves(case):
    _, img = case
    for got, want in zip(curves(image_of(255 - img.pixels)), curves(img)):
        assert np.array_equal(got, want)


@settings(max_examples=10, deadline=None)
@given(tilings(), st.sampled_from(sorted(FLIPS)), st.integers(1, 3))
def test_detect_outlines_a_flipped_input_flipped(case, flip, thickness):
    gt, img = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.pgm").write_bytes(save_pgm(img))
        (tmp / "flipped.pgm").write_bytes(save_pgm(image_of(FLIPS[flip](img.pixels))))
        for name in ("in", "flipped"):
            argv = ["detect", str(tmp / f"{name}.pgm"), str(tmp / f"{name}-out.pgm"),
                    "--period-rows", str(gt.texel_h), "--period-cols", str(gt.texel_w),
                    "--threshold", "0.1", "--thickness", str(thickness),
                    "--json-out", str(tmp / f"{name}.json")]
            assert cli.main(argv) in (0, 1)
        outlined = load_pgm((tmp / "in-out.pgm").read_bytes())
        want = save_pgm(image_of(FLIPS[flip](outlined.pixels)))
        assert (tmp / "flipped-out.pgm").read_bytes() == want


# the same image as P5, as P2, and as P2 with a comment and CRLF on every line
ENCODINGS = {
    "P5": save_pgm,
    "P2": lambda img: save_pgm(img, "P2"),
    "P2-commented-crlf": lambda img: save_pgm(img, "P2").replace(b"\n", b"# c\r\n"),
}


@settings(max_examples=10, deadline=None)
@given(tilings())
def test_the_input_encoding_changes_no_output(case):
    _, img = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src, out_pgm = str(tmp / "in.pgm"), str(tmp / "out.pgm")
        runs = [
            ["analyze", src, "--csv-dmf", str(tmp / "dmf.csv")],
            ["detect", src, out_pgm, "--json-out", str(tmp / "report.json")],
            ["synthesize", src, out_pgm, "--texel-out", str(tmp / "texel.pgm")],
        ]
        outcomes = {}
        for encoding, encode in ENCODINGS.items():
            (tmp / "in.pgm").write_bytes(encode(img))
            for argv in runs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                files = {}
                for path in tmp.iterdir():
                    if path.name != "in.pgm":
                        files[path.name] = path.read_bytes()
                        path.unlink()
                outcomes[argv[0], encoding] = (code, out.getvalue(), err.getvalue(), files)
    for command, encoding in outcomes:
        assert outcomes[command, encoding] == outcomes[command, "P5"], (command, encoding)
