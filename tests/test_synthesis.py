"""Texel extraction, tiling synthesis, and anomaly highlighting."""

import collections

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from texelkit import (
    GrayImage,
    classify_blocks,
    crop,
    draw_rect_outline,
    extract_texel,
    highlight_anomalies,
    partition,
    random_texel,
    synthesize,
)
from texelkit.synthesis import outline_parts, tiling_parts

from conftest import make_image, peak_bytes, random_image


class TestExtractTexel:
    def test_matches_block_crop(self, rng):
        img = random_image(rng, 20, 20)
        grid = partition(img, 5, 4)
        for idx in [(0, 0), (1, 2), (3, 4)]:
            assert extract_texel(img, grid, idx) == crop(img, grid.rect(*idx))

    def test_bad_index_rejected(self, rng):
        grid = partition(random_image(rng, 8, 8), 4, 4)
        with pytest.raises(ValueError):
            extract_texel(random_image(rng, 8, 8), grid, (5, 0))


class TestSynthesize:
    def test_hand_computed_2x2_to_4x4(self):
        texel = make_image([[1, 2], [3, 4]])
        out = synthesize(texel, 4, 4)
        assert out == make_image(
            [[1, 2, 1, 2], [3, 4, 3, 4], [1, 2, 1, 2], [3, 4, 3, 4]]
        )

    def test_partial_tiles_cropped(self):
        texel = make_image([[1, 2], [3, 4]])
        out = synthesize(texel, 3, 5)
        assert out == make_image(
            [[1, 2, 1], [3, 4, 3], [1, 2, 1], [3, 4, 3], [1, 2, 1]]
        )

    def test_output_dims_exact(self, rng):
        texel = random_image(rng, 5, 7)
        for w, h in [(7, 5), (1, 1), (20, 3), (8, 11)]:
            out = synthesize(texel, w, h)
            assert (out.width, out.height) == (w, h)

    def test_every_pixel_from_texel_modulo(self, rng):
        texel = random_image(rng, 4, 6)
        out = synthesize(texel, 15, 13)
        for y in range(13):
            for x in range(15):
                assert out.pixels[y, x] == texel.pixels[y % 4, x % 6]

    def test_identity_when_dims_match(self, rng):
        texel = random_image(rng, 6, 6)
        assert synthesize(texel, 6, 6) == texel

    def test_bad_dims_rejected(self, rng):
        texel = random_image(rng, 4, 4)
        with pytest.raises(ValueError):
            synthesize(texel, 0, 4)

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9))),
        st.integers(1, 40),
        st.integers(1, 40),
    )
    @example(np.array([[7]], np.uint8), 5, 3)  # 1x1 texel
    @example(np.arange(20, dtype=np.uint8).reshape(5, 4), 11, 3)  # out_h < texel height
    @example(np.arange(20, dtype=np.uint8).reshape(5, 4), 11, 15)  # out_h a multiple of it
    @example(np.arange(20, dtype=np.uint8).reshape(5, 4), 3, 7)  # out_w < texel width
    def test_pieces_and_image_equal_np_tile(self, texel, out_w, out_h):
        th, tw = texel.shape
        reference = np.tile(texel, (-(-out_h // th), -(-out_w // tw)))[:out_h, :out_w]
        pieces = list(tiling_parts(GrayImage(texel), out_w, out_h))
        assert len(pieces) == out_h // th + 1
        assert b"".join(pieces) == reference.tobytes()
        assert np.array_equal(synthesize(GrayImage(texel), out_w, out_h).pixels, reference)


class TestRoundTrip:
    def test_exact_tiling_reproduced(self):
        # classify + extract + re-tile returns the input, pixel for pixel
        texel = random_texel(7, 5, seed=21)
        img = synthesize(texel, 5 * 6, 7 * 4)
        grid = partition(img, 7, 5)
        res = classify_blocks(img, grid, threshold=0.02)
        rebuilt = synthesize(
            extract_texel(img, grid, res.representative), img.width, img.height
        )
        assert rebuilt == img


def per_anomaly_highlight(img, grid, anomalies, value, thickness):
    """Reference: one new image per anomaly, each from draw_rect_outline."""
    out = img
    for i, j in anomalies:
        out = draw_rect_outline(out, grid.rect(i, j), value, thickness)
    return out


@st.composite
def outline_cases(draw):
    """Image (often with edge strips below and right of its grid), grid,
    mask of flagged blocks, value and thickness."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    img = GrayImage(draw(hnp.arrays(np.uint8, (h, w))))
    grid = partition(img, draw(st.integers(1, h)), draw(st.integers(1, w)))
    mask = draw(hnp.arrays(np.bool_, (grid.n_rows, grid.n_cols)))
    thickness = draw(st.integers(1, max(grid.block_h, grid.block_w) + 3))
    return img, grid, mask, draw(st.integers(0, 255)), thickness


def flagged_list(mask):
    return [(int(i), int(j)) for i, j in np.argwhere(mask)]


def mask_of(grid, anomalies):
    """The grid's mask with the listed (i, j) blocks flagged."""
    mask = np.zeros((grid.n_rows, grid.n_cols), dtype=bool)
    for i, j in anomalies:
        mask[i, j] = True
    return mask


_ZEROS_9 = GrayImage(np.zeros((9, 9), dtype=np.uint8))
_GRID_3X3 = partition(_ZEROS_9, 3, 3)


class TestHighlightAnomalies:
    @settings(max_examples=300, deadline=None)
    @given(outline_cases())
    # band wider than the 3x3 block: the eight neighbours must stay untouched
    @example((_ZEROS_9, _GRID_3X3, mask_of(_GRID_3X3, [(1, 1)]), 200, 5))
    def test_equals_per_anomaly_reference(self, case):
        img, grid, mask, value, thickness = case
        want = per_anomaly_highlight(img, grid, flagged_list(mask), value, thickness)
        assert highlight_anomalies(*case) == want

    def test_no_anomalies_returns_equal_image(self, rng):
        img = random_image(rng, 16, 16)
        grid = partition(img, 4, 4)
        assert highlight_anomalies(img, grid, mask_of(grid, [])) == img

    def test_outline_mask_union(self, rng):
        # changed pixels must be exactly the union of the block outlines
        img = GrayImage(np.zeros((24, 24), dtype=np.uint8))
        grid = partition(img, 6, 6)
        anomalies = [(0, 1), (2, 2), (3, 0)]
        out = highlight_anomalies(img, grid, mask_of(grid, anomalies), value=255, thickness=2)
        mask = np.zeros((24, 24), dtype=bool)
        for i, j in anomalies:
            r = grid.rect(i, j)
            block = np.zeros((24, 24), dtype=bool)
            block[r.y0 : r.y0 + r.h, r.x0 : r.x0 + r.w] = True
            block[r.y0 + 2 : r.y0 + r.h - 2, r.x0 + 2 : r.x0 + r.w - 2] = False
            mask |= block
        assert np.array_equal(out.pixels == 255, mask)

    def test_thick_outline_fills_small_blocks(self, rng):
        img = GrayImage(np.zeros((9, 9), dtype=np.uint8))
        grid = partition(img, 3, 3)
        out = highlight_anomalies(img, grid, mask_of(grid, [(1, 1)]), value=200, thickness=2)
        # 2*2 > 3, so the whole block is painted
        assert np.array_equal(
            out.pixels[3:6, 3:6], np.full((3, 3), 200, dtype=np.uint8)
        )
        assert int((out.pixels == 200).sum()) == 9

    def test_source_unmodified(self, rng):
        img = random_image(rng, 12, 12)
        before = img.pixels.copy()
        grid = partition(img, 4, 4)
        highlight_anomalies(img, grid, mask_of(grid, [(0, 0)]))
        assert np.array_equal(img.pixels, before)

    def test_bad_value_rejected(self, rng):
        img = random_image(rng, 8, 8)
        grid = partition(img, 4, 4)
        with pytest.raises(ValueError, match="^outline value must be in"):
            highlight_anomalies(img, grid, mask_of(grid, [(0, 0)]), value=300)
        with pytest.raises(ValueError, match="^thickness must be >= 1"):
            highlight_anomalies(img, grid, mask_of(grid, [(0, 0)]), thickness=0)

    def test_grid_larger_than_image_rejected(self, rng):
        small = random_image(rng, 8, 8)
        grid = partition(random_image(rng, 12, 12), 4, 4)
        # refused even when every flagged block lies inside the small image
        for anomalies in ([(1, 1)], [(0, 0), (2, 1)], []):
            with pytest.raises(ValueError, match="^grid does not fit inside the image$"):
                highlight_anomalies(small, grid, mask_of(grid, anomalies))


class TestOutlineParts:
    @settings(max_examples=300, deadline=None)
    @given(outline_cases())
    @example((_ZEROS_9, _GRID_3X3, np.eye(3, dtype=bool), 200, 5))
    def test_joined_pieces_equal_per_anomaly_reference(self, case):
        img, grid, mask, value, thickness = case
        want = per_anomaly_highlight(img, grid, flagged_list(mask), value, thickness)
        assert b"".join(outline_parts(*case)) == want.pixels.tobytes()

    def test_unflagged_bands_are_views_of_the_source(self, rng):
        img = random_image(rng, 26, 20)  # two rows of edge strip below the grid
        grid = partition(img, 4, 5)
        mask = np.zeros((grid.n_rows, grid.n_cols), dtype=bool)
        mask[[1, 4], [0, 3]] = True
        pieces = list(outline_parts(img, grid, mask, 255, 1))
        assert len(pieces) == grid.n_rows + 1
        shared = [np.shares_memory(np.asarray(p), img.pixels) for p in pieces]
        assert shared == [True, False, True, True, False, True, True]
        assert np.array_equal(np.asarray(pieces[-1]), img.pixels[24:])

    def test_bad_mask_rejected(self, rng):
        img = random_image(rng, 8, 8)
        with pytest.raises(ValueError, match="does not match the 2x2 grid"):
            outline_parts(img, partition(img, 4, 4), np.ones((2, 3), dtype=bool))
        small = random_image(rng, 8, 8)
        grid = partition(random_image(rng, 12, 12), 4, 4)
        # the mask matches the grid, but the grid overhangs the image: checked
        # before any piece is made, whatever the mask flags
        for mask in (np.zeros((3, 3), dtype=bool), np.eye(3, dtype=bool)):
            with pytest.raises(ValueError, match="^grid does not fit inside the image$"):
                outline_parts(small, grid, mask)

    def test_peak_about_two_bands_on_1024_squared(self):
        img = GrayImage(np.random.default_rng(4).integers(0, 256, (1024, 1024), dtype=np.uint8))
        grid = partition(img, 8, 8)
        mask = np.ones((grid.n_rows, grid.n_cols), dtype=bool)
        band = grid.block_h * img.width
        # a writer that takes the pieces in turn, as the CLI's does
        _, peak = peak_bytes(lambda: collections.deque(outline_parts(img, grid, mask), maxlen=0))
        assert peak < 3 * band
