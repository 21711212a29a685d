"""Block partitioning, relative deviations, and conformance classification."""

import collections
import dataclasses
import json
import re
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from texelkit import blocks, stats
from texelkit import (
    BlockGrid,
    GrayImage,
    classify_blocks,
    estimate_periods,
    features_of_region,
    partition,
    random_texel,
    synthesize,
)

from conftest import anomalies_of, make_image, named, peak_bytes, random_image
from reference import one_bincount_features, per_block_classify, result_report


def named_deviations(local, reference, **kw) -> dict[str, float]:
    """deviation_matrix of one feature row, keyed by feature name."""
    return named(blocks.deviation_matrix(local, reference, **kw))


class TestPartition:
    def test_grid_shape_floor_division(self, rng):
        img = random_image(rng, 23, 31)
        grid = partition(img, 5, 7)
        assert (grid.n_rows, grid.n_cols) == (4, 4)
        assert (grid.block_h, grid.block_w) == (5, 7)

    def test_rects_tile_without_overlap(self, rng):
        img = random_image(rng, 12, 15)
        grid = partition(img, 4, 5)
        covered = np.zeros((12, 15), dtype=int)
        for i, j in np.ndindex(grid.n_rows, grid.n_cols):
            grid.block(covered, i, j)[...] += 1
        assert covered.max() == 1 and covered.sum() == 12 * 15

    def test_edge_strips_excluded_from_grid(self, rng):
        img = random_image(rng, 10, 10)
        grid = partition(img, 3, 4)
        assert (grid.n_rows, grid.n_cols) == (3, 2)
        assert grid.blocks(img.pixels).shape == (3, 3, 2, 4)
        assert np.array_equal(grid.block(img.pixels, 2, 1), img.pixels[6:9, 4:8])

    def test_block_larger_than_image_rejected(self, rng):
        img = random_image(rng, 8, 8)
        with pytest.raises(ValueError):
            partition(img, 9, 4)
        with pytest.raises(ValueError):
            partition(img, 0, 4)

    @pytest.mark.parametrize("block_w", [0, 9])
    def test_block_width_outside_image_rejected(self, rng, block_w):
        img = random_image(rng, 8, 8)
        with pytest.raises(ValueError, match=rf"^block width {block_w} outside 1\.\.8$"):
            partition(img, 4, block_w)

    @pytest.mark.parametrize("n_rows, n_cols", [(0, 3), (3, 0)])
    def test_grid_without_a_whole_block_rejected(self, n_rows, n_cols):
        with pytest.raises(ValueError, match="^grid must contain at least one whole block$"):
            BlockGrid(block_h=2, block_w=2, n_rows=n_rows, n_cols=n_cols)

    def test_rect_index_bounds(self, rng):
        img = random_image(rng, 8, 8)
        grid = partition(img, 4, 4)
        for i, j in [(2, 0), (0, 2), (0, -1), (-1, 0), (-1, -1)]:
            with pytest.raises(ValueError, match=rf"^block \({i}, {j}\) outside 2x2 grid$"):
                grid.block(img.pixels, i, j)


class TestDeviation:
    def test_hand_computed(self):
        local = features_of_region(make_image([[10, 20], [10, 20]]))
        ref = features_of_region(make_image([[10, 30], [10, 30]]))
        devs = named_deviations(local, ref)
        assert devs["mean"] == pytest.approx(abs(15 - 20) / 20)
        assert devs["variance"] == pytest.approx(abs(25 - 100) / 100)

    def test_identical_features_give_zero(self, rng):
        f = features_of_region(random_image(rng, 6, 6))
        assert set(named_deviations(f, f).values()) == {0.0}

    def test_epsilon_guards_zero_denominator(self):
        # constant reference: variance 0, deviation divides by epsilon
        ref = features_of_region(make_image([[50, 50], [50, 50]]))
        local = features_of_region(make_image([[50, 54], [50, 54]]))
        devs = named_deviations(local, ref, epsilon=1e-6)
        assert devs["variance"] == pytest.approx(4.0 / 1e-6)
        assert devs["mean"] == pytest.approx(2.0 / 50.0)

    def test_symmetric_reference_blows_up_skewness(self):
        # a gray-symmetric reference has skewness ~0; any skewed local
        # block then shows an enormous relative deviation
        ref = features_of_region(make_image([[0, 255], [255, 0]]))
        local = features_of_region(make_image([[0, 0], [0, 255]]))
        assert named_deviations(local, ref)["skewness"] > 1e6


def _strips(h, w, block_h, block_w):
    """A noise image of h x w pixels and a block size."""
    pixels = np.random.default_rng(h * w).integers(0, 256, (h, w), dtype=np.uint8)
    return GrayImage(pixels), block_h, block_w


@st.composite
def strip_cases(draw):
    """An image and a block size, so the grid may leave a strip of any width
    below it, right of it, both or neither."""
    h, w = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    pixels = draw(hnp.arrays(np.uint8, (h, w)))
    return GrayImage(pixels), draw(st.integers(1, h)), draw(st.integers(1, w))


class TestClassifyBlocks:
    def test_exact_tiling_all_conforming(self):
        texel = random_texel(6, 5, seed=8)
        img = synthesize(texel, 5 * 7, 6 * 7)
        grid = partition(img, 6, 5)
        res = classify_blocks(img, grid, threshold=0.02)
        assert anomalies_of(res) == []
        assert res.representative == (0, 0)
        assert res.conforming.all() and (res.max_deviation == 0.0).all()

    def test_representative_minimizes_max_deviation(self, rng):
        img = random_image(rng, 24, 24)
        grid = partition(img, 6, 6)
        # huge threshold so every block conforms and the minimizer is free
        res = classify_blocks(img, grid, threshold=1e9)
        i, j = res.representative
        assert res.max_deviation[i * grid.n_cols + j] == res.max_deviation.min()

    def test_representative_tie_breaks_row_major(self):
        # two identical halves: every block has identical deviations, so
        # the scan order decides and (0, 0) wins
        texel = random_texel(4, 4, seed=5)
        img = synthesize(texel, 8, 8)
        grid = partition(img, 4, 4)
        res = classify_blocks(img, grid, threshold=1.0)
        assert res.representative == (0, 0)

    def test_anomalies_and_conforming_partition_the_grid(self, rng):
        img = random_image(rng, 30, 30)
        grid = partition(img, 6, 6)
        res = classify_blocks(img, grid, threshold=0.05)
        conforming = {divmod(k, grid.n_cols) for k in np.flatnonzero(res.conforming).tolist()}
        anomalous = set(anomalies_of(res))
        assert conforming | anomalous == set(np.ndindex(grid.n_rows, grid.n_cols))
        assert conforming & anomalous == set()
        assert res.conforming.tolist() == (res.max_deviation <= res.threshold).tolist()

    def test_threshold_monotonicity(self, rng):
        img = random_image(rng, 30, 30)
        grid = partition(img, 5, 5)
        loose = classify_blocks(img, grid, threshold=0.10)
        tight = classify_blocks(img, grid, threshold=0.02)
        conforming_loose = set(np.flatnonzero(loose.conforming).tolist())
        conforming_tight = set(np.flatnonzero(tight.conforming).tolist())
        assert conforming_tight <= conforming_loose

    def test_no_conforming_block(self):
        top = np.full((4, 8), 10, dtype=np.uint8)
        bot = np.full((4, 8), 30, dtype=np.uint8)
        img = GrayImage(np.vstack([top, bot]))
        grid = partition(img, 4, 8)
        res = classify_blocks(img, grid, threshold=0.001)
        assert res.representative is None
        assert set(anomalies_of(res)) == {(0, 0), (1, 0)}

    @settings(max_examples=100, deadline=None)
    @given(strip_cases())
    @example(_strips(12, 12, 3, 4))  # no edge strip
    @example(_strips(12, 14, 3, 4))  # a right strip only
    @example(_strips(13, 12, 3, 4))  # a bottom strip only
    @example(_strips(10, 10, 3, 3))  # both: the 9x9 grid drops an L-shaped strip
    @example(_strips(10, 13, 3, 4))  # both, 1 px wide
    @example(_strips(7, 9, 5, 6))  # a one-block grid and both strips
    def test_global_features_include_edge_strips(self, case):
        # the grid's counts plus the strips' cover every pixel once: the
        # global row is that of one bincount over the whole image
        img, block_h, block_w = case
        want = one_bincount_features(img.pixels).view(np.uint64)
        for budget in (1, stats._CHUNK_BYTES):
            with chunked(budget):
                res = classify_blocks(img, partition(img, block_h, block_w), threshold=0.1)
            assert np.array_equal(res.global_features.view(np.uint64), want)

    def test_zero_threshold_boundary(self, rng):
        # exact tilings still conform at threshold 0 (deviations are 0);
        # a noisy image has none
        texel = random_texel(4, 4, seed=3)
        tiled = synthesize(texel, 16, 16)
        res = classify_blocks(tiled, partition(tiled, 4, 4), threshold=0.0)
        assert res.representative == (0, 0) and anomalies_of(res) == []
        noisy = random_image(rng, 16, 16)
        res = classify_blocks(noisy, partition(noisy, 4, 4), threshold=0.0)
        assert res.representative is None

    def test_negative_threshold_rejected(self, rng):
        img = random_image(rng, 8, 8)
        grid = partition(img, 4, 4)
        with pytest.raises(ValueError):
            classify_blocks(img, grid, threshold=-0.1)

    @pytest.mark.parametrize(
        "threshold, epsilon",
        [(float("nan"), 1e-6), (float("inf"), 1e-6), (0.1, float("nan")), (0.1, float("inf"))],
    )
    def test_non_finite_threshold_or_epsilon_rejected(self, threshold, epsilon):
        flat = GrayImage(np.full((8, 8), 7, dtype=np.uint8))
        with pytest.raises(ValueError):
            classify_blocks(flat, partition(flat, 4, 4), threshold, epsilon)


class TestResultSerialization:
    def test_to_dict_schema(self, rng):
        img = random_image(rng, 12, 12)
        res = classify_blocks(img, partition(img, 4, 4), threshold=0.05)
        d = res.to_dict()
        assert list(d) == [
            "grid", "threshold", "epsilon", "global", "representative", "blocks",
        ]
        assert list(d["blocks"][0]) == [
            "index", "features", "deviations", "max_deviation", "conforming",
        ]
        # every key in order and every value to the last bit
        assert json.dumps(d) == json.dumps(result_report(res))


@st.composite
def grid_cases(draw):
    """Image, grid and block rows per chunk.

    Pixels are random, drawn from a few levels (many ties between blocks), or
    a tiling of one random tile (exact zero deviations). Block sides run from
    1 to the image sides, so 1x1 blocks and single-block grids occur.
    """
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["random", "levels", "tiled"]))
    if kind == "random":
        pixels = draw(hnp.arrays(np.uint8, (h, w)))
    elif kind == "levels":
        levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=3))
        pixels = np.array(levels, dtype=np.uint8)[
            draw(hnp.arrays(np.intp, (h, w), elements=st.integers(0, len(levels) - 1)))
        ]
    else:
        th, tw = draw(st.integers(1, h)), draw(st.integers(1, w))
        tile = draw(hnp.arrays(np.uint8, (th, tw)))
        pixels = np.tile(tile, (-(-h // th), -(-w // tw)))[:h, :w]
    img = GrayImage(pixels)
    grid = partition(img, draw(st.integers(1, h)), draw(st.integers(1, w)))
    if grid.block_h > 1 and draw(st.booleans()):
        return img, grid, pixel_rows_budget(grid, draw(st.integers(1, grid.block_h - 1)))
    if grid.n_cols > 1 and draw(st.booleans()):
        return img, grid, blocks_budget(grid, draw(st.integers(1, grid.n_cols - 1)))
    return img, grid, block_rows_budget(grid, draw(st.integers(1, grid.n_rows)))


def blocks_budget(grid, blocks):
    """stats._CHUNK_BYTES at which stats.block_features counts this many
    whole blocks per bincount: whole block rows when it is a multiple of
    n_cols, else runs of whole blocks within one block row."""
    per_block = 8 * max(grid.block_h * grid.block_w + 256, stats._LEVEL_ARRAYS * 256)
    return blocks * per_block


def block_rows_budget(grid, rows):
    """stats._CHUNK_BYTES at which stats.block_features counts this many
    block rows per bincount."""
    return blocks_budget(grid, rows * grid.n_cols)


def pixel_rows_budget(grid, rows):
    """stats._CHUNK_BYTES at which stats.block_features counts each block
    on its own, in runs of this many pixel rows (fewer than block_h)."""
    return rows * 8 * grid.block_w


def chunked(budget):
    """Patch the working-set budget of stats.block_features."""
    return mock.patch.object(stats, "_CHUNK_BYTES", budget)


_NOISE = GrayImage(np.random.default_rng(7).integers(0, 256, (12, 10), dtype=np.uint8))


def _case(block_h, block_w, budget_of, rows, img=_NOISE):
    grid = partition(img, block_h, block_w)
    return img, grid, budget_of(grid, rows)


_CASES = {
    "1x1 blocks, runs of 5 block rows": _case(1, 1, block_rows_budget, 5),
    "one block": _case(12, 10, block_rows_budget, 1),
    "6 block rows: runs of 4 and 2": _case(2, 3, block_rows_budget, 4),
    "3 rows of 5 blocks: runs of 2, 2 and 1 blocks": _case(4, 2, blocks_budget, 2),
    "one block: runs of 5, 5 and 2 pixel rows": _case(12, 10, pixel_rows_budget, 5),
    "2x2 blocks of 6x5: runs of 4 and 2 pixel rows": _case(6, 5, pixel_rows_budget, 4),
}


class TestWholeGrid:
    @settings(max_examples=200, deadline=None)
    @given(grid_cases())
    @example(_CASES["1x1 blocks, runs of 5 block rows"])
    @example(_CASES["one block"])
    @example(_CASES["6 block rows: runs of 4 and 2"])
    @example(_CASES["3 rows of 5 blocks: runs of 2, 2 and 1 blocks"])
    @example(_CASES["one block: runs of 5, 5 and 2 pixel rows"])
    @example(_CASES["2x2 blocks of 6x5: runs of 4 and 2 pixel rows"])
    def test_block_features_equal_single_region(self, case):
        img, grid, budget = case
        with chunked(budget):
            feats = stats.block_features(grid.blocks(img.pixels))
        assert feats.shape == (grid.n_rows * grid.n_cols, 6)
        expected = np.array([one_bincount_features(grid.block(img.pixels, i, j))
                             for i, j in np.ndindex(grid.n_rows, grid.n_cols)])
        assert np.array_equal(feats.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("name, calls", [
        ("6 block rows: runs of 4 and 2", [(4 * 3 * 6, 4 * 3 * 256), (2 * 3 * 6, 2 * 3 * 256)]),
        ("3 rows of 5 blocks: runs of 2, 2 and 1 blocks",
         [(2 * 8, 2 * 256), (2 * 8, 2 * 256), (8, 256)] * 3),
        ("one block: runs of 5, 5 and 2 pixel rows", [(50, 256), (50, 256), (20, 256)]),
        # each block on its own, in runs of 4 and 2 of its 6 pixel rows
        ("2x2 blocks of 6x5: runs of 4 and 2 pixel rows", [(20, 256), (10, 256)] * 4),
    ])
    def test_budget_sets_the_runs(self, name, calls):
        img, grid, budget = _CASES[name]
        seen, real = [], np.bincount

        def bincount(ids, minlength):
            seen.append((ids.size, minlength))
            return real(ids, minlength=minlength)

        with chunked(budget), mock.patch.object(stats.np, "bincount", bincount):
            stats.block_features(grid.blocks(img.pixels))
        assert seen == calls

    @settings(max_examples=200, deadline=None)
    @given(
        grid_cases(),
        st.sampled_from([0.0, 0.02, 0.1, 0.5, 1e9]),
        st.sampled_from([1e-6, 1e-2, 1e-320]),
    )
    @example(_CASES["1x1 blocks, runs of 5 block rows"], 0.5, 1e-6)
    @example(_CASES["one block"], 0.0, 1e-6)
    # half 0s and half 1s: the global skewness is exactly 0.0, so the 1x3
    # block's skewness deviation overflows at epsilon 1e-320
    @example(_case(1, 3, block_rows_budget, 1, GrayImage([[0, 1, 0, 1]])), 0.0, 1e-320)
    def test_classification_equals_per_block_loop(self, case, threshold, epsilon):
        img, grid, budget = case
        want = per_block_classify(img, grid, threshold, epsilon)
        if not np.isfinite(want.max_deviation).all():
            with chunked(budget), pytest.raises(ValueError, match="^a relative deviation "
                                                f"overflowed: epsilon {epsilon!r} is too small$"):
                classify_blocks(img, grid, threshold, epsilon)
            return
        with chunked(budget):
            res = classify_blocks(img, grid, threshold, epsilon)
        assert anomalies_of(res) == want.anomalies
        assert res.representative == want.representative
        assert res.max_deviation.tolist() == want.max_deviation

    def test_result_arrays_are_read_only(self, rng):
        img = random_image(rng, 8, 8)
        res = classify_blocks(img, partition(img, 4, 4), threshold=0.1)
        for arr in (res.features, res.max_deviation, res.conforming):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_overflowing_deviation_is_inf(self):
        # global skewness is exactly 0, so epsilon alone divides a skewed block
        img = make_image([[0, 0, 0, 255], [255, 255, 255, 0]])
        glob = features_of_region(img)
        assert named(glob)["skewness"] == 0.0
        feats = stats.block_features(partition(img, 1, 4).blocks(img.pixels))
        devs = blocks.deviation_matrix(feats, glob, epsilon=1e-320)
        assert devs.max(axis=1).tolist() == [float("inf")] * 2
        # a result holding it could not be written as strict JSON
        with pytest.raises(ValueError, match="^a relative deviation overflowed: "
                                             "epsilon 1e-320 is too small$"):
            classify_blocks(img, partition(img, 1, 4), threshold=0.1, epsilon=1e-320)

    def test_result_whose_derived_deviation_overflows_is_refused(self):
        # against global features of 1.0 every deviation is finite, but
        # against zeros the skewness deviation 1e305 / 1e-6 is not
        features = np.zeros((1, 6))
        features[0, 2] = 1e305
        res = result_of(1, 1, features)
        with pytest.raises(ValueError, match="^a relative deviation overflowed: "
                                             "epsilon 1e-06 is too small$"):
            dataclasses.replace(res, global_features=np.zeros(6))

    def test_grid_outside_image_rejected(self, rng):
        small = random_image(rng, 8, 8)
        grid = partition(random_image(rng, 12, 12), 4, 4)
        with pytest.raises(ValueError, match="^grid does not fit inside the image$"):
            classify_blocks(small, grid, threshold=0.1)

    @pytest.mark.parametrize("shape, block", [
        ((1024, 1024), (8, 8)),
        # bin ids of 480 pixels a block, more than its three level arrays
        ((960, 960), (24, 20)),
        # one block row of 2048 blocks, about 40 budgets if it were counted in one run
        ((4, 4096), (2, 2)),
        # one block over budget, counted in runs of pixel rows as features_of_region counts
        ((1024, 1024), (1024, 1024)),
    ], ids=["1024x1024 in 8x8 blocks", "960x960 in 24x20 blocks", "4x4096 in 2x2 blocks",
            "1024x1024 as one block"])
    def test_block_features_peak_within_budget(self, shape, block):
        # a run's bin ids share its work buffer, so a run holds one budget
        pixels = np.random.default_rng(3).integers(0, 256, shape, dtype=np.uint8)
        view = partition(GrayImage(pixels), *block).blocks(pixels)
        feats, peak = peak_bytes(stats.block_features, view)
        assert peak <= feats.nbytes + stats._CHUNK_BYTES + 32 * 1024

    @pytest.mark.parametrize("shape, block", [
        ((504, 504), (14, 12)),
        # a right strip of 6 columns and a bottom strip of 5 rows
        ((1029, 1030), (8, 8)),
    ], ids=["504x504 in 14x12 blocks", "1029x1030 in 8x8 blocks"])
    def test_classify_blocks_peak_within_budget(self, shape, block):
        # the global row comes from the blocks' counts and the strips', with
        # no second pass over the image
        img = GrayImage(np.random.default_rng(3).integers(0, 256, shape, dtype=np.uint8))
        res, peak = peak_bytes(classify_blocks, img, partition(img, *block), 0.1)
        assert peak <= res.features.nbytes + stats._CHUNK_BYTES + 32 * 1024


def assert_verdict(res, want):
    """The result's derived fields equal per_block_classify's."""
    assert res.max_deviation.tolist() == want.max_deviation
    assert res.conforming.tolist() == want.conforming
    assert res.representative == want.representative


class TestDerivedVerdict:
    @settings(max_examples=100, deadline=None)
    @given(grid_cases(), st.sampled_from([0.0, 0.02, 0.1, 0.5, 1e9]), st.randoms())
    def test_replace_derives_the_verdict_again(self, case, threshold, random):
        img, grid, _ = case
        res = classify_blocks(img, grid, 0.1)
        want = per_block_classify(img, grid, threshold, res.epsilon)
        assert_verdict(dataclasses.replace(res, threshold=threshold), want)
        # the same blocks in another order: the image's histogram, and so its
        # global features, are unchanged, and each block keeps its features
        order = list(range(grid.n_rows * grid.n_cols))
        random.shuffle(order)
        pixels = img.pixels.copy()
        view = grid.blocks(pixels).transpose(0, 2, 1, 3)
        view[...] = view.reshape(-1, grid.block_h, grid.block_w)[order].reshape(view.shape)
        want = per_block_classify(GrayImage(pixels), grid, 0.1, res.epsilon)
        assert_verdict(dataclasses.replace(res, features=res.features[order]), want)

    @pytest.mark.parametrize("name", ["max_deviation", "conforming", "representative"])
    def test_derived_field_cannot_be_given(self, rng, name):
        img = random_image(rng, 8, 8)
        res = classify_blocks(img, partition(img, 4, 4), threshold=0.1)
        with pytest.raises(ValueError, match=f"^field {name} is declared with init=False"):
            dataclasses.replace(res, **{name: getattr(res, name)})
        with pytest.raises(TypeError):
            blocks.AnalysisResult(res.grid, res.global_features, res.features, 0.1, 1e-6,
                                  **{name: getattr(res, name)})

    def test_features_not_one_row_per_block_are_refused(self):
        with pytest.raises(ValueError, match=r"^features must have shape \(4, 6\), got \(3, 6\)$"):
            blocks.AnalysisResult(BlockGrid(1, 1, 2, 2), np.ones(6), np.zeros((3, 6)), 1.0, 1e-6)

    @pytest.mark.parametrize("name, cut, shape", [
        ("features", np.s_[:3], "(4, 6), got (3, 6)"),
        ("features", np.s_[:, :5], "(4, 6), got (4, 5)"),
        ("features", np.s_[None], "(4, 6), got (1, 4, 6)"),
        ("global_features", np.s_[:5], "(6,), got (5,)"),
        ("global_features", np.s_[None], "(6,), got (1, 6)"),
    ])
    def test_replace_with_another_shape_is_refused(self, rng, name, cut, shape):
        # refused before any deviation is derived, so before the report could fail
        img = random_image(rng, 8, 8)
        res = classify_blocks(img, partition(img, 4, 4), threshold=0.1)
        with mock.patch.object(blocks, "deviation_matrix") as spy, \
                pytest.raises(ValueError, match=f"^{name} must have shape {re.escape(shape)}$"):
            dataclasses.replace(res, **{name: getattr(res, name)[cut]})
        spy.assert_not_called()

    @pytest.mark.parametrize("rows_per_run", [1, 2, 5, 6])
    def test_one_deviation_matrix_per_run(self, rng, rows_per_run):
        # 5 block rows of 3 blocks, in runs of whole block rows; the last run
        # holds what is left
        img = random_image(rng, 10, 6)
        budget = rows_per_run * 3 * 13 * 8
        with mock.patch.object(blocks, "_REPORT_CHUNK_BYTES", budget), \
                mock.patch.object(blocks, "deviation_matrix", wraps=blocks.deviation_matrix) as spy:
            res = classify_blocks(img, partition(img, 2, 2), threshold=0.1)
        # each call's rows are a slice of the result's features: the run of
        # blocks from that slice's offset
        runs = []
        for call in spy.call_args_list:
            local = call.args[0]
            assert np.shares_memory(local, res.features)
            k0 = (local.ctypes.data - res.features.ctypes.data) // res.features.strides[0]
            runs.append((k0, k0 + len(local)))
        step = 3 * rows_per_run
        assert runs == [(k0, min(k0 + step, 15)) for k0 in range(0, 15, step)]


@st.composite
def block_values(draw):
    """Result of an n_rows x n_cols grid whose six features per block come
    from a small pool (so values repeat) that always holds both 0.0 and
    -0.0, at a threshold some blocks may pass, and block rows per report run."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
    k = n_rows * n_cols
    features = draw(hnp.arrays(np.float64, (k, 6), elements=st.sampled_from([0.0, -0.0, *pool])))
    threshold = draw(st.sampled_from([0.0, 1.0, 1e300]))
    return result_of(n_rows, n_cols, features, threshold), draw(st.integers(1, n_rows))


def result_of(n_rows, n_cols, features, threshold=1.0):
    """The result of these (blocks, 6) features; every global feature is
    1.0, so every derived deviation is |feature - 1.0|."""
    return blocks.AnalysisResult(
        grid=BlockGrid(block_h=1, block_w=1, n_rows=n_rows, n_cols=n_cols),
        global_features=np.ones(6),
        features=features,
        threshold=threshold,
        epsilon=1e-6,
    )


def report_runs(res, rows_per_run):
    """Patch the report budget so report_parts formats this many block rows
    at a time."""
    return mock.patch.object(blocks, "_REPORT_CHUNK_BYTES", rows_per_run * res.grid.n_cols * 13 * 8)


# a deviation of 0 where a feature is 1.0, and of 1.0 where it is 0.0 or -0.0
_SIGNED_ZEROS = np.array([[0.0, -0.0] * 3, [1.0, -0.0] * 3, [1.0] * 6, [-0.0] * 6])


class TestBlocksJson:
    """report_parts writes json.dumps of the report's dict form, nested
    under "analysis" when periods are given."""

    @settings(max_examples=200, deadline=None)
    @given(block_values(), st.sampled_from([None, {}, {"row_period": 1, "manual": True}]))
    @example((result_of(2, 2, _SIGNED_ZEROS, 0.5), 2), {"row_period": 1, "manual": True})
    @example((result_of(7, 3, np.tile(np.arange(6.0) / 3, (21, 1))), 2), None)
    def test_equals_json_dumps_of_dict_form(self, case, periods):
        res, rows_per_run = case
        with report_runs(res, rows_per_run):
            text = "".join(res.report_parts(periods))
        report = result_report(res)
        if periods is not None:
            report = {"periods": periods, "analysis": report}
        assert text == json.dumps(report, indent=2, allow_nan=False) + "\n"

    def test_default_budget_spans_several_runs(self):
        # one column of 700 blocks is more block rows than one run holds
        features = np.random.default_rng(3).integers(-4, 5, (700, 6)) / 4
        res = result_of(700, 1, features)
        assert 700 * 13 * 8 > blocks._REPORT_CHUNK_BYTES
        expected = json.dumps(result_report(res), indent=2, allow_nan=False) + "\n"
        assert "".join(res.report_parts()) == expected

    def test_report_peak_below_12_budgets(self):
        # a run frees its floats, their sort and its strings once they are
        # used, before the next run's strings are made
        img = GrayImage(np.random.default_rng(3).integers(0, 256, (1024, 1024), dtype=np.uint8))
        res = classify_blocks(img, partition(img, 8, 8), threshold=0.1)
        _, peak = peak_bytes(collections.deque, res.report_parts(), maxlen=0)
        assert peak < 12 * blocks._REPORT_CHUNK_BYTES

    @pytest.mark.parametrize("budget", [1, blocks._REPORT_CHUNK_BYTES], ids=["1-byte", "default"])
    def test_nested_parts_equal_dumps_of_to_dict(self, budget):
        img = GrayImage(np.random.default_rng(5).integers(0, 256, (40, 36), dtype=np.uint8))
        est = estimate_periods(img)
        res = classify_blocks(img, partition(img, 4, 3), threshold=0.5)
        periods = {**est.to_dict(), "manual": False}
        with mock.patch.object(blocks, "_REPORT_CHUNK_BYTES", budget):
            text = "".join(res.report_parts(periods))
        assert text == json.dumps({"periods": periods, "analysis": res.to_dict()}, indent=2) + "\n"


def _edges():
    """±1e-4 and ±1e16, where repr's notation changes, each with its float64
    neighbours on both sides."""
    for x in (1e-4, 1e16):
        for v in (np.nextafter(x, 0), x, np.nextafter(x, np.inf)):
            yield float(v)
            yield -float(v)


class TestFloatTexts:
    """_float_texts(a) is list(map(repr, a.tolist())), text for text."""

    @staticmethod
    def assert_repr(a):
        assert blocks._float_texts(a) == list(map(repr, a.tolist()))

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 40),
                      elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    @example(np.array([*_edges(), -0.0, 0.0, 5e-324, -5e-324, np.finfo(np.float64).max]))
    @example(np.array([np.nan, np.inf, -np.inf, 1e-5, 1e21, 123456.789]))
    @example(np.empty(0))
    def test_floats(self, a):
        self.assert_repr(a)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.uint64, st.integers(0, 40)))
    def test_bit_patterns(self, bits):
        # every float64, subnormals and nan payloads included
        self.assert_repr(bits.view(np.float64))

    def test_strided_column(self):
        a = np.array([[-1.5, 1e-7], [2.0 / 3, 1e16], [0.1, -0.0]])
        assert not a[:, 1].flags.c_contiguous
        self.assert_repr(a[:, 1])
        self.assert_repr(a[::-1, 0])
