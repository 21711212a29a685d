"""Block partitioning, relative deviations, and conformance classification."""

import json
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
    Rect,
    classify_blocks,
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
            r = grid.rect(i, j)
            covered[r.y0 : r.y0 + r.h, r.x0 : r.x0 + r.w] += 1
        assert covered.max() == 1 and covered.sum() == 12 * 15

    def test_edge_strips_excluded_from_grid(self, rng):
        img = random_image(rng, 10, 10)
        grid = partition(img, 3, 4)
        assert (grid.n_rows, grid.n_cols) == (3, 2)
        last = grid.rect(2, 1)
        assert last.y0 + last.h == 9 and last.x0 + last.w == 8

    def test_block_larger_than_image_rejected(self, rng):
        img = random_image(rng, 8, 8)
        with pytest.raises(ValueError):
            partition(img, 9, 4)
        with pytest.raises(ValueError):
            partition(img, 0, 4)

    def test_rect_index_bounds(self, rng):
        grid = partition(random_image(rng, 8, 8), 4, 4)
        with pytest.raises(ValueError):
            grid.rect(2, 0)
        with pytest.raises(ValueError):
            grid.rect(0, -1)


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

    def test_global_features_include_edge_strips(self, rng):
        # 10x10 image, 3x3 blocks: the 9x9 grid drops an L-shaped strip,
        # but global stats still cover all 100 pixels
        img = random_image(rng, 10, 10)
        grid = partition(img, 3, 3)
        res = classify_blocks(img, grid, threshold=0.1)
        want = features_of_region(img)
        assert np.array_equal(res.global_features.view(np.uint64), want.view(np.uint64))

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
    return img, grid, block_rows_budget(grid, draw(st.integers(1, grid.n_rows)))


def block_rows_budget(grid, rows):
    """stats._CHUNK_BYTES at which stats.block_features counts this many
    block rows per bincount."""
    per_block = 8 * max(grid.block_h * grid.block_w + 256, stats._LEVEL_ARRAYS * 256)
    return rows * grid.n_cols * per_block


def pixel_rows_budget(grid, rows):
    """stats._CHUNK_BYTES at which stats.block_features splits each block
    row into runs of this many pixel rows (fewer than block_h)."""
    return rows * 8 * grid.n_cols * grid.block_w


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
    "one block: runs of 5, 5 and 2 pixel rows": _case(12, 10, pixel_rows_budget, 5),
    "2x2 blocks of 6x5: runs of 4 and 2 pixel rows": _case(6, 5, pixel_rows_budget, 4),
}


class TestWholeGrid:
    @settings(max_examples=200, deadline=None)
    @given(grid_cases())
    @example(_CASES["1x1 blocks, runs of 5 block rows"])
    @example(_CASES["one block"])
    @example(_CASES["6 block rows: runs of 4 and 2"])
    @example(_CASES["one block: runs of 5, 5 and 2 pixel rows"])
    @example(_CASES["2x2 blocks of 6x5: runs of 4 and 2 pixel rows"])
    def test_block_features_equal_single_region(self, case):
        img, grid, budget = case
        with chunked(budget):
            feats = stats.block_features(img.pixels, grid.block_h, grid.block_w)
        assert feats.shape == (grid.n_rows * grid.n_cols, 6)
        expected = np.array([one_bincount_features(img, grid.rect(i, j))
                             for i, j in np.ndindex(grid.n_rows, grid.n_cols)])
        assert np.array_equal(feats.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("name, calls", [
        ("6 block rows: runs of 4 and 2", [(4 * 3 * 6, 4 * 3 * 256), (2 * 3 * 6, 2 * 3 * 256)]),
        ("one block: runs of 5, 5 and 2 pixel rows", [(50, 256), (50, 256), (20, 256)]),
        ("2x2 blocks of 6x5: runs of 4 and 2 pixel rows",
         [(40, 512), (20, 512), (40, 512), (20, 512)]),
    ])
    def test_budget_sets_the_runs(self, name, calls):
        img, grid, budget = _CASES[name]
        seen, real = [], np.bincount

        def bincount(ids, minlength):
            seen.append((ids.size, minlength))
            return real(ids, minlength=minlength)

        with chunked(budget), mock.patch.object(stats.np, "bincount", bincount):
            stats.block_features(img.pixels, grid.block_h, grid.block_w)
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
        for arr in (res.features, res.deviations, res.max_deviation, res.conforming):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_overflowing_deviation_is_inf(self):
        # global skewness is exactly 0, so epsilon alone divides a skewed block
        img = make_image([[0, 0, 0, 255], [255, 255, 255, 0]])
        glob = features_of_region(img)
        assert named(glob)["skewness"] == 0.0
        feats = stats.block_features(img.pixels, 1, 4)
        devs = blocks.deviation_matrix(feats, glob, epsilon=1e-320)
        assert devs.max(axis=1).tolist() == [float("inf")] * 2
        # a result holding it could not be written as strict JSON
        with pytest.raises(ValueError, match="^a relative deviation overflowed: "
                                             "epsilon 1e-320 is too small$"):
            classify_blocks(img, partition(img, 1, 4), threshold=0.1, epsilon=1e-320)

    def test_grid_outside_image_rejected(self, rng):
        small = random_image(rng, 8, 8)
        grid = partition(random_image(rng, 12, 12), 4, 4)
        with pytest.raises(ValueError, match="^grid does not fit inside the image$"):
            classify_blocks(small, grid, threshold=0.1)

    def test_block_features_peak_below_4_mb_on_1024_squared(self):
        img = GrayImage(np.random.default_rng(3).integers(0, 256, (1024, 1024), dtype=np.uint8))
        grid = partition(img, 8, 8)
        _, peak = peak_bytes(stats.block_features, img.pixels, grid.block_h, grid.block_w)
        assert peak < 4 * 10**6


@st.composite
def block_values(draw):
    """Result of an n_rows x n_cols grid whose 13 floats per block come from a
    small pool (so values repeat) that always holds both 0.0 and -0.0, and
    block rows per report run."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
    k = n_rows * n_cols
    values = draw(hnp.arrays(np.float64, (k, 13), elements=st.sampled_from([0.0, -0.0, *pool])))
    conforming = draw(hnp.arrays(np.bool_, k))
    return result_of(n_rows, n_cols, values, conforming), draw(st.integers(1, n_rows))


def result_of(n_rows, n_cols, values, conforming):
    return blocks.AnalysisResult(
        grid=BlockGrid(block_h=1, block_w=1, n_rows=n_rows, n_cols=n_cols),
        global_features=np.ones(6),
        features=values[:, :6].copy(),
        deviations=values[:, 6:12].copy(),
        max_deviation=values[:, 12].copy(),
        conforming=conforming,
        threshold=0.1,
        epsilon=1e-6,
        representative=None,
    )


def report_runs(res, rows_per_run):
    """Patch the report budget so blocks_json formats this many block rows
    at a time."""
    return mock.patch.object(blocks, "_REPORT_CHUNK_BYTES", rows_per_run * res.grid.n_cols * 13 * 8)


_SIGNED_ZEROS = np.array([[0.0, -0.0] * 6 + [-0.0]] * 4)


class TestBlocksJson:
    @settings(max_examples=200, deadline=None)
    @given(block_values(), st.sampled_from(["", "  ", "    "]))
    @example((result_of(2, 2, _SIGNED_ZEROS, np.array([True, False] * 2)), 2), "  ")
    @example((result_of(7, 3, np.tile(np.arange(13.0) / 3, (21, 1)), np.ones(21, bool)), 2), "")
    def test_equals_json_dumps_of_dict_form(self, case, pad):
        res, rows_per_run = case
        with report_runs(res, rows_per_run):
            text = "".join(res.blocks_json(pad))
        expected = json.dumps(result_report(res)["blocks"], indent=2, allow_nan=False)
        assert text == expected.replace("\n", "\n" + pad)

    def test_default_budget_spans_several_runs(self):
        # one column of 700 blocks is more block rows than one run holds
        values = np.random.default_rng(3).integers(-4, 5, (700, 13)) / 4
        res = result_of(700, 1, values, values[:, 12] <= 0)
        assert 700 * 13 * 8 > blocks._REPORT_CHUNK_BYTES
        expected = json.dumps(result_report(res)["blocks"], indent=2, allow_nan=False)
        assert "".join(res.blocks_json("")) == expected
