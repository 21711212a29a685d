"""First-order statistics against a per-pixel reference and closed forms."""

import math
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from texelkit import stats
from texelkit import (
    FEATURE_NAMES,
    GrayImage,
    classify_blocks,
    features_of_region,
    partition,
)

from conftest import features_close, make_image, named, peak_bytes, random_image
from reference import direct_feature_matrix, one_bincount_features, pixel_loop_features


class TestClosedForms:
    def test_single_level_region(self):
        img = make_image([[77] * 4] * 3)
        f = named(features_of_region(img))
        assert f["mean"] == 77.0
        assert f["variance"] == 0.0 and f["skewness"] == 0.0 and f["kurtosis"] == 0.0
        assert f["energy"] == 1.0 and f["entropy"] == 0.0
        # entropy must be a clean zero, not -0.0
        assert math.copysign(1.0, f["entropy"]) == 1.0

    def test_uniform_histogram(self):
        img = GrayImage(np.arange(256, dtype=np.uint8).reshape(16, 16))
        f = named(features_of_region(img))
        assert f["entropy"] == 8.0
        assert f["energy"] == pytest.approx(1 / 256, rel=1e-15)
        assert f["mean"] == 127.5

    def test_two_level_extremes(self):
        img = make_image([[0, 255], [255, 0]])
        f = named(features_of_region(img))
        assert f["mean"] == 127.5
        assert f["variance"] == 127.5**2
        assert f["skewness"] == 0.0
        assert f["kurtosis"] == 127.5**4
        assert f["energy"] == 0.5 and f["entropy"] == 1.0


class TestAgainstPixelLoop:
    def test_random_images(self, rng):
        for _ in range(60):
            h = int(rng.integers(1, 40))
            w = int(rng.integers(1, 40))
            img = random_image(rng, h, w)
            assert features_close(features_of_region(img), pixel_loop_features(img))

    def test_random_regions(self, rng):
        img = random_image(rng, 32, 32)
        for _ in range(25):
            w = int(rng.integers(1, 16))
            h = int(rng.integers(1, 16))
            x0 = int(rng.integers(0, 32 - w + 1))
            y0 = int(rng.integers(0, 32 - h + 1))
            region = GrayImage(img.pixels[y0 : y0 + h, x0 : x0 + w])
            assert features_close(features_of_region(region), pixel_loop_features(region))


class TestInvariants:
    def test_gray_shift_covariance(self, rng):
        # adding a constant shifts the mean and leaves central moments,
        # energy, and entropy unchanged
        for _ in range(10):
            base = rng.integers(0, 200, size=(9, 7), dtype=np.uint8)
            shift = int(rng.integers(1, 56))
            f0 = named(features_of_region(GrayImage(base)))
            f1 = named(features_of_region(GrayImage(base + shift)))
            assert math.isclose(f1["mean"], f0["mean"] + shift, rel_tol=1e-12)
            for name in ("variance", "skewness", "kurtosis", "energy", "entropy"):
                a, b = f0[name], f1[name]
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)

    def test_mirror_antisymmetry(self, rng):
        # reflecting gray levels (v -> 255-v) negates skewness and keeps
        # the even moments, energy, and entropy
        for _ in range(10):
            base = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
            f0 = named(features_of_region(GrayImage(base)))
            f1 = named(features_of_region(GrayImage(255 - base)))
            assert math.isclose(f1["mean"], 255 - f0["mean"], rel_tol=1e-12)
            assert math.isclose(f1["skewness"], -f0["skewness"], rel_tol=1e-9, abs_tol=1e-6)
            for name in ("variance", "kurtosis", "energy", "entropy"):
                a, b = f0[name], f1[name]
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)

    def test_entropy_bounds(self, rng):
        for _ in range(20):
            img = random_image(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)))
            f = named(features_of_region(img))
            assert 0.0 <= f["entropy"] <= 8.0
            assert 0.0 < f["energy"] <= 1.0


class TestFeatureRow:
    def test_read_only_row_of_six(self, rng):
        f = features_of_region(random_image(rng, 4, 4))
        assert (f.ndim, f.shape, f.dtype) == (1, (len(FEATURE_NAMES),), np.float64)
        with pytest.raises(ValueError):
            f[0] = 0.0

    def test_report_names_the_row_in_order(self, rng):
        img = random_image(rng, 4, 4)
        res = classify_blocks(img, partition(img, 2, 2), threshold=0.1)
        report = res.to_dict()
        assert list(report["global"]) == list(FEATURE_NAMES)
        assert list(report["global"].values()) == res.global_features.tolist()


@st.composite
def count_rows(draw):
    """(m, 256) gray-level counts of m regions of n pixels each, drawn from
    a few or many levels."""
    pool = draw(st.lists(st.integers(0, 255), min_size=1, max_size=256))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 300))
    return np.array([
        np.bincount(draw(hnp.arrays(np.uint8, n, elements=st.sampled_from(pool))), minlength=256)
        for _ in range(m)
    ])


def log2_argument_shape(counts: np.ndarray, n: int) -> tuple[int, ...]:
    """Shape of the array feature_matrix(counts, n) takes log2 of: (n + 1,)
    on the per-count table path, counts.shape on the direct path."""
    with mock.patch.object(stats.np, "log2", wraps=np.log2) as log2:
        stats.feature_matrix(counts, n)
    (args, _), = log2.call_args_list
    return args[0].shape


def one_hot(m: int, n: int, level: int) -> np.ndarray:
    counts = np.zeros((m, 256), dtype=np.int64)
    counts[:, level] = n
    return counts


class TestPerCountTables:
    @settings(max_examples=300, deadline=None)
    @given(count_rows())
    @example(one_hot(3, 1, 0))  # n = 1
    @example(one_hot(1, 64, 200))  # one single-level row
    @example(one_hot(1, 255, 9))  # n + 1 == counts.size: the largest table
    def test_uniform_n_is_bit_identical_to_direct_formula(self, counts):
        n = int(counts[0].sum())
        got = stats.feature_matrix(counts, n)
        assert np.array_equal(got.view(np.uint64), direct_feature_matrix(counts).view(np.uint64))
        table = n + 1 <= counts.size
        assert log2_argument_shape(counts, n) == ((n + 1,) if table else counts.shape)

    def test_large_single_row_takes_direct_path(self):
        counts = one_hot(1, 256, 3)
        assert log2_argument_shape(counts, 256) == counts.shape

    @pytest.mark.parametrize("n", [64, 10**6], ids=["table", "direct"])
    def test_peak_within_four_level_arrays(self, n):
        # three float64 arrays the size of the counts, which block_features
        # budgets as _LEVEL_ARRAYS with the counts themselves
        counts = np.random.default_rng(5).multinomial(n, [1 / 256] * 256, size=128)
        assert (n + 1 <= counts.size) == (n == 64)
        out, peak = peak_bytes(stats.feature_matrix, counts, n)
        assert stats._LEVEL_ARRAYS == 4
        assert peak < 4 * counts.nbytes + out.nbytes

    def test_work_buffer_is_used_in_place(self):
        counts = np.random.default_rng(5).multinomial(64, [1 / 256] * 256, size=128)
        work = np.empty((3, counts.size + 256))
        want = stats.feature_matrix(counts, 64)
        got, peak = peak_bytes(stats.feature_matrix, counts, 64, work)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # numpy's broadcasting buffers and the small tables, but no level array
        assert peak < counts.nbytes


_NOISE_1024 = GrayImage(np.random.default_rng(3).integers(0, 256, (1024, 1024), dtype=np.uint8))


@st.composite
def chunked_regions(draw):
    """A region sliced from a random image, and its rows per histogram chunk."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    pixels = draw(hnp.arrays(np.uint8, (h, w)))
    rh, rw = draw(st.integers(1, h)), draw(st.integers(1, w))
    y0, x0 = draw(st.integers(0, h - rh)), draw(st.integers(0, w - rw))
    return GrayImage(pixels[y0 : y0 + rh, x0 : x0 + rw]), draw(st.integers(1, rh))


class TestChunkedCounts:
    @settings(max_examples=200, deadline=None)
    @given(chunked_regions())
    def test_equals_one_bincount(self, case):
        region, rows_per_chunk = case
        with mock.patch.object(stats, "_CHUNK_BYTES", rows_per_chunk * 8 * region.width):
            got = features_of_region(region)
        assert np.array_equal(got.view(np.uint64), one_bincount_features(region.pixels).view(np.uint64))

    def test_default_budget_spans_several_chunks(self):
        img = _NOISE_1024
        assert 1024 * 1024 * 8 > 4 * stats._CHUNK_BYTES
        got = features_of_region(img)
        assert np.array_equal(got.view(np.uint64), one_bincount_features(img.pixels).view(np.uint64))

    def test_peak_below_2_mb_on_1024_squared(self):
        _, peak = peak_bytes(features_of_region, _NOISE_1024)
        assert peak < 2 * 10**6
