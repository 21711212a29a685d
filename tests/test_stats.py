"""First-order statistics against a per-pixel reference and closed forms."""

import math

import numpy as np
import pytest

from texelkit import (
    FEATURE_NAMES,
    GrayImage,
    Rect,
    features,
    features_of_region,
    histogram,
)

from conftest import features_close, make_image, pixel_loop_features, random_image


class TestHistogram:
    def test_counts_match_counter(self, rng):
        img = random_image(rng, 13, 9)
        h = histogram(img)
        assert h.counts.shape == (256,)
        assert h.counts.sum() == 13 * 9
        for v in range(256):
            assert h.counts[v] == int((img.pixels == v).sum())

    def test_region_restricts_counts(self, rng):
        img = random_image(rng, 10, 10)
        r = Rect(2, 3, 4, 5)
        h = histogram(img, r)
        assert h.counts.sum() == 20
        sub = img.pixels[3:8, 2:6]
        for v in range(256):
            assert h.counts[v] == int((sub == v).sum())

    def test_histogram_additive_over_partition(self, rng):
        img = random_image(rng, 8, 12)
        left = histogram(img, Rect(0, 0, 5, 8))
        right = histogram(img, Rect(5, 0, 7, 8))
        assert np.array_equal(left.counts + right.counts, histogram(img).counts)


class TestClosedForms:
    def test_single_level_region(self):
        img = make_image([[77] * 4] * 3)
        f = features(histogram(img))
        assert f.mean == 77.0
        assert f.variance == 0.0 and f.skewness == 0.0 and f.kurtosis == 0.0
        assert f.energy == 1.0 and f.entropy == 0.0
        # entropy must be a clean zero, not -0.0
        assert math.copysign(1.0, f.entropy) == 1.0

    def test_uniform_histogram(self):
        img = GrayImage(np.arange(256, dtype=np.uint8).reshape(16, 16))
        f = features(histogram(img))
        assert f.entropy == 8.0
        assert f.energy == pytest.approx(1 / 256, rel=1e-15)
        assert f.mean == 127.5

    def test_two_level_extremes(self):
        img = make_image([[0, 255], [255, 0]])
        f = features(histogram(img))
        assert f.mean == 127.5
        assert f.variance == 127.5**2
        assert f.skewness == 0.0
        assert f.kurtosis == 127.5**4
        assert f.energy == 0.5 and f.entropy == 1.0


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
            r = Rect(x0, y0, w, h)
            assert features_close(
                features_of_region(img, r), pixel_loop_features(img, r)
            )


class TestInvariants:
    def test_gray_shift_covariance(self, rng):
        # adding a constant shifts the mean and leaves central moments,
        # energy, and entropy unchanged
        for _ in range(10):
            base = rng.integers(0, 200, size=(9, 7), dtype=np.uint8)
            shift = int(rng.integers(1, 56))
            f0 = features_of_region(GrayImage(base))
            f1 = features_of_region(GrayImage(base + shift))
            assert math.isclose(f1.mean, f0.mean + shift, rel_tol=1e-12)
            for name in ("variance", "skewness", "kurtosis", "energy", "entropy"):
                a, b = getattr(f0, name), getattr(f1, name)
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)

    def test_mirror_antisymmetry(self, rng):
        # reflecting gray levels (v -> 255-v) negates skewness and keeps
        # the even moments, energy, and entropy
        for _ in range(10):
            base = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
            f0 = features_of_region(GrayImage(base))
            f1 = features_of_region(GrayImage(255 - base))
            assert math.isclose(f1.mean, 255 - f0.mean, rel_tol=1e-12)
            assert math.isclose(f1.skewness, -f0.skewness, rel_tol=1e-9, abs_tol=1e-6)
            for name in ("variance", "kurtosis", "energy", "entropy"):
                a, b = getattr(f0, name), getattr(f1, name)
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)

    def test_entropy_bounds(self, rng):
        for _ in range(20):
            img = random_image(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)))
            f = features_of_region(img)
            assert 0.0 <= f.entropy <= 8.0
            assert 0.0 < f.energy <= 1.0


class TestFeatureVector:
    def test_to_dict_order_and_names(self, rng):
        f = features_of_region(random_image(rng, 4, 4))
        assert tuple(f.to_dict()) == FEATURE_NAMES
        assert f.as_tuple() == tuple(f.to_dict().values())
