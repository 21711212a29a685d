"""Synthetic texture generator and its ground truth."""

import json

import numpy as np
import pytest

from texelkit import (
    DEFECT_SHIFT,
    GroundTruth,
    classify_blocks,
    estimate_periods,
    generate,
    has_subperiod,
    partition,
    random_texel,
    synthesize,
)

from conftest import make_image


def gt_of(**kw) -> GroundTruth:
    base = dict(
        texel_h=6,
        texel_w=5,
        reps_r=5,
        reps_c=6,
        defect_blocks=[],
        noise_amplitude=0,
        seed=0,
    )
    base.update(kw)
    return GroundTruth(**base)


class TestHasSubperiod:
    def test_detects_column_subperiod(self):
        assert has_subperiod(make_image([[1, 2, 1, 2], [3, 4, 3, 4]]))

    def test_detects_row_subperiod(self):
        assert has_subperiod(make_image([[1, 2], [3, 4], [1, 2], [3, 4]]))

    def test_aperiodic_texel_clean(self):
        assert not has_subperiod(make_image([[1, 2, 3, 4], [5, 6, 7, 8]]))

    def test_constant_image_has_subperiod(self):
        assert has_subperiod(make_image([[7, 7], [7, 7]]))


class TestRandomTexel:
    def test_deterministic_per_seed(self):
        assert random_texel(9, 11, seed=4) == random_texel(9, 11, seed=4)

    def test_different_seeds_differ(self):
        assert random_texel(9, 11, seed=4) != random_texel(9, 11, seed=5)

    def test_no_subperiod_by_construction(self):
        for seed in range(20):
            assert not has_subperiod(random_texel(8, 12, seed=seed))

    def test_at_least_two_levels(self):
        for seed in range(10):
            texel = random_texel(4, 4, seed=seed)
            assert len(np.unique(texel.pixels)) >= 2

    def test_range_and_power_shape(self):
        texel = random_texel(16, 16, seed=2, low=30, high=90)
        assert texel.pixels.min() >= 30 and texel.pixels.max() <= 90
        skewed = random_texel(32, 32, seed=2, high=195, power=4.0)
        assert skewed.pixels.max() <= 195
        # power > 1 bends mass toward the low end
        assert skewed.pixels.mean() < 195 / 2

    def test_tiny_dims_rejected(self):
        with pytest.raises(ValueError):
            random_texel(1, 5, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            random_texel(4, 4, seed=-1)

    @pytest.mark.parametrize("power", [float("nan"), float("inf")])
    def test_power_not_finite_rejected(self, power):
        with pytest.raises(ValueError, match=rf"^power must be finite and positive, got {power}$"):
            random_texel(4, 4, seed=0, power=power)


class TestGroundTruth:
    def test_json_round_trip(self):
        gt = gt_of(defect_blocks=[(1, 1), (2, 0)], noise_amplitude=3, seed=42)
        raw = json.loads(gt.to_json())
        back = GroundTruth(**{**raw, "defect_blocks": [tuple(b) for b in raw["defect_blocks"]]})
        assert back == gt

    def test_json_key_set(self):
        d = json.loads(gt_of().to_json())
        assert set(d) == {
            "texel_h", "texel_w", "reps_r", "reps_c",
            "defect_blocks", "noise_amplitude", "seed",
        }

    def test_json_layout(self):
        # the sidecar's key order and layout, byte for byte
        assert GroundTruth(3, 4, 5, 6, [(1, 2)], 7, 9).to_json() == (
            '{\n  "texel_h": 3,\n  "texel_w": 4,\n  "reps_r": 5,\n  "reps_c": 6,\n'
            '  "defect_blocks": [\n    [\n      1,\n      2\n    ]\n  ],\n'
            '  "noise_amplitude": 7,\n  "seed": 9\n}'
        )

    def test_defect_block_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            gt_of(defect_blocks=[(5, 0)])

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            gt_of(texel_h=0)
        with pytest.raises(ValueError):
            gt_of(noise_amplitude=-1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
            gt_of(seed=-1)


class TestGenerate:
    def test_matches_synthesize_when_clean(self):
        gt = gt_of()
        texel = random_texel(gt.texel_h, gt.texel_w, seed=gt.seed)
        img = generate(gt, texel)
        assert img == synthesize(texel, gt.texel_w * gt.reps_c, gt.texel_h * gt.reps_r)

    def test_deterministic_per_seed(self):
        gt = gt_of(defect_blocks=[(1, 2)], noise_amplitude=4, seed=9)
        texel = random_texel(gt.texel_h, gt.texel_w, seed=9)
        assert generate(gt, texel) == generate(gt, texel)

    def test_defect_blocks_are_shifted_texel(self):
        gt = gt_of(defect_blocks=[(2, 3)])
        texel = random_texel(gt.texel_h, gt.texel_w, seed=0)
        img = generate(gt, texel)
        y0, x0 = 2 * gt.texel_h, 3 * gt.texel_w
        block = img.pixels[y0 : y0 + gt.texel_h, x0 : x0 + gt.texel_w]
        expect = np.clip(texel.pixels.astype(np.int64) + DEFECT_SHIFT, 0, 255)
        assert np.array_equal(block, expect)
        # neighboring block untouched
        assert np.array_equal(
            img.pixels[y0 : y0 + gt.texel_h, 0 : gt.texel_w], texel.pixels
        )

    def test_noise_stays_within_amplitude(self):
        gt = gt_of(noise_amplitude=5, seed=3)
        texel = random_texel(gt.texel_h, gt.texel_w, seed=3)
        clean = generate(gt_of(seed=3), texel)
        noisy = generate(gt, texel)
        delta = noisy.pixels.astype(int) - clean.pixels.astype(int)
        # clipping can only pull values toward the valid range
        assert delta.min() >= -5 and delta.max() <= 5
        assert np.any(delta != 0)

    def test_dimension_mismatch_rejected(self):
        gt = gt_of()
        with pytest.raises(ValueError):
            generate(gt, random_texel(gt.texel_h + 1, gt.texel_w, seed=0))

    def test_periods_recoverable_from_output(self):
        gt = gt_of(texel_h=9, texel_w=7, reps_r=6, reps_c=8)
        texel = random_texel(9, 7, seed=14)
        est = estimate_periods(generate(gt, texel))
        assert (est.row_period, est.col_period) == (9, 7)

    def test_planted_defect_detected_exactly(self):
        # skewed texel keeps every global feature well away from zero, so
        # the 2% threshold separates defect blocks from background cleanly
        gt = GroundTruth(
            texel_h=14, texel_w=12, reps_r=36, reps_c=36,
            defect_blocks=[(1, 1)], noise_amplitude=0, seed=77,
        )
        texel = random_texel(14, 12, seed=77, high=195, power=4.0)
        img = generate(gt, texel)
        grid = partition(img, 14, 12)
        res = classify_blocks(img, grid, threshold=0.02)
        assert res.anomalies == [(1, 1)]
