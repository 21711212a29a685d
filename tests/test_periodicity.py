"""DMF curves, minima, and period selection."""

from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from texelkit import cli, periodicity
from texelkit.periodicity import _select_period
from texelkit import (
    GrayImage,
    column_dmf,
    estimate_periods,
    find_minima,
    random_texel,
    row_dmf,
    save_pgm,
    synthesize,
)

from conftest import make_image, peak_bytes, random_image
from reference import dmf, minima, select_period


curve_of = np.asarray


class TestDmfValues:
    def test_alternating_row_hand_computed(self):
        # [0,255,0,255]: d=1 pairs all differ by 255, d=2 pairs all match
        img = make_image([[0, 255, 0, 255]])
        curve = column_dmf(img, 2)
        assert curve.tolist() == [255.0**2, 0.0]
        assert curve[0] == 65025.0 and curve[1] == 0.0

    def test_two_row_column_shift_hand_computed(self):
        img = make_image([[10, 20, 30], [40, 50, 60]])
        curve = column_dmf(img, 2)
        # d=1: four pairs each differing by 10 -> 400/4; d=2: two pairs by 20
        assert curve.tolist() == [100.0, 400.0]
        rcurve = row_dmf(img, 1)
        # d=1: three pairs each differing by 30
        assert rcurve.tolist() == [900.0]

    def test_transpose_exchanges_axes(self, rng):
        img = random_image(rng, 10, 14)
        t = GrayImage(img.pixels.T)
        curves = [column_dmf(img, 9), row_dmf(t, 9), row_dmf(img, 7), column_dmf(t, 7)]
        assert np.array_equal(curves[0], curves[1])
        assert np.array_equal(curves[2], curves[3])
        for curve in curves:
            assert curve.ndim == 1 and curve.dtype == np.float64
            assert not curve.flags.writeable

    def test_exact_tiling_zeroes_at_period_multiples(self, rng):
        texel = random_texel(5, 7, seed=3)
        img = synthesize(texel, 7 * 6, 5 * 6)
        ccurve = column_dmf(img, img.width - 1)
        rcurve = row_dmf(img, img.height - 1)
        for d in range(1, img.width):
            if d % 7 == 0:
                assert ccurve[d - 1] == 0.0
            else:
                assert ccurve[d - 1] > 0.0
        for d in range(1, img.height):
            if d % 5 == 0:
                assert rcurve[d - 1] == 0.0

    def test_d_max_bounds_enforced(self, rng):
        img = random_image(rng, 4, 6)  # d_max runs to w - 1 along each curve's axis
        for dmf, top in ((column_dmf, 5), (row_dmf, 3)):
            assert dmf(img, top).shape == (top,)
            for d_max in (top + 1, 0):
                with pytest.raises(ValueError, match=rf"^d_max must be in 1\.\.{top}, got {d_max}$"):
                    dmf(img, d_max)


SHAPES = st.tuples(st.integers(2, 40), st.integers(2, 40))

DMF_IMAGES = st.one_of(
    hnp.arrays(np.uint8, SHAPES, elements=st.integers(0, 255)),
    hnp.arrays(np.uint8, SHAPES, elements=st.sampled_from([0, 255])),
    st.builds(
        lambda shape, value: np.full(shape, value, dtype=np.uint8),
        SHAPES,
        st.integers(0, 255),
    ),
)


def assert_dmf_matches_naive(img):
    """Every d_max on both axes equals the integer reference exactly."""
    col_ref = dmf(img.pixels, img.width - 1)
    row_ref = dmf(img.pixels.T, img.height - 1)
    for d_max in range(1, img.width):
        assert column_dmf(img, d_max).tolist() == col_ref[:d_max]
    for d_max in range(1, img.height):
        assert row_dmf(img, d_max).tolist() == row_ref[:d_max]


class TestFftDmf:
    @settings(max_examples=150, deadline=None)
    @given(DMF_IMAGES)
    def test_equals_naive_reference(self, pixels):
        assert_dmf_matches_naive(GrayImage(pixels))

    @settings(max_examples=100, deadline=None)
    @given(DMF_IMAGES, st.integers(1, 3))
    # 7 rows and 5 columns in chunks of 3: the last chunk fills part of the buffers
    @example(np.arange(35, dtype=np.uint8).reshape(7, 5) * 7, 3)
    def test_equals_naive_reference_across_chunks(self, pixels, rows):
        # _chunk_rows sizes every chunk of _dmf; make each hold `rows` rows
        with mock.patch.object(periodicity, "_chunk_rows", lambda h, w, n: min(rows, h)):
            assert_dmf_matches_naive(GrayImage(pixels))

    def test_unproven_rounding_raises(self, rng, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(periodicity, "_MAX_ROUNDING_ERROR", 0.0)
        img = random_image(rng, 9, 13)
        with pytest.raises(ValueError, match="cannot be summed exactly"):
            column_dmf(img, 6)
        with pytest.raises(ValueError, match="cannot be summed exactly"):
            row_dmf(img, 4)
        (tmp_path / "in.pgm").write_bytes(save_pgm(img))
        assert cli.main(["analyze", str(tmp_path / "in.pgm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_fft_path_covers_large_images(self, rng):
        img = random_image(rng, 300, 500)
        column_dmf(img, 499)
        row_dmf(img, 299)
        # worst case per chunk (every centred pixel at -128) for 20000x20000
        # at the default fraction: n = 30000, one row per chunk
        assert periodicity._fft_length(20000 + 10000) == 30000
        assert periodicity._chunk_rows(20000, 20000, 30000) == 1
        assert periodicity._corr_error_bound(30000, 1, 20000) < 3e-5
        # the whole axis is beyond the bound, so chunks are rounded in runs
        assert periodicity._corr_error_bound(30000, 20000, 20000) > 0.5
        # rows of 10**8 pixels: n = 1.5e8, one row per chunk
        assert periodicity._fft_length(10**8 + 5 * 10**7) == 15 * 10**7
        assert periodicity._chunk_rows(2, 10**8, 15 * 10**7) == 1
        assert periodicity._corr_error_bound(15 * 10**7, 1, 10**8) < 0.15

    def test_peak_within_budget_on_960_squared(self):
        # the float64 chunk and its spectrum are the working set, made once
        img = GrayImage(np.random.default_rng(4).integers(0, 256, (960, 960), dtype=np.uint8))
        column_dmf(img, 2)  # numpy imports its fft module on first use (0.13 MB, kept)
        _, peak = peak_bytes(lambda: (column_dmf(img, 480), row_dmf(img, 480)))
        assert peak < 1.2 * periodicity._FFT_CHUNK_BYTES

    def test_fft_input_is_centred(self, rng):
        # _corr_error_bound takes no centred pixel to be more than 128 from
        # mid-gray; black and white are the two extremes
        pixels = (rng.integers(0, 2, (9, 13)) * 255).astype(np.uint8)
        pixels[0, :2] = 0, 255
        rfft, seen = np.fft.rfft, []

        def spy(a, *args, **kwargs):
            seen.append((a.min(), a.max()))
            return rfft(a, *args, **kwargs)

        with mock.patch.object(np.fft, "rfft", spy):
            column_dmf(GrayImage(pixels), 12)
            row_dmf(GrayImage(pixels), 8)
        assert len(seen) >= 2
        assert min(lo for lo, _ in seen) == -128 and max(hi for _, hi in seen) == 127


def irfft_calls(fn):
    """How many inverse FFTs fn() takes: one per rounding of the lag sums."""
    with mock.patch.object(np.fft, "irfft", wraps=np.fft.irfft) as irfft:
        fn()
    return irfft.call_count


class TestRounding:
    """The lag sums are rounded once per axis when the bound for all rows
    allows it, else after each run of chunks it covers; every rule gives
    the integer reference's curve."""

    # 23 rows of 9 pixels in chunks of 3 rows: 8 chunks, the last of 2 rows
    H, W, ROWS = 23, 9, 3

    def check(self, monkeypatch, limit, roundings):
        img = random_image(np.random.default_rng(9), self.H, self.W)
        monkeypatch.setattr(periodicity, "_chunk_rows", lambda h, w, n: min(self.ROWS, h))
        monkeypatch.setattr(periodicity, "_MAX_ROUNDING_ERROR", limit)
        assert irfft_calls(lambda: column_dmf(img, self.W - 1)) == roundings
        assert column_dmf(img, self.W - 1).tolist() == dmf(img.pixels, self.W - 1)

    def bound(self, rows):
        n = periodicity._fft_length(self.W + self.W - 1)
        return periodicity._corr_error_bound(n, rows, self.W)

    def test_once_across_many_chunks(self, monkeypatch):
        self.check(monkeypatch, periodicity._MAX_ROUNDING_ERROR, 1)

    def test_once_when_the_whole_axis_just_fits(self, monkeypatch):
        self.check(monkeypatch, np.nextafter(self.bound(self.H), 1), 1)

    def test_per_chunk_below_the_bound_of_two_chunks(self, monkeypatch):
        limit = (self.bound(self.ROWS) + self.bound(2 * self.ROWS)) / 2
        self.check(monkeypatch, limit, 8)

    def test_runs_of_chunks_between_the_bounds(self, monkeypatch):
        # 8 chunks halve to 4 (12 rows), which the limit covers: two runs
        limit = (self.bound(4 * self.ROWS) + self.bound(self.H)) / 2
        self.check(monkeypatch, limit, 2)

    @settings(max_examples=60, deadline=None)
    @given(DMF_IMAGES, st.integers(1, 3), st.floats(0.0, 1.0))
    def test_any_limit_above_one_chunk_matches_naive(self, pixels, rows, where):
        # a limit anywhere between one chunk's bound and the whole axis's
        h, w = pixels.shape
        n = periodicity._fft_length(2 * w - 1)
        lo = periodicity._corr_error_bound(n, min(rows, h), w)
        hi = periodicity._corr_error_bound(n, h, w)
        limit = np.nextafter(lo + where * (hi - lo), np.inf)
        with mock.patch.object(periodicity, "_chunk_rows", lambda h, w, n: min(rows, h)), \
                mock.patch.object(periodicity, "_MAX_ROUNDING_ERROR", limit):
            assert column_dmf(GrayImage(pixels), w - 1).tolist() == dmf(pixels, w - 1)


def is_5_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_fft_length_is_the_least_5_smooth_length_at_least_m():
    smooth = [k for k in range(1, 2 * 4096) if is_5_smooth(k)]
    for m in range(1, 4097):
        assert periodicity._fft_length(m) == next(k for k in smooth if k >= m)


class TestFindMinima:
    def test_v_shape(self):
        assert find_minima(curve_of([4, 1, 0, 1, 4, 1, 0, 1])) == [3, 7]

    def test_endpoints_never_qualify(self):
        # decreasing curve: smallest value sits at d_max but is not a minimum
        assert find_minima(curve_of([5, 4, 3, 2, 1])) == []
        # increasing curve: smallest value at d=1 is not a minimum either
        assert find_minima(curve_of([1, 2, 3, 4, 5])) == []

    def test_plateau_reported_at_first_displacement(self):
        assert find_minima(curve_of([5, 2, 2, 2, 5])) == [2]

    def test_plateau_touching_end_excluded(self):
        # the descent never turns back up, so there is no interior minimum
        assert find_minima(curve_of([5, 2, 2, 2])) == []

    def test_needs_three_values(self):
        with pytest.raises(ValueError):
            find_minima(curve_of([1.0, 2.0]))
        with pytest.raises(ValueError):
            find_minima(curve_of([[4, 1, 0, 1, 4]]))

    def test_strictly_monotone_noise_free(self):
        assert find_minima(curve_of([3, 5, 2, 6, 1, 7])) == [3, 5]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 2.5, 3.0, np.nan]), min_size=3, max_size=40))
    @example([3.0, 1.0, np.nan, 0.0, 2.0])  # NaN steps count as none: a minimum at 2
    def test_matches_reference_loop(self, values):
        assert find_minima(values) == minima(values)


class TestPeriodSelection:
    def test_single_minimum(self):
        assert _select_period(curve_of([4, 1, 0, 1, 4]))[0] == 3

    def test_mode_of_first_and_spacings(self):
        # minima at 2, 6, 10: candidates are the first minimum (2) plus the
        # spacings (4, 4); the mode wins, so the period is 4
        curve = curve_of([9, 0, 9, 9, 9, 0, 9, 9, 9, 0, 9])
        assert find_minima(curve) == [2, 6, 10]
        assert _select_period(curve)[0] == 4

    def test_exact_tiling_recovers_period(self):
        texel = random_texel(6, 9, seed=12)
        img = synthesize(texel, 9 * 5, 6 * 5)
        est = estimate_periods(img)
        assert (est.row_period, est.col_period) == (6, 9)
        assert not est.row_degenerate and not est.col_degenerate
        assert est.row_period in est.row_candidates
        assert est.col_period in est.col_candidates

    def test_degenerate_constant_image(self):
        img = GrayImage(np.full((16, 16), 9, dtype=np.uint8))
        est = estimate_periods(img)
        assert est.row_degenerate and est.col_degenerate
        assert est.row_period >= 1 and est.col_period >= 1

    def test_no_minima_falls_back_to_global_minimum(self):
        # ramp down: no interior minimum, global minimum at the last value
        assert _select_period(curve_of([9, 7, 5, 3, 1]))[0] == 5

    def test_tie_breaks_to_smallest(self):
        # minima at 3 and 8: candidates {3, 5} tie at one vote each, and the
        # smaller displacement wins
        curve = curve_of([9, 5, 0, 5, 9, 9, 9, 0.5, 5, 9])
        assert find_minima(curve) == [3, 8]
        assert _select_period(curve)[0] == 3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=3, max_size=40))
    @example([2, 1, 1, 2, 0, 0, 3, 1, 1, 3])  # plateaus at the troughs
    @example([3, 0, 3, 1, 3, 0, 3, 1, 3])  # the deep minima alone take part
    @example([5, 1, 5, 0, 5, 5, 5, 6])  # tau is 1.0, the minimum at 2: it takes part
    def test_matches_reference(self, values):
        # few levels give plateaus and ties in the spacing mode, which
        # real DMF curves rarely show
        assert _select_period(curve_of(values)) == select_period(values)

    def test_d_max_fraction_and_small_images(self, rng):
        img = random_image(rng, 64, 64)
        est = estimate_periods(img, d_max_fraction=0.25)
        assert est.row_period <= 16 and est.col_period <= 16
        with pytest.raises(ValueError):
            estimate_periods(random_image(rng, 2, 64))
        with pytest.raises(ValueError):
            estimate_periods(img, d_max_fraction=0.0)


class TestGeneratorRecovery:
    def test_noise_free_instances(self, rng):
        hits = 0
        trials = 12
        for k in range(trials):
            th = int(rng.integers(8, 21))
            tw = int(rng.integers(8, 21))
            reps = int(rng.integers(4, 8))
            texel = random_texel(th, tw, seed=1000 + k)
            img = synthesize(texel, tw * reps, th * reps)
            est = estimate_periods(img)
            hits += (est.row_period, est.col_period) == (th, tw)
        assert hits == trials
