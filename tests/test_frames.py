"""Frame synthesis, rate extraction, spike rejection, Allan analysis."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibertpa import (CameraConfig, PowerDrift, allan_curve, analyze_series,
                      fit_power_law, frame_to_rate, normalize_series,
                      overlapping_allan_deviation, read_series, reject_cic,
                      synthesize_series, write_series)
from fibertpa.frames import series_to_rates
from fibertpa.errors import ConfigError, DataError


CAM = CameraConfig()


class TestFrameToRate:
    def test_unit_construction(self):
        # N ADU chosen so that N S / (G T) = 1
        n_adu = CAM.em_gain_e_per_cnt * CAM.integration_s / CAM.sensitivity_e_per_adu
        sig = np.zeros((11, 11))
        sig[5, 5] = n_adu
        assert frame_to_rate(sig, np.zeros((11, 11)), CAM) == pytest.approx(1.0)

    def test_identical_images_give_zero(self):
        img = np.random.default_rng(0).normal(560.0, 5.0, (11, 11))
        assert frame_to_rate(img, img, CAM) == 0.0

    def test_arithmetic_example(self):
        cam = CameraConfig(sensitivity_e_per_adu=5.0, em_gain_e_per_cnt=30.0,
                           integration_s=10.0)
        sig = np.full((2, 2), 150.0)  # sums to 600 ADU
        assert frame_to_rate(sig, np.zeros((2, 2)), cam) == pytest.approx(10.0)

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="differ"):
            frame_to_rate(np.zeros((3, 3)), np.zeros((4, 4)), CAM)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_signal(self, scale):
        rng = np.random.default_rng(3)
        sig = rng.uniform(0.0, 10.0, (5, 5))
        base = frame_to_rate(sig, np.zeros((5, 5)), CAM)
        assert frame_to_rate(scale * sig, np.zeros((5, 5)), CAM) == \
            pytest.approx(scale * base, rel=1e-12)

    def test_antisymmetric_under_exchange(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(500.0, 600.0, (5, 5))
        b = rng.uniform(500.0, 600.0, (5, 5))
        assert frame_to_rate(a, b, CAM) == pytest.approx(-frame_to_rate(b, a, CAM),
                                                         rel=1e-12)


class TestSynthesis:
    def test_fixed_seed_is_bit_identical(self):
        a = synthesize_series(1.6, CAM, 12, seed=99)
        b = synthesize_series(1.6, CAM, 12, seed=99)
        for x, y in zip(a.signal + a.background, b.signal + b.background):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = synthesize_series(1.6, CAM, 4, seed=1)
        b = synthesize_series(1.6, CAM, 4, seed=2)
        assert not np.array_equal(a.signal[0], b.signal[0])

    def test_needs_at_least_one_frame(self):
        with pytest.raises(ConfigError):
            synthesize_series(1.6, CAM, 0)

    def test_null_input_recovered_as_zero(self):
        series = synthesize_series(0.0, CAM, 256, seed=11)
        _, curve, mean_rate = analyze_series(series)
        assert abs(mean_rate) <= 3.0 * curve.selected_deviation_cnt_s

    def test_example_rate_recovered(self):
        series = synthesize_series(1.6, CAM, 512, seed=21)
        _, curve, mean_rate = analyze_series(series)
        assert abs(mean_rate - 1.6) <= 3.0 * curve.selected_deviation_cnt_s


class TestCicRejection:
    def test_clean_data_barely_rejects(self):
        rng = np.random.default_rng(7)
        fractions = []
        for trial in range(20):
            rates = rng.normal(1.6, 11.0, 1024)
            rs = reject_cic(rates)
            fractions.append(1.0 - rs.kept_fraction)
        assert np.mean(fractions) < 0.01

    def test_injected_spikes_recovered(self):
        # closed loop at a 7% injection rate; spikes at 20x the per-frame
        # noise deviation (about 12 cnt/s here), decisively above threshold
        series = synthesize_series(1.6, CAM, 2000, seed=42, cic_probability=0.07,
                                   cic_amplitude_cnt_s=20.0 * 12.0)
        rates = series_to_rates(series)
        rs = reject_cic(rates)
        rejected = 1.0 - rs.kept_fraction
        assert abs(rejected - 0.07) <= 0.02

    def test_constant_series_keeps_everything(self):
        rs = reject_cic(np.full(64, 3.25))
        assert rs.kept_fraction == 1.0

    def test_minimum_length(self):
        with pytest.raises(DataError, match="10"):
            reject_cic(np.ones(9))


class TestNormalization:
    def test_constant_power_is_identity(self):
        rs = reject_cic(np.linspace(1.0, 2.0, 32))
        out = normalize_series(rs, np.full(32, 5e-9), scaling="quadratic")
        assert np.array_equal(out.normalized_cnt_s, rs.rates_cnt_s)

    def test_quadratic_mode_algebra(self):
        rates = np.full(16, 4.0)
        w = np.full(16, 1.0)
        w[3] = 1.0 / np.sqrt(2.0)
        rs = reject_cic(rates)
        out = normalize_series(rs, w, scaling="quadratic")
        w_avg = w.mean()
        assert out.normalized_cnt_s[3] == pytest.approx(
            4.0 * w_avg**2 / w[3] ** 2, rel=1e-12)
        # relative to a unit-power frame the sqrt(2)-dimmer frame doubles
        assert out.normalized_cnt_s[3] / out.normalized_cnt_s[0] == \
            pytest.approx(2.0, rel=1e-12)

    def test_linear_mode_algebra(self):
        rates = np.full(16, 4.0)
        w = np.full(16, 2e-9)
        w[5] = 1e-9
        rs = reject_cic(rates)
        out = normalize_series(rs, w, scaling="linear")
        assert out.normalized_cnt_s[5] / out.normalized_cnt_s[0] == \
            pytest.approx(2.0, rel=1e-12)

    def test_exact_invariance_at_uniform_power(self):
        rng = np.random.default_rng(8)
        rates = rng.normal(5.0, 1.0, 64)
        rs = reject_cic(rates)
        out = normalize_series(rs, np.full(64, 3e-9), scaling="linear")
        assert np.array_equal(out.normalized_cnt_s, rates)

    def test_zero_power_on_kept_frame_rejected(self):
        rs = reject_cic(np.ones(16))
        w = np.ones(16)
        w[2] = 0.0
        with pytest.raises(DataError, match="positive"):
            normalize_series(rs, w)

    def test_drift_plus_normalization_recovers_truth(self):
        series = synthesize_series(
            1.6, CAM, 512, seed=31,
            power_drift=PowerDrift(kind="ramp", magnitude=0.10))
        _, curve, mean_rate = analyze_series(series, scaling="quadratic")
        assert abs(mean_rate - 1.6) <= 3.0 * curve.selected_deviation_cnt_s


class TestAllan:
    def test_white_noise_follows_inverse_sqrt_m(self):
        # estimator expectation over independent seeded series
        rng = np.random.default_rng(1)
        n, reps, sigma = 4096, 24, 11.6
        ms = [2**k for k in range(0, 10)]  # top m = n/8
        acc = np.zeros(len(ms))
        for _ in range(reps):
            y = rng.normal(1.6, sigma, n)
            acc += [overlapping_allan_deviation(y, m) for m in ms]
        acc /= reps
        for m, dev in zip(ms, acc):
            assert dev == pytest.approx(sigma / np.sqrt(m), rel=0.10)

    def test_constant_series_has_zero_deviation(self):
        rs = reject_cic(np.full(128, 2.5))
        curve = allan_curve(rs)
        assert np.all(curve.deviations_cnt_s == 0.0)

    def test_selection_saturates_before_drift_knee(self):
        rng = np.random.default_rng(17)
        n = 4096
        white = rng.normal(0.0, 1.0, n)
        walk = np.cumsum(rng.normal(0.0, 0.02, n))
        rs = reject_cic(white + walk)
        curve = allan_curve(rs)
        # the random walk turns the curve upward well before the longest
        # averaging windows; the white-only series selects the deepest m
        rs_white = reject_cic(white)
        curve_white = allan_curve(rs_white)
        assert curve.selected_m < curve_white.selected_m

    def test_white_noise_selects_deep_averaging(self):
        rng = np.random.default_rng(23)
        rs = reject_cic(rng.normal(5.0, 2.0, 2048))
        curve = allan_curve(rs)
        assert curve.selected_m >= 256

    def test_minimum_length(self):
        with pytest.raises(DataError, match="16"):
            allan_curve(reject_cic(np.ones(12)))


class TestPowerLawFit:
    def test_noiseless_quadratic(self):
        w = np.logspace(-9, -7, 8)
        f = 3.0e17 * w**2
        fit = fit_power_law(w, f, 0.01 * f)
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_noiseless_linear(self):
        w = np.logspace(-9, -7, 8)
        f = 5.0e8 * w
        fit = fit_power_law(w, f, 0.01 * f)
        assert fit.slope == pytest.approx(1.0, abs=1e-10)

    def test_fixed_slope_mode_extracts_intercept(self):
        w = np.logspace(-9, -7, 8)
        c = 3.62e17
        f = c * w**2
        fit = fit_power_law(w, f, 0.01 * f, fixed_slope=2.0)
        assert fit.slope == 2.0
        assert np.exp(fit.intercept) == pytest.approx(c, rel=1e-10)

    def test_monte_carlo_slope_recovery(self):
        # noise model: an absolute Allan-style floor plus a 1% systematic
        rng = np.random.default_rng(7)
        w = np.logspace(np.log10(1.75e-9), np.log10(100e-9), 10)
        f0 = 3.62e17 * w**2
        sig = np.maximum(1.3, 0.01 * f0)
        ok = 0
        trials = 200
        for _ in range(trials):
            f = f0 * np.exp(rng.normal(0.0, sig / f0))
            fit = fit_power_law(w, f, sig)
            ok += abs(fit.slope - 2.0) <= 0.05
        assert ok / trials >= 0.95

    def test_domain_errors(self):
        with pytest.raises(DataError):
            fit_power_law([1e-9, 2e-9], [1.0, 2.0], [0.1, 0.1])
        with pytest.raises(DataError, match="positive"):
            fit_power_law([1e-9, 2e-9, 3e-9], [1.0, -2.0, 3.0], [0.1] * 3)


class TestDiskRoundTrip:
    def test_write_read_preserves_rates(self, tmp_path):
        series = synthesize_series(1.6, CAM, 8, seed=5)
        manifest = write_series(series, tmp_path / "run")
        back = read_series(manifest)
        assert len(back) == 8
        a = series_to_rates(series)
        b = series_to_rates(back)
        assert np.allclose(a, b, rtol=0, atol=5e-5)  # %.6f file quantization
        assert back.camera == series.camera

    def test_byte_identical_rewrite(self, tmp_path):
        series = synthesize_series(1.6, CAM, 4, seed=5)
        m1 = write_series(series, tmp_path / "a")
        m2 = write_series(synthesize_series(1.6, CAM, 4, seed=5), tmp_path / "b")
        assert m1.read_bytes() == m2.read_bytes()
        for i in range(4):
            assert (tmp_path / "a" / f"sig_{i:05d}.csv").read_bytes() == \
                (tmp_path / "b" / f"sig_{i:05d}.csv").read_bytes()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            read_series(tmp_path / "nope" / "manifest.json")

    def test_frame_entry_missing_key(self, tmp_path):
        manifest = write_series(synthesize_series(1.6, CAM, 2, seed=5), tmp_path)
        data = json.loads(manifest.read_text())
        del data["frames"][1]["w_out_w"]
        manifest.write_text(json.dumps(data))
        with pytest.raises(DataError, match="unreadable manifest.*w_out_w"):
            read_series(manifest)

    def test_corrupt_manifest(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{not json")
        with pytest.raises(DataError, match="unreadable"):
            read_series(p)
