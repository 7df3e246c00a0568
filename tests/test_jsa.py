"""DFT entanglement-time pipeline against the analytic Gaussian oracle and
the direct 2-D DFT."""

import numpy as np
import pytest

from fibertpa import (JointSpectrum, entanglement_time_at,
                      entanglement_time_profile, fit_te_model, gaussian_jsi,
                      gaussian_te_analytic)
from fibertpa.errors import DataError

OMEGA_810 = 2.325e15  # rad/s


def dft2_oracle(js, chirp_fs2, zero_pad):
    """T_e and outer-bin mass fraction the direct way: the (N, N) zero-padded
    2-D DFT of the chirped amplitude, projected onto u = t_s - t_i offset by
    offset with wrapped indices."""
    ws, wi = js.omega_signal_rad_s * 1e-15, js.omega_idler_rad_s * 1e-15
    wp = js.omega_pump_rad_s * 1e-15
    phase = (chirp_fs2 * (ws - wp / 2.0) ** 2 / 2.0)[:, None] \
        + (chirp_fs2 * (wi - wp / 2.0) ** 2 / 2.0)[None, :]
    f = np.sqrt(js.intensity) * np.exp(1j * phase)
    n = max(ws.size, wi.size) * zero_pad
    jti = np.abs(np.fft.fft2(f, s=(n, n))) ** 2
    k = np.arange(n)
    proj = np.array([jti[k, (k - d) % n].sum() for d in range(n)])
    u = ((k + n // 2) % n - n // 2) * 2.0 * np.pi / (n * (ws[1] - ws[0]))
    order = np.argsort(u)
    u, proj = u[order], proj[order]
    mean = (proj * u).sum() / proj.sum()
    var = (proj * (u - mean) ** 2).sum() / proj.sum()
    edge = (proj[:3].sum() + proj[-3:].sum()) / proj.sum()
    return 2.0 * np.sqrt(2.0 * np.log(2.0)) * np.sqrt(var), edge


def anticorrelated_jsi(ns, ni):
    """Non-square JSI on one shared frequency spacing, narrow along wS + wI."""
    ax = np.linspace(OMEGA_810 - 2.5e14, OMEGA_810 + 2.5e14, max(ns, ni))
    ws, wi = ax[(ax.size - ns) // 2:][:ns], ax[(ax.size - ni) // 2:][:ni]
    plus = ws[:, None] + wi[None, :] - 2.0 * OMEGA_810
    minus = ws[:, None] - wi[None, :]
    grid = np.exp(-plus ** 2 / (2 * 3e13 ** 2) - minus ** 2 / (2 * 2e14 ** 2))
    return JointSpectrum(ws, wi, grid, 2.0 * OMEGA_810)


class TestJointSpectrumValidation:
    def test_shape_mismatch(self):
        ax = np.linspace(2.2e15, 2.4e15, 64)
        with pytest.raises(DataError, match="shape"):
            JointSpectrum(ax, ax, np.ones((64, 32)), 2 * OMEGA_810)

    def test_negative_grid(self):
        ax = np.linspace(2.2e15, 2.4e15, 64)
        grid = np.ones((64, 64))
        grid[3, 5] = -1.0
        with pytest.raises(DataError, match="non-negative"):
            JointSpectrum(ax, ax, grid, 2 * OMEGA_810)

    def test_nonuniform_axis(self):
        ax = np.linspace(2.2e15, 2.4e15, 64).copy()
        ax[10] += 1e10
        with pytest.raises(DataError, match="uniform"):
            JointSpectrum(ax, ax, np.ones((64, 64)), 2 * OMEGA_810)

    def test_off_ridge_peak_warns(self):
        ax = np.linspace(2.2e15, 2.4e15, 64)
        grid = np.zeros((64, 64))
        grid[5, 5] = 1.0  # peak far from the wS + wI = wP diagonal
        with pytest.warns(UserWarning, match="ridge"):
            JointSpectrum(ax, ax, grid, 2 * OMEGA_810)

    @pytest.mark.parametrize("where,value", [
        ("intensity", np.nan), ("intensity", np.inf), ("signal", np.nan),
        ("idler", np.inf), ("pump", np.nan),
    ])
    def test_non_finite_rejected(self, where, value):
        ax = np.linspace(2.2e15, 2.4e15, 64)
        ws, wi, grid, wp = ax.copy(), ax.copy(), np.ones((64, 64)), 2 * OMEGA_810
        if where == "intensity":
            grid[3, 5] = value
        elif where == "signal":
            ws[10] = value
        elif where == "idler":
            wi[10] = value
        else:
            wp = value
        with pytest.raises(DataError, match="finite"):
            JointSpectrum(ws, wi, grid, wp)

    def test_all_zero_grid_rejected(self):
        ax = np.linspace(2.2e15, 2.4e15, 64)
        with pytest.raises(DataError, match="zero everywhere"):
            JointSpectrum(ax, ax, np.zeros((64, 64)), 2 * OMEGA_810)

    def test_csv_roundtrip(self, tmp_path):
        js = gaussian_jsi(5e13, OMEGA_810, n=64)
        path = tmp_path / "jsi.csv"
        js.write_csv(path)
        back = JointSpectrum.from_csv(path)
        assert np.array_equal(back.intensity, js.intensity)
        assert np.array_equal(back.omega_signal_rad_s, js.omega_signal_rad_s)
        assert back.omega_pump_rad_s == js.omega_pump_rad_s


class TestEntanglementTime:
    @pytest.mark.parametrize("sigma_w,chirp,n", [
        (5e13, 0.0, 96),
        (5e13, 1000.0, 96),
        (2e14, 300.0, 256),
    ])
    def test_matches_gaussian_oracle(self, sigma_w, chirp, n):
        js = gaussian_jsi(sigma_w, OMEGA_810, n=n)
        te = entanglement_time_at(js, chirp)
        assert te == pytest.approx(gaussian_te_analytic(sigma_w, chirp), rel=0.01)

    def test_dense_grid_large_chirp(self):
        js = gaussian_jsi(9.15e13, OMEGA_810, n=512)
        te = entanglement_time_at(js, 2100.0)
        assert te == pytest.approx(gaussian_te_analytic(9.15e13, 2100.0), rel=0.01)

    def test_aliasing_guard_fires_on_coarse_grid(self):
        js = gaussian_jsi(9.15e13, OMEGA_810, n=96)
        with pytest.raises(DataError, match="denser frequency grid"):
            entanglement_time_at(js, 2100.0)

    def test_global_phase_invariance(self):
        js = gaussian_jsi(5e13, OMEGA_810, n=96)
        base = entanglement_time_at(js, 0.0)
        # constant phase on the amplitude leaves |FT|^2 untouched; emulate
        # by scaling the intensity (phase of sqrt(F) is zero either way)
        scaled = JointSpectrum(js.omega_signal_rad_s, js.omega_idler_rad_s,
                               js.intensity * 7.5, js.omega_pump_rad_s)
        assert entanglement_time_at(scaled, 0.0) == pytest.approx(base, rel=1e-12)

    def test_profile_non_decreasing_under_positive_chirp(self):
        js = gaussian_jsi(5e13, OMEGA_810, n=256)
        profile = entanglement_time_profile(js, 500.0, 1034.0,
                                            np.arange(0.0, 6.0, 1.0))
        te = [t for _, t in profile]
        assert all(b >= a - 1e-9 for a, b in zip(te, te[1:]))

    def test_symmetry_under_axis_exchange(self):
        js = gaussian_jsi(5e13, OMEGA_810, n=96)
        swapped = JointSpectrum(js.omega_idler_rad_s, js.omega_signal_rad_s,
                                js.intensity.T, js.omega_pump_rad_s)
        a = entanglement_time_at(js, 800.0)
        b = entanglement_time_at(swapped, 800.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_small_grid_rejected(self):
        js_small = gaussian_jsi(5e13, OMEGA_810, n=32)
        with pytest.raises(DataError, match="64x64"):
            entanglement_time_at(js_small, 0.0)

    def test_parseval_on_padded_transform(self):
        js = gaussian_jsi(5e13, OMEGA_810, n=96)
        f = np.sqrt(js.intensity)
        n = 96 * 4
        ft = np.fft.fft2(f, s=(n, n))
        lhs = np.sum(np.abs(ft) ** 2) / (n * n)
        rhs = np.sum(np.abs(f) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestAntiDiagonalKernel:
    """The anti-diagonal 1-D FFT kernel against the direct 2-D DFT."""

    @pytest.mark.parametrize("zero_pad", [1, 2, 4])
    @pytest.mark.parametrize("chirp", [0.0, 800.0, 2100.0])
    @pytest.mark.parametrize("grid", ["square", "non-square"])
    def test_matches_2d_dft(self, grid, chirp, zero_pad):
        js = gaussian_jsi(5e13, OMEGA_810, n=96) if grid == "square" \
            else anticorrelated_jsi(128, 80)
        te, edge = dft2_oracle(js, chirp, zero_pad)
        assert edge < 0.01
        assert entanglement_time_at(js, chirp, zero_pad=zero_pad) == \
            pytest.approx(te, rel=1e-12, abs=0)

    def test_profile_matches_per_depth_2d_dft(self):
        js = anticorrelated_jsi(80, 128)
        z = np.arange(0.0, 5.0, 1.0)
        profile = entanglement_time_profile(js, 200.0, 300.0, z, zero_pad=2)
        assert [zi for zi, _ in profile] == list(z)
        for zi, te in profile:
            assert te == pytest.approx(dft2_oracle(js, 200.0 + 300.0 * zi, 2)[0],
                                       rel=1e-12, abs=0)

    def test_guard_fires_where_2d_dft_reaches_window_edge(self):
        js = gaussian_jsi(9.15e13, OMEGA_810, n=96)
        assert dft2_oracle(js, 2100.0, 4)[1] > 0.01
        with pytest.raises(DataError, match="denser frequency grid"):
            entanglement_time_profile(js, 2100.0, 0.0, [0.0])

    @pytest.mark.parametrize("zero_pad", [0, -2, 1.5, 2.0, True, "4", None])
    def test_zero_pad_must_be_integer_at_least_one(self, zero_pad):
        js = gaussian_jsi(5e13, OMEGA_810, n=64)
        with pytest.raises(DataError, match="zero_pad"):
            entanglement_time_at(js, 0.0, zero_pad=zero_pad)
        with pytest.raises(DataError, match="zero_pad"):
            entanglement_time_profile(js, 0.0, 0.0, [0.0], zero_pad=zero_pad)

    def test_non_finite_dispersion_rejected(self):
        js = gaussian_jsi(5e13, OMEGA_810, n=64)
        with pytest.raises(DataError, match="finite"):
            entanglement_time_at(js, np.nan)
        with pytest.raises(DataError, match="finite"):
            entanglement_time_profile(js, 0.0, np.inf, [1.0, 2.0])

    def test_numpy_integer_zero_pad_accepted(self):
        js = gaussian_jsi(5e13, OMEGA_810, n=64)
        assert entanglement_time_at(js, 0.0, zero_pad=np.int64(4)) == \
            entanglement_time_at(js, 0.0, zero_pad=4)


class TestTeModelFit:
    def test_recovers_synthetic_parameters(self):
        from fibertpa import EntanglementTimeModel
        truth = EntanglementTimeModel(260.0, 2145.0, 2100.0, 1034.0)
        z = np.arange(0.0, 37.0, 1.0)
        samples = [(zi, float(truth.te_fs(zi))) for zi in z]
        model, max_resid = fit_te_model(samples, 2100.0, 1034.0)
        assert model.te0_fs == pytest.approx(260.0, rel=1e-6)
        assert model.s0 == pytest.approx(2145.0, rel=1e-6)
        assert max_resid < 1e-9

    def test_entrance_value_of_bundled_fit(self, te_model3):
        assert float(te_model3.te_fs(0.0)) == pytest.approx(1070.0, rel=0.01)

    def test_zero_dispersion_is_flat(self):
        from fibertpa import EntanglementTimeModel
        model = EntanglementTimeModel(260.0, 2145.0, 0.0, 0.0)
        te = model.te_fs(np.linspace(0.0, 36.0, 10))
        expected = 2.0 * np.sqrt(2.0 * np.log(2.0)) * 260.0
        assert np.allclose(te, expected, rtol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(DataError, match="4"):
            fit_te_model([(0.0, 1000.0), (1.0, 1100.0), (2.0, 1200.0)],
                         2100.0, 1034.0)

    def test_fit_reproduces_dft_profile_within_residual(self):
        js = gaussian_jsi(5e13, OMEGA_810, n=256)
        profile = entanglement_time_profile(js, 1000.0, 1034.0,
                                            np.arange(0.0, 5.0, 1.0))
        model, max_resid = fit_te_model(profile, 1000.0, 1034.0)
        for zi, tei in profile:
            assert abs(float(model.te_fs(zi)) - tei) / tei <= max_resid + 1e-12
