"""Forward fluorescence model, inversion, and the concentration curve."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from fibertpa import (DetectionChain, FluorophoreSpec, SourceSpec, c2pa,
                      conc_normalized_curve, detection_efficiency,
                      emission_integral, forward_c2pef, invert_sigma_c,
                      load_config)
from fibertpa.c2pa import configuration_integral, graded_quadrature
from fibertpa.constants import FS_TO_S, GM_CM4_S
from fibertpa.errors import DataError, FitError
from fibertpa.propagation import pulse_duration
from fibertpa.tables import SpectralTable
from tests.conftest import CONFIG_DIR, make_attenuation


def laser(w0=1.0e-6):
    return SourceSpec(kind="laser", wavelength_nm=810.0, rep_rate_hz=8.0e7,
                      pulse_fwhm_fs=110.0, photon_energy_j=2.45e-19,
                      pre_fiber_gdd_fs2=0.0, input_power_w=w0)


class TestDetectionEfficiency:
    def test_zero_path_returns_static_factor(self, detection3):
        att = make_attenuation(concentration_m=0.0)
        gam = detection_efficiency(detection3.gamma0, att, 0.0, 451.0)
        assert gam == pytest.approx(0.630, rel=1e-12)

    def test_bundled_return_transmission(self, detection3):
        # 0.034/cm over 36 cm leaves 29.4% of the fluorescence
        att = make_attenuation(concentration_m=0.0)
        gam = detection_efficiency(detection3.gamma0, att, 36.0, 451.0)
        assert gam == pytest.approx(0.185, abs=0.001)

    def test_non_increasing_in_depth(self, detection3):
        att = make_attenuation(concentration_m=1e-4)
        z = np.linspace(0.0, 36.0, 30)
        gam = detection_efficiency(detection3.gamma0, att, z, 451.0)
        assert np.all(np.diff(gam) < 0)


class TestEmissionIntegral:
    def test_single_line_value(self, detection3, fiber2, fluorophore3):
        att = make_attenuation()
        ei = emission_integral(fluorophore3, detection3, att, fiber2, 0.0)
        # product of the bundled effective values: 0.630 * 0.0146 * 0.67
        assert ei == pytest.approx(6.16e-3, abs=0.01e-3)

    def test_dark_fluorophore(self, detection3, fiber2):
        dark = FluorophoreSpec(quantum_yield=0.0, emission_peak_nm=451.0,
                               concentration_m=2.3e-3)
        att = make_attenuation()
        assert emission_integral(dark, detection3, att, fiber2, 0.0) == 0.0

    def test_narrow_spectrum_matches_single_line(self, detection3, fiber2):
        att = make_attenuation()
        center, width = 451.0, 0.05
        grid = np.linspace(center - 4 * width, center + 4 * width, 201)
        shape = np.exp(-((grid - center) ** 2) / (2 * width**2))
        fl_line = FluorophoreSpec(0.67, center, 2.3e-3)
        fl_tab = FluorophoreSpec.with_spectrum_shape(
            0.67, center, 2.3e-3, SpectralTable(tuple(grid), tuple(shape)))
        for z in (0.0, 1.0, 5.0):
            line = emission_integral(fl_line, detection3, att, fiber2, z)
            tab = emission_integral(fl_tab, detection3, att, fiber2, z)
            assert tab == pytest.approx(line, rel=1e-4)

    def test_spectrum_outside_band_rejected(self, detection3, fiber2):
        grid = np.linspace(400.0, 700.0, 64)
        fl = FluorophoreSpec.with_spectrum_shape(
            0.67, 451.0, 2.3e-3,
            SpectralTable(tuple(grid), tuple(np.ones_like(grid))))
        with pytest.raises(DataError, match="band"):
            emission_integral(fl, detection3, make_attenuation(), fiber2, 0.0)

    def test_spectrum_normalization_enforced(self):
        grid = np.linspace(430.0, 470.0, 32)
        with pytest.raises(Exception, match="integrates"):
            FluorophoreSpec(0.67, 451.0, 1e-3,
                            SpectralTable(tuple(grid), tuple(np.ones_like(grid))))


def laser_integrand(cfg, source):
    """The documented configuration integrand T^2(z) / tau(z) * EI(z)."""
    att, lam_e = cfg.attenuation, source.wavelength_nm

    def g(z):
        t = att.absorption_transmission(lam_e, z) * att.scatter_transmission(lam_e, z)
        return t * t / (pulse_duration(source, cfg.fiber, z) * FS_TO_S) * \
            emission_integral(cfg.fluorophore, cfg.detection, att, cfg.fiber, z)

    return g


def quad_reference(g, length_cm, points):
    edges = [0.0, *sorted(points), length_cm]
    return sum(quad(g, a, b, epsabs=0.0, epsrel=1e-11, limit=400)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def tabulated(cfg):
    """cfg with a 131-point emission spectrum across its detection band."""
    grid = np.linspace(*cfg.detection.band_nm, 131)
    shape = np.exp(-(((grid - 451.0) / 15.0) ** 2))
    fl = FluorophoreSpec.with_spectrum_shape(
        cfg.fluorophore.quantum_yield, cfg.fluorophore.emission_peak_nm,
        cfg.fluorophore.concentration_m, SpectralTable(tuple(grid), tuple(shape)))
    return dataclasses.replace(cfg, fluorophore=fl)


def laser_args(cfg):
    return (cfg.fiber, cfg.attenuation, cfg.fluorophore, cfg.detection)


class TestDepthQuadrature:
    def test_polynomial_exact(self):
        assert graded_quadrature(lambda x: x**3, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_boundary_layer_integrand(self):
        k = 23.4
        val = graded_quadrature(lambda x: np.exp(-k * x), 36.0, k, rtol=1e-10)
        assert val == pytest.approx(1.0 / k, rel=1e-9)

    def test_unresolvable_integrand_raises(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return 1.0 + np.cos(1e6 * x)

        with pytest.raises(FitError, match="quadrature"):
            graded_quadrature(f, 36.0)
        assert sum(calls) <= 4096 * 48  # the panel budget bounds the work

    def test_mid_fiber_chirp_zero_matches_quad(self):
        # a 1 fs pulse whose pre-chirp cancels 17.3 cm in: 1/tau(z) peaks over
        # ~4e-4 cm inside a graded panel, which only bisection resolves
        cfg = load_config(CONFIG_DIR / "experiment-1.json")
        z0 = 17.3
        source = dataclasses.replace(cfg.source, pulse_fwhm_fs=1.0,
                                     pre_fiber_gdd_fs2=-cfg.fiber.gvd_fs2_per_cm * z0)
        val = configuration_integral(source, *laser_args(cfg),
                                     rtol=cfg.z_quadrature_rtol)
        ref = quad_reference(laser_integrand(cfg, source), cfg.fiber.length_cm,
                             [0.01, 0.1, 1.0, z0])
        assert val == pytest.approx(ref, rel=1e-9)

    def test_steep_excitation_attenuation_matches_closed_form(self, fiber2,
                                                              fluorophore3, detection3):
        # T(810 nm, z)^2 decays over ~1e-10 cm, far inside the first panel
        # graded from the emission side; the grading must follow it
        att = dataclasses.replace(make_attenuation(), sample_extinction_per_m_cm=(
            SpectralTable((451.0, 810.0), (4417.0, 1e12))))
        decay = 2.0 * att.absorption_coefficient(810.0) + \
            att.absorption_coefficient(451.0) + att.scatter_coefficient(451.0)
        ei0 = emission_integral(fluorophore3, detection3, att, fiber2, 0.0)
        val = configuration_integral(laser(), fiber2, att, fluorophore3, detection3)
        assert val == pytest.approx(ei0 / (110.0 * FS_TO_S * decay), rel=1e-9)

    @pytest.mark.parametrize("mode", ["single line", "tabulated spectrum"])
    def test_experiment_3_matches_quad(self, mode):
        cfg = load_config(CONFIG_DIR / "experiment-3.json")
        if mode == "tabulated spectrum":
            cfg = tabulated(cfg)
        assert cfg.fluorophore.spectral_mode == mode
        assert cfg.fluorophore.concentration_m == 2.30e-3
        val = configuration_integral(cfg.source, *laser_args(cfg),
                                     rtol=cfg.z_quadrature_rtol)
        ref = quad_reference(laser_integrand(cfg, cfg.source), cfg.fiber.length_cm,
                             [0.005, 0.02, 0.1, 0.5, 2.0])
        assert val == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("spectrum", [False, True])
    def test_bounded_node_count(self, monkeypatch, spectrum):
        depths = []
        emission = c2pa.emission_integral

        def counted(fluorophore, detection, attenuation, fiber, z):
            depths.append(np.size(z))
            return emission(fluorophore, detection, attenuation, fiber, z)

        monkeypatch.setattr(c2pa, "emission_integral", counted)
        cfg = load_config(CONFIG_DIR / "experiment-3.json")
        cfg = tabulated(cfg) if spectrum else cfg
        configuration_integral(cfg.source, *laser_args(cfg),
                               rtol=cfg.z_quadrature_rtol)
        assert 0 < sum(depths) <= 1000

    @pytest.mark.parametrize("spectrum", [False, True])
    def test_round_trip(self, spectrum):
        cfg = load_config(CONFIG_DIR / "experiment-3.json")
        cfg = tabulated(cfg) if spectrum else cfg
        sigma = 570.0 * GM_CM4_S
        fc = forward_c2pef(sigma, cfg.source, *laser_args(cfg))
        coeff = fc / cfg.source.input_power_w**2
        assert invert_sigma_c(coeff, cfg.source, *laser_args(cfg)) == \
            pytest.approx(sigma, rel=1e-10)


class TestNumberDensity:
    def test_molar_conversion(self):
        fl = FluorophoreSpec(0.67, 451.0, 1.0)
        assert fl.number_density_per_cm3 / fl.concentration_m == pytest.approx(
            6.022e20, rel=1e-3)

    def test_scales_linearly(self):
        a = FluorophoreSpec(0.67, 451.0, 1.95e-5).number_density_per_cm3
        b = FluorophoreSpec(0.67, 451.0, 3.90e-5).number_density_per_cm3
        assert b == pytest.approx(2.0 * a, rel=1e-12)


class TestForwardModel:
    def test_zero_cross_section(self, fiber2, fluorophore3, detection3):
        att = make_attenuation()
        assert forward_c2pef(0.0, laser(), fiber2, att, fluorophore3, detection3) == 0.0

    def test_negative_cross_section_rejected(self, fiber2, fluorophore3, detection3):
        with pytest.raises(ValueError, match="non-negative"):
            forward_c2pef(-5.0 * GM_CM4_S, laser(), fiber2, make_attenuation(),
                          fluorophore3, detection3)

    def test_exact_quadratic_power_scaling(self, fiber2, fluorophore3, detection3):
        att = make_attenuation()
        sigma = 570.0 * GM_CM4_S
        f1 = forward_c2pef(sigma, laser(1e-6), fiber2, att, fluorophore3, detection3)
        f2 = forward_c2pef(sigma, laser(2e-6), fiber2, att, fluorophore3, detection3)
        assert f2 == pytest.approx(4.0 * f1, rel=1e-12)
        # log-log slope is exactly 2
        slope = (np.log(f2) - np.log(f1)) / np.log(2.0)
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_wrong_source_kind_redirects(self, fiber2, fluorophore3, detection3,
                                         spdc_source):
        att = make_attenuation()
        with pytest.raises(ValueError, match="forward_e2pef"):
            forward_c2pef(1e-48, spdc_source, fiber2, att, fluorophore3, detection3)

    def test_monotone_in_attenuation(self, fiber2, fluorophore3, detection3):
        sigma = 500.0 * GM_CM4_S
        rates = []
        for scale in (0.5, 1.0, 2.0):
            att = make_attenuation(scatter={451.0: 0.0301 * scale,
                                            810.0: 0.002 * scale})
            rates.append(forward_c2pef(sigma, laser(), fiber2, att,
                                       fluorophore3, detection3))
        assert rates[0] > rates[1] > rates[2]

    def test_monotone_in_prechirp(self, fiber2, fluorophore3, detection3):
        att = make_attenuation()
        sigma = 500.0 * GM_CM4_S
        rates = []
        for d0 in (0.0, 2000.0, 6000.0):
            src = SourceSpec(kind="laser", wavelength_nm=810.0, rep_rate_hz=8.0e7,
                             pulse_fwhm_fs=110.0, photon_energy_j=2.45e-19,
                             pre_fiber_gdd_fs2=d0, input_power_w=1e-6)
            rates.append(forward_c2pef(sigma, src, fiber2, att,
                                       fluorophore3, detection3))
        assert rates[0] > rates[1] > rates[2]

    def test_extra_length_does_not_change_signal(self, fiber1, fluorophore3,
                                                 detection3):
        # once the integrand has decayed away, truncation is immaterial
        att = make_attenuation(scatter={451.0: 0.0891, 810.0: 0.0})
        sigma = 500.0 * GM_CM4_S
        src = laser()
        full = configuration_integral(src, fiber1, att, fluorophore3, detection3)
        truncated = configuration_integral(src, fiber1, att, fluorophore3,
                                           detection3, length_cm=25.0)
        assert truncated == pytest.approx(full, rel=1e-5)


class TestInversion:
    @pytest.mark.parametrize("sigma_gm", [1.0, 390.0, 1e4])
    def test_round_trip_exact(self, sigma_gm, fiber2, fluorophore3, detection3):
        att = make_attenuation()
        sigma = sigma_gm * GM_CM4_S
        w0 = 1e-6
        fc = forward_c2pef(sigma, laser(w0), fiber2, att, fluorophore3, detection3)
        back = invert_sigma_c(fc / w0**2, laser(w0), fiber2, att, fluorophore3,
                              detection3)
        assert back == pytest.approx(sigma, rel=1e-10)

    def test_halving_density_doubles_sigma(self, fiber2, detection3):
        att = make_attenuation(concentration_m=0.0)
        coeff = 3.62e5 * 1e12
        fl_a = FluorophoreSpec(0.67, 451.0, 1.0e-3)
        fl_b = FluorophoreSpec(0.67, 451.0, 2.0e-3)
        sa = invert_sigma_c(coeff, laser(), fiber2, att, fl_a, detection3)
        sb = invert_sigma_c(coeff, laser(), fiber2, att, fl_b, detection3)
        assert sa == pytest.approx(2.0 * sb, rel=1e-10)

    def test_nonpositive_coefficient_rejected(self, fiber2, fluorophore3, detection3):
        att = make_attenuation()
        for bad in (0.0, -5.0):
            with pytest.raises(ValueError, match="positive"):
                invert_sigma_c(bad, laser(), fiber2, att, fluorophore3, detection3)

    def test_tabulated_spectrum_relieves_reabsorption(self, fiber2, detection3):
        """Spectral-mode sensitivity at high concentration.

        With the whole emission placed on the strongly reabsorbed line,
        the configuration integral collapses and the inverted
        cross-section inflates.  A tabulated spectrum whose red side
        escapes the absorption edge recovers most of the integral, so
        the inversion drops by more than an order of magnitude.  This is
        the mechanism behind the two known-failing acceptance checks.
        """
        from fibertpa import AttenuationModel
        c = 2.30e-3
        att = AttenuationModel.build(
            solvent={451.0: 0.0039, 810.0: 0.003},
            extinction={430.0: 3.0e4, 451.0: 4417.0, 470.0: 400.0,
                        490.0: 20.0, 510.0: 0.0, 810.0: 0.0},
            concentration_m=c,
            scatter={451.0: 0.0301, 810.0: 0.0},
        )
        grid = np.linspace(432.0, 555.0, 200)
        shape = np.exp(-((grid - 470.0) ** 2) / (2 * 25.0**2))
        fl_tab = FluorophoreSpec.with_spectrum_shape(
            0.67, 451.0, c, SpectralTable(tuple(grid), tuple(shape)))
        fl_line = FluorophoreSpec(0.67, 451.0, c)
        coeff = 3.62e5 * 1e12
        sigma_line = invert_sigma_c(coeff, laser(), fiber2, att, fl_line,
                                    detection3)
        sigma_tab = invert_sigma_c(coeff, laser(), fiber2, att, fl_tab,
                                   detection3)
        assert sigma_line / sigma_tab > 10.0

    def test_single_line_inversions_of_bundled_coefficients(self, fiber1, fiber2,
                                                            detection3):
        """Frozen single-line inversion values for the bundled experiments.

        These document what the bundled effective-line parameters imply;
        the strong-reabsorption line makes the high-concentration value
        large (see the acceptance suite for the cross-experiment check).
        """
        from fibertpa.tables import SpectralTable
        det1 = DetectionChain(gamma0=SpectralTable.constant(0.669), band_nm=(430, 560))
        cases = [
            # (fiber, detection, concentration, D0, coeff uW^-2, expected GM)
            ("f1", det1, 1.95e-5, 2000.0, 3.14e3, 383.5),
            ("f1", det1, 1.70e-4, 0.0, 3.19e4, 1864.9),
            ("f2", detection3, 2.30e-3, 0.0, 3.62e5, 20976.6),
        ]
        for which, det, c, d0, coeff, expected_gm in cases:
            fiber = fiber1 if which == "f1" else fiber2
            scatter = {451.0: 0.0891, 810.0: 0.0} if which == "f1" else None
            att = make_attenuation(concentration_m=c, scatter=scatter)
            src = SourceSpec(kind="laser", wavelength_nm=810.0, rep_rate_hz=8.0e7,
                             pulse_fwhm_fs=110.0, photon_energy_j=2.45e-19,
                             pre_fiber_gdd_fs2=d0, input_power_w=1e-9)
            fl = FluorophoreSpec(0.67, 451.0, c)
            sigma = invert_sigma_c(coeff * 1e12, src, fiber, att, fl, det)
            assert sigma / GM_CM4_S == pytest.approx(expected_gm, rel=1e-3)


class TestConcentrationCurve:
    def test_flat_without_reabsorption(self, fiber2, detection3):
        att = dataclasses.replace(make_attenuation(concentration_m=0.0),
                                  sample_extinction_per_m_cm=SpectralTable.constant(0.0))
        fl = FluorophoreSpec(0.67, 451.0, 1e-3)
        grid = np.logspace(-5, np.log10(3e-3), 7)
        curve = conc_normalized_curve(390.0 * GM_CM4_S, laser(), fiber2, att, fl,
                                      detection3, grid)
        vals = np.array([v for _, v in curve])
        assert np.all(np.abs(vals / vals[0] - 1.0) < 1e-9)

    def test_decreasing_with_reabsorption(self, fiber2, fluorophore3, detection3):
        att = make_attenuation()
        grid = np.logspace(-5, np.log10(3e-3), 9)
        curve = conc_normalized_curve(390.0 * GM_CM4_S, laser(), fiber2, att,
                                      fluorophore3, detection3, grid)
        vals = np.array([v for _, v in curve])
        assert np.all(np.diff(vals) < 0)

    def test_dilute_limit_matches_no_reabsorption(self, fiber2, fluorophore3,
                                                  detection3):
        att = make_attenuation()
        no_reabs = dataclasses.replace(att, concentration_m=0.0,
                                       sample_extinction_per_m_cm=SpectralTable.constant(0.0))
        tiny = 1e-9
        with_r = conc_normalized_curve(390.0 * GM_CM4_S, laser(), fiber2, att,
                                       fluorophore3, detection3, [tiny])
        without = conc_normalized_curve(390.0 * GM_CM4_S, laser(), fiber2, no_reabs,
                                        fluorophore3, detection3, [tiny])
        assert with_r[0][1] == pytest.approx(without[0][1], rel=1e-3)

    def test_bad_grid_rejected(self, fiber2, fluorophore3, detection3):
        att = make_attenuation()
        with pytest.raises(DataError):
            conc_normalized_curve(1e-48, laser(), fiber2, att, fluorophore3,
                                  detection3, [1e-3, 1e-4])
