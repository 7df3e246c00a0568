"""Attenuation, pulse broadening, flux profiles and the decay fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibertpa import (AttenuationModel, SourceSpec, efficiency_components,
                      fit_exponential_decay, peak_flux, photon_rate, power_at,
                      propagation_profile, pulse_duration)
from fibertpa.errors import ConfigError, DataError
from fibertpa.tables import SpectralTable, read_profile_csv
from fibertpa.uncertainty import read_budget_csv
from tests.conftest import make_attenuation


def bare_solvent(coefficient, lam=810.0):
    return AttenuationModel.build(solvent={lam: coefficient})


def laser(w0=1.75e-9, d0=2100.0, tau0=110.0):
    return SourceSpec(kind="laser", wavelength_nm=810.0, rep_rate_hz=8.0e7,
                      pulse_fwhm_fs=tau0, photon_energy_j=2.45e-19,
                      pre_fiber_gdd_fs2=d0, input_power_w=w0)


class TestPowerAt:
    @pytest.mark.parametrize("coeff,z,loss_pct", [
        (0.0030, 37.0, 10.5),
        (0.0036, 37.0, 12.5),
        (0.093, 37.0, 96.8),
        (0.034, 36.0, 70.6),
    ])
    def test_fractional_losses(self, coeff, z, loss_pct):
        src = laser(w0=1.0)
        att = bare_solvent(coeff)
        loss = 100.0 * (1.0 - power_at(src, att, z))
        assert loss == pytest.approx(loss_pct, abs=0.2)

    def test_boundary_value(self):
        src = laser()
        assert power_at(src, bare_solvent(0.05), 0.0) == src.input_power_w

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            power_at(laser(), bare_solvent(0.01), -1.0)

    def test_decadic_extinction_carries_ln10(self):
        decadic = make_attenuation(concentration_m=1e-3, convention="decadic")
        natural = make_attenuation(concentration_m=1e-3, convention="natural")
        k_dec = decadic.absorption_coefficient(451.0)
        k_nat = natural.absorption_coefficient(451.0)
        assert (k_dec - 0.0039) == pytest.approx(np.log(10) * (k_nat - 0.0039),
                                                 rel=1e-12)

    @given(z1=st.floats(0.0, 20.0), z2=st.floats(0.0, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_semigroup_property(self, z1, z2):
        src = laser(w0=2.5e-9)
        att = bare_solvent(0.034)
        w0 = src.input_power_w
        lhs = power_at(src, att, z1 + z2)
        rhs = power_at(src, att, z1) * power_at(src, att, z2) / w0
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestEfficiencyComponents:
    def test_bundled_coupling_value(self):
        eta_a = np.exp(-0.003 * 37.0)
        assert efficiency_components(0.43, eta_a, 1.0) == pytest.approx(0.48, abs=0.01)

    def test_lossless_fiber_identity(self):
        assert efficiency_components(0.37, 1.0, 1.0) == 0.37

    def test_direct_division(self):
        eta_a = np.exp(-0.003 * 37.0)
        assert efficiency_components(0.40, eta_a, 1.0) == pytest.approx(0.447, abs=1e-3)

    def test_inconsistent_measurement_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            efficiency_components(0.95, 0.9, 1.0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            efficiency_components(0.0, 0.9, 1.0)
        with pytest.raises(ValueError):
            efficiency_components(0.4, 1.2, 1.0)


class TestPulseDuration:
    def test_transform_limited_input(self, fiber2):
        assert pulse_duration(laser(d0=0.0), fiber2, 0.0) == pytest.approx(110.0)

    def test_pre_chirped_input(self, fiber2):
        # hand evaluation of the closed form at D0 = 2100 fs^2
        assert pulse_duration(laser(d0=2100.0), fiber2, 0.0) == pytest.approx(
            122.0726, abs=0.01)

    def test_broadening_along_fiber(self, fiber2):
        # hand evaluation at beta z = 1034 * 36 fs^2
        assert pulse_duration(laser(d0=0.0), fiber2, 36.0) == pytest.approx(
            944.670, abs=0.01)

    def test_never_below_input_duration_for_matched_signs(self, fiber2):
        for z in np.linspace(0.0, 36.0, 40):
            assert pulse_duration(laser(d0=2000.0), fiber2, z) >= 110.0 - 1e-9

    def test_asymptotic_linear_growth(self, fiber2):
        z = 500.0
        tau = pulse_duration(laser(d0=0.0), fiber2, z)
        expected = 4 * np.log(2) * 1034.0 * z / 110.0
        assert tau == pytest.approx(expected, rel=1e-3)


class TestPeakFlux:
    def test_bundled_minimum_power_flux(self, fiber2):
        src = laser(w0=1.75e-9, d0=0.0)
        phi = peak_flux(src, fiber2, bare_solvent(0.003), 0.0)
        assert phi == pytest.approx(1.1e22, rel=0.10)

    def test_dark_input(self, fiber2):
        src = laser(w0=0.0)
        assert peak_flux(src, fiber2, bare_solvent(0.003), 0.0) == 0.0

    def test_linearity_in_power(self, fiber2):
        att = bare_solvent(0.003)
        for z in (0.0, 7.0, 21.0):
            p1 = peak_flux(laser(w0=1e-9), fiber2, att, z)
            p2 = peak_flux(laser(w0=2e-9), fiber2, att, z)
            assert p2 == pytest.approx(2 * p1, rel=1e-12)

    def test_fluence_is_dispersion_invariant(self, fiber2):
        att = bare_solvent(0.003)
        src = laser(w0=1e-9, d0=0.0)
        for z in (0.0, 10.0, 30.0):
            product = peak_flux(src, fiber2, att, z) * pulse_duration(src, fiber2, z)
            w = power_at(src, att, z)
            assert product / w == pytest.approx(
                peak_flux(src, fiber2, att, 0.0) * 110.0 / src.input_power_w,
                rel=1e-12)

    def test_spdc_needs_effective_duration(self, fiber2, spdc_source):
        phi = peak_flux(spdc_source, fiber2, bare_solvent(0.003), 0.0)
        assert phi == pytest.approx(7.7e19, rel=0.05)
        bare = SourceSpec(kind="spdc", wavelength_nm=810.0, rep_rate_hz=8.0e7,
                          pulse_fwhm_fs=110.0, input_rate_per_s=1.49e8)
        with pytest.raises(ConfigError, match="effective_pulse_fwhm_fs"):
            peak_flux(bare, fiber2, bare_solvent(0.003), 0.0)


class TestPhotonRate:
    def test_rate_from_power(self):
        src = SourceSpec(kind="laser", wavelength_nm=810.0, rep_rate_hz=8.0e7,
                         pulse_fwhm_fs=110.0, photon_energy_j=2.45e-19,
                         input_power_w=36.5e-12)
        assert photon_rate(src, bare_solvent(0.0), 0.0) == pytest.approx(
            1.49e8, rel=0.01)

    def test_pump_rate_scale(self):
        assert 49.2 * 8.25e9 == pytest.approx(4.06e11, rel=0.01)

    def test_dark(self):
        assert photon_rate(laser(w0=0.0), bare_solvent(0.0), 5.0) == 0.0


class TestSourceSpecValidation:
    def test_photon_energy_consistency_enforced(self):
        with pytest.raises(ConfigError, match="photon energy"):
            SourceSpec(kind="laser", wavelength_nm=810.0, rep_rate_hz=8e7,
                       pulse_fwhm_fs=110.0, photon_energy_j=2.8e-19,
                       input_power_w=1e-9)

    def test_kind_checked(self):
        with pytest.raises(ConfigError):
            SourceSpec(kind="lamp", wavelength_nm=810.0, rep_rate_hz=8e7,
                       pulse_fwhm_fs=110.0, input_power_w=1e-9)

    def test_missing_rate_for_spdc(self):
        with pytest.raises(ConfigError):
            SourceSpec(kind="spdc", wavelength_nm=810.0, rep_rate_hz=8e7,
                       pulse_fwhm_fs=110.0)


class TestProfile:
    def test_profile_monotone_under_loss(self, fiber2):
        src = laser(d0=0.0)
        prof = propagation_profile(src, fiber2, bare_solvent(0.02),
                                   np.linspace(0.0, 36.0, 25))
        assert np.all(np.diff(prof.power_w) < 0)
        assert np.all(np.diff(prof.tau_fs) >= 0)

    def test_profile_csv_roundtrip(self, fiber2, tmp_path):
        src = laser(d0=0.0)
        prof = propagation_profile(src, fiber2, bare_solvent(0.02),
                                   np.linspace(0.0, 36.0, 7))
        out = tmp_path / "profile.csv"
        prof.write_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "z_cm,w_watts,q_per_s,tau_fs,phi0_per_cm2_s"


class TestDecayFit:
    def test_noiseless_recovery(self):
        z = np.linspace(0.0, 30.0, 40)
        fit = fit_exponential_decay(z, 3.7 * np.exp(-0.05 * z))
        assert fit.coefficient_per_cm == pytest.approx(0.05, rel=1e-10)
        assert fit.amplitude == pytest.approx(3.7, rel=1e-10)

    def test_constant_profile(self):
        z = np.linspace(0.0, 30.0, 20)
        fit = fit_exponential_decay(z, np.full_like(z, 2.0))
        assert fit.coefficient_per_cm == pytest.approx(0.0, abs=1e-12)

    def test_noisy_monte_carlo_recovery(self):
        rng = np.random.default_rng(1234)
        z = np.linspace(0.0, 30.0, 60)
        k_true = 0.034
        for _ in range(20):
            data = np.exp(-k_true * z) * (1.0 + 0.02 * rng.standard_normal(z.size))
            fit = fit_exponential_decay(z, data)
            assert fit.coefficient_per_cm == pytest.approx(k_true, rel=0.10)

    def test_roundtrip_identity_on_model_data(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = rng.uniform(0.01, 0.3)
            i0 = rng.uniform(0.1, 50.0)
            z = np.linspace(0.0, 25.0, 17)
            fit = fit_exponential_decay(z, i0 * np.exp(-k * z))
            assert fit.coefficient_per_cm == pytest.approx(k, rel=1e-9)
            assert fit.amplitude == pytest.approx(i0, rel=1e-9)

    def test_data_errors(self):
        with pytest.raises(DataError, match="3 points"):
            fit_exponential_decay([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(DataError, match="positive"):
            fit_exponential_decay([0.0, 1.0, 2.0], [1.0, -0.5, 0.2])
        with pytest.raises(DataError, match="increasing"):
            fit_exponential_decay([0.0, 2.0, 1.0], [1.0, 0.5, 0.2])

    def test_csv_ingestion_path(self, tmp_path):
        z = np.linspace(0.5, 25.0, 30)
        i = 4.2 * np.exp(-0.093 * z)
        path = tmp_path / "scatter.csv"
        path.write_text("z_cm,intensity\n" +
                        "\n".join(f"{a},{b}" for a, b in zip(z, i)) + "\n")
        z_in, i_in = read_profile_csv(path)
        fit = fit_exponential_decay(z_in, i_in)
        assert fit.coefficient_per_cm == pytest.approx(0.093, rel=1e-10)


class TestCsvRows:
    @pytest.mark.parametrize("read", [read_profile_csv, SpectralTable.from_csv,
                                      read_budget_csv],
                             ids=["profile", "spectral-table", "budget"])
    def test_csv_rows_take_one_header(self, tmp_path, read):
        path = tmp_path / "rows.csv"
        path.write_text("# comment\n\nname,x,y\n1.0,2.0,3.0\n\n4.0,5.0,6.0\n")
        read(path)
        for bad in ("name,x,y\n1.0,2.0,3.0\nnot,a,row\n",
                    "name,x,y\nunits,x,y\n1.0,2.0,3.0\n"):
            path.write_text(bad)
            with pytest.raises(DataError, match="malformed row"):
                read(path)
