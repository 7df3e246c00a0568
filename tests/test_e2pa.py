"""Pair bookkeeping, the linear-regime forward model, and the bound."""

import numpy as np
import pytest

from fibertpa import (PairSource, forward_e2pef, klyshko_efficiency, pair_rate,
                      sigma_e_probabilistic, sigma_e_upper_bound,
                      spatial_mode_count, upper_bound_ratio)
from fibertpa.constants import GM_CM4_S
from tests.conftest import make_attenuation


class TestKlyshko:
    def test_bundled_value(self):
        eta = klyshko_efficiency(0.94, 0.565, 0.48)
        assert eta == pytest.approx(0.255, abs=1e-3)
        assert eta == pytest.approx(0.25, abs=0.01)

    def test_unit_inputs(self):
        assert klyshko_efficiency(1.0, 1.0, 1.0) == 1.0

    @pytest.mark.parametrize("args", [(0.5, 1.0, 1.0), (1.0, 0.5, 1.0),
                                      (1.0, 1.0, 0.5)])
    def test_single_factor(self, args):
        assert klyshko_efficiency(*args) == 0.5

    def test_domain(self):
        with pytest.raises(ValueError):
            klyshko_efficiency(1.2, 0.5, 0.5)
        with pytest.raises(ValueError):
            klyshko_efficiency(0.9, 0.0, 0.5)


class TestSpatialModeCount:
    def test_bundled_mode_estimate(self):
        eta_a = np.exp(-0.003 * 37.0)
        m = spatial_mode_count(5.8e-4, 0.48, eta_a, 1.0)
        assert m == pytest.approx(740.0, rel=0.05)

    def test_single_mode_limit(self):
        assert spatial_mode_count(0.48 * 0.9, 0.48, 0.9, 1.0) == pytest.approx(1.0)

    def test_per_mode_occupancy(self):
        occupancy = 49.2 * 8.25e9 / 8.0e7 / 740.0
        assert occupancy == pytest.approx(6.8, rel=0.05)

    def test_inconsistent_ratio_rejected(self):
        with pytest.raises(ValueError, match="< 1"):
            spatial_mode_count(0.9, 0.48, 0.9, 1.0)


class TestPairRate:
    def test_entrance_rate(self, pair_source3):
        att = make_attenuation()
        rate = pair_rate(pair_source3, att, 810.0, 0.0)
        # eta_K' eta_F eta_C * Q(0) / 2 with the bundled values
        assert rate == pytest.approx(0.94 * 0.565 * 0.48 * 1.49e8 / 2.0, rel=1e-12)
        assert rate == pytest.approx(1.86e7, rel=0.03)

    def test_lossless_limit(self):
        from fibertpa import AttenuationModel
        ps = PairSource(1.0, 1.0, 1.0, 1.49e8)
        att = AttenuationModel.build(solvent=0.0)
        assert pair_rate(ps, att, 810.0, 12.0) == pytest.approx(1.49e8 / 2.0,
                                                                rel=1e-12)

    def test_quadratic_loss_signature(self, pair_source3):
        att = make_attenuation()
        z = 20.0
        singles_t = att.absorption_transmission(810.0, z) * \
            att.scatter_transmission(810.0, z)
        ratio = pair_rate(pair_source3, att, 810.0, z) / \
            pair_rate(pair_source3, att, 810.0, 0.0)
        assert ratio == pytest.approx(singles_t**2, rel=1e-12)


class TestProbabilisticModel:
    def test_direct_evaluation(self):
        # sigma_C = 390 GM, T_e = 1070 fs, A_e = 18 um^2 = 1.8e-7 cm^2
        sigma = sigma_e_probabilistic(390.0 * GM_CM4_S, 1070.0, 18.0e-8)
        assert sigma == pytest.approx(2.0249e-29, rel=1e-4)

    def test_doubling_te_halves(self):
        a = sigma_e_probabilistic(1e-47, 1000.0, 1e-7)
        b = sigma_e_probabilistic(1e-47, 2000.0, 1e-7)
        assert a == pytest.approx(2.0 * b, rel=1e-12)

    def test_doubling_area_halves(self):
        a = sigma_e_probabilistic(1e-47, 1000.0, 1e-7)
        b = sigma_e_probabilistic(1e-47, 1000.0, 2e-7)
        assert a == pytest.approx(2.0 * b, rel=1e-12)


class TestForwardAndBound:
    def test_zero_cross_section(self, spdc_source, pair_source3, fiber2,
                                fluorophore3, detection3, te_model3):
        att = make_attenuation()
        assert forward_e2pef(0.0, spdc_source, pair_source3, att, fiber2,
                             fluorophore3, detection3, te_model3) == 0.0

    def test_linear_in_pair_rate(self, spdc_source, pair_source3, fiber2,
                                 fluorophore3, detection3, te_model3):
        att = make_attenuation()
        doubled = PairSource(
            pair_source3.effective_klyshko, pair_source3.free_space_transmission,
            pair_source3.coupling, 2.0 * pair_source3.single_rate_per_s,
            pair_source3.spatial_modes, pair_source3.entanglement_area_um2)
        f1 = forward_e2pef(1e-24, spdc_source, pair_source3, att, fiber2,
                           fluorophore3, detection3, te_model3)
        f2 = forward_e2pef(1e-24, spdc_source, doubled, att, fiber2,
                           fluorophore3, detection3, te_model3)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12)

    def test_wrong_source_kind_redirects(self, laser_source, pair_source3, fiber2,
                                         fluorophore3, detection3, te_model3):
        att = make_attenuation()
        with pytest.raises(ValueError, match="forward_c2pef"):
            forward_e2pef(1e-24, laser_source, pair_source3, att, fiber2,
                          fluorophore3, detection3, te_model3)

    def test_negative_cross_section_rejected(self, spdc_source, pair_source3, fiber2,
                                             fluorophore3, detection3, te_model3):
        with pytest.raises(ValueError, match="non-negative"):
            forward_e2pef(-1e-22, spdc_source, pair_source3, make_attenuation(), fiber2,
                          fluorophore3, detection3, te_model3)

    def test_round_trip_exact(self, spdc_source, pair_source3, fiber2,
                              fluorophore3, detection3, te_model3):
        att = make_attenuation()
        for flb in (0.3, 1.0, 4.7):
            sigma = sigma_e_upper_bound(flb, spdc_source, pair_source3, att,
                                        fiber2, fluorophore3, detection3,
                                        te_model3)
            back = forward_e2pef(sigma, spdc_source, pair_source3, att, fiber2,
                                 fluorophore3, detection3, te_model3)
            assert back == pytest.approx(flb, rel=1e-10)

    def test_bound_linear_in_floor(self, spdc_source, pair_source3, fiber2,
                                   fluorophore3, detection3, te_model3):
        att = make_attenuation()
        s1 = sigma_e_upper_bound(1.0, spdc_source, pair_source3, att, fiber2,
                                 fluorophore3, detection3, te_model3)
        s2 = sigma_e_upper_bound(2.0, spdc_source, pair_source3, att, fiber2,
                                 fluorophore3, detection3, te_model3)
        assert s2 == pytest.approx(2.0 * s1, rel=1e-12)

    def test_transmission_improvement_quadratic_at_entrance(self):
        # doubling the pre-fiber transmission doubles eta_K and doubles
        # Q(0); the pair rate responds quadratically to single-photon loss
        att = make_attenuation()
        base_ps = PairSource(0.94, 0.3, 0.48, 1.49e8)
        improved_ps = PairSource(0.94, 0.6, 0.48, 2.0 * 1.49e8)
        base = pair_rate(base_ps, att, 810.0, 0.0)
        improved = pair_rate(improved_ps, att, 810.0, 0.0)
        assert improved == pytest.approx(4.0 * base, rel=1e-12)

    def test_nonpositive_floor_rejected(self, spdc_source, pair_source3, fiber2,
                                        fluorophore3, detection3, te_model3):
        att = make_attenuation()
        with pytest.raises(ValueError, match="positive"):
            sigma_e_upper_bound(0.0, spdc_source, pair_source3, att, fiber2,
                                fluorophore3, detection3, te_model3)


class TestUpperBoundRatio:
    def test_bundled_comparison(self):
        r = upper_bound_ratio(5.8e-24, 1070.0, 6350.0, 2.1e-25, 1620.0, 13700.0)
        assert r == pytest.approx(8.5, abs=0.2)

    def test_identical_experiments(self):
        assert upper_bound_ratio(1e-24, 1000.0, 10.0, 1e-24, 1000.0, 10.0) == 1.0

    def test_reciprocity(self):
        a = upper_bound_ratio(5.8e-24, 1070.0, 6350.0, 2.1e-25, 1620.0, 13700.0)
        b = upper_bound_ratio(2.1e-25, 1620.0, 13700.0, 5.8e-24, 1070.0, 6350.0)
        assert a * b == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            upper_bound_ratio(0.0, 1070.0, 6350.0, 2.1e-25, 1620.0, 13700.0)
