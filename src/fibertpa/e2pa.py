"""Entangled-pair bookkeeping and the linear-regime fluorescence bound.

Pair photons excite the sample at a rate linear in the pair flux in the
low-gain regime, which is the conservative scaling for an upper bound:

    F_E = sigma_E(0) n int_0^l [T_e(0)/T_e(z)] Q_pairs(z) EI(z) dz

with the entanglement-time broadening expressed through the fitted
T_e(z) law and the intact-pair rate through the Klyshko efficiency.
A null measurement with noise floor F_LB then bounds the cross-section:
sigma_E^UB = F_LB / (n * integral).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .c2pa import DetectionChain, FluorophoreSpec, depth_integral
from .errors import ConfigError
from .fiber import FiberSpec
from .jsa import EntanglementTimeModel
from .propagation import AttenuationModel, SourceSpec


@dataclass(frozen=True)
class PairSource:
    """Photon-pair source efficiencies and rates, referenced to the fiber.

    ``entanglement_area_um2`` is carried as a (low, high) interval; the
    bound itself is quoted independent of it, and the area only enters
    cross-experiment ratios.
    """

    effective_klyshko: float
    free_space_transmission: float
    coupling: float
    single_rate_per_s: float
    spatial_modes: float = 1.0
    entanglement_area_um2: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for nm in ("effective_klyshko", "free_space_transmission", "coupling"):
            v = getattr(self, nm)
            if not 0 < v <= 1:
                raise ConfigError(f"{nm} must be in (0, 1], got {v}")
        if self.single_rate_per_s < 0:
            raise ConfigError("single-photon rate must be non-negative")
        lo, hi = self.entanglement_area_um2
        if lo > hi:
            raise ConfigError("entanglement area interval must be (low, high)")

    @property
    def klyshko(self) -> float:
        return klyshko_efficiency(self.effective_klyshko,
                                  self.free_space_transmission, self.coupling)


def klyshko_efficiency(effective_klyshko: float, free_space_transmission: float,
                       coupling: float) -> float:
    """eta_K = eta_K' * eta_F * eta_C: detection probability of a partner photon."""
    for nm, v in (("effective_klyshko", effective_klyshko),
                  ("free_space_transmission", free_space_transmission),
                  ("coupling", coupling)):
        if not 0 < v <= 1:
            raise ValueError(f"{nm} must be in (0, 1], got {v}")
    return effective_klyshko * free_space_transmission * coupling


def spatial_mode_count(rate_ratio: float, coupling: float, eta_a: float,
                       eta_s: float) -> float:
    """Spatial modes of a multimode source seen through a few-mode fiber.

    M = eta_C eta_A eta_S / (Q_out / Q_in^mm); the ratio is the measured
    output-to-multimode-input photon-rate fraction.
    """
    if rate_ratio <= 0:
        raise ValueError(f"rate ratio must be positive, got {rate_ratio}")
    m = coupling * eta_a * eta_s / rate_ratio
    if m < 1:
        raise ValueError(
            f"derived mode count {m:.3f} < 1: transmission ratio inconsistent "
            "with the supplied efficiencies"
        )
    return m


def pair_rate(pair_source: PairSource, attenuation: AttenuationModel,
              wavelength_nm: float, z_cm):
    """Intact-pair rate in fiber: eta_K eta_A eta_S Q(z) / 2.

    Q(z) itself attenuates as eta_A eta_S, so pairs decay with the square
    of the single-photon transmission.
    """
    if np.any(np.asarray(z_cm) < 0):
        raise ValueError(f"z must be non-negative, got {z_cm}")
    t = attenuation.absorption_transmission(wavelength_nm, z_cm) * \
        attenuation.scatter_transmission(wavelength_nm, z_cm)
    return pair_source.klyshko * t * t * pair_source.single_rate_per_s / 2.0


def sigma_e_probabilistic(sigma_c_cm4s: float, te_fs: float,
                          ae_cm2: float) -> float:
    """Probabilistic-model pair cross-section sigma_E = sigma_C / (T_e A_e)."""
    if sigma_c_cm4s <= 0 or te_fs <= 0 or ae_cm2 <= 0:
        raise ValueError("sigma_C, T_e and A_e must all be positive")
    return sigma_c_cm4s / (te_fs * 1e-15 * ae_cm2)


def _pair_excitation_integral(source: SourceSpec, pair_source: PairSource,
                              attenuation: AttenuationModel, fiber: FiberSpec,
                              fluorophore: FluorophoreSpec,
                              detection: DetectionChain,
                              te_model: EntanglementTimeModel,
                              rtol: float = 1e-8) -> float:
    """int_0^l [T_e(0)/T_e(z)] Q_pairs(z) EI(z) dz  in s^-1 cm."""
    lam_e = source.wavelength_nm
    te0 = te_model.te_fs(0.0)

    def weight(z):
        return (te0 / te_model.te_fs(z)) * pair_rate(pair_source, attenuation,
                                                      lam_e, z)

    return depth_integral(weight, fiber.length_cm, lam_e, fluorophore, detection,
                          attenuation, fiber, rtol=rtol)


def forward_e2pef(sigma_e_cm2: float, source: SourceSpec,
                  pair_source: PairSource, attenuation: AttenuationModel,
                  fiber: FiberSpec, fluorophore: FluorophoreSpec,
                  detection: DetectionChain, te_model: EntanglementTimeModel,
                  rtol: float = 1e-8) -> float:
    """Detected pair-excited fluorescence rate (cnt/s), linear in pair flux."""
    if source.kind != "spdc":
        raise ValueError(
            "forward_e2pef models pair (spdc) excitation; use forward_c2pef "
            "for laser sources"
        )
    if not sigma_e_cm2 >= 0:
        raise ValueError(f"cross-section must be non-negative, got {sigma_e_cm2:g}")
    integral = _pair_excitation_integral(source, pair_source, attenuation,
                                         fiber, fluorophore, detection,
                                         te_model, rtol=rtol)
    return sigma_e_cm2 * fluorophore.number_density_per_cm3 * integral


def sigma_e_upper_bound(f_lb_cnt_s: float, source: SourceSpec,
                        pair_source: PairSource, attenuation: AttenuationModel,
                        fiber: FiberSpec, fluorophore: FluorophoreSpec,
                        detection: DetectionChain,
                        te_model: EntanglementTimeModel,
                        rtol: float = 1e-8) -> float:
    """Cross-section upper bound (cm^2) from a fluorescence noise floor.

    Exact algebraic inverse of :func:`forward_e2pef` at fixed configuration.
    """
    if f_lb_cnt_s <= 0:
        raise ValueError(f"fluorescence lower bound must be positive, got {f_lb_cnt_s}")
    integral = _pair_excitation_integral(source, pair_source, attenuation,
                                         fiber, fluorophore, detection,
                                         te_model, rtol=rtol)
    denom = fluorophore.number_density_per_cm3 * integral
    if denom <= 0:
        raise ConfigError(
            "pair-excitation integral vanished; check concentration, "
            "efficiencies and attenuation"
        )
    return f_lb_cnt_s / denom


def upper_bound_ratio(sigma1_cm2: float, te1_fs: float, ae1_um2: float,
                      sigma2_cm2: float, te2_fs: float, ae2_um2: float) -> float:
    """Compare two bounds with their source correlations factored out:

    R = (sigma1 T_e1 A_e1) / (sigma2 T_e2 A_e2).  Units cancel, so T_e
    and A_e only need to be consistent between the two experiments.
    """
    vals = (sigma1_cm2, te1_fs, ae1_um2, sigma2_cm2, te2_fs, ae2_um2)
    if any(v <= 0 for v in vals):
        raise ValueError("all ratio inputs must be positive")
    return (sigma1_cm2 * te1_fs * ae1_um2) / (sigma2_cm2 * te2_fs * ae2_um2)
