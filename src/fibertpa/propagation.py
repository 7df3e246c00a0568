"""Power, photon-rate, pulse-duration and peak-flux profiles along the fiber.

Attenuation follows Beer-Lambert form at the evaluation wavelength:

    W(z) = W0 exp(-(a_sol + ln(10) eps_sam c + mu) z)

The sample extinction coefficient is a standard decadic molar value
(M^-1 cm^-1), hence the ln(10) inside the natural exponential; set
``extinction_convention='natural'`` on the attenuation model if a
coefficient set is already base-e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import FS_TO_S, LN2, LN10, UM_TO_CM, photon_energy_j
from .errors import ConfigError, DataError
from .fiber import FiberSpec
from .tables import SpectralTable, coerce_table, write_csv

_EXTINCTION_CONVENTIONS = ("decadic", "natural")


@dataclass(frozen=True)
class SourceSpec:
    """Excitation description for either direct laser light or pair light.

    ``input_power_w`` applies to laser sources; pair (spdc) sources are
    specified through ``input_rate_per_s`` and need
    ``effective_pulse_fwhm_fs`` before peak flux can be reported (the
    pair light is not transform-limited, so its effective duration is a
    measured input with no default).
    """

    kind: str                       # 'laser' | 'spdc'
    wavelength_nm: float
    rep_rate_hz: float
    pulse_fwhm_fs: float
    photon_energy_j: float | None = None
    pre_fiber_gdd_fs2: float = 0.0
    input_power_w: float | None = None
    input_rate_per_s: float | None = None
    effective_pulse_fwhm_fs: float | None = None

    def __post_init__(self):
        if self.kind not in ("laser", "spdc"):
            raise ConfigError(f"source kind must be 'laser' or 'spdc', got {self.kind!r}")
        if self.rep_rate_hz <= 0:
            raise ConfigError("repetition rate must be positive")
        if self.pulse_fwhm_fs <= 0:
            raise ConfigError("pulse FWHM must be positive")
        if self.photon_energy_j is None:
            object.__setattr__(self, "photon_energy_j", photon_energy_j(self.wavelength_nm))
        else:
            expected = photon_energy_j(self.wavelength_nm)
            if abs(self.photon_energy_j - expected) > 1e-3 * expected:
                raise ConfigError(
                    f"photon energy {self.photon_energy_j:g} J inconsistent with "
                    f"{self.wavelength_nm:g} nm (h*c/lambda = {expected:.6g} J)"
                )
        if self.kind == "laser":
            if self.input_power_w is None or self.input_power_w < 0:
                raise ConfigError("laser source needs a non-negative input_power_w")
        else:
            if self.input_rate_per_s is None or self.input_rate_per_s < 0:
                raise ConfigError("spdc source needs a non-negative input_rate_per_s")

    @property
    def input_photon_rate(self) -> float:
        """Photon rate at z=0 in photons/s."""
        if self.kind == "laser":
            return self.input_power_w / self.photon_energy_j
        return self.input_rate_per_s

    @property
    def input_power(self) -> float:
        """Average power at z=0 in watts."""
        if self.kind == "laser":
            return self.input_power_w
        return self.input_rate_per_s * self.photon_energy_j


@dataclass(frozen=True)
class AttenuationModel:
    """Everything that removes photons per unit length in the filled core."""

    solvent_absorption_per_cm: SpectralTable
    sample_extinction_per_m_cm: SpectralTable = field(
        default_factory=lambda: SpectralTable.constant(0.0, name="extinction")
    )
    concentration_m: float = 0.0
    fiber_scatter_per_cm: SpectralTable = field(
        default_factory=lambda: SpectralTable.constant(0.0, name="scatter")
    )
    extinction_convention: str = "decadic"

    def __post_init__(self):
        if self.concentration_m < 0:
            raise ConfigError("concentration must be non-negative")
        if self.extinction_convention not in _EXTINCTION_CONVENTIONS:
            raise ConfigError(
                f"extinction convention must be one of {_EXTINCTION_CONVENTIONS}"
            )
        for tab in (self.solvent_absorption_per_cm, self.sample_extinction_per_m_cm,
                    self.fiber_scatter_per_cm):
            if any(v < 0 for v in tab.values):
                raise ConfigError(f"{tab.name}: attenuation coefficients must be >= 0")

    @classmethod
    def build(cls, solvent=0.0, extinction=0.0, concentration_m=0.0, scatter=0.0,
              extinction_convention="decadic"):
        return cls(
            solvent_absorption_per_cm=coerce_table(solvent, "solvent_absorption"),
            sample_extinction_per_m_cm=coerce_table(extinction, "sample_extinction"),
            concentration_m=concentration_m,
            fiber_scatter_per_cm=coerce_table(scatter, "fiber_scatter"),
            extinction_convention=extinction_convention,
        )

    def absorption_coefficient(self, wavelength_nm) -> float:
        """Solvent plus sample absorption in natural-log cm^-1."""
        factor = LN10 if self.extinction_convention == "decadic" else 1.0
        return (
            self.solvent_absorption_per_cm(wavelength_nm)
            + factor * self.sample_extinction_per_m_cm(wavelength_nm) * self.concentration_m
        )

    def scatter_coefficient(self, wavelength_nm) -> float:
        return self.fiber_scatter_per_cm(wavelength_nm)

    def absorption_transmission(self, wavelength_nm, z_cm):
        """eta_A(lambda, z)."""
        return np.exp(-self.absorption_coefficient(wavelength_nm) * z_cm)

    def scatter_transmission(self, wavelength_nm, z_cm):
        """eta_S(lambda, z)."""
        return np.exp(-self.scatter_coefficient(wavelength_nm) * z_cm)


def power_at(source: SourceSpec, attenuation: AttenuationModel, z_cm) -> float:
    """Average power W(z) at the excitation wavelength."""
    if np.any(np.asarray(z_cm) < 0):
        raise ValueError(f"z must be non-negative, got {z_cm}")
    lam = source.wavelength_nm
    t = attenuation.absorption_transmission(lam, z_cm) * \
        attenuation.scatter_transmission(lam, z_cm)
    return source.input_power * t


def photon_rate(source: SourceSpec, attenuation: AttenuationModel, z_cm) -> float:
    """Average photon rate Q(z) = W(z) / h nu."""
    return power_at(source, attenuation, z_cm) / source.photon_energy_j


def efficiency_components(eta_t: float, eta_a: float, eta_s: float) -> float:
    """Back out the coupling efficiency from a measured total transmission.

    eta_T = eta_C * eta_A * eta_S, so eta_C = eta_T / (eta_A * eta_S).
    """
    for nm, v in (("eta_t", eta_t), ("eta_a", eta_a), ("eta_s", eta_s)):
        if not 0 < v <= 1:
            raise ValueError(f"{nm} must be in (0, 1], got {v}")
    eta_c = eta_t / (eta_a * eta_s)
    if eta_c > 1:
        raise ValueError(
            f"inconsistent measurement: derived coupling efficiency {eta_c:.4f} > 1 "
            f"(eta_T={eta_t}, eta_A={eta_a}, eta_S={eta_s})"
        )
    return eta_c


def pulse_duration(source: SourceSpec, fiber: FiberSpec, z_cm) -> float:
    """Dispersion-broadened FWHM pulse duration in fs.

    tau(z) = sqrt(tau0^4 + (4 ln2)^2 (D0 + beta z)^2) / tau0
    """
    if np.any(np.asarray(z_cm) < 0):
        raise ValueError(f"z must be non-negative, got {z_cm}")
    tau0 = source.pulse_fwhm_fs
    d = source.pre_fiber_gdd_fs2 + fiber.gvd_fs2_per_cm * np.asarray(z_cm, dtype=float)
    return np.sqrt(tau0**4 + (4.0 * LN2) ** 2 * d * d)[()] / tau0


def peak_flux(source: SourceSpec, fiber: FiberSpec, attenuation: AttenuationModel,
              z_cm) -> float:
    """Peak photon flux phi0(z) in photons cm^-2 s^-1.

    phi0(z) = (4 ln2 / pi)^(3/2) W(z) / (h nu g d0^2 tau(z))
    """
    if source.kind == "spdc":
        if source.effective_pulse_fwhm_fs is None:
            raise ConfigError(
                "spdc flux reporting needs effective_pulse_fwhm_fs on the source"
            )
        tau_fs = source.effective_pulse_fwhm_fs
    else:
        tau_fs = pulse_duration(source, fiber, z_cm)
    if fiber.mode_fwhm_um is None:
        raise ConfigError("fiber needs mode_fwhm_um or effective_mode_area_um2 for flux")
    w = power_at(source, attenuation, z_cm)
    d0_cm = fiber.mode_fwhm_um * UM_TO_CM
    return (
        (4.0 * LN2 / math.pi) ** 1.5
        * w
        / (source.photon_energy_j * source.rep_rate_hz * d0_cm**2 * (tau_fs * FS_TO_S))
    )


@dataclass(frozen=True)
class PropagationProfile:
    """Sampled (z, W, Q, tau, phi0) profile along the fiber."""

    z_cm: np.ndarray
    power_w: np.ndarray
    rate_per_s: np.ndarray
    tau_fs: np.ndarray
    peak_flux_per_cm2_s: np.ndarray

    def write_csv(self, path) -> None:
        write_csv(
            path,
            ["z_cm", "w_watts", "q_per_s", "tau_fs", "phi0_per_cm2_s"],
            zip(self.z_cm, self.power_w, self.rate_per_s, self.tau_fs,
                self.peak_flux_per_cm2_s),
        )


def propagation_profile(source: SourceSpec, fiber: FiberSpec,
                        attenuation: AttenuationModel, z_cm) -> PropagationProfile:
    z = np.asarray(z_cm, dtype=float)
    if z.ndim != 1 or np.any(np.diff(z) <= 0):
        raise DataError("z grid must be one-dimensional and strictly increasing")
    w = np.array([power_at(source, attenuation, zi) for zi in z])
    q = w / source.photon_energy_j
    if source.kind == "spdc" and source.effective_pulse_fwhm_fs is not None:
        tau = np.full_like(z, source.effective_pulse_fwhm_fs)
    else:
        tau = np.array([pulse_duration(source, fiber, zi) for zi in z])
    phi = np.array([peak_flux(source, fiber, attenuation, zi) for zi in z])
    return PropagationProfile(z, w, q, tau, phi)


@dataclass(frozen=True)
class DecayFit:
    coefficient_per_cm: float
    amplitude: float
    stderr_per_cm: float
    residual_rms: float


def fit_exponential_decay(z_cm, intensity) -> DecayFit:
    """Least-squares fit of I(z) = I0 exp(-k z) in log space.

    Log-space linear least squares is deterministic and matches how
    scatter-profile decays are usually extracted; the standard error of
    k comes from the fit covariance.
    """
    z = np.asarray(z_cm, dtype=float)
    i = np.asarray(intensity, dtype=float)
    if z.size < 3:
        raise DataError(f"need at least 3 points for a decay fit, got {z.size}")
    if np.any(np.diff(z) <= 0):
        raise DataError("z values must be strictly increasing")
    if np.any(i <= 0):
        raise DataError("intensities must be positive (log-space fit)")
    y = np.log(i)
    # y = ln I0 - k z
    A = np.vstack([np.ones_like(z), -z]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ln_i0, k = coef
    fitted = A @ coef
    resid = y - fitted
    dof = max(z.size - 2, 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    return DecayFit(
        coefficient_per_cm=float(k),
        amplitude=float(np.exp(ln_i0)),
        stderr_per_cm=float(np.sqrt(cov[1, 1])),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )
