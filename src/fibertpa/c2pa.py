"""Classical two-photon excited fluorescence: forward model and inversion.

The detected rate for a quadratic absorber distributed along the fiber is

    F_C = sqrt(2) (ln2/pi)^(3/2) sigma_C n W0^2 / (g (h nu)^2 d0^2)
          * int_0^l eta_A^2(lam_e, z) eta_S^2(lam_e, z) / tau(z)
          * EI(z) dz

where EI(z) is the collected-and-detected emission yield per excitation
at depth z.  Two spectral modes are supported for EI: a single effective
line at the emission peak, and a tabulated emission spectrum integrated
against the wavelength-dependent collection and transmission factors.
Every report records which mode produced it.

The depth integral of both regimes goes through :func:`depth_integral`,
which integrates on Gauss-Legendre panels graded from the steepest
attenuation in the integrand and bisected where the 16- and 32-node
rules disagree; it raises FitError instead of returning an unresolved
value.

All cross-sections are handled internally in cm^4 s / photon; the
Goeppert-Mayer unit (1 GM = 1e-50 cm^4 s) appears only at I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .constants import FS_TO_S, LN2, UM_TO_CM, molar_to_number_density
from .errors import ConfigError, DataError, FitError
from .fiber import FiberSpec, collection_efficiency
from .propagation import AttenuationModel, SourceSpec, pulse_duration
from .tables import SpectralTable, write_csv

_PREFACTOR = np.sqrt(2.0) * (LN2 / np.pi) ** 1.5
_GRADING_RATIO = 4.0
_PANEL_BUDGET = 4096


@dataclass(frozen=True)
class FluorophoreSpec:
    """Sample photophysics: yield, emission description, concentration.

    ``emission_spectrum`` (photons per excitation per nm), when present,
    must integrate to ``quantum_yield`` on its own grid to within 1e-6
    relative; use :meth:`with_spectrum_shape` to normalize a raw shape.
    """

    quantum_yield: float
    emission_peak_nm: float
    concentration_m: float
    emission_spectrum: SpectralTable | None = None

    def __post_init__(self):
        if not 0 <= self.quantum_yield <= 1:
            raise ConfigError(f"quantum yield must be in [0, 1], got {self.quantum_yield}")
        if self.concentration_m < 0:
            raise ConfigError("concentration must be non-negative")
        if self.emission_spectrum is not None:
            total = np.trapezoid(
                np.asarray(self.emission_spectrum.values),
                np.asarray(self.emission_spectrum.wavelengths_nm),
            )
            if self.quantum_yield > 0 and \
                    abs(total - self.quantum_yield) > 1e-6 * self.quantum_yield:
                raise ConfigError(
                    f"emission spectrum integrates to {total:.8g}, expected "
                    f"quantum yield {self.quantum_yield:g}"
                )

    @property
    def number_density_per_cm3(self) -> float:
        return molar_to_number_density(self.concentration_m)

    @property
    def spectral_mode(self) -> str:
        """Which emission model produced a result; every report states it."""
        return "tabulated spectrum" if self.emission_spectrum else "single line"

    @classmethod
    def with_spectrum_shape(cls, quantum_yield, emission_peak_nm, concentration_m,
                            shape: SpectralTable) -> "FluorophoreSpec":
        """Build from an arbitrary spectral shape, rescaled to the yield."""
        w = np.asarray(shape.wavelengths_nm)
        v = np.asarray(shape.values, dtype=float)
        total = np.trapezoid(v, w)
        if total <= 0:
            raise DataError("emission shape must have positive integral")
        scaled = SpectralTable(tuple(w), tuple(v * quantum_yield / total),
                               name=shape.name)
        return cls(quantum_yield, emission_peak_nm, concentration_m, scaled)


@dataclass(frozen=True)
class DetectionChain:
    """Static collection/detection factors outside the fiber.

    ``gamma0`` is the product of window/lens/dichroic/filter
    transmittances and camera quantum efficiency; ``band_nm`` bounds the
    emission integral in tabulated-spectrum mode.
    """

    gamma0: SpectralTable
    band_nm: tuple[float, float] = (400.0, 700.0)

    def __post_init__(self):
        if any(not 0 < v <= 1 for v in self.gamma0.values):
            raise ConfigError("gamma0 entries must be in (0, 1]")
        lo, hi = self.band_nm
        if not lo < hi:
            raise ConfigError(f"detection band must satisfy lo < hi, got {self.band_nm}")


def detection_efficiency(gamma0: SpectralTable, attenuation: AttenuationModel,
                         z_cm, wavelength_nm):
    """gamma(z, lambda): in-fiber return transmission times static factors.

    eta_A covers solvent absorption plus sample reabsorption at the
    emission wavelength; eta_S covers fiber scatter.
    """
    return (
        attenuation.absorption_transmission(wavelength_nm, z_cm)
        * attenuation.scatter_transmission(wavelength_nm, z_cm)
        * gamma0(wavelength_nm)
    )


def emission_integral(fluorophore: FluorophoreSpec, detection: DetectionChain,
                      attenuation: AttenuationModel, fiber: FiberSpec, z_cm):
    """Collected, detected photons per excitation generated at depth z.

    Tabulated mode integrates gamma(z, lam) kappa(lam) Phi(lam) over the
    detection band by trapezoid on the spectrum grid; single-line mode
    evaluates the same product at the emission peak.
    """
    spec = fluorophore.emission_spectrum
    if spec is None:
        lam = fluorophore.emission_peak_nm
        kappa = collection_efficiency(fiber, lam)
        return (
            detection_efficiency(detection.gamma0, attenuation, z_cm, lam)
            * kappa
            * fluorophore.quantum_yield
        )
    lo, hi = detection.band_nm
    w = np.asarray(spec.wavelengths_nm)
    if w[0] < lo - 1e-9 or w[-1] > hi + 1e-9:
        raise DataError(
            f"emission spectrum ({w[0]:g}-{w[-1]:g} nm) extends beyond the "
            f"detection band ({lo:g}-{hi:g} nm)"
        )
    phi = np.asarray(spec.values)
    kappa = np.array([collection_efficiency(fiber, wl) for wl in w])
    z = np.asarray(z_cm, dtype=float)
    gam = detection_efficiency(detection.gamma0, attenuation,
                               z[..., None] if z.ndim else z, w)
    return np.trapezoid(gam * kappa * phi, w, axis=-1)[()]


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _panel_rules(f, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Per panel: the 32-node estimate and its distance from the 16-node one."""
    (x16, w16), (x32, w32) = _gauss_legendre(16), _gauss_legendre(32)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    z = mid[:, None] + half[:, None] * np.concatenate([x16, x32])
    y = np.asarray(f(z.ravel()), dtype=float).reshape(z.shape)
    i16, i32 = half * (y[:, :16] @ w16), half * (y[:, 16:] @ w32)
    return i32, np.abs(i32 - i16)


def graded_quadrature(f, length_cm: float, alpha_per_cm: float = 0.0,
                      rtol: float = 1e-8) -> float:
    """int_0^l f(z) dz on Gauss-Legendre panels graded away from z = 0.

    Panel edges start at 1/(8 alpha) and grow by a factor of 4 out to l,
    so the first panels resolve a layer decaying as exp(-alpha z).  Every
    pass calls f once, on the 16- and 32-node rules of each new panel.
    Panels whose |I32 - I16| exceeds their equal share of rtol |I| are
    bisected until the summed estimate is within rtol |I|.  A non-finite
    estimate, or more than _PANEL_BUDGET panels evaluated, raises
    FitError rather than returning an unresolved value.
    """
    edges = [0.0]
    h = 1.0 / (8.0 * alpha_per_cm) if alpha_per_cm > 0 else length_cm
    while h < length_cm:
        edges.append(h)
        h *= _GRADING_RATIO
    edges.append(length_cm)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    value, error = _panel_rules(f, lo, hi)
    evaluated = lo.size
    while True:
        total, estimate = value.sum(), error.sum()
        if not np.isfinite(estimate):
            raise FitError("depth quadrature met a non-finite integrand")
        if estimate <= rtol * abs(total):
            return float(total)
        split = error > rtol * abs(total) / value.size
        evaluated += 2 * np.count_nonzero(split)
        if evaluated > _PANEL_BUDGET:
            raise FitError(
                f"depth quadrature did not reach rtol={rtol:g} within "
                f"{_PANEL_BUDGET} panels (error estimate {estimate:.3g} on an "
                f"integral of {total:.6g})"
            )
        keep, mid = ~split, (lo[split] + hi[split]) / 2.0
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_error = _panel_rules(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        error = np.concatenate([error[keep], new_error])


def depth_integral(weight, length_cm: float, excitation_nm: float,
                   fluorophore: FluorophoreSpec, detection: DetectionChain,
                   attenuation: AttenuationModel, fiber: FiberSpec,
                   rtol: float = 1e-8) -> float:
    """int_0^l w(z) EI(z) dz; the laser and pair regimes differ only in w(z).

    Panels are graded from the fastest decay in the integrand: the
    return-path attenuation over the emission grid (the peak in
    single-line mode, every grid point in tabulated mode), or the
    weight's T(excitation_nm, z)^2, whichever is steeper.
    """
    spec = fluorophore.emission_spectrum
    emission_nm = spec.wavelengths_nm if spec else fluorophore.emission_peak_nm

    def alpha(wavelength_nm):
        return (attenuation.absorption_coefficient(wavelength_nm)
                + attenuation.scatter_coefficient(wavelength_nm))

    def integrand(z):
        return weight(z) * emission_integral(fluorophore, detection,
                                             attenuation, fiber, z)

    steepest = max(np.max(alpha(emission_nm)), 2.0 * alpha(excitation_nm))
    return graded_quadrature(integrand, length_cm, float(steepest), rtol=rtol)


def configuration_integral(source: SourceSpec, fiber: FiberSpec,
                           attenuation: AttenuationModel,
                           fluorophore: FluorophoreSpec,
                           detection: DetectionChain,
                           rtol: float = 1e-8,
                           length_cm: float | None = None) -> float:
    """int_0^l eta_A^2 eta_S^2 / tau(z) * EI(z) dz  in s^-1 cm.

    This factor carries the entire geometry/attenuation dependence of the
    quadratic forward model and its inversion.
    """
    lam_e = source.wavelength_nm

    def weight(z):
        t2 = (
            attenuation.absorption_transmission(lam_e, z)
            * attenuation.scatter_transmission(lam_e, z)
        ) ** 2
        return t2 / (pulse_duration(source, fiber, z) * FS_TO_S)

    return depth_integral(weight, fiber.length_cm if length_cm is None else length_cm,
                          lam_e, fluorophore, detection, attenuation, fiber, rtol=rtol)


def _quadratic_gain(source: SourceSpec, fiber: FiberSpec) -> float:
    """sqrt(2) (ln2/pi)^(3/2) / (g (h nu)^2 d0^2), the per-(sigma n W0^2) gain."""
    if fiber.mode_fwhm_um is None:
        raise ConfigError("fiber needs a mode size for the quadratic model")
    d0_cm = fiber.mode_fwhm_um * UM_TO_CM
    return _PREFACTOR / (
        source.rep_rate_hz * source.photon_energy_j**2 * d0_cm**2
    )


def forward_c2pef(sigma_c_cm4s: float, source: SourceSpec, fiber: FiberSpec,
                  attenuation: AttenuationModel, fluorophore: FluorophoreSpec,
                  detection: DetectionChain, rtol: float = 1e-8) -> float:
    """Detected fluorescence rate (cnt/s) for a laser source.

    Scales exactly quadratically with input power.
    """
    if source.kind != "laser":
        raise ValueError(
            "forward_c2pef models laser excitation; use forward_e2pef for "
            "pair (spdc) sources"
        )
    if not sigma_c_cm4s >= 0:
        raise ValueError(f"cross-section must be non-negative, got {sigma_c_cm4s:g}")
    integral = configuration_integral(source, fiber, attenuation, fluorophore,
                                      detection, rtol=rtol)
    n = fluorophore.number_density_per_cm3
    return (
        sigma_c_cm4s * n * source.input_power_w**2
        * _quadratic_gain(source, fiber) * integral
    )


def invert_sigma_c(fc_per_w0sq_cnt_s_w2: float, source: SourceSpec,
                   fiber: FiberSpec, attenuation: AttenuationModel,
                   fluorophore: FluorophoreSpec, detection: DetectionChain,
                   rtol: float = 1e-8) -> float:
    """Cross-section (cm^4 s) from a fitted quadratic coefficient F_C / W0^2.

    Exact algebraic inverse of :func:`forward_c2pef` at fixed configuration.
    """
    if fc_per_w0sq_cnt_s_w2 <= 0:
        raise ValueError(
            f"fit coefficient must be positive, got {fc_per_w0sq_cnt_s_w2:g}"
        )
    integral = configuration_integral(source, fiber, attenuation, fluorophore,
                                      detection, rtol=rtol)
    n = fluorophore.number_density_per_cm3
    if n <= 0:
        raise ValueError("number density must be positive to invert")
    if integral <= 0:
        raise ConfigError(
            "configuration integral vanished; check quantum yield, "
            "detection factors and attenuation"
        )
    return fc_per_w0sq_cnt_s_w2 / (n * _quadratic_gain(source, fiber) * integral)


def conc_normalized_curve(sigma_c_cm4s: float, source: SourceSpec,
                          fiber: FiberSpec, attenuation: AttenuationModel,
                          fluorophore: FluorophoreSpec, detection: DetectionChain,
                          concentrations_m, w0_w: float = 100e-9,
                          rtol: float = 1e-8) -> list[tuple[float, float]]:
    """F_C / c over a concentration grid at fixed input power.

    Reabsorption makes this curve fall with concentration; with the
    sample extinction zeroed it is exactly flat.
    """
    c = np.asarray(concentrations_m, dtype=float)
    if c.ndim != 1 or c.size == 0 or np.any(c <= 0) or np.any(np.diff(c) <= 0):
        raise DataError("concentration grid must be positive and ascending")
    source = replace(source, kind="laser", input_power_w=w0_w)
    out = []
    for ci in c:
        fc = forward_c2pef(
            sigma_c_cm4s, source, fiber,
            replace(attenuation, concentration_m=ci),
            replace(fluorophore, concentration_m=ci),
            detection, rtol=rtol,
        )
        out.append((float(ci), fc / ci))
    return out


def write_conc_curve_csv(path, curve) -> None:
    write_csv(path, ["concentration_M", "fc_per_c"], curve)
