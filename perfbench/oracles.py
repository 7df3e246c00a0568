"""Independent reference values the benchmark checks every job against.

* The depth integrals of the classical and pair forward models are
  recomputed with ``scipy.integrate.quad`` from the documented
  integrands (``power_at``, ``pulse_duration`` and the emission yield),
  with break points at doubling multiples of the reabsorption length
  1/alpha at the emission wavelengths, where the integrand decays.
  fibertpa's own depth quadrature is the code under test.
* The entanglement time of an anti-correlated Gaussian JSI has a closed
  form.
* A frame series must recover its injected rate within three selected
  Allan deviations (acceptance criterion 10) and survive a CSV round
  trip.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from fibertpa.c2pa import emission_integral
from fibertpa.constants import AVOGADRO, FS_TO_S, LN2, UM_TO_CM
from fibertpa.fiber import collection_efficiency
from fibertpa.propagation import power_at, pulse_duration

QUAD_RTOL = 1e-7          # forward model against the quad oracle
ROUND_TRIP_RTOL = 1e-10   # forward/inverse round trips
TE_RTOL = 1e-3            # T_e against the Gaussian closed form
CSV_ATOL = 5.01e-7        # frames are written with %.6f

_FWHM_OF_STD = 2.0 * math.sqrt(2.0 * LN2)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _agrees(name, fast, reference, probe) -> None:
    """Refuse a fast scalar form that does not match fibertpa's own function."""
    mine = np.array([fast(z) for z in probe])
    ref = np.asarray(reference(probe), dtype=float)
    if not np.all(np.abs(mine - ref) <= 1e-12 * np.abs(ref)):
        raise AssertionError(f"oracle {name} disagrees with fibertpa at {probe}")


class _Integrand:
    """Scalar pieces of the depth integrands, built from the config once.

    Each piece is a closed form of a documented fibertpa function (Beer-
    Lambert transmission for ``power_at``, the dispersion law of
    ``pulse_duration``, the emission yield of ``emission_integral``),
    checked against that function at a few depths before use.  quad then
    evaluates plain floats, which keeps the checks cheap next to the jobs.
    """

    def __init__(self, cfg):
        src, fiber, att = cfg.source, cfg.fiber, cfg.attenuation
        fl, det = cfg.fluorophore, cfg.detection
        self.length = fiber.length_cm
        probe = np.linspace(0.0, self.length, 7)

        a_exc = float(att.absorption_coefficient(src.wavelength_nm)
                      + att.scatter_coefficient(src.wavelength_nm))
        self.transmission = lambda z: math.exp(-a_exc * z)
        _agrees("transmission", self.transmission,
                lambda z: power_at(src, att, z) / src.input_power, probe)

        tau0, d0, beta = src.pulse_fwhm_fs, src.pre_fiber_gdd_fs2, fiber.gvd_fs2_per_cm
        k = 4.0 * LN2
        self.tau_s = lambda z: math.sqrt(tau0 ** 4 + (k * (d0 + beta * z)) ** 2) / tau0 * FS_TO_S
        _agrees("pulse duration", self.tau_s,
                lambda z: pulse_duration(src, fiber, z) * FS_TO_S, probe)

        if fl.emission_spectrum is None:
            w = np.array([fl.emission_peak_nm])
            weight = np.array([det.gamma0(w[0]) * collection_efficiency(fiber, w[0])
                               * fl.quantum_yield])
        else:
            w = np.asarray(fl.emission_spectrum.wavelengths_nm, dtype=float)
            weight = (np.asarray(fl.emission_spectrum.values, dtype=float)
                      * np.array([collection_efficiency(fiber, wl) for wl in w])
                      * det.gamma0(w))
        alpha = np.asarray(att.absorption_coefficient(w) + att.scatter_coefficient(w))
        if w.size == 1:
            a, c = float(alpha[0]), float(weight[0])
            self.emission = lambda z: c * math.exp(-a * z)
        else:
            self.emission = lambda z: float(np.trapezoid(weight * np.exp(-alpha * z), w))
        _agrees("emission yield", self.emission,
                lambda z: emission_integral(fl, det, att, fiber, z), probe)
        # the integrand decays over the reabsorption length 1/alpha
        self.points = []
        z = 1.0 / max(float(alpha.max()), 1e-12)
        while z < self.length:
            self.points.append(z)
            z *= 2.0

    def integrate(self, f) -> float:
        value, _ = quad(f, 0.0, self.length, points=self.points or None,
                        epsabs=0.0, epsrel=1e-11, limit=1000)
        return value


def laser_integral(cfg) -> float:
    """int_0^l (W(z)/W0)^2 / tau(z) * EI(z) dz for the config's laser source."""
    p = _Integrand(cfg)
    return p.integrate(lambda z: p.transmission(z) ** 2 / p.tau_s(z) * p.emission(z))


def quadratic_gain(cfg) -> float:
    """sqrt(2) (ln2/pi)^(3/2) / (g (h nu)^2 d0^2) from the c2pa docstring."""
    src = cfg.source
    d0_cm = cfg.fiber.mode_fwhm_um * UM_TO_CM
    return math.sqrt(2.0) * (LN2 / math.pi) ** 1.5 / (
        src.rep_rate_hz * src.photon_energy_j ** 2 * d0_cm ** 2)


def number_density(cfg) -> float:
    return cfg.fluorophore.concentration_m * AVOGADRO / 1000.0


def forward_c2pef_reference(sigma_cm4s: float, power_w: float, cfg,
                            integral: float) -> float:
    return sigma_cm4s * number_density(cfg) * power_w ** 2 \
        * quadratic_gain(cfg) * integral


def pair_integral(cfg, te_model) -> float:
    """int_0^l [T_e(0)/T_e(z)] eta_K t(z)^2 Q_single / 2 * EI(z) dz, with the
    broadening law T_e(z) ~ sqrt(te0^4 + s0 D(z)^2) of EntanglementTimeModel."""
    p = _Integrand(cfg)
    ps, m = cfg.pair_source, te_model
    klyshko = ps.effective_klyshko * ps.free_space_transmission * ps.coupling

    def te(z):
        d = m.gdd_fs2 + m.gvd_fs2_per_cm * z
        return _FWHM_OF_STD * math.sqrt(m.te0_fs ** 4 + m.s0 * d * d) / m.te0_fs

    _agrees("entanglement time", te, m.te_fs, np.linspace(0.0, p.length, 7))
    te0 = te(0.0)
    return p.integrate(lambda z: te0 / te(z) * klyshko * p.transmission(z) ** 2
                       * ps.single_rate_per_s / 2.0 * p.emission(z))


def gaussian_te_fs(sigma_minus_rad_fs: float, chirp_fs2: float) -> float:
    """T_e of an anti-correlated Gaussian JSI whose width along
    (w_s - w_i)/sqrt(2) is sigma_minus, under chirp D on both photons."""
    s = sigma_minus_rad_fs
    return _FWHM_OF_STD * math.sqrt(2.0 * (1.0 / (4.0 * s * s) + chirp_fs2 ** 2 * s * s))


def frames_round_trip_error(written, read) -> str | None:
    """None when ``read`` reproduces ``written`` to the CSV precision."""
    if len(written) != len(read):
        return f"read {len(read)} frames, wrote {len(written)}"
    if read.camera != written.camera or read.source_kind != written.source_kind:
        return "camera or source kind changed on the round trip"
    if not np.array_equal(np.asarray(read.w_out_w), np.asarray(written.w_out_w)):
        return "transmitted powers changed on the round trip"
    worst = max(float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
                for pair in ((written.signal, read.signal),
                             (written.background, read.background))
                for a, b in zip(*pair))
    if worst > CSV_ATOL:
        return f"frame values moved by {worst:.3g} ADU on the round trip"
    return None
