"""Entanglement time from a measured joint spectral intensity.

The joint spectral amplitude is estimated as sqrt(JSI) with a quadratic
spectral phase per axis from the dispersion accumulated up to depth z:

    f(wS, wI; z) = sqrt(F(wS, wI))
                   * exp(i (D0 + beta z)(wS - wP/2)^2 / 2)
                   * exp(i (D0 + beta z)(wI - wP/2)^2 / 2)

A 2-D DFT gives the joint temporal intensity; its projection onto the
arrival-time-difference axis has standard deviation sigma, and the
entanglement time is reported as the Gaussian-equivalent width
2 sqrt(2 ln2) sigma.  Using the standard deviation rather than half-max
crossings keeps the width meaningful for strongly non-Gaussian spectra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from .constants import LN2
from .errors import DataError, FitError
from .tables import data_rows, write_csv

_FWHM_OF_STD = 2.0 * np.sqrt(2.0 * LN2)
_JSI_HEADER = ("omega_pump_rad_s", "omega_signal_rad_s", "omega_idler_rad_s")


@dataclass(frozen=True)
class JointSpectrum:
    """Measured JSI grid on uniform signal/idler angular-frequency axes."""

    omega_signal_rad_s: np.ndarray
    omega_idler_rad_s: np.ndarray
    intensity: np.ndarray
    omega_pump_rad_s: float

    def __post_init__(self):
        ws = np.asarray(self.omega_signal_rad_s, dtype=float)
        wi = np.asarray(self.omega_idler_rad_s, dtype=float)
        jsi = np.asarray(self.intensity, dtype=float)
        if jsi.shape != (ws.size, wi.size):
            raise DataError(
                f"JSI shape {jsi.shape} does not match axes ({ws.size}, {wi.size})"
            )
        if np.any(jsi < 0):
            raise DataError("JSI must be non-negative")
        for name, ax in (("signal", ws), ("idler", wi)):
            d = np.diff(ax)
            if ax.size < 2 or np.any(d <= 0):
                raise DataError(f"{name} axis must be strictly increasing")
            if np.max(np.abs(d - d[0])) > 1e-9 * abs(d[0]):
                raise DataError(f"{name} axis must be uniformly spaced")
        object.__setattr__(self, "omega_signal_rad_s", ws)
        object.__setattr__(self, "omega_idler_rad_s", wi)
        object.__setattr__(self, "intensity", jsi)
        # energy-conservation diagnostic: the brightest bins should sit
        # near the wS + wI = wP ridge
        k = np.unravel_index(np.argmax(jsi), jsi.shape)
        mismatch = abs(ws[k[0]] + wi[k[1]] - self.omega_pump_rad_s)
        tol = 5.0 * max(np.diff(ws)[0], np.diff(wi)[0])
        if mismatch > tol:
            warnings.warn(
                f"JSI peak sits {mismatch:.3e} rad/s off the wS+wI=wP ridge",
                stacklevel=2,
            )

    @classmethod
    def from_csv(cls, path: str | Path) -> "JointSpectrum":
        """Read the grid format: three header rows (pump, signal axis,
        idler axis), then one intensity row per signal-axis sample."""
        path = Path(path)
        if not path.exists():
            raise DataError(f"JSI file not found: {path}")
        with open(path, newline="") as fh:
            rows = list(data_rows(fh))
        labels = [r[0] for r in rows[:3]]
        if labels != list(_JSI_HEADER):
            raise DataError(f"{path}: malformed JSI grid (header rows must start "
                            f"with {', '.join(_JSI_HEADER)}; got {labels})")
        try:
            wp = float(rows[0][1])
            ws = np.array([float(x) for x in rows[1][1:]])
            wi = np.array([float(x) for x in rows[2][1:]])
            grid = np.array([[float(x) for x in r] for r in rows[3:]])
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}: malformed JSI grid ({exc})") from exc
        return cls(ws, wi, grid, wp)

    def write_csv(self, path: str | Path) -> None:
        pump, signal, idler = _JSI_HEADER
        write_csv(path, [pump, repr(float(self.omega_pump_rad_s))], [
            [signal] + [repr(float(x)) for x in self.omega_signal_rad_s],
            [idler] + [repr(float(x)) for x in self.omega_idler_rad_s],
            *([repr(float(x)) for x in row] for row in self.intensity),
        ])


def _difference_axis_projection(jti: np.ndarray, dt_fs: float):
    """Project a (ts, ti) intensity grid onto u = ts - ti.

    DFT output indices wrap, so offsets are interpreted as signed bins.
    """
    n = jti.shape[0]
    k = np.arange(n)
    proj = np.empty(n)
    for d in range(n):
        proj[d] = jti[k, (k - d) % n].sum()
    u = ((np.arange(n) + n // 2) % n - n // 2) * dt_fs
    order = np.argsort(u)
    return u[order], proj[order]


def entanglement_time_at(js: JointSpectrum, chirp_fs2: float,
                         zero_pad: int = 4) -> float:
    """Entanglement time (fs) for one accumulated-dispersion value."""
    ws = js.omega_signal_rad_s * 1e-15  # rad/fs
    wi = js.omega_idler_rad_s * 1e-15
    wp = js.omega_pump_rad_s * 1e-15
    if ws.size < 64 or wi.size < 64:
        raise DataError(
            f"JSI grid must be at least 64x64, got {ws.size}x{wi.size}"
        )
    dws, dwi = ws[1] - ws[0], wi[1] - wi[0]
    if abs(dws - dwi) > 1e-9 * abs(dws):
        raise DataError(
            "signal and idler axes must share one grid spacing for the "
            "difference-axis projection"
        )
    amp = np.sqrt(js.intensity)
    phase_s = chirp_fs2 * (ws - wp / 2.0) ** 2 / 2.0
    phase_i = chirp_fs2 * (wi - wp / 2.0) ** 2 / 2.0
    f = amp * np.exp(1j * (phase_s[:, None] + phase_i[None, :]))

    n = max(ws.size, wi.size) * zero_pad
    ft = np.fft.fft2(f, s=(n, n))
    jti = np.abs(ft) ** 2
    dw = ws[1] - ws[0]
    dt = 2.0 * np.pi / (n * dw)

    u, proj = _difference_axis_projection(jti, dt)
    total = proj.sum()
    edge = proj[:3].sum() + proj[-3:].sum()
    if edge > 0.01 * total:
        raise DataError(
            "joint temporal intensity reaches the time-window edge "
            f"({edge / total:.1%} of its mass in the outer bins); supply a "
            "denser frequency grid or a larger zero-padding factor"
        )
    mean = (proj * u).sum() / total
    var = (proj * (u - mean) ** 2).sum() / total
    return float(_FWHM_OF_STD * np.sqrt(var))


def entanglement_time_profile(js: JointSpectrum, gdd_fs2: float,
                              gvd_fs2_per_cm: float, z_grid_cm,
                              zero_pad: int = 4) -> list[tuple[float, float]]:
    """T_e at each fiber depth; each depth is an independent DFT."""
    z = np.asarray(z_grid_cm, dtype=float)
    if z.ndim != 1 or z.size == 0 or np.any(z < 0):
        raise DataError("z grid must be a non-empty 1-D array of depths >= 0")
    return [
        (float(zi), entanglement_time_at(js, gdd_fs2 + gvd_fs2_per_cm * zi,
                                         zero_pad=zero_pad))
        for zi in z
    ]


@dataclass(frozen=True)
class EntanglementTimeModel:
    """Fitted broadening law T_e(z) = 2 sqrt(2 ln2) sqrt(te0^4 + s0 D(z)^2)/te0."""

    te0_fs: float
    s0: float
    gdd_fs2: float
    gvd_fs2_per_cm: float

    def __post_init__(self):
        if self.te0_fs <= 0 or self.s0 <= 0:
            raise ValueError("te0 and s0 must be positive")

    def te_fs(self, z_cm):
        d = self.gdd_fs2 + self.gvd_fs2_per_cm * np.asarray(z_cm, dtype=float)
        return (_FWHM_OF_STD
                * np.sqrt(self.te0_fs**4 + self.s0 * d * d) / self.te0_fs)[()]


def fit_te_model(samples, gdd_fs2: float, gvd_fs2_per_cm: float,
                 max_iterations: int = 200) -> tuple[EntanglementTimeModel, float]:
    """Fit (te0, s0) to sampled (z, T_e) pairs; returns the model and the
    max relative residual."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 4:
        raise DataError(f"need at least 4 (z, T_e) samples, got {pts.shape}")
    z, te = pts[:, 0], pts[:, 1]
    d = gdd_fs2 + gvd_fs2_per_cm * z

    def resid(p):
        te0, s0 = p
        return _FWHM_OF_STD * np.sqrt(te0**4 + s0 * d * d) / te0 - te

    # starting values from the z=0 sample and the large-z slope
    te0_guess = max(te.min() / _FWHM_OF_STD, 1.0)
    s0_guess = max(((te.max() * te0_guess / _FWHM_OF_STD) ** 2 - te0_guess**4)
                   / max(np.max(np.abs(d)) ** 2, 1.0), 1e-6)
    sol = least_squares(resid, x0=(te0_guess, s0_guess),
                        bounds=([1e-6, 1e-12], [np.inf, np.inf]),
                        max_nfev=max_iterations, xtol=1e-15, ftol=1e-15, gtol=1e-15)
    if not sol.success:
        raise FitError(f"entanglement-time fit did not converge: {sol.message}")
    model = EntanglementTimeModel(float(sol.x[0]), float(sol.x[1]),
                                  gdd_fs2, gvd_fs2_per_cm)
    rel = np.abs(resid(sol.x)) / te
    return model, float(rel.max())


def write_te_profile_csv(path, profile) -> None:
    write_csv(path, ["z_cm", "te_fs"], profile)


def gaussian_jsi(sigma_omega_rad_s: float, center_rad_s: float,
                 n: int = 96, span_sigmas: float = 5.0) -> JointSpectrum:
    """Separable Gaussian JSI, mostly useful as a test fixture and for the
    analytic cross-check of the DFT pipeline."""
    ax = np.linspace(center_rad_s - span_sigmas * sigma_omega_rad_s,
                     center_rad_s + span_sigmas * sigma_omega_rad_s, n)
    d2 = (ax - center_rad_s) ** 2
    grid = np.exp(-d2[:, None] / (2 * sigma_omega_rad_s**2)) * \
        np.exp(-d2[None, :] / (2 * sigma_omega_rad_s**2))
    return JointSpectrum(ax, ax, grid, 2.0 * center_rad_s)


def gaussian_te_analytic(sigma_omega_rad_s: float, chirp_fs2: float) -> float:
    """Closed-form T_e for a separable Gaussian JSI with quadratic phase.

    Each axis is a chirped Gaussian: temporal intensity variance
    1/(4 sw^2) + D^2 sw^2 (sw in rad/fs), and the difference axis doubles
    the variance.
    """
    sw = sigma_omega_rad_s * 1e-15  # rad/fs
    st2 = 1.0 / (4.0 * sw * sw) + chirp_fs2**2 * sw * sw
    return float(_FWHM_OF_STD * np.sqrt(2.0 * st2))
