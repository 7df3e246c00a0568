"""Entanglement time from a measured joint spectral intensity.

The joint spectral amplitude is estimated as sqrt(JSI) with a quadratic
spectral phase per axis from the dispersion accumulated up to depth z:

    f(wS, wI; z) = sqrt(F(wS, wI))
                   * exp(i (D0 + beta z)(wS - wP/2)^2 / 2)
                   * exp(i (D0 + beta z)(wI - wP/2)^2 / 2)

The projection of the joint temporal intensity (the zero-padded 2-D DFT
of f) onto the arrival-time-difference axis, computed from 1-D DFTs
along the anti-diagonals of f, has standard deviation sigma, and the
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
        finite = (("intensity", jsi), ("signal axis", ws), ("idler axis", wi),
                  ("pump frequency", self.omega_pump_rad_s))
        for name, values in finite:
            if not np.all(np.isfinite(values)):
                raise DataError(f"JSI {name} must be finite (no nan or inf)")
        if np.any(jsi < 0):
            raise DataError("JSI must be non-negative")
        if not np.any(jsi > 0):
            raise DataError("JSI is zero everywhere")
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


def _te_kernel(js: JointSpectrum, zero_pad: int):
    """T_e (fs) as a function of accumulated dispersion for one JSI grid.

    The u = t_s - t_i marginal of the n x n zero-padded 2-D DFT of f is
    found without the 2-D transform.  With h_s[a] = f[a, s - a] the
    anti-diagonal s = a + b of the amplitude, Parseval along the sum axis
    gives P(d) = n sum_s |FFT_n(h_s)[d]|^2 (the factor n drops out of the
    moments), where anti-diagonals that alias on the n-point sum axis
    (zero_pad = 1) are first added mod n.
    Everything that does not depend on the dispersion is set up here once.
    """
    if (not isinstance(zero_pad, (int, np.integer)) or isinstance(zero_pad, bool)
            or zero_pad < 1):
        raise DataError(f"zero_pad must be an integer >= 1, got {zero_pad!r}")
    ws = js.omega_signal_rad_s * 1e-15  # rad/fs
    wi = js.omega_idler_rad_s * 1e-15
    wp = js.omega_pump_rad_s * 1e-15
    ns, ni = ws.size, wi.size
    if ns < 64 or ni < 64:
        raise DataError(f"JSI grid must be at least 64x64, got {ns}x{ni}")
    dws, dwi = ws[1] - ws[0], wi[1] - wi[0]
    if abs(dws - dwi) > 1e-9 * abs(dws):
        raise DataError(
            "signal and idler axes must share one grid spacing for the "
            "difference-axis projection"
        )
    n = max(ns, ni) * zero_pad
    rows = ns + ni - 1
    if rows > n:  # pad to whole folds of n only when the sum axis aliases
        rows = -(-rows // n) * n
    # row s, column a holds f[a, b] with b = s - a (zero off the grid)
    b = np.arange(rows)[:, None] - np.arange(ns)[None, :]
    on_grid = (b >= 0) & (b < ni)
    b = np.where(on_grid, b, 0)
    amp = np.where(on_grid, np.sqrt(js.intensity)[np.arange(ns), b], 0.0)
    q_s = (ws - wp / 2.0) ** 2 / 2.0
    q_i = (wi - wp / 2.0) ** 2 / 2.0
    dt = 2.0 * np.pi / (n * dws)
    u = ((np.arange(n) + n // 2) % n - n // 2) * dt  # DFT offsets as signed bins
    order = np.argsort(u)
    u = u[order]
    # work buffers reused at every depth: allocating them afresh each time
    # cost about as much as the FFT
    h = np.empty((rows, ns), complex)
    g = np.empty((min(rows, n), n), complex)

    def te_fs(chirp_fs2: float) -> float:
        if not np.isfinite(chirp_fs2):
            raise DataError(f"accumulated dispersion must be finite, got {chirp_fs2}")
        # h = exp(i D q_i[b]) exp(i D q_s[a]) sqrt(F[a, b]); mode "clip" lets
        # take write into h directly (b is in range either way)
        np.take(np.exp(1j * chirp_fs2 * q_i), b, out=h, mode="clip")
        np.multiply(h, np.exp(1j * chirp_fs2 * q_s), out=h)
        np.multiply(h, amp, out=h)
        np.fft.fft(h.reshape(-1, n, ns).sum(axis=0) if rows > n else h,
                   n=n, axis=1, out=g)
        re_im = g.view(float)
        power = np.einsum("ij,ij->j", re_im, re_im)  # column sums of squares
        proj = (power[0::2] + power[1::2])[order]
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

    return te_fs


def entanglement_time_at(js: JointSpectrum, chirp_fs2: float,
                         zero_pad: int = 4) -> float:
    """Entanglement time (fs) for one accumulated-dispersion value."""
    return _te_kernel(js, zero_pad)(chirp_fs2)


def entanglement_time_profile(js: JointSpectrum, gdd_fs2: float,
                              gvd_fs2_per_cm: float, z_grid_cm,
                              zero_pad: int = 4) -> list[tuple[float, float]]:
    """T_e at each fiber depth; the depth-independent set-up is shared."""
    z = np.asarray(z_grid_cm, dtype=float)
    if z.ndim != 1 or z.size == 0 or np.any(z < 0):
        raise DataError("z grid must be a non-empty 1-D array of depths >= 0")
    te_fs = _te_kernel(js, zero_pad)
    return [(float(zi), te_fs(gdd_fs2 + gvd_fs2_per_cm * zi)) for zi in z]


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
