"""Camera-frame synthesis and the low-signal rate-extraction pipeline.

A frame pair is one background and one signal image of the binned
region of interest.  Analysis converts each pair to a count rate via
F = N S / (G T), rejects spike-contaminated frames, normalizes out
power drift, and picks an averaging window from the overlapping Allan
deviation of the series.

The synthesizer is the closed-loop oracle for that pipeline.  Each
image element carries Poisson photoelectrons and dark electrons pushed
through a gamma-distributed multiplication register (excess noise
factor sqrt(2)), plus Gaussian read noise around the baseline.  The
per-element baseline and dark rate refer to the binned readout element.
RNG streams are keyed by (seed, frame index), so any frame can be
regenerated independently.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .tables import write_csv


@dataclass(frozen=True)
class CameraConfig:
    """Conversion constants and noise calibration of the binned detector."""

    sensitivity_e_per_adu: float = 5.0
    em_gain_e_per_cnt: float = 30.0
    integration_s: float = 10.0
    superpixel_bin: int = 24
    roi: tuple[int, int] = (11, 11)
    baseline_adu_per_px: float = 560.4
    baseline_unc_adu_per_px: float = 1.3
    dark_e_per_s_px: float = 2.66
    dark_unc_e_per_s_px: float = 0.06
    read_noise_e: float = 40.0

    def __post_init__(self):
        if min(self.sensitivity_e_per_adu, self.em_gain_e_per_cnt,
               self.integration_s) <= 0:
            raise ConfigError("S, G and T must all be positive")
        if self.roi[0] < 1 or self.roi[1] < 1:
            raise ConfigError(f"ROI must be non-empty, got {self.roi}")

    @classmethod
    def from_dict(cls, d: dict) -> "CameraConfig":
        d = dict(d)
        if "roi" in d:
            d["roi"] = tuple(d["roi"])
        return cls(**d)


@dataclass
class FrameSeries:
    """Ordered (signal, background, transmitted power) frame triples."""

    signal: list[np.ndarray]
    background: list[np.ndarray]
    w_out_w: np.ndarray
    camera: CameraConfig
    source_kind: str = "laser"

    def __post_init__(self):
        if not (len(self.signal) == len(self.background) == len(self.w_out_w)):
            raise DataError("signal, background and power lists must align")
        shapes = {im.shape for im in self.signal} | {im.shape for im in self.background}
        if len(shapes) > 1:
            raise DataError(f"all images must share one shape, got {shapes}")
        if np.any(np.asarray(self.w_out_w) < 0):
            raise DataError("transmitted powers must be non-negative")

    def __len__(self):
        return len(self.signal)


@dataclass
class RateSeries:
    """Per-frame rates with the CIC-rejection mask carried alongside."""

    rates_cnt_s: np.ndarray
    normalized_cnt_s: np.ndarray
    kept: np.ndarray

    @property
    def kept_fraction(self) -> float:
        return float(np.mean(self.kept))

    def kept_normalized(self) -> np.ndarray:
        return self.normalized_cnt_s[self.kept]


@dataclass(frozen=True)
class PowerDrift:
    """Slow multiplicative drift of the delivered power.

    kind 'none' | 'ramp' (linear from 1-magnitude to 1+magnitude) |
    'random_walk' (cumulative Gaussian steps of size magnitude).
    """

    kind: str = "none"
    magnitude: float = 0.0

    def factors(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "none":
            return np.ones(n)
        if self.kind == "ramp":
            return np.linspace(1.0 - self.magnitude, 1.0 + self.magnitude, n)
        if self.kind == "random_walk":
            steps = rng.normal(0.0, self.magnitude, n)
            return np.clip(1.0 + np.cumsum(steps), 0.05, None)
        raise ConfigError(f"unknown drift kind {self.kind!r}")


def _spot_pattern(roi: tuple[int, int]) -> np.ndarray:
    """Normalized Gaussian spot centered in the ROI (sigma = 1 element)."""
    ny, nx = roi
    y, x = np.mgrid[0:ny, 0:nx]
    cy, cx = (ny - 1) / 2.0, (nx - 1) / 2.0
    p = np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / 2.0)
    return p / p.sum()


def _em_amplify(electrons: np.ndarray, gain: float,
                rng: np.random.Generator) -> np.ndarray:
    """Gamma-multiplication model: output ~ Gamma(n, gain) for n input e-.

    Conditional on Poisson input this reproduces the sqrt(2) excess noise
    factor of an electron-multiplying register.
    """
    out = np.zeros_like(electrons, dtype=float)
    mask = electrons > 0
    if np.any(mask):
        out[mask] = rng.gamma(electrons[mask], gain)
    return out


def synthesize_series(truth_rate_cnt_s: float, camera: CameraConfig,
                      n_frames: int, seed: int = 0,
                      cic_probability: float = 0.0,
                      cic_amplitude_cnt_s: float = 100.0,
                      power_drift: PowerDrift = PowerDrift(),
                      nominal_power_w: float = 1.75e-9,
                      source_kind: str = "laser") -> FrameSeries:
    """Generate a synthetic frame series with known truth rate.

    ``truth_rate_cnt_s`` is the detected-photon rate integrated over the
    ROI at nominal power.  CIC frames receive one charge spike worth
    ``cic_amplitude_cnt_s`` of apparent rate at a random element; real
    spurious-charge events are large compared with both the signal and
    the per-frame noise, which is what makes them removable.
    """
    if n_frames < 1:
        raise ConfigError(f"need at least one frame, got {n_frames}")
    if truth_rate_cnt_s < 0:
        raise ConfigError("truth rate must be non-negative")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if not 0 <= cic_probability <= 1:
        raise ConfigError(f"CIC probability must be in [0, 1], got {cic_probability:g}")
    pattern = _spot_pattern(camera.roi)
    cam = camera
    t = cam.integration_s
    drift_rng = np.random.default_rng((seed, 0xD21F7))
    drift = power_drift.factors(n_frames, drift_rng)
    rate_exponent = 2.0 if source_kind == "laser" else 1.0

    signal_frames, background_frames = [], []
    for i in range(n_frames):
        rng = np.random.default_rng((seed, i))
        rate_i = truth_rate_cnt_s * drift[i] ** rate_exponent
        mean_photo = rate_i * t * pattern
        dark_mean = cam.dark_e_per_s_px * t

        def render(photo_mean):
            electrons = rng.poisson(photo_mean + dark_mean).astype(float)
            amplified = _em_amplify(electrons, cam.em_gain_e_per_cnt, rng)
            read = rng.normal(0.0, cam.read_noise_e, photo_mean.shape)
            return (amplified + read) / cam.sensitivity_e_per_adu + \
                cam.baseline_adu_per_px

        sig = render(mean_photo)
        bkg = render(np.zeros_like(pattern))
        if cic_probability > 0 and rng.random() < cic_probability:
            spike_e = cic_amplitude_cnt_s * t
            iy = rng.integers(cam.roi[0])
            ix = rng.integers(cam.roi[1])
            sig[iy, ix] += spike_e * cam.em_gain_e_per_cnt / cam.sensitivity_e_per_adu
        signal_frames.append(sig)
        background_frames.append(bkg)

    return FrameSeries(
        signal=signal_frames,
        background=background_frames,
        w_out_w=nominal_power_w * drift,
        camera=cam,
        source_kind=source_kind,
    )


def frame_to_rate(signal: np.ndarray, background: np.ndarray,
                  camera: CameraConfig) -> float:
    """Count rate from one background-subtracted frame: F = N S / (G T)."""
    signal = np.asarray(signal, dtype=float)
    background = np.asarray(background, dtype=float)
    if signal.shape != background.shape:
        raise DataError(
            f"signal {signal.shape} and background {background.shape} differ"
        )
    n_adu = float((signal - background).sum())
    return n_adu * camera.sensitivity_e_per_adu / (
        camera.em_gain_e_per_cnt * camera.integration_s
    )


def series_to_rates(series: FrameSeries) -> np.ndarray:
    return np.array([
        frame_to_rate(s, b, series.camera)
        for s, b in zip(series.signal, series.background)
    ])


def reject_cic(rates: np.ndarray, threshold_k: float = 5.0) -> RateSeries:
    """Mask frames whose rate exceeds median + k * scaled MAD.

    Robust statistics keep the threshold insensitive to the spikes being
    rejected.  Only upward excursions are masked; charge spikes only add
    counts.
    """
    r = np.asarray(rates, dtype=float)
    if r.size < 10:
        raise DataError(f"need at least 10 frames for spike rejection, got {r.size}")
    med = np.median(r)
    mad = 1.4826 * np.median(np.abs(r - med))
    if mad == 0:
        kept = np.ones(r.size, dtype=bool)
    else:
        kept = r <= med + threshold_k * mad
    return RateSeries(rates_cnt_s=r, normalized_cnt_s=r.copy(), kept=kept)


def normalize_series(rates: RateSeries, w_out_w, scaling: str = "quadratic") -> RateSeries:
    """Rescale each kept frame to the series-average transmitted power.

    quadratic: F W_avg^2 / W_i^2 (two-photon response to a drifting
    laser); linear: F W_avg / W_i (pair excitation in the linear regime).
    """
    if scaling not in ("quadratic", "linear"):
        raise ConfigError(f"scaling must be 'quadratic' or 'linear', got {scaling!r}")
    w = np.asarray(w_out_w, dtype=float)
    if w.size != rates.rates_cnt_s.size:
        raise DataError("power list must align with the rate series")
    if np.any(w[rates.kept] <= 0):
        raise DataError("kept frames must have positive transmitted power")
    w_avg = w[rates.kept].mean()
    power = 2.0 if scaling == "quadratic" else 1.0
    normalized = rates.rates_cnt_s * (w_avg / np.where(w > 0, w, np.nan)) ** power
    normalized = np.where(rates.kept, normalized, rates.rates_cnt_s)
    return RateSeries(rates_cnt_s=rates.rates_cnt_s,
                      normalized_cnt_s=normalized, kept=rates.kept)


@dataclass
class AllanCurve:
    m_frames: np.ndarray
    deviations_cnt_s: np.ndarray
    selected_m: int
    selected_deviation_cnt_s: float

    def write_csv(self, path) -> None:
        write_csv(path, ["m_frames", "allan_deviation_cnt_s"],
                  zip(self.m_frames, self.deviations_cnt_s))


def overlapping_allan_deviation(values: np.ndarray, m: int) -> float:
    """Overlapping Allan deviation of a rate series at averaging factor m."""
    y = np.asarray(values, dtype=float)
    if 2 * m > y.size:
        raise DataError(f"averaging factor {m} needs at least {2*m} samples")
    c = np.concatenate(([0.0], np.cumsum(y)))
    avg = (c[m:] - c[:-m]) / m
    d = avg[m:] - avg[:-m]
    return float(np.sqrt(0.5 * np.mean(d * d)))


def allan_curve(rates: RateSeries, trend_factor: float = 1.25) -> AllanCurve:
    """Allan curve of the kept, normalized series plus a window choice.

    The averaging window is the largest m whose deviation still tracks
    the 1/sqrt(m) extrapolation from m=1 within ``trend_factor``; beyond
    that point correlated drift dominates and longer averages stop
    helping.  The grid stops at n/8 frames: deeper windows leave too few
    independent differences for the estimate to mean anything.
    """
    y = rates.kept_normalized()
    if y.size < 16:
        raise DataError(f"need at least 16 kept frames, got {y.size}")
    ms, devs = [], []
    m = 1
    while 8 * m <= y.size:
        ms.append(m)
        devs.append(overlapping_allan_deviation(y, m))
        m *= 2
    ms = np.asarray(ms)
    devs = np.asarray(devs)
    anchor = devs[0]
    selected = 0
    for i, (mi, di) in enumerate(zip(ms, devs)):
        if di <= trend_factor * anchor / np.sqrt(mi):
            selected = i
    return AllanCurve(
        m_frames=ms,
        deviations_cnt_s=devs,
        selected_m=int(ms[selected]),
        selected_deviation_cnt_s=float(devs[selected]),
    )


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float
    slope_stderr: float
    intercept_stderr: float


def fit_power_law(powers_w, rates_cnt_s, sigmas_cnt_s,
                  fixed_slope: float | None = None) -> PowerLawFit:
    """Weighted log-log regression of rate against power.

    With ``fixed_slope`` given, only the intercept is estimated (used to
    extract a rate at a reference power under a known scaling law).
    """
    w_in = np.asarray(powers_w, dtype=float)
    f = np.asarray(rates_cnt_s, dtype=float)
    s = np.asarray(sigmas_cnt_s, dtype=float)
    if w_in.size < 3:
        raise DataError(f"need at least 3 points, got {w_in.size}")
    if np.any(w_in <= 0) or np.any(f <= 0):
        raise DataError("powers and rates must be positive for a log-log fit")
    if np.any(s <= 0):
        raise DataError("uncertainties must be positive")
    x = np.log(w_in)
    y = np.log(f)
    sy = s / f  # first-order log-domain sigma
    wts = 1.0 / sy**2
    if fixed_slope is not None:
        icpt = float(np.sum(wts * (y - fixed_slope * x)) / np.sum(wts))
        err = float(1.0 / np.sqrt(np.sum(wts)))
        return PowerLawFit(fixed_slope, icpt, 0.0, err)
    wsum = wts.sum()
    xb = (wts * x).sum() / wsum
    yb = (wts * y).sum() / wsum
    sxx = (wts * (x - xb) ** 2).sum()
    slope = float((wts * (x - xb) * (y - yb)).sum() / sxx)
    icpt = float(yb - slope * xb)
    return PowerLawFit(
        slope=slope,
        intercept=icpt,
        slope_stderr=float(1.0 / np.sqrt(sxx)),
        intercept_stderr=float(np.sqrt(1.0 / wsum + xb**2 / sxx)),
    )


# ---------------------------------------------------------------------------
# on-disk layout: a manifest plus one CSV image per frame


def _write_image(path: Path, image: np.ndarray) -> None:
    np.savetxt(path, image, delimiter=",", fmt="%.6f")


def _read_image(path: Path) -> np.ndarray:
    if not path.exists():
        raise DataError(f"frame image not found: {path}")
    try:
        return np.atleast_2d(np.loadtxt(path, delimiter=","))
    except ValueError as exc:
        raise DataError(f"{path}: malformed frame image ({exc})") from exc


def write_series(series: FrameSeries, out_dir) -> Path:
    """Write frames and manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (sig, bkg, w) in enumerate(zip(series.signal, series.background,
                                          series.w_out_w)):
        sig_name = f"sig_{i:05d}.csv"
        bkg_name = f"bkg_{i:05d}.csv"
        _write_image(out / sig_name, sig)
        _write_image(out / bkg_name, bkg)
        entries.append({"signal": sig_name, "background": bkg_name,
                        "w_out_w": float(w)})
    manifest = {
        "camera": asdict(series.camera),
        "source_kind": series.source_kind,
        "frames": entries,
    }
    path = out / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def read_series(manifest_path) -> FrameSeries:
    path = Path(manifest_path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        camera = CameraConfig.from_dict(manifest["camera"])
        entries = manifest["frames"]
        source_kind = manifest.get("source_kind", "laser")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"unreadable manifest {path}: {exc}") from exc
    base = path.parent
    signal, background, w_out = [], [], []
    for e in entries:
        try:
            sig, bkg = base / e["signal"], base / e["background"]
            w = float(e["w_out_w"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"unreadable manifest {path}: frame entry {e!r} "
                            f"({type(exc).__name__}: {exc})") from exc
        signal.append(_read_image(sig))
        background.append(_read_image(bkg))
        w_out.append(w)
    return FrameSeries(signal=signal, background=background,
                       w_out_w=np.asarray(w_out), camera=camera,
                       source_kind=source_kind)


def analyze_series(series: FrameSeries, scaling: str | None = None,
                   threshold_k: float = 5.0,
                   trend_factor: float = 1.25) -> tuple[RateSeries, AllanCurve, float]:
    """Full pipeline: rates, spike rejection, normalization, Allan choice.

    Returns the rate series, the Allan curve, and the mean normalized
    rate over kept frames.
    """
    if scaling is None:
        scaling = "quadratic" if series.source_kind == "laser" else "linear"
    rates = reject_cic(series_to_rates(series), threshold_k=threshold_k)
    rates = normalize_series(rates, series.w_out_w, scaling=scaling)
    curve = allan_curve(rates, trend_factor=trend_factor)
    return rates, curve, float(rates.kept_normalized().mean())
