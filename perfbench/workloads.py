"""The four workloads: seeded input generation, the timed job, its checks.

Every workload runs its jobs in blocks of ``BLOCK`` jobs.  A block holds
one job from each of ``BLOCK`` size strata in a seeded order.  Stratum s
fixes what a job's cost depends on (concentration level s with spectrum
level ``PAIRING[s]``, JSI grid size, ...), so every block has the same mix
of job sizes and any run of whole blocks measures the same work whatever
the seed.  The seed draws everything else: the order, coefficients,
powers, noise bounds, spectral noise, JSI widths and the frame-synthesis
parameters.  Each job gets fresh files, so nothing a job computes can be
reused by the next one.

A job calls fibertpa through module attributes (``c2pa.invert_sigma_c``)
so that an installed tracer sees every call.  The checks import the
oracles on first use, which keeps scipy.integrate out of the set-up time.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fibertpa import c2pa, config, e2pa, frames, jsa, report
from fibertpa.constants import GM_CM4_S

# An odd block puts the median inside the middle-cost stratum and p90
# inside the top one, rather than on a boundary between two strata.
BLOCK = 7
BASES = ("experiment-1", "experiment-2", "experiment-3", "experiment-spdc")
CONC_LEVELS_M = np.geomspace(1.95e-5, 2.30e-3, BLOCK)  # bundled range
SWEEP_W = np.logspace(-9.0, -7.0, 25)                   # simulate-c2pef default
N_LAMBDA_LEVELS = np.linspace(64, 200, BLOCK).round().astype(int)
# secondary size level of each stratum; the largest concentration gets the
# longest spectrum, so every block holds the job that sets peak memory
PAIRING = (2, 5, 0, 3, 1, 4, 6)
# relative sample extinction (M^-1 cm^-1, 1.0 = 4417 at 451 nm); the
# explicit 810 nm zero keeps the excitation line free of sample absorption
EXTINCTION_SHAPE = {400.0: 0.79, 430.0: 0.97, 451.0: 1.0, 470.0: 0.68,
                    490.0: 0.34, 520.0: 0.09, 560.0: 0.011, 810.0: 0.0}
JSI_GRID_LEVELS = (64, 72, 80, 96)
TE0_LEVELS_FS = np.geomspace(700.0, 1400.0, BLOCK)
Z_GRID_CM = np.arange(0.0, 36.5, 1.0)                   # entanglement-time default
OMEGA_PUMP_RAD_S = 2.0 * math.pi * 2.99792458e8 / 405e-9
TRUTH_RATES = (0.0, 1.6, 5.0, 50.0)                     # criterion-10 truths
FRAMES_PER_SERIES = 128
NOMINAL_POWER_W = 1.75e-9                               # synthesize_series default
SETUP_KEY = 2 ** 31  # RNG key for inputs that are not per job


@dataclass
class Job:
    index: int
    items: int                 # configurations, depths or frames
    params: dict
    files: list[Path] = field(default_factory=list)
    n_lambda: int = 0          # emission wavelengths in its depth integrals


def _tag(name: str) -> int:
    return zlib.crc32(name.encode())


class Workload:
    """Base: block schedule, per-job RNG and file bookkeeping."""

    name = ""
    item = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.bases = {b: json.loads((root / "configs" / f"{b}.json").read_text())
                      for b in BASES}

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, _tag(self.name), *key])

    def stratum(self, j: int) -> tuple[int, np.random.Generator]:
        """Stratum of job j and the job's own RNG."""
        block = j // BLOCK
        s = int(self.rng(block).permutation(BLOCK)[j % BLOCK])
        return s, self.rng(block, s)

    def setup(self) -> list[Job]:
        """Everything before the first job: loads and the first block's inputs."""
        return self.prepare_block(0)

    def prepare_block(self, block: int) -> list[Job]:
        return [self.prepare(j) for j in range(block * BLOCK, (block + 1) * BLOCK)]

    def prepare(self, j: int) -> Job:
        raise NotImplementedError

    def run(self, job: Job):
        raise NotImplementedError

    def check(self, job: Job, result) -> list[str]:
        raise NotImplementedError

    def discard(self, job: Job) -> None:
        for p in job.files:
            if p.is_dir():
                shutil.rmtree(p, ignore_errors=True)
            else:
                p.unlink(missing_ok=True)

    # -- shared input writers ------------------------------------------------

    def write_config(self, stem: str, base: str, conc_m: float,
                     rng: np.random.Generator, level: int | None = None) -> list[Path]:
        """A bundled config moved to ``conc_m`` with seeded measurements;
        with a spectrum ``level`` it gets a tabulated spectrum of
        ``N_LAMBDA_LEVELS[level]`` points and a tabulated extinction."""
        raw = copy.deepcopy(self.bases[base])
        fl, meas = raw["fluorophore"], raw["measurement"]
        base_conc = fl["concentration_m"]
        fl["concentration_m"] = float(conc_m)
        if raw["source"]["kind"] == "laser":
            meas["fc_per_w0sq_cnt_s_uw2"] = float(
                meas["fc_per_w0sq_cnt_s_uw2"] * conc_m / base_conc
                * 10.0 ** rng.uniform(-0.1, 0.1))
            raw["source"]["input_power_w"] = float(
                raw["source"]["input_power_w"] * 10.0 ** rng.uniform(-0.3, 0.3))
        else:
            meas["f_lb_cnt_s"] = float(10.0 ** rng.uniform(-0.3, 0.3))
        paths = [self.work / f"{stem}.json"]
        if level is not None:
            spectrum = self.work / f"{stem}_emission.csv"
            fl["emission_peak_nm"] = _write_spectrum(spectrum, level,
                                                     raw["detection"]["band_nm"], rng)
            fl["emission_spectrum_csv"] = spectrum.name
            raw["attenuation"]["sample_extinction_per_m_cm"] = {
                f"{w:g}": 4417.0 * f for w, f in EXTINCTION_SHAPE.items()}
            paths.append(spectrum)
        paths[0].write_text(json.dumps(raw, indent=1))
        return paths


def _write_spectrum(path: Path, level: int, band, rng) -> float:
    """Emission spectrum (main line plus red shoulder) inside the band, with
    seeded 1% point-to-point noise; returns the wavelength of its maximum.

    The shape follows the size level, not the seed: how many panels the
    depth quadrature needs depends on the shape, and seed-drawn shapes
    made the cost of a run vary by a quarter from seed to seed.
    """
    f = level / (BLOCK - 1)
    w = np.linspace(band[0] + 2.0, band[1] - 2.0, N_LAMBDA_LEVELS[level])
    peak, width = 445.0 + 20.0 * f, 12.0 + 8.0 * f
    v = (np.exp(-0.5 * ((w - peak) / width) ** 2)
         + (0.4 - 0.25 * f) * np.exp(-0.5 * ((w - peak - 28.0) / 20.0) ** 2))
    v *= 1.0 + rng.uniform(-0.01, 0.01, w.size)
    with open(path, "w") as fh:
        fh.write("wavelength_nm,photons_per_nm\n")
        for wi, vi in zip(w, v):
            fh.write(f"{float(wi)!r},{float(vi)!r}\n")
    return float(w[np.argmax(v)])


def _laser_args(cfg):
    return (cfg.fiber, cfg.attenuation, cfg.fluorophore, cfg.detection)


def _pair_args(cfg):
    return (cfg.source, cfg.pair_source, cfg.attenuation, cfg.fiber,
            cfg.fluorophore, cfg.detection)


class Inversion(Workload):
    """load_config -> invert -> forward round trip -> power sweep -> report;
    spdc configs run sigma_e_upper_bound + forward_e2pef instead."""

    item = "configuration"
    tabulated = False
    sweep_w = SWEEP_W

    def prepare(self, j: int) -> Job:
        s, rng = self.stratum(j)
        base = BASES[s % len(BASES)]
        conc = CONC_LEVELS_M[s]
        level = PAIRING[s] if self.tabulated else None
        files = self.write_config(f"cfg_{j}", base, conc, rng, level)
        n_lambda = 1 if level is None else int(N_LAMBDA_LEVELS[level])
        return Job(j, 1, {"path": files[0], "conc_m": conc}, files, n_lambda=n_lambda)

    def run(self, job: Job):
        cfg = config.load_config(job.params["path"])
        rtol = cfg.z_quadrature_rtol
        meas = cfg.measurement
        if cfg.source.kind == "spdc":
            flb = meas["f_lb_cnt_s"]
            bound = e2pa.sigma_e_upper_bound(flb, *_pair_args(cfg), cfg.te_model,
                                             rtol=rtol)
            back = e2pa.forward_e2pef(bound, *_pair_args(cfg), cfg.te_model,
                                      rtol=rtol)
            return {"cfg": cfg, "bound": bound, "back": back,
                    "report": report.build_report(cfg)}
        coeff = meas["fc_per_w0sq_cnt_s_uw2"] * 1e12
        sigma = c2pa.invert_sigma_c(coeff, cfg.source, *_laser_args(cfg), rtol=rtol)
        powers = [cfg.source.input_power_w, *self.sweep_w]
        fc = [c2pa.forward_c2pef(sigma, dataclasses.replace(cfg.source, input_power_w=float(w)),
                                 *_laser_args(cfg), rtol=rtol)
              for w in powers]
        return {"cfg": cfg, "sigma": sigma, "powers": powers, "fc": fc,
                "report": report.build_report(cfg)}

    def check(self, job: Job, res) -> list[str]:
        import oracles as o
        cfg, errs = res["cfg"], []
        if cfg.fluorophore.concentration_m != job.params["conc_m"]:
            errs.append("loaded concentration differs from the generated one")
        if cfg.source.kind == "spdc":
            flb = cfg.measurement["f_lb_cnt_s"]
            ref = flb / (o.number_density(cfg) * o.pair_integral(cfg, cfg.te_model))
            if o.rel_err(res["bound"], ref) > o.QUAD_RTOL:
                errs.append(f"sigma_E bound {res['bound']:.10g} vs quad {ref:.10g}")
            if o.rel_err(res["back"], flb) > o.ROUND_TRIP_RTOL:
                errs.append(f"forward_e2pef round trip {res['back']!r} vs {flb!r}")
            line = f"sigma_E upper bound = {res['bound']:.4e} cm^2"
        else:
            coeff = cfg.measurement["fc_per_w0sq_cnt_s_uw2"] * 1e12
            integral = o.laser_integral(cfg)
            sigma = res["sigma"]
            ref = coeff / (o.number_density(cfg) * o.quadratic_gain(cfg) * integral)
            if o.rel_err(sigma, ref) > o.QUAD_RTOL:
                errs.append(f"sigma_C {sigma:.10g} vs quad {ref:.10g}")
            for w, fc in zip(res["powers"], res["fc"]):
                if o.rel_err(fc / w ** 2, coeff) > o.ROUND_TRIP_RTOL:
                    errs.append(f"round trip at {w:g} W: {fc / w ** 2!r} vs {coeff!r}")
                fref = o.forward_c2pef_reference(sigma, w, cfg, integral)
                if o.rel_err(fc, fref) > o.QUAD_RTOL:
                    errs.append(f"forward_c2pef at {w:g} W: {fc:.10g} vs quad {fref:.10g}")
            line = f"sigma_C = {sigma / GM_CM4_S:.1f} GM"
        if line not in res["report"]:
            errs.append(f"report lacks {line!r}")
        return errs


class InversionLine(Inversion):
    name = "inversion_line"


class InversionTabulated(Inversion):
    name = "inversion_tabulated"
    tabulated = True
    sweep_w = ()  # the round trip only, so a run holds enough jobs


class PairTe(Workload):
    """from_csv -> 37-depth T_e profile -> fit_te_model -> sigma_e_upper_bound."""

    name = "pair_te"
    item = "depth"

    def setup(self) -> list[Job]:
        path = self.write_config("spdc", "experiment-spdc", 2.30e-3, self.rng(SETUP_KEY))[0]
        self.cfg = config.load_config(path)
        return super().setup()

    def prepare(self, j: int) -> Job:
        s, rng = self.stratum(j)
        n = JSI_GRID_LEVELS[s % len(JSI_GRID_LEVELS)]
        sigma_minus = sigma_minus_for(TE0_LEVELS_FS[PAIRING[s]]
                                      * 10.0 ** rng.uniform(-0.02, 0.02))
        ratio = rng.uniform(0.25, 0.5)
        path = self.work / f"jsi_{j}.csv"
        write_anticorrelated_jsi(path, n, sigma_minus, ratio * sigma_minus)
        return Job(j, len(Z_GRID_CM), {"path": path, "n": n,
                                       "sigma_minus": sigma_minus}, [path], n_lambda=1)

    def run(self, job: Job):
        cfg = self.cfg
        gdd, gvd = cfg.source.pre_fiber_gdd_fs2, cfg.fiber.gvd_fs2_per_cm
        js = jsa.JointSpectrum.from_csv(job.params["path"])
        profile = jsa.entanglement_time_profile(js, gdd, gvd, Z_GRID_CM)
        model, _ = jsa.fit_te_model(profile, gdd, gvd)
        bound = e2pa.sigma_e_upper_bound(cfg.measurement["f_lb_cnt_s"], *_pair_args(cfg),
                                         model, rtol=cfg.z_quadrature_rtol)
        return {"profile": profile, "model": model, "bound": bound}

    def check(self, job: Job, res) -> list[str]:
        import oracles as o
        cfg, errs = self.cfg, []
        gdd, gvd = cfg.source.pre_fiber_gdd_fs2, cfg.fiber.gvd_fs2_per_cm
        sm = job.params["sigma_minus"]
        for z, te in res["profile"]:
            ref = o.gaussian_te_fs(sm, gdd + gvd * z)
            if o.rel_err(te, ref) > o.TE_RTOL:
                errs.append(f"T_e({z:g} cm) = {te:.6g} fs vs closed form {ref:.6g}")
            fit = float(res["model"].te_fs(z))
            if o.rel_err(fit, ref) > o.TE_RTOL:
                errs.append(f"fitted T_e({z:g} cm) = {fit:.6g} fs vs closed form {ref:.6g}")
        flb = cfg.measurement["f_lb_cnt_s"]
        ref = flb / (o.number_density(cfg) * o.pair_integral(cfg, res["model"]))
        if o.rel_err(res["bound"], ref) > o.QUAD_RTOL:
            errs.append(f"sigma_E bound {res['bound']:.10g} vs quad {ref:.10g}")
        return errs


def sigma_minus_for(te0_fs: float) -> float:
    """sigma_minus (rad/fs) whose Gaussian JSI has T_e(0) = te0_fs."""
    return 2.0 * math.sqrt(2.0 * math.log(2.0)) / (math.sqrt(2.0) * te0_fs)


def write_anticorrelated_jsi(path: Path, n: int, sigma_minus: float,
                             sigma_plus: float) -> None:
    """JSI grid file with Gaussian widths (rad/fs) along (w_s -/+ w_i)/sqrt(2),
    spanning +-5 marginal standard deviations around w_p/2."""
    half = 5.0 * math.sqrt((sigma_plus ** 2 + sigma_minus ** 2) / 2.0)
    offset = np.linspace(-half, half, n)                 # rad/fs
    axis = OMEGA_PUMP_RAD_S / 2.0 + offset * 1e15        # rad/s
    s, i = offset[:, None], offset[None, :]
    jsi = np.exp(-(s + i) ** 2 / (4.0 * sigma_plus ** 2)
                 - (s - i) ** 2 / (4.0 * sigma_minus ** 2))
    with open(path, "w") as fh:
        fh.write(f"omega_pump_rad_s,{OMEGA_PUMP_RAD_S!r}\n")
        for name in ("omega_signal_rad_s", "omega_idler_rad_s"):
            fh.write(name + "," + ",".join(repr(float(x)) for x in axis) + "\n")
        for row in jsi:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


class Frames(Workload):
    """synthesize_series -> write_series -> read_series -> analyze_series."""

    name = "frames"
    item = "frame"

    def prepare(self, j: int) -> Job:
        s, rng = self.stratum(j)
        kind = ("none", "ramp", "random_walk")[PAIRING[s] % 3]
        magnitude = {"none": 0.0, "ramp": rng.uniform(0.05, 0.2),
                     "random_walk": rng.uniform(0.002, 0.01)}[kind]
        params = {
            "truth": TRUTH_RATES[s % len(TRUTH_RATES)],
            "seed": int(rng.integers(2 ** 31)),
            "cic_probability": rng.uniform(0.0, 0.05),
            "cic_amplitude": rng.uniform(100.0, 240.0),
            "drift": frames.PowerDrift(kind=kind, magnitude=magnitude),
            "camera": frames.CameraConfig(),
            "out": self.work / f"frames_{j}",
        }
        return Job(j, FRAMES_PER_SERIES, params, [params["out"]])

    def run(self, job: Job):
        p = job.params
        series = frames.synthesize_series(
            p["truth"], p["camera"], FRAMES_PER_SERIES, seed=p["seed"],
            cic_probability=p["cic_probability"],
            cic_amplitude_cnt_s=p["cic_amplitude"], power_drift=p["drift"])
        manifest = frames.write_series(series, p["out"])
        back = frames.read_series(manifest)
        rates, curve, mean_rate = frames.analyze_series(back)
        return {"series": series, "back": back, "rates": rates, "curve": curve,
                "mean": mean_rate}

    def check(self, job: Job, res) -> list[str]:
        import oracles as o
        errs = []
        problem = o.frames_round_trip_error(res["series"], res["back"])
        if problem:
            errs.append(problem)
        # the pipeline reports the rate at the kept frames' average power
        kept_power = np.mean(res["series"].w_out_w[res["rates"].kept])
        truth = job.params["truth"] * (kept_power / NOMINAL_POWER_W) ** 2
        dev = res["curve"].selected_deviation_cnt_s
        if abs(res["mean"] - truth) > 3.0 * dev:
            errs.append(f"recovered {res['mean']:.4g} cnt/s, truth {truth:g} "
                        f"(3 Allan deviations = {3 * dev:.3g})")
        return errs


WORKLOADS = {w.name: w for w in (InversionLine, InversionTabulated, PairTe, Frames)}
