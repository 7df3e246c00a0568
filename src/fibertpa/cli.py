"""Command-line entry point.

One binary with subcommands; every command is deterministic given its
config and seed.  Exit codes: 0 success (all requested outputs
written), 2 configuration or data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .c2pa import forward_c2pef, invert_sigma_c
from .config import load_config
from .constants import GM_CM4_S
from .e2pa import sigma_e_upper_bound
from .errors import ConfigError, DataError, FitError
from .frames import (PowerDrift, analyze_series, read_series,
                     synthesize_series, write_series, CameraConfig)
from .jsa import (JointSpectrum, entanglement_time_profile, fit_te_model,
                  write_te_profile_csv)
from .report import build_report
from .tables import write_csv


def _finite_float(text: str) -> float:
    """argparse type for every float flag: rejects nan and infinities."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _flb(args) -> float | None:
    if args.flb is not None and args.flb <= 0:
        raise ConfigError(f"--flb must be positive, got {args.flb:g}")
    return args.flb


def _parse_power_grid(text: str) -> np.ndarray:
    """START:STOP:POINTS, log-spaced in watts."""
    try:
        start, stop, points = text.split(":")
        start, stop, points = float(start), float(stop), int(points)
    except ValueError as exc:
        raise ConfigError(f"bad power grid {text!r}; expected START:STOP:POINTS") from exc
    if not 0 < start < stop < math.inf or points < 2:
        raise ConfigError("power grid must satisfy 0 < start < stop (finite), points >= 2")
    return np.logspace(np.log10(start), np.log10(stop), points)


def _parse_z_grid(text: str) -> np.ndarray:
    """START:STOP:STEP in cm (inclusive of STOP within a half step)."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad z grid {text!r}; expected START:STOP:STEP") from exc
    if not (0 <= start <= stop < math.inf and 0 < step < math.inf):
        raise ConfigError("z grid must satisfy 0 <= start <= stop, step > 0 (all finite)")
    return np.arange(start, stop + step / 2.0, step)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate_c2pef(args) -> int:
    cfg = load_config(args.config)
    if cfg.source.kind != "laser":
        raise ConfigError("simulate-c2pef needs a laser-kind source")
    sigma_gm = args.sigma_c_gm
    if sigma_gm is None:
        sigma_gm = (cfg.measurement or {}).get("sigma_c_gm")
    if sigma_gm is None:
        raise ConfigError("give --sigma-c-gm or set measurement.sigma_c_gm")
    if sigma_gm < 0:
        raise ConfigError(f"sigma_C must be non-negative, got {sigma_gm:g} GM")
    grid = _parse_power_grid(args.power_grid)
    rows = []
    for w0 in grid:
        src = replace(cfg.source, input_power_w=float(w0))
        fc = forward_c2pef(sigma_gm * GM_CM4_S, src, cfg.fiber, cfg.attenuation,
                           cfg.fluorophore, cfg.detection,
                           rtol=cfg.z_quadrature_rtol)
        rows.append((float(w0), fc))
    out = _out_dir(args) / "c2pef_power_sweep.csv"
    write_csv(out, ["w0_watts", "fc_cnt_s"], rows)
    print(f"wrote {out}")
    return 0


def cmd_invert_c2pa(args) -> int:
    sigmas = []
    for cfg_path in args.config:
        cfg = load_config(cfg_path)
        if cfg.source.kind != "laser":
            raise ConfigError(f"{cfg_path}: invert-c2pa needs a laser-kind source")
        coeff_uw2 = args.fit_coefficient
        if coeff_uw2 is None:
            coeff_uw2 = (cfg.measurement or {}).get("fc_per_w0sq_cnt_s_uw2")
        elif len(args.config) > 1:
            raise ConfigError("--fit-coefficient only applies to a single config")
        if coeff_uw2 is None:
            raise ConfigError(
                f"{cfg_path}: give --fit-coefficient or set "
                "measurement.fc_per_w0sq_cnt_s_uw2"
            )
        if coeff_uw2 <= 0:
            raise ConfigError(f"fit coefficient must be positive, got {coeff_uw2}")
        sigma = invert_sigma_c(coeff_uw2 * 1e12, cfg.source, cfg.fiber,
                               cfg.attenuation, cfg.fluorophore, cfg.detection,
                               rtol=cfg.z_quadrature_rtol)
        budget = cfg.budget
        sigmas.append(sigma)
        gm = sigma / GM_CM4_S
        mode = cfg.fluorophore.spectral_mode
        if budget is not None:
            print(f"{cfg_path}: sigma_C = {gm:.1f} +/- {gm * budget.expanded_rel:.1f} GM "
                  f"(k-expanded, spectral mode: {mode})")
        else:
            print(f"{cfg_path}: sigma_C = {gm:.1f} GM (spectral mode: {mode})")
    if len(sigmas) > 1:
        print(f"average sigma_C = {np.mean(sigmas) / GM_CM4_S:.1f} GM "
              f"over {len(sigmas)} experiments")
    return 0


def cmd_e2pa_bound(args) -> int:
    cfg = load_config(args.config)
    if cfg.source.kind != "spdc":
        raise ConfigError("e2pa-bound needs an spdc-kind source")
    if cfg.pair_source is None:
        raise ConfigError("missing required section 'pair_source'")
    if cfg.te_model is None:
        raise ConfigError("missing required section 'te_model'")
    flb = _flb(args)
    sig = sigma_e_upper_bound(flb, cfg.source, cfg.pair_source,
                              cfg.attenuation, cfg.fiber, cfg.fluorophore,
                              cfg.detection, cfg.te_model,
                              rtol=cfg.z_quadrature_rtol)
    print(f"sigma_E upper bound = {sig:.4e} cm^2 at F_LB = {flb:g} cnt/s "
          f"(spectral mode: {cfg.fluorophore.spectral_mode})")
    lo, hi = cfg.pair_source.entanglement_area_um2
    if hi > 0:
        print(f"entanglement area interval [{lo:g}, {hi:g}] um^2; the bound "
              "above is quoted independent of it (area enters only "
              "cross-experiment ratios)")
    te0 = float(cfg.te_model.te_fs(0.0))
    print(f"entanglement time at fiber entrance = {te0:.1f} fs")
    return 0


def cmd_entanglement_time(args) -> int:
    js = JointSpectrum.from_csv(args.jsi)
    z = _parse_z_grid(args.z_grid)
    profile = entanglement_time_profile(js, args.gdd_fs2, args.gvd_fs2_per_cm, z,
                                        zero_pad=args.zero_pad)
    out = _out_dir(args) / "entanglement_time.csv"
    write_te_profile_csv(out, profile)
    print(f"wrote {out}")
    for zi, tei in profile[:1] + profile[-1:]:
        print(f"T_e({zi:g} cm) = {tei:.2f} fs")
    if len(profile) >= 4:
        model, max_resid = fit_te_model(profile, args.gdd_fs2, args.gvd_fs2_per_cm)
        print(f"fit: te0 = {model.te0_fs:.4f} fs, s0 = {model.s0:.4f} "
              f"(max relative residual {max_resid:.2e})")
    return 0


def cmd_analyze_frames(args) -> int:
    series = read_series(args.manifest)
    rates, curve, mean_rate = analyze_series(series, scaling=args.scaling)
    out = _out_dir(args)
    write_csv(out / "rates.csv",
              ["frame_index", "rate_cnt_s", "normalized_cnt_s", "kept"],
              ((i, r, n, int(k)) for i, (r, n, k) in
               enumerate(zip(rates.rates_cnt_s, rates.normalized_cnt_s, rates.kept))))
    curve.write_csv(out / "allan.csv")
    print(f"wrote {out / 'rates.csv'} and {out / 'allan.csv'}")
    print(f"kept fraction = {rates.kept_fraction:.4f}")
    print(f"selected averaging window m = {curve.selected_m} frames")
    print(f"mean rate = {mean_rate:.4f} +/- {curve.selected_deviation_cnt_s:.4f} "
          "cnt/s (selected Allan deviation)")
    return 0


def cmd_synth_frames(args) -> int:
    if args.n < 1:
        raise ConfigError(f"need at least one frame, got {args.n}")
    camera = CameraConfig()
    source_kind = "laser"
    seed = args.seed
    if args.config:
        cfg = load_config(args.config)
        if cfg.camera is not None:
            camera = cfg.camera
        source_kind = cfg.source.kind
        if seed is None and cfg.seeds:
            seed = cfg.seeds.get("frames", 0)
    drift = PowerDrift(kind=args.drift, magnitude=args.drift_magnitude) \
        if args.drift != "none" else PowerDrift()
    series = synthesize_series(
        truth_rate_cnt_s=args.truth_rate, camera=camera, n_frames=args.n,
        seed=seed if seed is not None else 0,
        cic_probability=args.cic_probability,
        cic_amplitude_cnt_s=args.cic_amplitude,
        power_drift=drift, source_kind=source_kind,
    )
    manifest = write_series(series, _out_dir(args))
    print(f"wrote {manifest} ({args.n} frame pairs)")
    return 0


def cmd_report(args) -> int:
    cfg = load_config(args.config)
    text = build_report(cfg, f_lb_cnt_s=_flb(args))
    if args.out:
        out = _out_dir(args) / "report.txt"
        out.write_text(text)
        print(f"wrote {out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fibertpa",
        description="Two-photon absorption measurement model for "
                    "liquid-core fiber experiments",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate-c2pef", help="power sweep of the forward model")
    sp.add_argument("--config", required=True)
    sp.add_argument("--power-grid", default="1e-9:1e-7:25",
                    help="START:STOP:POINTS in watts, log-spaced")
    sp.add_argument("--sigma-c-gm", type=_finite_float, default=None)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_simulate_c2pef)

    sp = sub.add_parser("invert-c2pa", help="cross-section from fit coefficients")
    sp.add_argument("--config", action="append", required=True,
                    help="repeat for batch mode")
    sp.add_argument("--fit-coefficient", type=_finite_float, default=None,
                    help="F_C/W0^2 in cnt/s/uW^2 (single config only)")
    sp.set_defaults(func=cmd_invert_c2pa)

    sp = sub.add_parser("e2pa-bound", help="pair cross-section upper bound")
    sp.add_argument("--config", required=True)
    sp.add_argument("--flb", type=_finite_float, default=1.0,
                    help="fluorescence lower bound in cnt/s")
    sp.set_defaults(func=cmd_e2pa_bound)

    sp = sub.add_parser("entanglement-time", help="T_e(z) from a JSI grid")
    sp.add_argument("--jsi", required=True)
    sp.add_argument("--gdd-fs2", type=_finite_float, required=True)
    sp.add_argument("--gvd-fs2-per-cm", type=_finite_float, required=True)
    sp.add_argument("--z-grid", default="0:36:1", help="START:STOP:STEP in cm")
    sp.add_argument("--zero-pad", type=int, default=4)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_entanglement_time)

    sp = sub.add_parser("analyze-frames", help="rate pipeline on a frame series")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--scaling", choices=["linear", "quadratic"], default=None)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_analyze_frames)

    sp = sub.add_parser("synth-frames", help="synthesize a frame series")
    sp.add_argument("--config", default=None)
    sp.add_argument("--truth-rate", type=_finite_float, required=True,
                    help="injected rate in cnt/s")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None,
                    help="defaults to the config's seeds.frames, then 0")
    sp.add_argument("--cic-probability", type=_finite_float, default=0.0)
    sp.add_argument("--cic-amplitude", type=_finite_float, default=100.0,
                    help="spike height in apparent cnt/s")
    sp.add_argument("--drift", choices=["none", "ramp", "random_walk"],
                    default="none")
    sp.add_argument("--drift-magnitude", type=_finite_float, default=0.0)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_synth_frames)

    sp = sub.add_parser("report", help="consolidated run report")
    sp.add_argument("--config", required=True)
    sp.add_argument("--flb", type=_finite_float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FitError, FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
