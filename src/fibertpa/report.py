"""Consolidated run report: derived quantities plus reference checks.

Sections appear only when the loaded configuration carries enough
information to compute them, so a partial config still produces a
useful (shorter) report.  The reference-check block compares derived
values against the bundled-experiment anchors and prints one pass/fail
line each; those targets assume the bundled 5 um toluene/silica
geometry and are meaningless for other configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .c2pa import invert_sigma_c
from .config import RunConfig
from .constants import GM_CM4_S
from .e2pa import sigma_e_upper_bound, upper_bound_ratio
from .errors import ConfigError, FiberTpaError
from .fiber import collection_efficiency, v_number
from .propagation import efficiency_components, peak_flux, photon_rate
from .uncertainty import budget_report


@dataclass(frozen=True)
class ReferenceCheck:
    name: str
    target: float
    tolerance: float   # absolute
    value: float

    @property
    def passed(self) -> bool:
        return abs(self.value - self.target) <= self.tolerance


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.4e}"
    return f"{v:.4g}"


def build_report(config: RunConfig, f_lb_cnt_s: float | None = None) -> str:
    """Render the full text report for one configuration."""
    lines: list[str] = []
    checks: list[ReferenceCheck] = []
    rtol = config.z_quadrature_rtol
    fiber, source = config.fiber, config.source
    lam_e = source.wavelength_nm
    lam_f = config.fluorophore.emission_peak_nm

    lines.append("run report")
    lines.append("==========")

    # --- resolved parameters ------------------------------------------------
    lines.append("")
    lines.append("resolved parameters")
    lines.append(f"  fiber: d = {fiber.core_diameter_um:g} um, "
                 f"l = {fiber.length_cm:g} cm, core = {fiber.core.name}, "
                 f"clad = {fiber.clad.name}")
    lines.append(f"  mode: d0 = {fiber.mode_fwhm_um:g} um, "
                 f"A_eff = {fiber.effective_mode_area_um2:.4f} um^2, "
                 f"gvd = {fiber.gvd_fs2_per_cm:g} fs^2/cm")
    src_drive = (f"W0 = {source.input_power_w:g} W" if source.kind == "laser"
                 else f"Q(0) = {source.input_rate_per_s:g} /s")
    lines.append(f"  source: {source.kind} at {lam_e:g} nm, "
                 f"g = {source.rep_rate_hz:g} Hz, tau0 = {source.pulse_fwhm_fs:g} fs, "
                 f"D0 = {source.pre_fiber_gdd_fs2:g} fs^2, {src_drive}")
    att = config.attenuation
    lines.append(f"  attenuation at {lam_e:g} nm: absorption = "
                 f"{att.absorption_coefficient(lam_e):.5g} /cm, scatter = "
                 f"{att.scatter_coefficient(lam_e):.5g} /cm")
    lines.append(f"  attenuation at {lam_f:g} nm: absorption = "
                 f"{att.absorption_coefficient(lam_f):.5g} /cm, scatter = "
                 f"{att.scatter_coefficient(lam_f):.5g} /cm "
                 f"({att.extinction_convention} extinction)")
    fl = config.fluorophore
    lines.append(f"  sample: c = {fl.concentration_m:g} M "
                 f"(n = {fl.number_density_per_cm3:.4e} /cm^3), "
                 f"yield = {fl.quantum_yield:g}, peak = {lam_f:g} nm, "
                 f"spectral mode = {fl.spectral_mode}")
    lines.append(f"  detection: gamma0({lam_f:g} nm) = "
                 f"{config.detection.gamma0(lam_f):g}, band = "
                 f"{config.detection.band_nm[0]:g}-{config.detection.band_nm[1]:g} nm")

    # --- waveguide section -------------------------------------------------
    lines.append("")
    lines.append("waveguide")
    try:
        me = v_number(fiber, lam_e)
        mf = v_number(fiber, lam_f)
        kap = collection_efficiency(fiber, lam_f)
        lines.append(f"  V({lam_e:g} nm) = {me.v_number:.3f}  "
                     f"modes = {me.mode_count:.1f}")
        lines.append(f"  V({lam_f:g} nm) = {mf.v_number:.3f}  "
                     f"modes = {mf.mode_count:.1f}")
        lines.append(f"  kappa({lam_f:g} nm) = {kap:.5f}")
        if abs(fiber.core_diameter_um - 5.0) < 1e-9:
            checks.append(ReferenceCheck("modes at 810 nm", 16.0, 2.4,
                                         v_number(fiber, 810.0).mode_count))
            checks.append(ReferenceCheck("modes at 451 nm", 80.0, 12.0,
                                         v_number(fiber, 451.0).mode_count))
            checks.append(ReferenceCheck("kappa at 451 nm", 0.0146, 0.0005,
                                         collection_efficiency(fiber, 451.0)))
    except (FiberTpaError, ValueError) as exc:
        lines.append(f"  (skipped: {exc})")

    # --- propagation section ------------------------------------------------
    lines.append("")
    lines.append("propagation")
    q0 = photon_rate(source, config.attenuation, 0.0)
    lines.append(f"  Q(0) = {_fmt(q0)} photons/s")
    lines.append(f"  photons per pulse at z=0 = {_fmt(q0 / source.rep_rate_hz)}")
    try:
        phi0 = peak_flux(source, fiber, config.attenuation, 0.0)
        lines.append(f"  peak flux phi0(0) = {_fmt(phi0)} photons/cm^2/s")
        if source.kind == "laser" and abs(source.input_power_w - 1.75e-9) < 1e-15:
            checks.append(ReferenceCheck("peak flux at 1.75 nW", 1.1e22,
                                         0.1 * 1.1e22, phi0))
    except FiberTpaError as exc:
        lines.append(f"  peak flux: (skipped: {exc})")

    meas = config.measurement or {}
    eta_t = meas.get("eta_t")
    if eta_t is not None:
        eta_a = config.attenuation.absorption_transmission(lam_e, fiber.length_cm)
        eta_s = config.attenuation.scatter_transmission(lam_e, fiber.length_cm)
        try:
            eta_c = efficiency_components(eta_t, eta_a, eta_s)
        except ValueError as exc:
            raise ConfigError(f"measurement.eta_t: {exc}") from exc
        lines.append(f"  eta_T = {eta_t:g} -> eta_A = {eta_a:.4f}, "
                     f"eta_S = {eta_s:.4f}, eta_C = {eta_c:.4f}")
        if abs(eta_t - 0.43) < 1e-12:
            checks.append(ReferenceCheck("eta_C from eta_T=0.43", 0.48, 0.01, eta_c))

    # --- pair source section -------------------------------------------------
    ps = config.pair_source
    if ps is not None:
        lines.append("")
        lines.append("pair source")
        lines.append(f"  eta_K = {ps.klyshko:.4f}  (eta_K' = {ps.effective_klyshko:g}, "
                     f"eta_F = {ps.free_space_transmission:g}, eta_C = {ps.coupling:g})")
        pre_loss = 1.0 - ps.free_space_transmission * ps.coupling
        lines.append(f"  pre-fiber pair-light loss = {100 * pre_loss:.1f} %")
        lines.append(f"  spatial modes M = {ps.spatial_modes:g}")
        checks.append(ReferenceCheck("eta_K", 0.25, 0.01, ps.klyshko))
        checks.append(ReferenceCheck("pre-fiber loss (%)", 73.0, 1.0, 100 * pre_loss))
        qmm = meas.get("multimode_rate_per_s_at_crystal")
        if qmm:
            occ = qmm / source.rep_rate_hz / ps.spatial_modes
            lines.append(f"  occupancy = {occ:.3f} photons/pulse/mode")
            checks.append(ReferenceCheck("per-mode occupancy", 6.8, 0.34, occ))
        lo, hi = ps.entanglement_area_um2
        if hi > 0:
            lines.append(f"  entanglement area interval = [{lo:g}, {hi:g}] um^2")

    # --- entanglement time ---------------------------------------------------
    te = config.te_model
    if te is not None:
        lines.append("")
        lines.append("entanglement time")
        lines.append(f"  te0 = {te.te0_fs:g} fs, s0 = {te.s0:g}")
        te0 = float(te.te_fs(0.0))
        tel = float(te.te_fs(fiber.length_cm))
        lines.append(f"  T_e(0) = {te0:.1f} fs,  T_e(l) = {tel:.1f} fs")
        if abs(te.te0_fs - 260.0) < 1e-9 and abs(te.s0 - 2145.0) < 1e-9:
            checks.append(ReferenceCheck("T_e(0)", 1070.0, 10.7, te0))

    # --- cross sections --------------------------------------------------------
    fc_coeff = meas.get("fc_per_w0sq_cnt_s_uw2")
    if fc_coeff is not None and source.kind == "laser":
        lines.append("")
        lines.append("classical cross-section")
        sigma = invert_sigma_c(fc_coeff * 1e12, source, fiber, config.attenuation,
                               config.fluorophore, config.detection, rtol=rtol)
        lines.append(f"  fit coefficient = {_fmt(fc_coeff)} cnt/s/uW^2")
        lines.append(f"  sigma_C = {sigma / GM_CM4_S:.1f} GM  "
                     f"(spectral mode: {fl.spectral_mode})")

    if ps is not None and te is not None and source.kind == "spdc":
        flb = f_lb_cnt_s if f_lb_cnt_s is not None else meas.get("f_lb_cnt_s", 1.0)
        lines.append("")
        lines.append("pair-excitation bound")
        sig_ub = sigma_e_upper_bound(flb, source, ps, config.attenuation, fiber,
                                     config.fluorophore, config.detection, te,
                                     rtol=rtol)
        lines.append(f"  F_LB = {flb:g} cnt/s")
        lines.append(f"  sigma_E upper bound = {_fmt(sig_ub)} cm^2  "
                     f"(spectral mode: {fl.spectral_mode})")

    comp = config.comparison
    if comp:
        a, b = comp["this"], comp["other"]
        r = upper_bound_ratio(a["sigma_e_ub_cm2"], a["te_fs"], a["ae_um2"],
                              b["sigma_e_ub_cm2"], b["te_fs"], b["ae_um2"])
        lines.append("")
        lines.append("bound comparison")
        lines.append(f"  R_UB = {r:.3f}")
        checks.append(ReferenceCheck("R_UB", 8.5, 0.2, r))

    # --- uncertainty example ---------------------------------------------------
    budget = config.budget
    if budget is not None:
        lines.append("")
        lines.append(budget_report(budget, "cross-section"))

    # --- reference checks -------------------------------------------------------
    if checks:
        lines.append("")
        lines.append("reference checks (bundled experiment geometry)")
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: {_fmt(c.value)} "
                         f"(target {_fmt(c.target)} +/- {_fmt(c.tolerance)})")
    lines.append("")
    return "\n".join(lines)
