"""Run-configuration ingestion.

Configs are JSON with unit-suffixed keys (``length_cm``,
``rep_rate_hz``, ...).  Loading is strict: unknown keys, missing
required keys, wrong-signed values and dangling file paths all raise
:class:`ConfigError` with the offending field path, so a typo fails the
run instead of silently using a default.  Relative CSV paths resolve
against the config file's directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .c2pa import DetectionChain, FluorophoreSpec
from .errors import ConfigError
from .fiber import FiberSpec
from .frames import CameraConfig
from .jsa import EntanglementTimeModel
from .materials import MATERIAL_REGISTRY, MaterialDispersion
from .propagation import AttenuationModel, SourceSpec
from .e2pa import PairSource
from .tables import SpectralTable, coerce_table
from .uncertainty import Budget, Measured, propagate

_SECTION_KEYS = {
    "fiber", "source", "attenuation", "fluorophore", "detection",
    "pair_source", "te_model", "camera", "measurement", "comparison",
    "seeds", "tolerances",
}


@dataclass
class RunConfig:
    fiber: FiberSpec
    source: SourceSpec
    attenuation: AttenuationModel
    fluorophore: FluorophoreSpec
    detection: DetectionChain
    pair_source: PairSource | None = None
    te_model: EntanglementTimeModel | None = None
    camera: CameraConfig | None = None
    measurement: dict | None = None
    comparison: dict | None = None
    seeds: dict | None = None
    tolerances: dict | None = None

    @property
    def z_quadrature_rtol(self) -> float:
        return (self.tolerances or {}).get("z_quadrature_rtol", 1e-8)

    @property
    def budget(self) -> Budget | None:
        """The uncertainty budget declared in ``measurement``, if any."""
        meas = self.measurement or {}
        if not meas.get("budget"):
            return None
        return propagate(meas["budget"], coverage_k=meas.get("coverage_k", 2.0))


class _Section:
    """Dict wrapper that tracks consumed keys and reports field paths."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def require(self, key, kind=None):
        if key not in self.data:
            raise ConfigError(f"missing required field {self.path}.{key}")
        return self.get(key, kind)

    def get(self, key, kind=None, default=None):
        if key not in self.data:
            return default
        self.seen.add(key)
        v = self.data[key]
        if kind is not None and v is not None:
            _typed(kind)(v, f"{self.path}.{key}")
        return v

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            raise ConfigError(
                f"unknown field(s) in {self.path}: {', '.join(sorted(unknown))}"
            )


def _typed(kind):
    """Type check; ``bool`` never passes, not even as an ``int``."""
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{path}: expected {getattr(kind, '__name__', kind)}, "
                              f"got {type(value).__name__}")
        return value
    return check


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric(test, what: str):
    def check(value, path):
        if not _is_number(value) or not test(value):
            raise ConfigError(f"{path} must be {what}, got {value!r}")
        return float(value)
    return check


_positive = _numeric(lambda v: v > 0, "a positive number")
_non_negative = _numeric(lambda v: v >= 0, "a non-negative number")
_fraction = _numeric(lambda v: 0 < v <= 1, "a number in (0, 1]")
_number = _numeric(lambda v: True, "a number")


def _number_pair(value, path) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2
            and all(_is_number(v) for v in value)):
        raise ConfigError(f"{path} must be a list of exactly 2 numbers, got {value!r}")
    return float(value[0]), float(value[1])


def _resolve(spec, base: Path):
    """Resolve CSV path strings relative to the config directory."""
    if isinstance(spec, str):
        p = Path(spec)
        if not p.is_absolute():
            p = base / p
        if not p.exists():
            raise ConfigError(f"referenced file does not exist: {p}")
        return p
    return spec


def _material(spec, path: str) -> MaterialDispersion:
    if isinstance(spec, str):
        if spec not in MATERIAL_REGISTRY:
            raise ConfigError(
                f"{path}: unknown material {spec!r}; bundled materials are "
                f"{sorted(MATERIAL_REGISTRY)}"
            )
        return MATERIAL_REGISTRY[spec]
    sec = _Section(spec, path)
    mat = MaterialDispersion(
        name=sec.require("name", str),
        convention=sec.require("convention", str),
        coefficients=tuple(tuple(p) for p in sec.require("coefficients", list)),
        valid_range_nm=_number_pair(sec.require("valid_range_nm"),
                                    f"{path}.valid_range_nm"),
    )
    sec.finish()
    return mat


def _load_fiber(data, base) -> FiberSpec:
    sec = _Section(data, "fiber")
    fiber = FiberSpec.build(
        core_diameter_um=_positive(sec.require("core_diameter_um"), "fiber.core_diameter_um"),
        length_cm=_positive(sec.require("length_cm"), "fiber.length_cm"),
        core=_material(sec.require("core_material"), "fiber.core_material"),
        clad=_material(sec.require("clad_material"), "fiber.clad_material"),
        scatter=_resolve(sec.get("scatter_per_cm", default=0.0), base),
        mode_fwhm_um=sec.get("mode_fwhm_um", (int, float)),
        effective_mode_area_um2=sec.get("effective_mode_area_um2", (int, float)),
        gvd_fs2_per_cm=float(sec.get("gvd_fs2_per_cm", (int, float), default=0.0)),
    )
    sec.finish()
    return fiber


def _load_source(data) -> SourceSpec:
    sec = _Section(data, "source")
    kind = sec.require("kind", str)
    src = SourceSpec(
        kind=kind,
        wavelength_nm=_positive(sec.require("wavelength_nm"), "source.wavelength_nm"),
        rep_rate_hz=_positive(sec.require("rep_rate_hz"), "source.rep_rate_hz"),
        pulse_fwhm_fs=_positive(sec.require("pulse_fwhm_fs"), "source.pulse_fwhm_fs"),
        photon_energy_j=sec.get("photon_energy_j", (int, float)),
        pre_fiber_gdd_fs2=float(sec.get("pre_fiber_gdd_fs2", (int, float), default=0.0)),
        input_power_w=sec.get("input_power_w", (int, float)),
        input_rate_per_s=sec.get("input_rate_per_s", (int, float)),
        effective_pulse_fwhm_fs=sec.get("effective_pulse_fwhm_fs", (int, float)),
    )
    sec.finish()
    return src


def _load_attenuation(data, base, fiber: FiberSpec,
                      fluorophore: FluorophoreSpec) -> AttenuationModel:
    sec = _Section(data, "attenuation")
    att = AttenuationModel.build(
        solvent=_resolve(sec.get("solvent_absorption_per_cm", default=0.0), base),
        extinction=_resolve(sec.get("sample_extinction_per_m_cm", default=0.0), base),
        concentration_m=fluorophore.concentration_m,
        scatter=fiber.scatter_per_cm,
        extinction_convention=sec.get("extinction_convention", str, default="decadic"),
    )
    sec.finish()
    return att


def _load_fluorophore(data, base) -> FluorophoreSpec:
    sec = _Section(data, "fluorophore")
    spectrum_path = sec.get("emission_spectrum_csv")
    qy = _non_negative(sec.require("quantum_yield"), "fluorophore.quantum_yield")
    peak = _positive(sec.require("emission_peak_nm"), "fluorophore.emission_peak_nm")
    conc = _non_negative(sec.require("concentration_m"), "fluorophore.concentration_m")
    sec.finish()
    if spectrum_path is None:
        return FluorophoreSpec(qy, peak, conc)
    table = SpectralTable.from_csv(_resolve(spectrum_path, base))
    return FluorophoreSpec.with_spectrum_shape(qy, peak, conc, table)


def _load_detection(data, base) -> DetectionChain:
    sec = _Section(data, "detection")
    gamma0 = coerce_table(_resolve(sec.require("gamma0"), base), "gamma0")
    band = _number_pair(sec.get("band_nm", default=[400.0, 700.0]), "detection.band_nm")
    sec.finish()
    return DetectionChain(gamma0=gamma0, band_nm=band)


def _load_pair_source(data) -> tuple[PairSource, dict]:
    sec = _Section(data, "pair_source")
    ae = _number_pair(sec.get("entanglement_area_um2", default=[0.0, 0.0]),
                      "pair_source.entanglement_area_um2")
    ps = PairSource(
        effective_klyshko=_positive(sec.require("effective_klyshko"),
                                    "pair_source.effective_klyshko"),
        free_space_transmission=_positive(sec.require("free_space_transmission"),
                                          "pair_source.free_space_transmission"),
        coupling=_positive(sec.require("coupling"), "pair_source.coupling"),
        single_rate_per_s=_non_negative(sec.require("single_rate_per_s"),
                                        "pair_source.single_rate_per_s"),
        spatial_modes=float(sec.get("spatial_modes", (int, float), default=1.0)),
        entanglement_area_um2=ae,
    )
    # context values used only by reports
    extras = {
        "rate_ratio": sec.get("rate_ratio", (int, float)),
        "multimode_rate_per_s_at_crystal": sec.get(
            "multimode_rate_per_s_at_crystal", (int, float)),
    }
    sec.finish()
    return ps, extras


def _load_te_model(data, source: SourceSpec, fiber: FiberSpec) -> EntanglementTimeModel:
    sec = _Section(data, "te_model")
    model = EntanglementTimeModel(
        te0_fs=_positive(sec.require("te0_fs"), "te_model.te0_fs"),
        s0=_positive(sec.require("s0"), "te_model.s0"),
        gdd_fs2=source.pre_fiber_gdd_fs2,
        gvd_fs2_per_cm=fiber.gvd_fs2_per_cm,
    )
    sec.finish()
    return model


def _fields(data, path: str, checks: dict, required=()) -> dict:
    """Validate a section whose accepted keys are those of ``checks``."""
    sec = _Section(data, path)
    for key in required:
        sec.require(key)
    out = {key: check(sec.get(key), f"{path}.{key}")
           for key, check in checks.items() if key in sec.data}
    sec.finish()
    return out


def _optional(raw: dict, key: str, checks: dict, required=()) -> dict | None:
    """An optional top-level section; absent or null reads as None."""
    return None if raw.get(key) is None else _fields(raw[key], key, checks, required)


def _budget(value, path) -> list[Measured]:
    entry = {"name": _typed(str), "rel_sigma": _non_negative, "exponent": _number}
    return [Measured(**_fields(e, f"{path}[{i}]", entry, ("name", "rel_sigma")))
            for i, e in enumerate(_typed(list)(value, path))]


def _ratio_inputs(value, path) -> dict:
    keys = ("sigma_e_ub_cm2", "te_fs", "ae_um2")
    return _fields(value, path, dict.fromkeys(keys, _positive), keys)


_COMPARISON = dict.fromkeys(("this", "other"), _ratio_inputs)
_MEASUREMENT = {
    "fc_per_w0sq_cnt_s_uw2": _positive, "eta_t": _fraction, "f_lb_cnt_s": _positive,
    "sigma_c_gm": _positive, "coverage_k": _positive, "budget": _budget,
}


def load_config(path) -> RunConfig:
    """Load and validate a run configuration from JSON."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - _SECTION_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level section(s): {', '.join(sorted(unknown))}")
    for required in ("fiber", "source", "attenuation", "fluorophore", "detection"):
        if required not in raw:
            raise ConfigError(f"missing required section {required!r}")
    base = path.parent

    fiber = _load_fiber(raw["fiber"], base)
    source = _load_source(raw["source"])
    fluorophore = _load_fluorophore(raw["fluorophore"], base)
    attenuation = _load_attenuation(raw["attenuation"], base, fiber, fluorophore)
    detection = _load_detection(raw["detection"], base)

    pair_source = None
    pair_extras = {}
    if "pair_source" in raw:
        pair_source, pair_extras = _load_pair_source(raw["pair_source"])
    te_model = _load_te_model(raw["te_model"], source, fiber) \
        if "te_model" in raw else None
    camera = None
    if "camera" in raw:
        try:
            camera = CameraConfig.from_dict(raw["camera"])
        except TypeError as exc:
            raise ConfigError(f"camera: {exc}") from exc

    measurement = _optional(raw, "measurement", _MEASUREMENT)
    if measurement or any(v is not None for v in pair_extras.values()):
        measurement = {**(measurement or {}), **pair_extras}

    return RunConfig(
        fiber=fiber,
        source=source,
        attenuation=attenuation,
        fluorophore=fluorophore,
        detection=detection,
        pair_source=pair_source,
        te_model=te_model,
        camera=camera,
        measurement=measurement,
        comparison=_optional(raw, "comparison", _COMPARISON, required=("this", "other")),
        seeds=_optional(raw, "seeds", {"frames": _typed(int)}),
        tolerances=_optional(raw, "tolerances", {"z_quadrature_rtol": _positive}),
    )
