"""Wavelength-indexed coefficient tables and small CSV helpers.

Attenuation coefficients, extinction coefficients, detection-chain
transmittances and emission spectra all arrive either as a scalar, an
inline ``{wavelength_nm: value}`` mapping, or a two-column CSV file.
``SpectralTable`` normalizes those forms behind one lookup.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class SpectralTable:
    """Piecewise-linear wavelength table.

    A single-point table evaluates as a constant.  Multi-point tables
    interpolate linearly inside their span and clamp to the end values
    outside it; coefficients of this kind vary smoothly, so clamping is
    preferable to extrapolating a line off the measured span.
    """

    wavelengths_nm: tuple[float, ...]
    values: tuple[float, ...]
    name: str = field(default="table", compare=False)

    def __post_init__(self):
        if len(self.wavelengths_nm) != len(self.values):
            raise DataError(f"{self.name}: wavelength/value length mismatch")
        if len(self.wavelengths_nm) == 0:
            raise DataError(f"{self.name}: empty table")
        w = np.asarray(self.wavelengths_nm, dtype=float)
        if np.any(np.diff(w) <= 0):
            raise DataError(f"{self.name}: wavelengths must be strictly increasing")

    def __call__(self, wavelength_nm):
        w = np.asarray(self.wavelengths_nm, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if w.size == 1:
            return np.full_like(np.asarray(wavelength_nm, dtype=float), v[0])[()] \
                if np.ndim(wavelength_nm) else float(v[0])
        out = np.interp(wavelength_nm, w, v)
        return float(out) if np.ndim(wavelength_nm) == 0 else out

    @classmethod
    def constant(cls, value: float, name: str = "constant") -> "SpectralTable":
        return cls((0.0,), (float(value),), name=name)

    @classmethod
    def from_mapping(cls, mapping: dict, name: str = "table") -> "SpectralTable":
        pairs = sorted((float(k), float(v)) for k, v in mapping.items())
        return cls(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs), name=name)

    @classmethod
    def from_csv(cls, path: str | Path, name: str | None = None) -> "SpectralTable":
        """Read a two-column CSV (wavelength_nm, value); header row optional."""
        wl, vals = _read_two_columns(path, "table")
        order = np.argsort(wl)
        return cls(tuple(wl[order]), tuple(vals[order]), name=name or Path(path).stem)


def coerce_table(spec, name: str) -> SpectralTable:
    """Accept a scalar, mapping, CSV path, or SpectralTable."""
    if isinstance(spec, SpectralTable):
        return spec
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return SpectralTable.constant(float(spec), name=name)
    if isinstance(spec, dict):
        return SpectralTable.from_mapping(spec, name=name)
    if isinstance(spec, (str, Path)):
        return SpectralTable.from_csv(spec, name=name)
    raise DataError(f"{name}: cannot interpret {type(spec).__name__} as a spectral table")


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write rows with unit-suffixed column headers."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(list(row))


def data_rows(fh):
    """CSV rows of an open file, skipping blank rows and ``#`` comments."""
    return (row for row in csv.reader(fh)
            if row and not row[0].strip().startswith("#"))


def read_csv_rows(path: str | Path, parse, what: str) -> list:
    """``parse(row)`` for every data row of a CSV file.

    The first data row may be a header: it is skipped when ``parse``
    rejects it with ``ValueError`` or ``IndexError``.  Any later row that
    ``parse`` rejects is malformed.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    out = []
    with open(path, newline="") as fh:
        for i, row in enumerate(data_rows(fh)):
            try:
                out.append(parse(row))
            except (ValueError, IndexError):
                if i > 0:
                    raise DataError(f"{path}: malformed row {row!r}") from None
    return out


def _read_two_columns(path: str | Path, what: str) -> tuple[np.ndarray, np.ndarray]:
    rows = read_csv_rows(path, lambda r: (float(r[0]), float(r[1])), what)
    if not rows:
        raise DataError(f"{Path(path)}: no numeric rows")
    x, y = np.asarray(rows, dtype=float).T
    return x, y


def read_profile_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a (z_cm, intensity) scatter profile CSV; header row optional."""
    return _read_two_columns(path, "profile")
