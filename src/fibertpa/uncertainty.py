"""First-order uncertainty budgets with coverage-factor expansion.

Each input enters the target formula as value^exponent, so its relative
standard uncertainty contributes exponent * rel_sigma in quadrature:

    combined = sqrt(sum_i (exponent_i * rel_sigma_i)^2)
    expanded = k * combined
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tables import read_csv_rows, write_csv


@dataclass(frozen=True)
class Measured:
    """One budget input: its relative uncertainty and formula exponent."""

    name: str
    rel_sigma: float
    exponent: float = 1.0
    value: float | None = None
    unit: str = ""

    def __post_init__(self):
        if self.rel_sigma < 0:
            raise ValueError(f"{self.name}: rel_sigma must be >= 0")

    @property
    def contribution(self) -> float:
        return abs(self.exponent) * self.rel_sigma


@dataclass(frozen=True)
class Budget:
    components: tuple[tuple[str, float], ...]
    combined_rel: float
    coverage_k: float
    expanded_rel: float


def propagate(inputs: list[Measured], coverage_k: float = 2.0) -> Budget:
    """Quadrature-combine exponent-weighted relative uncertainties."""
    if coverage_k <= 0:
        raise ValueError(f"coverage factor must be positive, got {coverage_k}")
    comps = tuple((m.name, m.contribution) for m in inputs)
    combined = math.sqrt(sum(c * c for _, c in comps))
    return Budget(
        components=comps,
        combined_rel=combined,
        coverage_k=coverage_k,
        expanded_rel=coverage_k * combined,
    )


def budget_report(budget: Budget, target_name: str) -> str:
    """Human-readable budget: contributions sorted largest first."""
    lines = [f"uncertainty budget for {target_name}"]
    for name, c in sorted(budget.components, key=lambda t: -t[1]):
        lines.append(f"  {name:<28s} {c * 100:8.3f} %")
    lines.append(f"  {'combined (k=1)':<28s} {budget.combined_rel * 100:8.3f} %")
    lines.append(
        f"  {'expanded (k=' + format(budget.coverage_k, 'g') + ')':<28s} "
        f"{budget.expanded_rel * 100:8.3f} %"
    )
    return "\n".join(lines)


def read_budget_csv(path) -> list[Measured]:
    """Read (name, rel_sigma, exponent) rows; header optional."""
    return read_csv_rows(
        path, lambda r: Measured(r[0].strip(), float(r[1]), float(r[2])), "budget")


def write_budget_csv(path, inputs: list[Measured]) -> None:
    write_csv(path, ["name", "rel_sigma", "exponent"],
              ((m.name, m.rel_sigma, m.exponent) for m in inputs))
