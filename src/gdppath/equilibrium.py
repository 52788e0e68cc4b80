"""Static equilibrium of a Cobb-Douglas economy with a wage numeraire.

Production per labor in sector a is y_a = T_a^lam * k_a^(1-lam).  Capital per
labor k_a is physical (units of good a) and adjusts until its marginal product
equals the gross return R_c + delta_a.  Prices follow from the zero-profit
identity P_a y_a = W + P_a k_a (R_c + delta_a): the capital charge is valued at
the sector's own price, so P_a = W / (y_a - k_a (R_c + delta_a)) = W / (lam y_a)
and labor earns its Cobb-Douglas share lam of revenue.  Labor splits between
the subsistence-good sector and the service sector by maximizing
u = (Y_A/L_t - N0) * (Y_B/L_t)^omega.  The wage is the numeraire (W = 1 each
year); real-growth measures downstream are invariant to that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegenerateSectorError,
    InfeasibleAllocationError,
    ValidationError,
)

WAGE_NUMERAIRE = 1.0


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v!r}")


def _capital_factor(elasticity: float, gross_return: float) -> float:
    """((1-lam)/gross_return)^(1/lam), the capital per labor at T = 1."""
    try:
        return ((1.0 - elasticity) / gross_return) ** (1.0 / elasticity)
    except OverflowError:
        raise ValidationError(
            f"capital per labor ((1-lam)/gr)^(1/lam) overflows at "
            f"lam = {elasticity!r}, gr = {gross_return!r}"
        ) from None


@dataclass(frozen=True)
class SectorParams:
    """One production sector: output elasticity, depreciation, productivity."""

    name: str
    elasticity: float  # lam, output elasticity of effective labor
    depreciation: float  # delta, per year
    productivity: float = 1.0  # T, dimensionless index

    def __post_init__(self) -> None:
        _require_finite(
            elasticity=self.elasticity,
            depreciation=self.depreciation,
            productivity=self.productivity,
        )
        if not 0.0 < self.elasticity < 1.0:
            raise ValidationError(
                f"sector {self.name}: elasticity must lie in (0, 1), "
                f"got {self.elasticity}"
            )
        if self.depreciation < 0.0:
            raise ValidationError(
                f"sector {self.name}: depreciation must be >= 0"
            )
        if self.productivity <= 0.0:
            raise ValidationError(
                f"sector {self.name}: productivity must be > 0"
            )


@dataclass(frozen=True)
class EconomySpec:
    """Full economy: sectors, labor force, capital return, utility parameters.

    Sector order matters: the first sector is the subsistence good (A), the
    second is the service (B).
    """

    sectors: tuple[SectorParams, ...]
    total_labor: float  # L_t, persons
    rate_of_return: float  # R_c, per year
    subsistence: float  # N0, good-A units per person per year
    omega: float  # utility exponent on the service good
    numeraire: str = "wage-equals-one"

    def __post_init__(self) -> None:
        _require_finite(
            total_labor=self.total_labor,
            rate_of_return=self.rate_of_return,
            subsistence=self.subsistence,
            omega=self.omega,
        )
        if len(self.sectors) < 2:
            raise ValidationError("economy needs at least two sectors")
        if self.total_labor <= 0.0:
            raise ValidationError("total_labor must be > 0")
        if self.subsistence < 0.0:
            raise ValidationError("subsistence must be >= 0")
        if self.omega < 0.0:
            raise ValidationError("omega must be >= 0")
        if self.numeraire != "wage-equals-one":
            raise ValidationError(f"unknown numeraire rule {self.numeraire!r}")
        for s in self.sectors:
            gr = self.rate_of_return + s.depreciation
            if gr <= 0.0:
                raise ValidationError(
                    f"sector {s.name}: gross return R_c + delta must be > 0"
                )
            try:
                _capital_factor(s.elasticity, gr)
            except ValidationError as exc:
                raise ValidationError(f"sector {s.name}: {exc}") from None

    def gross_return(self, sector: SectorParams) -> float:
        return self.rate_of_return + sector.depreciation


@dataclass(frozen=True)
class EquilibriumPoint:
    """One year's solved equilibrium, per sector plus the economy-wide wage."""

    sector_names: tuple[str, ...]
    capital_per_labor: tuple[float, ...]
    output_per_labor: tuple[float, ...]
    prices: tuple[float, ...]
    labor: tuple[float, ...]
    outputs: tuple[float, ...]  # Y_a = L_a * y_a
    wage: float


def solve_capital_per_labor(
    productivity: float, elasticity: float, gross_return: float
) -> float:
    """Capital per labor that equates the marginal product of capital with
    the gross return: (1-lam) T^lam k^(-lam) = gross_return.

    Closed form k = T * ((1-lam)/gross_return)^(1/lam); returns 0 when T = 0.
    """
    _require_finite(
        productivity=productivity,
        elasticity=elasticity,
        gross_return=gross_return,
    )
    if productivity < 0.0:
        raise ValidationError("productivity must be >= 0")
    if not 0.0 < elasticity < 1.0:
        raise ValidationError("elasticity must lie in (0, 1)")
    if gross_return <= 0.0:
        raise ValidationError("gross_return must be > 0")
    if productivity == 0.0:
        return 0.0
    return productivity * _capital_factor(elasticity, gross_return)


def output_per_labor(productivity: float, elasticity: float, k: float) -> float:
    """Per-labor Cobb-Douglas output y = T^lam * k^(1-lam)."""
    _require_finite(productivity=productivity, elasticity=elasticity, k=k)
    if not 0.0 < elasticity < 1.0:
        raise ValidationError("elasticity must lie in (0, 1)")
    if productivity < 0.0 or k < 0.0:
        raise ValidationError("productivity and k must be >= 0")
    return productivity**elasticity * k ** (1.0 - elasticity)


def equilibrium_output_per_labor(
    productivity: float, elasticity: float, gross_return: float
) -> float:
    """Per-labor output at the equilibrium capital intensity,
    y* = T * ((1-lam)/gross_return)^((1-lam)/lam)."""
    k = solve_capital_per_labor(productivity, elasticity, gross_return)
    return output_per_labor(productivity, elasticity, k)


def price_of_sector(
    wage: float, k: float, y: float, gross_return: float
) -> float:
    """Sector price from the zero-profit identity P = (W + k*gr) / y.

    Here ``k`` is capital per labor valued in wage units, so that ``k*gr`` is
    a cost in the same units as the wage.  Physical capital (units of the
    sector's own good, as returned by ``solve_capital_per_labor``) must first
    be valued at the sector's price.
    """
    _require_finite(wage=wage, k=k, y=y, gross_return=gross_return)
    if y <= 0.0:
        raise DegenerateSectorError(
            "cannot price a sector with zero output per labor"
        )
    return (wage + k * gross_return) / y


def allocate_labor(spec: EconomySpec, productivity_a: float) -> tuple[float, float]:
    """Utility-maximizing labor split between sectors A and B.

    L_A = L_t * (lam_A + omega*lam_B*(N0/y_A)) / (lam_A + omega*lam_B)
    with y_A the equilibrium output per labor in sector A; L_B is the
    complement so the adding-up constraint holds exactly.  Raises when
    subsistence is infeasible at this productivity (L_A would exceed L_t).
    """
    sec_a, sec_b = spec.sectors[0], spec.sectors[1]
    y_a = equilibrium_output_per_labor(
        productivity_a, sec_a.elasticity, spec.gross_return(sec_a)
    )
    if y_a <= 0.0:
        raise InfeasibleAllocationError(
            "sector A produces nothing; subsistence cannot be met"
        )
    lam_a, lam_b = sec_a.elasticity, sec_b.elasticity
    share = (lam_a + spec.omega * lam_b * (spec.subsistence / y_a)) / (
        lam_a + spec.omega * lam_b
    )
    labor_a = spec.total_labor * share
    if labor_a > spec.total_labor:
        raise InfeasibleAllocationError(
            f"subsistence infeasible: formula requires L_A = {labor_a:.1f} "
            f"> L_t = {spec.total_labor:.1f}"
        )
    if labor_a < 0.0:
        raise ValidationError(f"negative labor allocation L_A = {labor_a}")
    return labor_a, spec.total_labor - labor_a


def solve_equilibrium(
    spec: EconomySpec, productivities: tuple[float, ...] | list[float]
) -> EquilibriumPoint:
    """Compose capital intensity, output, prices, and labor allocation into
    one year's equilibrium under the wage numeraire."""
    if len(productivities) != len(spec.sectors):
        raise ValidationError(
            f"expected {len(spec.sectors)} productivities, "
            f"got {len(productivities)}"
        )
    wage = WAGE_NUMERAIRE
    ks, ys, prices = [], [], []
    for sector, t in zip(spec.sectors, productivities):
        gr = spec.gross_return(sector)
        k = solve_capital_per_labor(t, sector.elasticity, gr)
        y = output_per_labor(t, sector.elasticity, k)
        # Zero profit with capital charged at the sector's own price:
        # P*y = W + P*k*gr, so P = W / (y - k*gr), i.e. W / (lam*y).
        net_output = y - k * gr
        if net_output <= 0.0:
            raise DegenerateSectorError(
                "cannot price a sector with zero output per labor"
            )
        ks.append(k)
        ys.append(y)
        prices.append(wage / net_output)
    if len(spec.sectors) != 2:
        raise ValidationError(
            "labor allocation implements the two-sector economy only"
        )
    labor_a, labor_b = allocate_labor(spec, productivities[0])
    labors = [labor_a, labor_b]
    outputs = [la * y for la, y in zip(labors, ys)]
    return EquilibriumPoint(
        sector_names=tuple(s.name for s in spec.sectors),
        capital_per_labor=tuple(ks),
        output_per_labor=tuple(ys),
        prices=tuple(prices),
        labor=tuple(labors),
        outputs=tuple(outputs),
        wage=wage,
    )


def utility(spec: EconomySpec, output_a: float, output_b: float) -> float:
    """Instant utility u = (Y_A/L_t - N0) * (Y_B/L_t)^omega.

    Negative when good-A consumption per person falls below subsistence.
    """
    _require_finite(output_a=output_a, output_b=output_b)
    if output_a < 0.0 or output_b < 0.0:
        raise ValidationError("outputs must be >= 0")
    per_a = output_a / spec.total_labor - spec.subsistence
    per_b = output_b / spec.total_labor
    return per_a * per_b**spec.omega
