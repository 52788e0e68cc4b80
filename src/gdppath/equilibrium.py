"""Static equilibrium of a Cobb-Douglas economy with a wage numeraire.

Production per labor in sector a is y_a = T_a^lam * k_a^(1-lam).  Capital per
labor k_a is physical (units of good a) and adjusts until its marginal product
equals the gross return R_c + delta_a, which gives k_a = T_a * kappa_a and so
y_a = c_a * T_a with c_a = kappa_a^(1-lam).  Prices follow from the zero-profit
identity P_a y_a = W + P_a k_a (R_c + delta_a): the capital charge is valued at
the sector's own price, and k_a (R_c + delta_a) = (1-lam) y_a, so
P_a = W / (lam y_a) and labor earns its Cobb-Douglas share lam of revenue.
Labor splits between the subsistence-good and the service sector by maximizing
u = (Y_A/L_t - N0) * (Y_B/L_t)^omega.  The wage is the numeraire (W = 1 each
year); real-growth measures downstream are invariant to that choice.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from ._records import TupleRecord
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
        # The base or the exponent is itself inf when gross_return or lam is
        # subnormal, and then the power is inf with no OverflowError.
        kappa = ((1.0 - elasticity) / gross_return) ** (1.0 / elasticity)
    except OverflowError:
        kappa = math.inf
    if kappa == math.inf:
        raise ValidationError(
            f"capital per labor ((1-lam)/gr)^(1/lam) overflows at "
            f"lam = {elasticity!r}, gr = {gross_return!r}"
        )
    return kappa


@dataclass(frozen=True)
class SectorParams:
    """One production sector: output elasticity and depreciation.  Its
    productivity is a yearly input, not a parameter."""

    name: str
    elasticity: float  # lam, output elasticity of effective labor
    depreciation: float  # delta, per year

    def __post_init__(self) -> None:
        _require_finite(
            elasticity=self.elasticity, depreciation=self.depreciation
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


@dataclass(frozen=True)
class EconomySpec:
    """Full economy: sectors, labor force, capital return, utility parameters.

    The economy has exactly two sectors: the first is the subsistence good
    (A), the second the service (B).  Building a spec validates it and
    computes the constants of the yearly solve once, as attributes outside
    the fields, which equality, hash and repr leave out.
    """

    sectors: tuple[SectorParams, ...]
    total_labor: float  # L_t, persons
    rate_of_return: float  # R_c, per year
    subsistence: float  # N0, good-A units per person per year
    omega: float  # utility exponent on the service good

    def __post_init__(self) -> None:
        _require_finite(
            total_labor=self.total_labor,
            rate_of_return=self.rate_of_return,
            subsistence=self.subsistence,
            omega=self.omega,
        )
        if len(self.sectors) != 2:
            raise ValidationError(
                f"economy needs exactly two sectors, got {len(self.sectors)}"
            )
        if self.total_labor <= 0.0:
            raise ValidationError("total_labor must be > 0")
        if self.subsistence < 0.0:
            raise ValidationError("subsistence must be >= 0")
        if self.omega < 0.0:
            raise ValidationError("omega must be >= 0")
        # Per sector: (lam, kappa = ((1-lam)/gr)^(1/lam) with gr = R_c + delta,
        # c = kappa^(1-lam), the output per labor at T = 1).
        constants = []
        for s in self.sectors:
            gr = self.gross_return(s)
            if not 0.0 < gr < math.inf:
                raise ValidationError(
                    f"sector {s.name}: gross return R_c + delta must be "
                    f"finite and > 0, got {gr!r}"
                )
            try:
                kappa = _capital_factor(s.elasticity, gr)
            except ValidationError as exc:
                raise ValidationError(f"sector {s.name}: {exc}") from None
            c = kappa ** (1.0 - s.elasticity)
            constants.append((s.elasticity, kappa, c))
        omega_lam_b = self.omega * self.sectors[1].elasticity
        object.__setattr__(self, "_sector_names",
                           tuple(s.name for s in self.sectors))
        object.__setattr__(self, "_sector_constants", tuple(constants))
        object.__setattr__(self, "_omega_lam_b", omega_lam_b)
        object.__setattr__(
            self, "_labor_denominator", self.sectors[0].elasticity + omega_lam_b
        )

    def gross_return(self, sector: SectorParams) -> float:
        return self.rate_of_return + sector.depreciation


class EquilibriumPoint(TupleRecord, namedtuple("EquilibriumPoint", (
        "sector_names", "capital_per_labor", "output_per_labor", "prices",
        "labor", "outputs"))):
    """One year's solved equilibrium, per sector; the wage is the numeraire
    ``WAGE_NUMERAIRE``.  The yearly solve needs no capital stock; the point
    keeps T*kappa to check the derivation's first-order condition against.
    A tuple record (``_records``) of per-sector tuples; ``outputs`` holds
    Y_a = L_a * y_a.  ``output_per_labor`` and ``labor`` are kept because the
    equilibrium and record tests read them."""

    __slots__ = ()


def solve_capital_per_labor(
    productivity: float, elasticity: float, gross_return: float
) -> float:
    """Capital per labor that equates the marginal product of capital with
    the gross return: (1-lam) T^lam k^(-lam) = gross_return.

    Closed form k = T * ((1-lam)/gross_return)^(1/lam); returns 0 when T = 0
    and refuses a k that overflows.
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
    k = productivity * _capital_factor(elasticity, gross_return)
    _require_finite(k=k)
    return k


def _labor_split(spec: EconomySpec, lam_a: float, y_a: float):
    """Utility-maximizing labor pair at sector A's output per labor y_A > 0:
    L_A = L_t * (lam_A + omega*lam_B*(N0/y_A)) / (lam_A + omega*lam_B), and
    L_B = L_t - L_A, so the adding-up constraint holds exactly.  Raises when
    subsistence is infeasible (L_A would exceed L_t)."""
    share = (
        lam_a + spec._omega_lam_b * (spec.subsistence / y_a)
    ) / spec._labor_denominator
    total = spec.total_labor
    labor_a = total * share
    # Written so that a NaN share (0 * inf when omega = 0) counts as infeasible.
    if not labor_a <= total:
        raise InfeasibleAllocationError(
            f"subsistence infeasible: formula requires L_A = {labor_a:.1f} "
            f"> L_t = {total:.1f}"
        )
    return labor_a, total - labor_a


_DEGENERATE = "cannot price a sector with zero output per labor"
_PRICE_OVERFLOW = "cannot price a sector: its price W/(lam*y) overflows"
_OUTPUT_OVERFLOW = "a sector's output L*y overflows"


def _solve_year(spec: EconomySpec, t_a: float, t_b: float):
    """One year's equilibrium at finite, non-negative productivities, from
    the spec's constants and with only the checks that depend on them: the
    fields of ``EquilibriumPoint`` after the names and capital per labor, as
    per-sector pairs.  They are valid panel entries, 0 <= Y < inf and
    0 < P < inf: a positive lam*y gives P > 0, and an overflowing P or L*y
    is refused.  ``_constant_growth_path`` and ``generate_panel`` call it on
    year 0 for its checks only, then restate y = c*T, P = W/(lam*y), the
    labor split and L*y letter for letter in a loop from year 0 on;
    ``test_kernel_path_matches_checked_path`` and
    ``TestPanelNeedsNoSecondCheck`` pin them to these."""
    (lam_a, _, c_a), (lam_b, _, c_b) = spec._sector_constants
    y_a = c_a * t_a
    y_b = c_b * t_b
    net_a = lam_a * y_a
    net_b = lam_b * y_b
    # Before the division: a subnormal y can make lam*y round to 0.
    if net_a <= 0.0 or net_b <= 0.0:
        raise DegenerateSectorError(_DEGENERATE)
    p_a = WAGE_NUMERAIRE / net_a
    p_b = WAGE_NUMERAIRE / net_b
    if not p_a < math.inf or not p_b < math.inf:
        raise DegenerateSectorError(_PRICE_OVERFLOW)
    labor_a, labor_b = _labor_split(spec, lam_a, y_a)
    out_a, out_b = labor_a * y_a, labor_b * y_b
    # Written so that a NaN output (0 * inf) counts too.
    if not (out_a < math.inf and out_b < math.inf):
        raise DegenerateSectorError(_OUTPUT_OVERFLOW)
    return (y_a, y_b), (p_a, p_b), (labor_a, labor_b), (out_a, out_b)


def allocate_labor(spec: EconomySpec, productivity_a: float) -> tuple[float, float]:
    """The kernel's labor split at productivity T_A, with T_A and sector A's
    capital per labor checked.  Raises when sector A produces nothing or
    subsistence is infeasible at this productivity."""
    sector_a, (lam_a, _, c_a) = spec.sectors[0], spec._sector_constants[0]
    solve_capital_per_labor(productivity_a, lam_a, spec.gross_return(sector_a))
    y_a = c_a * productivity_a
    if y_a <= 0.0:
        raise InfeasibleAllocationError(
            "sector A produces nothing; subsistence cannot be met"
        )
    return _labor_split(spec, lam_a, y_a)


def solve_equilibrium(
    spec: EconomySpec, productivities: tuple[float, ...] | list[float]
) -> EquilibriumPoint:
    """One year's equilibrium under the wage numeraire, checked: the entry
    point for public callers and tests.  It refuses a productivity or T*kappa
    that is not finite, then calls the kernel ``_solve_year``, which the
    calibration and ``generate_panel`` call directly."""
    if len(productivities) != 2:
        raise ValidationError(
            f"expected 2 productivities, got {len(productivities)}"
        )
    capital = []
    for t, (_, kappa, _) in zip(productivities, spec._sector_constants):
        _require_finite(productivity=t)
        if t < 0.0:
            raise ValidationError("productivity must be >= 0")
        capital.append(t * kappa)
        _require_finite(k=capital[-1])
    return tuple.__new__(EquilibriumPoint, (
        spec._sector_names, tuple(capital),
        *_solve_year(spec, *productivities)))


def utility(spec: EconomySpec, output_a: float, output_b: float) -> float:
    """Instant utility u = (Y_A/L_t - N0) * (Y_B/L_t)^omega.

    Negative when good-A consumption per person falls below subsistence.
    """
    _require_finite(output_a=output_a, output_b=output_b)
    if output_a < 0.0 or output_b < 0.0:
        raise ValidationError("outputs must be >= 0")
    per_a = output_a / spec.total_labor - spec.subsistence
    per_b = output_b / spec.total_labor
    try:
        u = per_a * per_b**spec.omega
    except OverflowError:
        u = math.inf
    _require_finite(utility=u)
    return u
