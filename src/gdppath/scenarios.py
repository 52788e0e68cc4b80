"""Island productivity schedules and their simulated priced panels.

Three islands share initial (1900) and final (1998) productivity but take
different paths in between: the north pushes the subsistence good early and
the service late, the south mirrors it, and the middle grows both at a steady
3.05% per year.  A fourth, calibrated schedule makes the measured Laspeyres
growth rate constant every single year while still landing on the common
endpoint.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .equilibrium import (
    EconomySpec,
    SectorParams,
    _solve_year,
    solve_equilibrium,
)
from .errors import CalibrationError, InfeasibleAllocationError, ValidationError
from .indexes import PricedPanel

START_YEAR = 1900
END_YEAR = 1998
T_END = 18.93
# Upper end of the constant-rate bracket's doubling search: 1000% a year.
MAX_CALIBRATED_RATE = 10.0
# Longest schedule, in yearly steps, that build_schedule and the calibration
# accept; checked before any yearly list is built.
MAX_HORIZON_YEARS = 1000

ISLAND_RULES = ("north", "middle", "south")


def default_spec() -> EconomySpec:
    """The baseline two-sector economy: lam = 2/3, delta = R_c = 5.5%,
    L_t = 100000, N0 = 1.6711, omega = 5."""
    return EconomySpec(
        sectors=(
            SectorParams("A", 2.0 / 3.0, 0.055),
            SectorParams("B", 2.0 / 3.0, 0.055),
        ),
        total_labor=100_000.0,
        rate_of_return=0.055,
        subsistence=1.6711,
        omega=5.0,
    )


@dataclass(frozen=True)
class ProductivitySchedule:
    """Yearly productivity for both sectors, start through end inclusive."""

    start_year: int
    end_year: int
    values_a: tuple[float, ...]
    values_b: tuple[float, ...]
    rule: str
    endpoint_normalized: bool

    def __post_init__(self) -> None:
        n = self.end_year - self.start_year + 1
        if self.end_year <= self.start_year:
            raise ValidationError("end_year must exceed start_year")
        if len(self.values_a) != n or len(self.values_b) != n:
            raise ValidationError(f"schedule needs {n} yearly values per sector")
        for series in (self.values_a, self.values_b):
            if abs(series[0] - 1.0) > 1e-12:
                raise ValidationError("productivity must start at 1")
            for prev, cur in zip(series, series[1:]):
                if cur <= prev or cur <= 0.0:
                    raise ValidationError(
                        "productivity must be positive and strictly increasing"
                    )

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(range(self.start_year, self.end_year + 1))


@dataclass(frozen=True)
class IslandScenario:
    name: str
    spec: EconomySpec
    schedule: ProductivitySchedule


def _check_horizon(years: int) -> None:
    if years > MAX_HORIZON_YEARS:
        raise ValidationError(
            f"horizon of {years} years exceeds the maximum of "
            f"{MAX_HORIZON_YEARS}"
        )


def _raw_multipliers(rule: str, n_steps: int) -> tuple[list[float], list[float]]:
    mult_a, mult_b = [], []
    for i in range(1, n_steps + 1):
        if rule == "north":
            mult_a.append(1.0 + 0.06 * (100 - i) / 99.0)
            mult_b.append(1.0 + 0.06 * (i + 1) / 99.0)
        elif rule == "south":
            mult_a.append(1.0 + 0.06 * (i + 1) / 99.0)
            mult_b.append(1.0 + 0.06 * (100 - i) / 99.0)
        elif rule == "middle":
            mult_a.append(1.0305)
            mult_b.append(1.0305)
        else:
            raise ValidationError(f"unknown schedule rule {rule!r}")
    return mult_a, mult_b


def _normalize(series: list[float], target: float) -> list[float]:
    # Geometric adjustment spreading the endpoint correction evenly over the
    # horizon, so T(start) stays 1 and T(end) lands exactly on the target.
    n = len(series) - 1
    ratio = target / series[-1]
    return [t * ratio ** (i / n) for i, t in enumerate(series)]


def build_schedule(
    rule: str,
    start: int = START_YEAR,
    end: int = END_YEAR,
    normalize: bool = True,
) -> ProductivitySchedule:
    """Build an island productivity schedule from its recursion rule.

    The raw recursions end near but not exactly at the common endpoint
    (about 18.93 north/south, 18.99 middle), so normalization defaults on and
    forces both sectors to end at ``T_END``.
    """
    if end <= start:
        raise ValidationError("end must exceed start")
    _check_horizon(end - start)
    mult_a, mult_b = _raw_multipliers(rule, end - start)
    values_a, values_b = [1.0], [1.0]
    for ma, mb in zip(mult_a, mult_b):
        values_a.append(values_a[-1] * ma)
        values_b.append(values_b[-1] * mb)
    if normalize:
        values_a = _normalize(values_a, T_END)
        values_b = _normalize(values_b, T_END)
    return ProductivitySchedule(
        start_year=start,
        end_year=end,
        values_a=tuple(values_a),
        values_b=tuple(values_b),
        rule=rule,
        endpoint_normalized=normalize,
    )


def island_scenario(rule: str, normalize: bool = True) -> IslandScenario:
    return IslandScenario(
        name=rule,
        spec=default_spec(),
        schedule=build_schedule(rule, normalize=normalize),
    )


def generate_panel(scenario: IslandScenario) -> PricedPanel:
    """Simulate the scenario year by year into a priced panel of per-sector
    (output, price) pairs."""
    spec, schedule = scenario.spec, scenario.schedule
    periods = []
    for year, t_a, t_b in zip(
        schedule.years, schedule.values_a, schedule.values_b
    ):
        try:
            _, _, (p_a, p_b), _, (out_a, out_b) = _solve_year(spec, t_a, t_b)
        except InfeasibleAllocationError as exc:
            raise InfeasibleAllocationError(f"year {year}: {exc}") from exc
        periods.append(((out_a, p_a), (out_b, p_b)))
    return PricedPanel(
        sector_names=tuple(s.name for s in spec.sectors),
        periods=tuple(periods),
        period_labels=schedule.years,
    )


def _bisect(f, lo: float, hi: float, tol: float, max_iter: int = 200) -> float:
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise CalibrationError(
            f"bracket [{lo}, {hi}] does not enclose a root "
            f"(f = {f_lo:.3e}, {f_hi:.3e})"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0 or hi - lo < tol:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    raise CalibrationError(
        f"bisection did not converge in {max_iter} steps: "
        f"root in [{lo!r}, {hi!r}], wider than {tol}"
    )


def _constant_growth_multipliers(
    rate: float, mult_b: float, years: int, spec: EconomySpec
) -> list[float]:
    """Per-year sector-A multipliers that hold the measured one-step
    Laspeyres growth at ``rate`` along the whole schedule.

    At fixed T_B, equilibrium output per labor is linear in T_A, so with
    u = y_A(T_A) and D = lam_A + omega*lam_B the next year's outputs are
    Y_A(m) = (L_t/D)(lam_A*u*m + omega*lam_B*N0) and
    Y_B(m) = (L_t/D)*omega*lam_B*y_B*(1 - N0/(u*m)).  Valued at this year's
    prices, p_A*Y_A + p_B*Y_B = (1 + rate)*V is the quadratic
    a*m^2 + b*m + c = 0 with a > 0 and c <= 0, whose one non-negative root is
    taken in cancellation-free form.
    """
    t_a, t_b = 1.0, 1.0
    eq = solve_equilibrium(spec, (t_a, t_b))
    (lam_a, exp_a, _, kappa_a), (lam_b, exp_b, _, kappa_b) = (
        spec._sector_constants
    )
    # Equilibrium output per labor at T = 1.
    c_a = kappa_a**exp_a
    c_b = kappa_b**exp_b
    scale = spec.total_labor / spec._labor_denominator
    w_b = scale * spec.omega * lam_b
    n0 = spec.subsistence
    multipliers = []
    for _ in range(years):
        t_b_next = t_b * mult_b
        p_a, p_b = eq.prices
        base_value = p_a * eq.outputs[0] + p_b * eq.outputs[1]
        u = c_a * t_a
        y_b = c_b * t_b_next
        a = p_a * scale * lam_a * u
        b = w_b * (p_a * n0 + p_b * y_b) - (1.0 + rate) * base_value
        c = -p_b * w_b * y_b * n0 / u
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
        m_star = q / a if q > 0.0 else (c / q if q else 0.0)
        # When sector B's growth alone already beats the candidate rate, the
        # root sits below the unit multiplier; clamp there and let the outer
        # bisection raise the rate (the endpoint will come out short).
        m_star = max(m_star, 1.0 + 1e-12)
        multipliers.append(m_star)
        t_a *= m_star
        if t_a == math.inf:
            raise CalibrationError(
                f"sector A productivity overflows at rate {rate!r}"
            )
        t_b = t_b_next
        eq = solve_equilibrium(spec, (t_a, t_b))
    return multipliers


def calibrate_constant_growth(
    target_t_end: float = T_END,
    years: int = END_YEAR - START_YEAR,
    spec: EconomySpec | None = None,
) -> tuple[ProductivitySchedule, float]:
    """Find a schedule whose measured Laspeyres growth is the same every year.

    Sector B grows uniformly at target_t_end^(1/years); each year's sector-A
    multiplier is the closed-form root that makes the measured growth equal a
    candidate rate, and an outer bisection on the rate pins sector A's
    endpoint at ``target_t_end``.  The rate bracket is [1e-4, 0.15]; its upper
    end doubles while it still falls short, up to ``MAX_CALIBRATED_RATE``.
    Returns the schedule, starting in ``START_YEAR``, and the achieved
    constant rate.  Raises
    ``CalibrationError`` when no rate in the bracket reaches the target, the
    bisection does not converge, or sector A's endpoint misses the target by
    more than 1e-9 relative.
    """
    if years < 1:
        raise ValidationError("years must be >= 1")
    _check_horizon(years)
    if target_t_end <= 1.0:
        raise ValidationError("target productivity endpoint must exceed 1")
    economy = spec if spec is not None else default_spec()
    mult_b = target_t_end ** (1.0 / years)

    @functools.lru_cache(maxsize=None)
    def endpoint_gap(rate: float) -> float:
        mults = _constant_growth_multipliers(rate, mult_b, years, economy)
        t_end = 1.0
        for m in mults:
            t_end *= m
        return t_end - target_t_end

    hi = 0.15
    while endpoint_gap(hi) < 0.0:
        hi *= 2.0
        if hi > MAX_CALIBRATED_RATE:
            raise CalibrationError(
                f"no constant rate up to {hi / 2.0} reaches the endpoint "
                f"{target_t_end}"
            )
    rate = _bisect(endpoint_gap, 1e-4, hi, tol=1e-12)
    multipliers = _constant_growth_multipliers(rate, mult_b, years, economy)
    values_a, values_b = [1.0], [1.0]
    for m in multipliers:
        values_a.append(values_a[-1] * m)
        values_b.append(values_b[-1] * mult_b)
    # Written so that a NaN endpoint counts as a miss.
    if not abs(values_a[-1] - target_t_end) <= 1e-9 * target_t_end:
        raise CalibrationError(
            f"calibrated rate {rate!r} ends sector A at {values_a[-1]!r}, "
            f"missing the target {target_t_end!r} by more than 1e-9 relative"
        )
    schedule = ProductivitySchedule(
        start_year=START_YEAR,
        end_year=START_YEAR + years,
        values_a=tuple(values_a),
        values_b=tuple(values_b),
        rule="constant-calibrated",
        endpoint_normalized=False,
    )
    return schedule, rate

