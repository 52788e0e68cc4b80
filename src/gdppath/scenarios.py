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
import itertools
import math
from dataclasses import dataclass

from .equilibrium import (
    _OUTPUT_OVERFLOW,
    WAGE_NUMERAIRE,
    EconomySpec,
    SectorParams,
    _solve_year,
)
from .errors import (
    CalibrationError,
    DegenerateSectorError,
    ModelError,
    PanelFormatError,
    ValidationError,
)
from .indexes import PricedPanel

START_YEAR = 1900
END_YEAR = 1998
T_END = 18.93
# Upper end of the constant-rate bracket's doubling search: 1000% a year.
MAX_CALIBRATED_RATE = 10.0
# Longest schedule, in yearly steps, that build_schedule and the calibration
# accept; checked before any yearly list is built.
MAX_HORIZON_YEARS = 1000

# Each island's longest horizon and its (m_A, m_B) step into year i >= 1:
# T[i] = T[i - 1] * m[i].  North's and south's steps fall to 1 at i = 100.
_ISLAND_STEPS = {
    "north": (99, lambda i: (1.0 + 0.06 * (100 - i) / 99.0,
                             1.0 + 0.06 * (i + 1) / 99.0)),
    "middle": (MAX_HORIZON_YEARS, lambda i: (1.0305, 1.0305)),
    "south": (99, lambda i: (1.0 + 0.06 * (i + 1) / 99.0,
                             1.0 + 0.06 * (100 - i) / 99.0)),
}
ISLAND_RULES = tuple(_ISLAND_STEPS)


@functools.cache
def default_spec() -> EconomySpec:
    """The baseline two-sector economy, built once (it is frozen): lam = 2/3,
    delta = R_c = 5.5%, L_t = 100000, N0 = 1.6711, omega = 5."""
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
    """Yearly productivity of both sectors from ``start_year`` on, one value
    per year; the last year follows from the number of values."""

    start_year: int
    values_a: tuple[float, ...]
    values_b: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values_a) < 2 or len(self.values_b) != len(self.values_a):
            raise ValidationError(
                "schedule needs at least 2 yearly values, as many per sector"
            )
        # Written so that a NaN or infinite value counts as a fault.
        for series in (self.values_a, self.values_b):
            if not abs(series[0] - 1.0) <= 1e-12:
                raise ValidationError("productivity must start at 1")
            for prev, cur in zip(series, series[1:]):
                if not prev < cur < math.inf:
                    raise ValidationError("productivity must be finite, "
                                          "positive and strictly increasing")

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(range(self.start_year,
                           self.start_year + len(self.values_a)))


@dataclass(frozen=True)
class IslandScenario:
    name: str
    spec: EconomySpec
    schedule: ProductivitySchedule


def _check_horizon(years: int, limit: int = MAX_HORIZON_YEARS,
                   what: str = "") -> None:
    if years > limit:
        raise ValidationError(
            f"horizon of {years} years exceeds the maximum of {limit}{what}"
        )


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
    if rule not in ISLAND_RULES:
        raise ValidationError(f"unknown schedule rule {rule!r}")
    limit, step = _ISLAND_STEPS[rule]
    _check_horizon(end - start, limit, f" for rule {rule!r}")
    values_a, values_b = [1.0], [1.0]
    for i in range(1, end - start + 1):
        m_a, m_b = step(i)
        values_a.append(values_a[-1] * m_a)
        values_b.append(values_b[-1] * m_b)
    if normalize:
        values_a = _normalize(values_a, T_END)
        values_b = _normalize(values_b, T_END)
    return ProductivitySchedule(start, tuple(values_a), tuple(values_b))


def island_scenario(rule: str, normalize: bool = True) -> IslandScenario:
    return IslandScenario(
        name=rule,
        spec=default_spec(),
        schedule=build_schedule(rule, normalize=normalize),
    )


def _parse_bool(token: str) -> bool:
    token = token.lower()
    if token in ("true", "yes", "1", "on"):
        return True
    if token in ("false", "no", "0", "off"):
        return False
    raise ValueError(token)


def read_scenario_config(text: str) -> IslandScenario:
    """Parse a flat key=value config into a scenario, with the baseline
    economy's parameters as defaults and the middle island as default rule.
    Each value is parsed only when the scenario takes it, so the checks of
    each sector and of the economy run before any later value is parsed."""
    base = default_spec()
    sector_a, sector_b = base.sectors
    # Each key with its parser and default, in the order they are taken.
    table = {
        "lambda_A": (float, sector_a.elasticity),
        "delta": (float, sector_a.depreciation),
        "lambda_B": (float, sector_b.elasticity),
        "L_t": (float, base.total_labor),
        "R_c": (float, base.rate_of_return),
        "N0": (float, base.subsistence),
        "omega": (float, base.omega),
        "rule": (str, "middle"),
        "start_year": (int, START_YEAR),
        "end_year": (int, END_YEAR),
        "normalize": (_parse_bool, True),
    }
    given: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise PanelFormatError(
                f"line {line_no}: expected 'key = value', got {stripped!r}"
            )
        key, _, raw = map(str.strip, stripped.partition("="))
        if key not in table:
            raise PanelFormatError(f"line {line_no}: unknown key {key!r}")
        given[key] = raw

    def parse(key: str):
        parser, default = table[key]
        if key not in given:
            return default
        try:
            return parser(given[key])
        except ValueError:
            raise PanelFormatError(
                f"key {key}: unparsable value {given[key]!r}"
            ) from None

    values = map(parse, table)
    lam_a, delta = next(values), next(values)
    sectors = (SectorParams(sector_a.name, lam_a, delta),
               SectorParams(sector_b.name, next(values), delta))
    spec = EconomySpec(sectors, *itertools.islice(values, 4))
    rule, start, end, normalize = values
    return IslandScenario(rule, spec,
                          build_schedule(rule, start, end, normalize))


def generate_panel(scenario: IslandScenario) -> PricedPanel:
    """Simulate the scenario year by year into a priced panel of per-sector
    (output, price) pairs, unchecked.  Year 0 goes through the kernel
    ``_solve_year`` for its checks only, as in ``_constant_growth_path``;
    then one loop restates the kernel over every year, year 0 included, with
    only its output check, for the same reason (T only rises)."""
    spec, schedule = scenario.spec, scenario.schedule
    (lam_a, _, c_a), (lam_b, _, c_b) = spec._sector_constants
    total, n0 = spec.total_labor, spec.subsistence
    omega_lam_b, denominator = spec._omega_lam_b, spec._labor_denominator
    years, values_a, values_b = (schedule.years, schedule.values_a,
                                 schedule.values_b)
    try:
        _solve_year(spec, values_a[0], values_b[0])
    except ModelError as exc:
        raise type(exc)(f"year {years[0]}: {exc}") from exc
    periods = []
    inf = math.inf
    for year, t_a, t_b in zip(years, values_a, values_b):
        y_a, y_b = c_a * t_a, c_b * t_b
        labor_a = total * ((lam_a + omega_lam_b * (n0 / y_a)) / denominator)
        out_a, out_b = labor_a * y_a, (total - labor_a) * y_b
        if not (out_a < inf and out_b < inf):
            raise DegenerateSectorError(f"year {year}: {_OUTPUT_OVERFLOW}")
        periods.append(((out_a, WAGE_NUMERAIRE / (lam_a * y_a)),
                        (out_b, WAGE_NUMERAIRE / (lam_b * y_b))))
    return PricedPanel._from_checked(spec._sector_names, tuple(periods),
                                     years)


def _bisect(f, lo: float, hi: float) -> float:
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0 or hi - lo < 1e-12:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    raise CalibrationError(
        "bisection did not converge in 200 steps: "
        f"root in [{lo!r}, {hi!r}], wider than 1e-12"
    )


def _constant_growth_path(mult_b: float, years: int, spec: EconomySpec):
    """The path function of one calibration: ``path(rate)`` gives the yearly
    productivities ``(values_a, values_b)`` from 1: sector B grows by
    ``mult_b`` a year, and sector A so that the measured one-step Laspeyres
    growth is ``rate`` every year.

    Equilibrium output per labor is y = c*T, linear in T, so with
    u = y_A(T_A) and D = lam_A + omega*lam_B the next year's outputs are
    Y_A(m) = (L_t/D)(lam_A*u*m + omega*lam_B*N0) and
    Y_B(m) = (L_t/D)*omega*lam_B*y_B*(1 - N0/(u*m)).  Valued at this year's
    prices, p_A*Y_A + p_B*Y_B = (1 + rate)*V is the quadratic
    a*m^2 + b*m + c = 0 with a > 0 and c <= 0, whose one non-negative root is
    taken in cancellation-free form.

    Sector B's terms are computed once: T_B, y_B, P_B, P_B*y_B' and the
    prefix -P_B*w_B*y_B'*N0 of c.  Year 0, which every path shares, goes
    through the kernel ``_solve_year`` once, here, which raises its error.
    After it T_A and T_B only rise, so y rises and P_A and L_A fall: of
    the kernel's checks only an output L*y can newly fail.  Each year
    restates the kernel's y = c*T, P = W/(lam*y), labor split and L*y
    letter for letter (``test_kernel_path_matches_checked_path`` pins
    them).  A path whose output or sector-A productivity overflows
    overshoots: its rate is too high, and it returns the reason instead of
    its values.
    """
    (lam_a, _, c_a), (lam_b, _, c_b) = spec._sector_constants
    total, n0 = spec.total_labor, spec.subsistence
    omega_lam_b, denominator = spec._omega_lam_b, spec._labor_denominator
    scale = total / denominator
    w_b = scale * spec.omega * lam_b
    inf, sqrt, copysign = math.inf, math.sqrt, math.copysign  # loop locals
    _solve_year(spec, 1.0, 1.0)
    values_b, rows = [1.0], []
    for _ in range(years):
        t_b = values_b[-1]
        values_b.append(t_b * mult_b)
        y_b, y_next = c_b * t_b, c_b * values_b[-1]
        p_b = WAGE_NUMERAIRE / (lam_b * y_b)
        rows.append((y_b, p_b, p_b * y_next, -p_b * w_b * y_next * n0))

    def path(rate: float) -> tuple[list[float], list[float]] | str:
        t_a, values_a, growth = 1.0, [1.0], 1.0 + rate
        for y_b, p_b, p_b_y_next, c_prefix in rows:
            y_a = c_a * t_a
            p_a = WAGE_NUMERAIRE / (lam_a * y_a)
            share = (lam_a + omega_lam_b * (n0 / y_a)) / denominator
            labor_a = total * share
            out_a, out_b = labor_a * y_a, (total - labor_a) * y_b
            if not (out_a < inf and out_b < inf):
                return _OUTPUT_OVERFLOW
            base_value = p_a * out_a + p_b * out_b
            a = p_a * scale * lam_a * y_a
            b = w_b * (p_a * n0 + p_b_y_next) - growth * base_value
            c = c_prefix / y_a
            disc = b * b - 4.0 * a * c
            # The root does not depend on the common factor ``scale``;
            # divide it out only when a large labor force overflows the
            # discriminant, so that every other path keeps its bits.
            if not disc < inf:
                a, b, c = a / scale, b / scale, c / scale
                disc = b * b - 4.0 * a * c
            q = -0.5 * (b + copysign(sqrt(disc), b))
            m_star = q / a if q > 0.0 else (c / q if q else 0.0)
            # When sector B's growth alone already beats the rate, the root
            # sits below the unit multiplier; clamp there, and the outer
            # bisection raises the rate (the endpoint comes out short).
            if m_star < 1.0 + 1e-12:
                m_star = 1.0 + 1e-12
            t_a *= m_star
            if not t_a < inf:  # NaN too: an overflowing quadratic raises
                reason = f"sector A productivity overflows at rate {rate!r}"
                if t_a == inf:
                    return reason
                raise CalibrationError(reason)
            values_a.append(t_a)
        return values_a, values_b[:]

    return path


def calibrate_constant_growth(
    target_t_end: float = T_END,
    years: int = END_YEAR - START_YEAR,
    spec: EconomySpec | None = None,
) -> tuple[ProductivitySchedule, float]:
    """Find a schedule whose measured Laspeyres growth is the same every year.

    Sector B grows uniformly at target_t_end^(1/years); each year's sector-A
    multiplier is the closed-form root that makes the measured growth equal a
    candidate rate, and a bisection on the rate pins sector A's endpoint at
    ``target_t_end``.  The rate bracket is [1e-4, 0.15]; its upper end
    doubles while it still falls short, up to ``MAX_CALIBRATED_RATE``, and
    its lower end drops to 0 when the rate 1e-4 already overshoots.  Year
    0's equilibrium goes through the kernel once, which raises its error; a
    path that overflows returns its reason, an overshoot, which reads as an
    infinite endpoint.  The bisection is replayed: the gap's signs at the
    ends of a window stand in for the paths of every rate outside it, the
    bracket's probes and ends included.  The window is the guess
    target_t_end^(1/years) - 1 -+ 1e-13, the root when both sectors are
    identical, if the gap's signs at both its ends are strict; it is tried
    before the probes when it lies inside the first bracket, else after
    them.  Without a window the plain bisection runs.
    Returns the schedule, starting in ``START_YEAR``, and the achieved
    constant rate.  Raises ``CalibrationError`` when no rate in the bracket
    reaches the target, the bisection does not converge, the converged
    rate's path overflows, or sector A's endpoint misses the target by more
    than 1e-9 relative.
    """
    if years < 1:
        raise ValidationError("years must be >= 1")
    _check_horizon(years)
    if not target_t_end > 1.0:  # NaN too
        raise ValidationError("target productivity endpoint must exceed 1")
    economy = spec if spec is not None else default_spec()
    # Both sectors end at the target, so the schedule's last year has the
    # capital per labor target*kappa, which solve_equilibrium refuses when
    # it is not finite.  No path computes capital: refuse it here, by name.
    for sector, (_, kappa, _) in zip(economy.sectors,
                                      economy._sector_constants):
        k_end = target_t_end * kappa
        if not k_end < math.inf:
            raise ValidationError(
                f"target productivity endpoint {target_t_end!r}: sector "
                f"{sector.name}'s capital per labor T*kappa = {k_end!r} is "
                "not finite"
            )
    mult_b = target_t_end ** (1.0 / years)
    solved = functools.lru_cache(maxsize=None)(
        _constant_growth_path(mult_b, years, economy))

    def endpoint(rate: float) -> float:
        values = solved(rate)  # an overshoot's reason reads as inf
        return math.inf if isinstance(values, str) else values[0][-1]

    # The probes and _bisect branch only on signs, and the endpoint rises
    # with the rate.  Window: the guess mult_b - 1 -+ 1e-13, in the bracket,
    # with strict signs at both ends, which then sign every rate outside it,
    # probes and bracket ends included; else the plain bisection runs.  It
    # is tried first if it lies in the first bracket, else in the final one.
    g_lo, g_hi = mult_b - 1.0 - 1e-13, mult_b - 1.0 + 1e-13

    def certified(lo: float, hi: float) -> bool:
        return (lo < g_lo and g_hi < hi
                and endpoint(g_lo) < target_t_end < endpoint(g_hi))

    def sign(rate: float) -> float:
        if window and not g_lo < rate < g_hi:
            return -1.0 if rate <= g_lo else 1.0
        return endpoint(rate) - target_t_end

    window = certified(1e-4, 0.15)
    hi = 0.15
    while sign(hi) < 0.0:
        hi *= 2.0
        if hi > MAX_CALIBRATED_RATE:
            raise CalibrationError(
                f"no constant rate up to {hi / 2.0} reaches the endpoint "
                f"{target_t_end}"
            )
    lo = 0.0 if sign(1e-4) > 0.0 else 1e-4
    window = certified(lo, hi)  # no new path if the first try was in bounds
    rate = _bisect(sign, lo, hi)
    values = solved(rate)  # unsolved if just outside the window
    if isinstance(values, str):  # its path overflows
        raise CalibrationError(f"calibrated rate {rate!r}: {values}")
    values_a, values_b = values
    # Written so that a NaN endpoint counts as a miss.
    if not abs(values_a[-1] - target_t_end) <= 1e-9 * target_t_end:
        raise CalibrationError(
            f"calibrated rate {rate!r} ends sector A at {values_a[-1]!r}, "
            f"missing the target {target_t_end!r} by more than 1e-9 relative"
        )
    return ProductivitySchedule(START_YEAR, tuple(values_a),
                               tuple(values_b)), rate

