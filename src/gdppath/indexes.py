"""Chained index-number engine over priced panels.

A priced panel is a time series of per-sector (quantity, price) pairs.  On top
of it we compute nominal GDP, nominal and real growth under Laspeyres,
Paasche, Fisher, and Tornqvist indexes, deflator-implied inflation, chained
levels, circularity residuals for closed loops, and the path-dependent GDP
line integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DegenerateBaseError,
    InsufficientDataError,
    MethodDomainError,
    NotALoopError,
    ValidationError,
)


class IndexMethod(Enum):
    LASPEYRES = "laspeyres"
    PAASCHE = "paasche"
    FISHER = "fisher"
    TORNQVIST = "tornqvist"


def _entry_problem(qty: float, price: float) -> str:
    """What is wrong with a (quantity, price) entry that fails the panel
    rule ``0 <= qty < inf and 0 < price < inf``."""
    if not math.isfinite(qty):
        return f"non-finite quantity {qty}"
    if not math.isfinite(price):
        return f"non-finite price {price}"
    if qty < 0.0:
        return f"negative quantity {qty}"
    return f"non-positive price {price}"


@dataclass(frozen=True)
class PricedPanel:
    """Time-indexed series of per-sector (quantity, price) pairs.

    ``periods[i][a]`` is the (quantity, price) pair of sector ``a`` in period
    ``i``; ``period_labels`` carries the years.
    """

    sector_names: tuple[str, ...]
    periods: tuple[tuple[tuple[float, float], ...], ...]
    period_labels: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.sector_names)
        if n < 1:
            raise ValidationError("panel needs at least one sector")
        if len(self.periods) < 1:
            raise ValidationError("panel needs at least one period")
        if len(self.period_labels) != len(self.periods):
            raise ValidationError("one label per period required")
        for label_prev, label in zip(self.period_labels, self.period_labels[1:]):
            if label <= label_prev:
                raise ValidationError(
                    "period labels must be strictly increasing"
                )
        for i, period in enumerate(self.periods):
            if len(period) != n:
                raise ValidationError(
                    f"period {i}: expected {n} (quantity, price) pairs, "
                    f"got {len(period)}"
                )
            for name, (qty, price) in zip(self.sector_names, period):
                if not (0.0 <= qty < math.inf and 0.0 < price < math.inf):
                    problem = _entry_problem(qty, price)
                    raise ValidationError(
                        f"period {i}, sector {name}: {problem}")

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    def quantities(self, i: int) -> tuple[float, ...]:
        return tuple(q for q, _ in self.periods[i])

    def prices(self, i: int) -> tuple[float, ...]:
        return tuple(p for _, p in self.periods[i])


@dataclass(frozen=True)
class GrowthSeries:
    """Per-step growth rates with chained level and running average.

    All three series have length ``n_periods - 1`` and align to steps:
    ``chained_level[j]`` is the product of ``1 + rates[m]`` for m <= j and
    ``running_average[j]`` the arithmetic (or geometric) mean of
    ``rates[: j + 1]``.
    """

    method: IndexMethod | None
    rates: tuple[float, ...]
    chained_level: tuple[float, ...]
    running_average: tuple[float, ...]
    step_labels: tuple[int, ...]  # label of the later period of each step


def _check_step(panel: PricedPanel, step: int) -> None:
    if not 0 <= step < panel.n_periods - 1:
        raise ValidationError(
            f"step {step} out of range for {panel.n_periods} periods"
        )


def nominal_gdp(panel: PricedPanel, period: int) -> float:
    """Sum of price * quantity over sectors at the period's own prices."""
    if not 0 <= period < panel.n_periods:
        raise ValidationError(
            f"period {period} out of range for {panel.n_periods} periods"
        )
    return sum(q * p for q, p in panel.periods[period])


def nominal_growth(panel: PricedPanel, step: int) -> float:
    """GDP_{i+1} / GDP_i - 1 at each period's own prices."""
    _check_step(panel, step)
    base = nominal_gdp(panel, step)
    if base <= 0.0:
        raise DegenerateBaseError(f"zero nominal GDP at period {step}")
    return _finite_growth(nominal_gdp(panel, step + 1) / base - 1.0, step)


def _finite_growth(growth: float, step: int) -> float:
    """``growth`` unless its ratio overflowed (inf, or nan from inf / inf),
    as a positive base too close to zero makes it do."""
    if not growth < math.inf:
        raise DegenerateBaseError(
            f"growth from period {step} to {step + 1} is not finite"
        )
    return growth


def _step_sums(period0, period1) -> tuple[float, float, float, float]:
    """The four basket values of one step: p0·q0, p0·q1, p1·q0 and p1·q1,
    each summed over sectors from left to right."""
    v00 = v01 = v10 = v11 = 0.0
    for (q0, p0), (q1, p1) in zip(period0, period1):
        v00 += p0 * q0
        v01 += p0 * q1
        v10 += p1 * q0
        v11 += p1 * q1
    return v00, v01, v10, v11


def _step_growth(period0, period1, method: IndexMethod, step: int) -> float:
    """Quantity growth from ``period0`` to ``period1``; ``step`` only names
    the earlier period in error messages."""
    if method is IndexMethod.TORNQVIST:
        if any(q <= 0.0 for period in (period0, period1) for q, _ in period):
            raise MethodDomainError(
                "Tornqvist requires strictly positive quantities"
            )
        gdp0, _, _, gdp1 = _step_sums(period0, period1)
        # Subnormal quantities can make a period's value or a quantity
        # ratio round to zero although every quantity is positive.
        if gdp0 <= 0.0 or gdp1 <= 0.0:
            period = step if gdp0 <= 0.0 else step + 1
            raise DegenerateBaseError(f"zero nominal GDP at period {period}")
        log_index = 0.0
        for (q0, p0), (q1, p1) in zip(period0, period1):
            share = 0.5 * (p0 * q0 / gdp0 + p1 * q1 / gdp1)
            ratio = q1 / q0
            if ratio == 0.0:
                raise MethodDomainError(
                    f"Tornqvist quantity ratio underflows to 0 at period {step}"
                )
            log_index += share * math.log(ratio)
        return _finite_growth(math.exp(log_index) - 1.0, step)
    v00, v01, v10, v11 = _step_sums(period0, period1)
    if method is IndexMethod.LASPEYRES:
        if v00 <= 0.0:
            raise DegenerateBaseError(f"zero base value at period {step}")
        return _finite_growth(v01 / v00 - 1.0, step)
    if method is IndexMethod.PAASCHE:
        if v10 <= 0.0:
            raise DegenerateBaseError(f"zero base value at period {step}")
        return _finite_growth(v11 / v10 - 1.0, step)
    if method is IndexMethod.FISHER:
        if v00 <= 0.0 or v10 <= 0.0:
            raise DegenerateBaseError(f"zero base value at period {step}")
        g_l = v01 / v00 - 1.0
        g_p = v11 / v10 - 1.0
        return _finite_growth(math.sqrt((1.0 + g_l) * (1.0 + g_p)) - 1.0, step)
    raise ValidationError(f"unknown index method {method!r}")


def real_growth(panel: PricedPanel, step: int, method: IndexMethod) -> float:
    """Quantity growth from period ``step`` to ``step + 1`` under an index.

    Laspeyres values both periods at the earlier period's prices, Paasche at
    the later period's, Fisher is their geometric mean, and Tornqvist weights
    log quantity changes by mean expenditure shares.
    """
    _check_step(panel, step)
    return _step_growth(
        panel.periods[step], panel.periods[step + 1], method, step
    )


def inflation(panel: PricedPanel, step: int, method: IndexMethod) -> float:
    """Deflator-implied inflation: (1 + nominal) / (1 + real) - 1."""
    g_nom = nominal_growth(panel, step)
    return _deflator_inflation(g_nom, real_growth(panel, step, method), step)


def _deflator_inflation(g_nom: float, g_real: float, step: int) -> float:
    real_factor = 1.0 + g_real
    if real_factor == 0.0:
        raise DegenerateBaseError(
            f"real output falls to zero at period {step + 1}: "
            "inflation is undefined"
        )
    return (1.0 + g_nom) / real_factor - 1.0


def _series(
    panel: PricedPanel,
    method: IndexMethod | None,
    rates: list[float],
    geometric_average: bool,
) -> GrowthSeries:
    """Chain per-step ``rates`` into a series with a running average."""
    if panel.n_periods < 2:
        raise InsufficientDataError("growth needs at least two periods")
    chained, averages = [], []
    level, total = 1.0, 0.0
    for j, rate in enumerate(rates):
        level *= 1.0 + rate
        chained.append(level)
        if geometric_average:
            averages.append(level ** (1.0 / (j + 1)) - 1.0)
        else:
            total += rate
            averages.append(total / (j + 1))
    return GrowthSeries(
        method=method,
        rates=tuple(rates),
        chained_level=tuple(chained),
        running_average=tuple(averages),
        step_labels=tuple(panel.period_labels[1:]),
    )


def growth_series(
    panel: PricedPanel,
    method: IndexMethod = IndexMethod.LASPEYRES,
    geometric_average: bool = False,
) -> GrowthSeries:
    """Per-step real growth under ``method`` over the whole panel, with
    chained level and running average (arithmetic unless
    ``geometric_average``)."""
    periods = panel.periods
    rates = [
        _step_growth(period0, period1, method, step)
        for step, (period0, period1) in enumerate(zip(periods, periods[1:]))
    ]
    return _series(panel, method, rates, geometric_average)


def circularity_residual(
    panel: PricedPanel, method: IndexMethod = IndexMethod.LASPEYRES
) -> float:
    """Log of the chained level over a closed loop; 0 means the circularity
    test passes.  The panel's first and last periods must match."""
    if panel.n_periods < 2:
        raise InsufficientDataError("a loop needs at least two periods")
    first, last = panel.periods[0], panel.periods[-1]
    for name, (pair0, pair1) in zip(panel.sector_names, zip(first, last)):
        for v0, v1 in zip(pair0, pair1):
            if not math.isclose(v0, v1, rel_tol=1e-9, abs_tol=1e-12):
                raise NotALoopError(
                    f"sector {name}: endpoints differ ({v0} vs {v1})"
                )
    series = growth_series(panel, method)
    return math.log(series.chained_level[-1])


def path_integral_gdp(path: PricedPanel) -> float:
    """Line integral of sum_a P_a dY_a along the path, trapezoidal in prices.

    Exact when prices are constant on a leg; antisymmetric under path
    reversal.
    """
    if path.n_periods < 2:
        raise InsufficientDataError("path integral needs at least two points")
    total = 0.0
    periods = path.periods
    for period0, period1 in zip(periods, periods[1:]):
        for (q0, p0), (q1, p1) in zip(period0, period1):
            total += 0.5 * (p0 + p1) * (q1 - q0)
    return total
