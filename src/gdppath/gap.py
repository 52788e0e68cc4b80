"""Two-economy comparison: naive catch-up, common-price growth, and the
national vs. international decomposition of a growth step.

A national agency splits its own nominal growth into real growth plus
inflation with its own price base.  An outside observer valuing output at a
fixed reference basket (or simply watching nominal convergence in a shared
currency) can see a very different closing speed, which is what makes naive
catch-up extrapolation misleading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoSolutionError, ValidationError
from .indexes import (
    GrowthSeries,
    IndexMethod,
    PricedPanel,
    growth_series,
    inflation,
    nominal_gdp,
    nominal_growth,
    real_growth,
)
from .scenarios import IslandScenario, generate_panel

REFERENCE_RULES = ("common-prices", "own-nominal")


@dataclass(frozen=True)
class GapReport:
    """National real / national inflation / international growth for one step."""

    national_real_growth: float
    national_inflation: float
    international_growth: float
    method: IndexMethod
    reference_prices: tuple[float, ...] | None = None


@dataclass(frozen=True)
class CatchupResult:
    """Model-based crossing of two economies' valuations.

    ``crossing_year`` is the first period label where the small economy's
    valuation reaches the big one's (None if no crossing in the horizon);
    ``fractional_year`` refines it by linear interpolation.  ``naive_years``
    is the closed-form extrapolation from year-0 sizes and measured real
    growth rates, for contrast.
    """

    rule: str
    crossing_year: int | None
    fractional_year: float | None
    naive_years: float | None


def naive_catchup(
    gdp_small: float, gdp_big: float, g_small: float, g_big: float
) -> float:
    """Years until gdp_small*(1+g_small)^X = gdp_big*(1+g_big)^X.

    X = ln(gdp_big/gdp_small) / ln((1+g_small)/(1+g_big)).  A negative
    result means the gap widens (never catches up, or already passed).
    """
    for name, v in (("gdp_small", gdp_small), ("gdp_big", gdp_big)):
        if not math.isfinite(v) or v <= 0.0:
            raise ValidationError(f"{name} must be a positive finite number")
    if not (math.isfinite(g_small) and math.isfinite(g_big)):
        raise ValidationError("growth rates must be finite")
    if g_small <= -1.0 or g_big <= -1.0:
        raise ValidationError("growth rates must exceed -100%")
    if 1.0 + g_small == 1.0 + g_big:
        raise NoSolutionError("equal growth rates: the gap never closes")
    return math.log(gdp_big / gdp_small) / math.log(
        (1.0 + g_small) / (1.0 + g_big)
    )


def common_price_valuations(
    panel: PricedPanel, reference_prices: tuple[float, ...] | list[float]
) -> tuple[float, ...]:
    """Each period's output valued at one fixed reference price vector."""
    if len(reference_prices) != len(panel.sector_names):
        raise ValidationError(
            f"expected {len(panel.sector_names)} reference prices, "
            f"got {len(reference_prices)}"
        )
    for p in reference_prices:
        if not math.isfinite(p) or p <= 0.0:
            raise ValidationError("reference prices must be positive")
    return tuple(
        sum(p * q for p, (q, _) in zip(reference_prices, period))
        for period in panel.periods
    )


def common_price_growth(
    panel: PricedPanel, reference_prices: tuple[float, ...] | list[float]
) -> GrowthSeries:
    """Growth of GDP valued at a fixed reference basket: the outside
    observer's metric."""
    values = common_price_valuations(panel, reference_prices)
    return growth_series(panel, method=None, values=values)


def perspective_report(
    panel: PricedPanel, step: int, method: IndexMethod = IndexMethod.LASPEYRES
) -> GapReport:
    """Decompose one growth step into the national view (real + inflation)
    and the international view (nominal convergence in the shared unit)."""
    return GapReport(
        national_real_growth=real_growth(panel, step, method),
        national_inflation=inflation(panel, step, method),
        international_growth=nominal_growth(panel, step),
        method=method,
    )


def _as_panel(economy: PricedPanel | IslandScenario) -> PricedPanel:
    if isinstance(economy, PricedPanel):
        return economy
    return generate_panel(economy)


def model_catchup(
    small: PricedPanel | IslandScenario,
    big: PricedPanel | IslandScenario,
    reference_rule: str = "common-prices",
    reference_prices: tuple[float, ...] | list[float] | None = None,
    method: IndexMethod = IndexMethod.LASPEYRES,
) -> CatchupResult:
    """First year the small economy's valuation reaches the big one's.

    Under "common-prices" both economies are valued at one reference basket
    (defaulting to the big economy's first-period prices); under
    "own-nominal" each is valued at its own prices.  The naive closed-form
    estimate from year-0 sizes and first-step real growth rates is reported
    alongside for contrast.
    """
    if reference_rule not in REFERENCE_RULES:
        raise ValidationError(f"unknown reference rule {reference_rule!r}")
    panel_small, panel_big = _as_panel(small), _as_panel(big)
    if panel_small.period_labels != panel_big.period_labels:
        raise ValidationError("economies must share the same horizon")
    if reference_rule == "common-prices":
        ref = (
            tuple(reference_prices)
            if reference_prices is not None
            else panel_big.prices(0)
        )
        v_small = common_price_valuations(panel_small, ref)
        v_big = common_price_valuations(panel_big, ref)
    else:
        v_small = tuple(
            nominal_gdp(panel_small, i) for i in range(panel_small.n_periods)
        )
        v_big = tuple(
            nominal_gdp(panel_big, i) for i in range(panel_big.n_periods)
        )

    naive_years: float | None
    try:
        naive_years = naive_catchup(
            v_small[0],
            v_big[0],
            real_growth(panel_small, 0, method),
            real_growth(panel_big, 0, method),
        )
    except (NoSolutionError, ValidationError):
        naive_years = None

    crossing_year: int | None = None
    fractional_year: float | None = None
    for i, (vs, vb) in enumerate(zip(v_small, v_big)):
        if vs >= vb:
            crossing_year = panel_small.period_labels[i]
            if i == 0:
                fractional_year = float(crossing_year)
            else:
                gap_prev = v_big[i - 1] - v_small[i - 1]
                gap_now = v_big[i] - v_small[i]
                frac = gap_prev / (gap_prev - gap_now)
                year_prev = panel_small.period_labels[i - 1]
                fractional_year = year_prev + frac * (crossing_year - year_prev)
            break
    return CatchupResult(
        rule=reference_rule,
        crossing_year=crossing_year,
        fractional_year=fractional_year,
        naive_years=naive_years,
    )
