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
from collections import namedtuple
from dataclasses import dataclass

from ._records import TupleRecord
from .errors import DegenerateBaseError, NoSolutionError, ValidationError
from .indexes import (
    GrowthSeries,
    IndexMethod,
    PricedPanel,
    _NOMINAL,
    _deflated,
    _every_rate,
    _own_price_value,
    _rate,
    _ratio_rates,
    _series,
    _step_table,
    _table_rates,
)

REFERENCE_RULES = ("common-prices", "own-nominal")


class GapReport(TupleRecord, namedtuple("GapReport", (
        "national_real_growth", "national_inflation", "international_growth",
        "method"))):
    """National real / national inflation / international growth for one
    step, under an ``IndexMethod``; a tuple record (``_records``)."""

    __slots__ = ()


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
    size = gdp_big / gdp_small
    speed = (1.0 + g_small) / (1.0 + g_big)
    # Either ratio can underflow to zero, whose log is undefined, or
    # overflow to inf, which would give an infinite or zero answer.
    if not (0.0 < size < math.inf and 0.0 < speed < math.inf):
        raise NoSolutionError(
            "size or growth ratio out of floating-point range"
        )
    return math.log(size) / math.log(speed)


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
    values = []
    for period in panel.periods:
        total = 0.0  # left to right, as ``nominal_gdp`` adds
        for p, (q, _) in zip(reference_prices, period):
            total += p * q
        values.append(total)
    return tuple(values)


def _first_laspeyres_growth(panel: PricedPanel) -> float:
    """``real_growth(panel, 0, LASPEYRES)``: the Laspeyres rule over the
    step table of the first two periods alone, with no table built for the
    rest of the panel."""
    steps = _step_table(panel.periods[:2])
    return _rate(_table_rates(steps, IndexMethod.LASPEYRES), 0)


def common_price_growth(
    panel: PricedPanel, reference_prices: tuple[float, ...] | list[float]
) -> GrowthSeries:
    """Growth of GDP valued at a fixed reference basket: the outside
    observer's metric.  Each rate is the ratio of two periods' valuations,
    so the series has no index method."""
    values = common_price_valuations(panel, reference_prices)
    rates = _ratio_rates(zip(values[1:], values), 0, 1, "zero valuation")
    return _series(panel, _every_rate(rates), geometric_average=False)


def perspective_report(
    panel: PricedPanel, step: int, method: IndexMethod = IndexMethod.LASPEYRES
) -> GapReport:
    """Decompose one growth step into the national view (real + inflation)
    and the international view (nominal convergence in the shared unit).

    Read from the panel's kept real and nominal columns, in this order, so
    that the step's real growth error comes first; inflation is the
    deflator rule over the two."""
    rates = panel._rates
    g_real = _rate(rates[method], step)
    g_nom = _rate(rates[_NOMINAL], step)
    return tuple.__new__(GapReport, (
        g_real, _deflated(g_nom, g_real, step), g_nom, method))


def model_catchup(
    small: PricedPanel,
    big: PricedPanel,
    reference_rule: str = "common-prices",
) -> CatchupResult:
    """First year the small economy's valuation reaches the big one's.

    Under "common-prices" both economies, which must have the same sectors,
    are valued at the big economy's first-period prices; under "own-nominal"
    each is valued at its own prices.  The naive closed-form estimate from
    year-0 sizes and first-step Laspeyres real growth is reported alongside
    for contrast.  On simulated panels "own-nominal" compares labor forces:
    under the wage numeraire own-price GDP is sum L_a/lam_a every year.
    """
    if reference_rule not in REFERENCE_RULES:
        raise ValidationError(f"unknown reference rule {reference_rule!r}")
    if small.period_labels != big.period_labels:
        raise ValidationError("economies must share the same horizon")
    if reference_rule == "common-prices":
        if small.sector_names != big.sector_names:
            raise ValidationError("common prices need the same sectors in "
                                  "both economies")
        ref = big.prices(0)
        v_small = common_price_valuations(small, ref)
        v_big = common_price_valuations(big, ref)
    else:
        v_small = tuple(map(_own_price_value, small.periods))
        v_big = tuple(map(_own_price_value, big.periods))
    # A valuation adds non-negative finite products, so only inf is not
    # finite; it would cross at inf >= inf with a NaN fraction.
    for economy, values in (("small", v_small), ("big", v_big)):
        if math.inf in values:
            raise DegenerateBaseError(
                f"{economy} economy's valuation at period "
                f"{values.index(math.inf)} is not finite"
            )

    naive_years: float | None
    try:
        naive_years = naive_catchup(
            v_small[0],
            v_big[0],
            _first_laspeyres_growth(small),
            _first_laspeyres_growth(big),
        )
    except (NoSolutionError, ValidationError):
        naive_years = None

    crossing_year: int | None = None
    fractional_year: float | None = None
    for i, (vs, vb) in enumerate(zip(v_small, v_big)):
        if vs >= vb:
            crossing_year = small.period_labels[i]
            try:
                if i == 0:
                    fractional_year = float(crossing_year)
                else:
                    gap_prev = v_big[i - 1] - v_small[i - 1]
                    gap_now = v_big[i] - v_small[i]
                    if gap_prev - gap_now == math.inf:
                        # Gaps near the float maximum: halved, exactly,
                        # their difference is finite.
                        gap_prev, gap_now = gap_prev / 2.0, gap_now / 2.0
                    frac = gap_prev / (gap_prev - gap_now)
                    year_prev = small.period_labels[i - 1]
                    fractional_year = (
                        year_prev + frac * (crossing_year - year_prev))
            except OverflowError:  # a label beyond the float range
                raise ValidationError(
                    f"the crossing at period {i} has no fractional year: "
                    "a period label is beyond the float range"
                ) from None
            break
    return CatchupResult(
        rule=reference_rule,
        crossing_year=crossing_year,
        fractional_year=fractional_year,
        naive_years=naive_years,
    )
