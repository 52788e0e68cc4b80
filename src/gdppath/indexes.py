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
from functools import cached_property
from itertools import accumulate
from operator import le, mul

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

    # Members are singletons, so identity hashes them: a dict keyed by
    # method is read with no Python-level ``Enum.__hash__`` call.
    __hash__ = object.__hash__


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


def _check_labels(labels) -> None:
    if any(map(le, labels[1:], labels)):
        raise ValidationError("period labels must be strictly increasing")


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
        _check_labels(self.period_labels)
        inf = math.inf
        for i, period in enumerate(self.periods):
            if len(period) != n:
                raise ValidationError(
                    f"period {i}: expected {n} (quantity, price) pairs, "
                    f"got {len(period)}"
                )
            for pair in period:
                qty, price = pair
                if not (0.0 <= qty < inf and 0.0 < price < inf):
                    # Every earlier pair passed, so none equals this one
                    # and ``index`` finds this one's sector.
                    name = self.sector_names[period.index(pair)]
                    problem = _entry_problem(qty, price)
                    raise ValidationError(
                        f"period {i}, sector {name}: {problem}")

    @classmethod
    def _from_checked(cls, sector_names, periods, period_labels) -> PricedPanel:
        """A panel whose producer has already checked its shape and every
        entry, as ``__post_init__`` would: ``read_panel`` checks each entry
        in its bulk or its row-by-row pass, and ``generate_panel``'s kernel
        returns only valid entries.  Only the labels' order is checked
        here."""
        _check_labels(period_labels)
        panel = object.__new__(cls)
        object.__setattr__(panel, "sector_names", sector_names)
        object.__setattr__(panel, "periods", periods)
        object.__setattr__(panel, "period_labels", period_labels)
        return panel

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    @cached_property
    def _steps(self) -> tuple[tuple, ...]:
        """The panel's ``_step_table``.  Built on first use, not with the
        panel, and shared by every index, inflation and perspective call on
        it; the cache sits in the instance ``__dict__``, outside the
        dataclass fields, so equality, hash and repr ignore it."""
        return tuple(_step_table(self.periods))

    @cached_property
    def _rates(self) -> dict:
        """Whole-series rates from ``_table_rates``, filled on first use:
        one entry per ``IndexMethod``, and one under ``_NOMINAL`` for
        nominal growth.  An entry is None where that loop cannot vouch for
        every step."""
        return {}

    @cached_property
    def _inflations(self) -> dict:
        """Deflator-inflation columns from ``_inflation_rates``, filled on
        first use: one entry per ``IndexMethod``, None where that column
        cannot vouch for every step."""
        return {}

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
    return _own_price_value(panel.periods[period])


def _own_price_value(period) -> float:
    """``nominal_gdp`` of one period, unchecked."""
    # Left to right, as ``_step_table`` adds: the builtin ``sum`` rounds
    # float sums differently on Python 3.12+.
    total = 0.0
    for q, p in period:
        total += p * q
    return total


def nominal_growth(panel: PricedPanel, step: int) -> float:
    """GDP_{i+1} / GDP_i - 1 at each period's own prices."""
    rates = _cached_rates(panel, _NOMINAL)
    if rates is not None and 0 <= step < len(rates):
        return rates[step]
    _check_step(panel, step)
    _, _, base, _, _, gdp1 = panel._steps[step]
    if base <= 0.0:
        raise DegenerateBaseError(f"zero nominal GDP at period {step}")
    return _finite_growth(gdp1 / base - 1.0, step)


def _finite_growth(growth: float, step: int) -> float:
    """``growth`` unless its ratio overflowed (inf, or nan from inf / inf),
    as a positive base too close to zero makes it do."""
    if not growth < math.inf:
        raise DegenerateBaseError(
            f"growth from period {step} to {step + 1} is not finite"
        )
    return growth


def _step_table(periods) -> list[tuple]:
    """One entry ``(period0, period1, v00, v01, v10, v11)`` per step of
    ``periods``: the step's two periods and its four basket values p0·q0,
    p0·q1, p1·q0 and p1·q1, each summed over sectors from left to right.

    A period's own value is summed once: a step's v11 is the next step's
    v00, the same products added in the same order.  A step whose values
    overflow although its entries are finite is held scaled (see
    ``_scaled_step``), with the scaled periods, so that Tornqvist's
    per-sector shares match its sums; the unscaled v11 still carries."""
    table = []
    inf = math.inf
    v11 = _own_price_value(periods[0])
    for period0, period1 in zip(periods, periods[1:]):
        v00 = v11
        v01 = v10 = v11 = 0.0
        for (q0, p0), (q1, p1) in zip(period0, period1):
            v01 += p0 * q1
            v10 += p1 * q0
            v11 += p1 * q1
        if v00 < inf and v01 < inf and v10 < inf and v11 < inf:
            table.append((period0, period1, v00, v01, v10, v11))
        else:
            table += _step_table(_scaled_step(period0, period1))
    return table


def _scaled_step(period0, period1):
    """The step's two periods with every quantity times one power of two
    and every price times another, the least shift that keeps all four
    basket values finite.  Each value is then the unscaled sum times the same
    power of two, with no bit lost unless the step's quantities, or its
    prices, span more than a factor of 2**1000."""
    entries = period0 + period1
    exp_q = math.frexp(max(q for q, _ in entries))[1]
    exp_p = math.frexp(max(p for _, p in entries))[1]
    # Each product is below 2**(exp_q + exp_p), so each basket value is
    # below 2**(exp_q + exp_p + n.bit_length()) for n sectors.
    shift = exp_q + exp_p + len(period0).bit_length() - 1023
    shift_q = min(shift, max(exp_q, 0))
    shift_p = shift - shift_q
    return tuple(
        tuple((math.ldexp(q, -shift_q), math.ldexp(p, -shift_p))
              for q, p in period)
        for period in (period0, period1)
    )


def _step_growth(entry, method: IndexMethod, step: int) -> float:
    """Quantity growth over one entry of ``PricedPanel._steps``; ``step``
    only names the earlier period in error messages."""
    period0, period1, v00, v01, v10, v11 = entry
    if method is IndexMethod.TORNQVIST:
        if any(q <= 0.0 for period in (period0, period1) for q, _ in period):
            raise MethodDomainError(
                "Tornqvist requires strictly positive quantities"
            )
        return _tornqvist_growth(entry, step)
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
        root = math.sqrt((1.0 + g_l) * (1.0 + g_p))
        if root == math.inf:  # the product overflowed; its root may not
            root = math.sqrt(1.0 + g_l) * math.sqrt(1.0 + g_p)
        return _finite_growth(root - 1.0, step)
    raise ValidationError(f"unknown index method {method!r}")


def _tornqvist_growth(entry, step: int) -> float:
    """Tornqvist growth over one entry of ``PricedPanel._steps`` whose
    quantities are all positive."""
    period0, period1, v00, _, _, v11 = entry
    # Subnormal quantities can make a period's value or a quantity ratio
    # round to zero although every quantity is positive.
    if v00 <= 0.0 or v11 <= 0.0:
        period = step if v00 <= 0.0 else step + 1
        raise DegenerateBaseError(f"zero nominal GDP at period {period}")
    log_index = 0.0
    for (q0, p0), (q1, p1) in zip(period0, period1):
        share = 0.5 * (p0 * q0 / v00 + p1 * q1 / v11)
        ratio = q1 / q0
        if ratio == 0.0:
            raise MethodDomainError(
                f"Tornqvist quantity ratio underflows to 0 at period {step}"
            )
        log_index += share * math.log(ratio)
    try:
        factor = math.exp(log_index)
    except OverflowError:  # the log index rounds above ln(DBL_MAX)
        factor = math.inf
    return _finite_growth(factor - 1.0, step)


def real_growth(panel: PricedPanel, step: int, method: IndexMethod) -> float:
    """Quantity growth from period ``step`` to ``step + 1`` under an index.

    Laspeyres values both periods at the earlier period's prices, Paasche at
    the later period's, Fisher is their geometric mean, and Tornqvist weights
    log quantity changes by mean expenditure shares.
    """
    rates = _cached_rates(panel, method)
    if rates is not None and 0 <= step < len(rates):
        return rates[step]
    _check_step(panel, step)
    return _step_growth(panel._steps[step], method, step)


def inflation(panel: PricedPanel, step: int, method: IndexMethod) -> float:
    """Deflator-implied inflation: (1 + nominal) / (1 + real) - 1."""
    column = _cached_inflation(panel, method)
    if column is not None and 0 <= step < len(column):
        return column[step]
    g_nom = nominal_growth(panel, step)
    return _deflator_inflation(g_nom, real_growth(panel, step, method), step)


def _deflator_inflation(g_nom: float, g_real: float, step: int) -> float:
    real_factor = 1.0 + g_real
    if real_factor == 0.0:
        raise DegenerateBaseError(
            f"real output falls to zero at period {step + 1}: "
            "inflation is undefined"
        )
    return _finite_growth((1.0 + g_nom) / real_factor - 1.0, step)


def _series(
    panel: PricedPanel, rates: list[float], geometric_average: bool
) -> GrowthSeries:
    """Chain per-step ``rates`` into a series with a running average."""
    if panel.n_periods < 2:
        raise InsufficientDataError("growth needs at least two periods")
    chained = tuple(accumulate([1.0 + rate for rate in rates], mul))
    if geometric_average:
        averages = [level ** (1.0 / n) - 1.0
                    for n, level in enumerate(chained, 1)]
    else:
        # Summed onto 0.0, so that a first rate of -0.0 averages to 0.0.
        totals = accumulate(rates, initial=0.0)
        next(totals)
        averages = [total / n for n, total in enumerate(totals, 1)]
    return GrowthSeries(
        rates=tuple(rates),
        chained_level=chained,
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
    ``geometric_average``).

    The rates come from one loop per method over the step table, kept on
    the panel for ``real_growth`` to read.  Where that loop cannot vouch
    for every step, the series is rebuilt step by step with
    ``_step_growth``, which ``real_growth`` then also uses, so the first
    failing step raises its own error."""
    return _series(panel, _series_rates(panel, method), geometric_average)


def _series_rates(panel: PricedPanel, method: IndexMethod):
    """Every step's rate under ``method``: the panel's kept rates, else one
    ``_step_growth`` per step, so that the first failing step raises."""
    rates = _cached_rates(panel, method)
    if rates is None:
        rates = [_step_growth(entry, method, step)
                 for step, entry in enumerate(panel._steps)]
    return rates


# The key of nominal growth's rates in ``PricedPanel._rates``; no argument
# of ``real_growth`` is this object.
_NOMINAL = object()


def _cached_rates(panel: PricedPanel, key):
    """``_table_rates(panel, key)``, computed once per panel and key."""
    cache = panel._rates
    try:
        return cache[key]
    except KeyError:
        rates = cache[key] = _table_rates(panel, key)
        return rates


def _cached_inflation(panel: PricedPanel, method):
    """``_inflation_rates(panel, method)``, computed once per panel and
    method."""
    cache = panel._inflations
    try:
        return cache[method]
    except KeyError:
        column = cache[method] = _inflation_rates(panel, method)
        return column


def _inflation_rates(panel: PricedPanel, method):
    """Every step's deflator inflation under ``method`` as a tuple, from the
    panel's kept real and nominal rates by ``_deflator_inflation``'s
    expression; None when either is None, some real factor is 0 or some
    inflation is not finite."""
    real = _cached_rates(panel, method)
    nominal = _cached_rates(panel, _NOMINAL)
    if real is None or nominal is None:
        return None
    factors = [1.0 + g_real for g_real in real]
    if 0.0 in factors:
        return None
    rates = [(1.0 + g_nom) / factor - 1.0
             for g_nom, factor in zip(nominal, factors)]
    # Each rate is at least -1, so only an infinite one, or finite ones
    # whose sum overflows, make the sum not finite.
    return tuple(rates) if sum(rates) < math.inf else None


def _table_rates(panel: PricedPanel, method):
    """Every step's rate under ``method``, or nominal growth's under
    ``_NOMINAL``, as a tuple; None when some base is not positive, some
    rate is not finite, or the Tornqvist domain is not known to hold for
    every step.  It raises no error: a later step's rate may be asked for
    although an earlier step fails."""
    steps = panel._steps
    if method is _NOMINAL:
        if not all(entry[2] > 0.0 for entry in steps):
            return None
        rates = [v11 / v00 - 1.0 for _, _, v00, _, _, v11 in steps]
    elif method is IndexMethod.TORNQVIST:
        periods = panel.periods
        if any(q <= 0.0 for period in periods for q, _ in period):
            return None
        # A scaled step holds new periods, whose quantities may have
        # rounded to zero: its domain is checked step by step.
        if any(entry[0] is not period
               for entry, period in zip(steps, periods)):
            return None
        try:
            return tuple([_tornqvist_growth(entry, step)
                          for step, entry in enumerate(steps)])
        except (DegenerateBaseError, MethodDomainError):
            return None
    elif method is IndexMethod.LASPEYRES:
        if not all(entry[2] > 0.0 for entry in steps):
            return None
        rates = [v01 / v00 - 1.0 for _, _, v00, v01, _, _ in steps]
    elif method is IndexMethod.PAASCHE:
        if not all(entry[4] > 0.0 for entry in steps):
            return None
        rates = [v11 / v10 - 1.0 for _, _, _, _, v10, v11 in steps]
    elif method is IndexMethod.FISHER:
        if not all(entry[2] > 0.0 and entry[4] > 0.0 for entry in steps):
            return None
        g_ls = [v01 / v00 - 1.0 for _, _, v00, v01, _, _ in steps]
        g_ps = [v11 / v10 - 1.0 for _, _, _, _, v10, v11 in steps]
        # A product that overflows makes the rate infinite here; the
        # step-by-step path then takes the root of each factor.
        rates = [math.sqrt((1.0 + g_l) * (1.0 + g_p)) - 1.0
                 for g_l, g_p in zip(g_ls, g_ps)]
    else:
        return None
    # An infinite or NaN rate makes the sum not finite.  So may finite
    # rates whose sum overflows; the step-by-step path then gives them
    # again.
    return tuple(rates) if sum(rates) < math.inf else None


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
    # A left fold from 1, as ``growth_series`` chains its level.
    level = math.prod(1.0 + rate for rate in _series_rates(panel, method))
    if not 0.0 < level < math.inf:  # a rate that rounds to -100% gives 0
        raise DegenerateBaseError(
            f"chained level over the loop is {level!r}: no finite log")
    return math.log(level)


def path_integral_gdp(path: PricedPanel) -> float:
    """Line integral of sum_a P_a dY_a along the path, trapezoidal in prices.

    Exact when prices are constant on a leg; antisymmetric under path
    reversal.
    """
    if path.n_periods < 2:
        raise InsufficientDataError("path integral needs at least two points")
    total = 0.0
    periods = path.periods
    for step, (period0, period1) in enumerate(zip(periods, periods[1:])):
        for (q0, p0), (q1, p1) in zip(period0, period1):
            total += 0.5 * (p0 + p1) * (q1 - q0)
        if not math.isfinite(total):
            raise DegenerateBaseError(
                f"path integral overflows from period {step} to {step + 1}")
    return total
