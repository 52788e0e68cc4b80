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
from itertools import accumulate, count
from operator import le, mul

from .errors import (
    DegenerateBaseError,
    InsufficientDataError,
    MethodDomainError,
    ModelError,
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


class _Kept(dict):
    """Rate columns kept on a panel by key, each built on first use as
    ``_table_rates(steps, key)``; a key that is no index method is refused
    and not kept.  ``steps`` is the panel's step table, never the panel, so
    that no cycle keeps a panel alive."""

    def __init__(self, steps) -> None:
        super().__init__()
        self.steps = steps

    def __missing__(self, key):
        if key.__class__ is not IndexMethod and key is not _NOMINAL:
            raise ValidationError(f"unknown index method {key!r}")
        column = self[key] = _table_rates(self.steps, key)
        return column


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
        and its loop return only valid entries.  Only the labels' order is
        checked here."""
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
    def _rates(self) -> _Kept:
        """Real-growth columns by index method, and nominal growth's under
        ``_NOMINAL``, each built by ``_table_rates`` on first use: every
        step's rate or its error."""
        return _Kept(self._steps)

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
    return _rate(panel._rates[_NOMINAL], step)


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


def _fresh(error: ModelError) -> ModelError:
    """A new error of ``error``'s type and message.  A kept error is never
    raised itself: each raise would lengthen its traceback."""
    return error.__class__(*error.args)


def _rate(column: tuple, step: int) -> float:
    """Entry ``step`` of a kept column: the step's rate, or its error raised
    afresh.  A column has one entry per step of its panel.

    A rate is a float, or a float subclass such as ``numpy.float64`` where
    the panel's entries are one: wherever a column's entries are told
    apart, ``__class__ is float`` decides the common case and ``isinstance``
    of ``ModelError`` the rest."""
    if not 0 <= step < len(column):
        raise ValidationError(
            f"step {step} out of range for {len(column) + 1} periods")
    rate = column[step]
    if rate.__class__ is float or not isinstance(rate, ModelError):
        return rate
    raise _fresh(rate)


def _every_rate(column: tuple) -> tuple:
    """``column``, unless one of its steps fails: then the first failing
    step's error, raised afresh."""
    for rate in column:
        if rate.__class__ is not float and isinstance(rate, ModelError):
            raise _fresh(rate)
    return column


def _not_finite(step: int) -> DegenerateBaseError:
    """The error of growth that is not finite: inf, or nan from inf / inf,
    as a ratio over a positive base too close to zero gives."""
    return DegenerateBaseError(
        f"growth from period {step} to {step + 1} is not finite")


def _ratio_rates(rows, value: int, base: int, zero_base: str) -> tuple:
    """Each step's growth ``row[value] / row[base] - 1`` over its row of
    ``rows``, or its error: ``zero_base`` at the step's period where the
    base is not positive, else growth that is not finite.  Nominal growth,
    Laspeyres, Paasche and common-price growth are this rule."""
    inf = math.inf
    return tuple([
        rate if (v0 := row[base]) > 0.0
        and (rate := row[value] / v0 - 1.0) < inf
        else _not_finite(step) if v0 > 0.0
        else DegenerateBaseError(f"{zero_base} at period {step}")
        for step, row in enumerate(rows)
    ])


def _fisher_growth(entry, step: int):
    """Fisher growth over one entry of ``PricedPanel._steps``, or its
    error: the geometric mean of Laspeyres and Paasche growth."""
    _, _, v00, v01, v10, v11 = entry
    if v00 <= 0.0 or v10 <= 0.0:
        return DegenerateBaseError(f"zero base value at period {step}")
    g_l = v01 / v00 - 1.0
    g_p = v11 / v10 - 1.0
    root = math.sqrt((1.0 + g_l) * (1.0 + g_p))
    if root == math.inf:  # the product overflowed; its root may not
        root = math.sqrt(1.0 + g_l) * math.sqrt(1.0 + g_p)
    growth = root - 1.0
    return growth if growth < math.inf else _not_finite(step)


def _tornqvist_growth(entry, step: int):
    """Tornqvist growth over one entry of ``PricedPanel._steps``, or its
    error: log quantity changes weighted by mean expenditure shares."""
    period0, period1, v00, _, _, v11 = entry
    # Each fault is found by a comparison, never by a division by zero,
    # which raises for a float but not for a float subclass like
    # ``numpy.float64``.
    if not (v00 > 0.0 and v11 > 0.0):
        return _tornqvist_fault(entry, step)
    log_index = 0.0
    for (q0, p0), (q1, p1) in zip(period0, period1):
        if not (q0 > 0.0 and (ratio := q1 / q0) > 0.0):
            return _tornqvist_fault(entry, step)
        share = 0.5 * (p0 * q0 / v00 + p1 * q1 / v11)
        log_index += share * math.log(ratio)
    try:
        growth = math.exp(log_index) - 1.0
    except OverflowError:  # the log index rounds above ln(DBL_MAX)
        growth = math.inf
    return growth if growth < math.inf else _not_finite(step)


def _tornqvist_fault(entry, step: int) -> ModelError:
    """The error of a Tornqvist step with a value, a quantity or a quantity
    ratio that is zero, found in this order: a quantity that is not
    positive, a period's value that is zero, a quantity ratio that
    underflows to zero.  Subnormal quantities can make the last two happen
    although every quantity is positive."""
    period0, period1, v00, _, _, v11 = entry
    if any(q <= 0.0 for period in (period0, period1) for q, _ in period):
        return MethodDomainError(
            "Tornqvist requires strictly positive quantities")
    if v00 <= 0.0 or v11 <= 0.0:
        period = step if v00 <= 0.0 else step + 1
        return DegenerateBaseError(f"zero nominal GDP at period {period}")
    return MethodDomainError(
        f"Tornqvist quantity ratio underflows to 0 at period {step}")


def real_growth(panel: PricedPanel, step: int, method: IndexMethod) -> float:
    """Quantity growth from period ``step`` to ``step + 1`` under an index.

    Laspeyres values both periods at the earlier period's prices, Paasche at
    the later period's, Fisher is their geometric mean, and Tornqvist weights
    log quantity changes by mean expenditure shares.
    """
    return _rate(panel._rates[method], step)


def inflation(panel: PricedPanel, step: int, method: IndexMethod) -> float:
    """Deflator-implied inflation: (1 + nominal) / (1 + real) - 1."""
    rates = panel._rates
    return _deflated(_rate(rates[_NOMINAL], step), _rate(rates[method], step),
                     step)


def _deflated(g_nom, g_real, step: int) -> float:
    """The step's deflator inflation ``(1 + g_nom) / (1 + g_real) - 1`` from
    its nominal and real growth.  Raises for real output that falls to
    zero, then for inflation that is not finite."""
    if 1.0 + g_real == 0.0:
        raise DegenerateBaseError(
            f"real output falls to zero at period {step + 1}: "
            "inflation is undefined")
    rate = (1.0 + g_nom) / (1.0 + g_real) - 1.0
    if rate < math.inf:
        return rate
    raise _not_finite(step)


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

    The rates are the panel's kept column under ``method``, which
    ``real_growth`` also reads; the first failing step raises its
    error."""
    rates = _every_rate(panel._rates[method])
    return _series(panel, rates, geometric_average)


# The key of nominal growth's column in ``PricedPanel._rates``; no argument
# of ``real_growth`` is this object.
_NOMINAL = object()


def _table_rates(steps, key) -> tuple:
    """Every step's growth under the index method ``key``, or nominal
    growth's under ``_NOMINAL``, over the step table ``steps``: each step's
    rate or its error."""
    if key is _NOMINAL:
        return _ratio_rates(steps, 5, 2, "zero nominal GDP")
    if key is IndexMethod.LASPEYRES:
        return _ratio_rates(steps, 3, 2, "zero base value")
    if key is IndexMethod.PAASCHE:
        return _ratio_rates(steps, 5, 4, "zero base value")
    if key is IndexMethod.FISHER:
        return tuple(map(_fisher_growth, steps, count()))
    return tuple(map(_tornqvist_growth, steps, count()))  # TORNQVIST


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
    rates = _every_rate(panel._rates[method])
    level = math.prod(1.0 + rate for rate in rates)
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
