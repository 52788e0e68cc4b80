import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdppath import (
    DegenerateBaseError,
    GrowthSeries,
    IndexMethod,
    InsufficientDataError,
    MethodDomainError,
    ModelError,
    NotALoopError,
    PricedPanel,
    ValidationError,
    circularity_residual,
    growth_series,
    inflation,
    nominal_gdp,
    nominal_growth,
    path_integral_gdp,
    real_growth,
)
from gdppath.gap import common_price_growth, common_price_valuations

ALL_METHODS = list(IndexMethod)


def panel_of(periods, labels=None):
    n = len(periods[0])
    names = tuple(chr(ord("A") + i) for i in range(n))
    labels = labels if labels is not None else tuple(range(len(periods)))
    return PricedPanel(names, tuple(periods), tuple(labels))


@st.composite
def panels(draw, min_periods=2, max_periods=5, positive_quantities=True):
    n_sectors = draw(st.integers(1, 4))
    n_periods = draw(st.integers(min_periods, max_periods))
    qty_min = 0.1 if positive_quantities else 0.0
    qty = st.floats(qty_min, 100.0, allow_nan=False)
    price = st.floats(0.1, 50.0, allow_nan=False)
    periods = tuple(
        tuple(
            (draw(qty), draw(price)) for _ in range(n_sectors)
        )
        for _ in range(n_periods)
    )
    return panel_of(periods)


class TestPanelValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            PricedPanel(("A",), (), ())

    def test_rejects_negative_quantity(self):
        with pytest.raises(ValidationError):
            panel_of([(((-1.0), 1.0),)])

    def test_rejects_zero_price(self):
        with pytest.raises(ValidationError):
            panel_of([((1.0, 0.0),)])

    def test_rejects_non_increasing_labels(self):
        with pytest.raises(ValidationError):
            panel_of([((1.0, 1.0),), ((1.0, 1.0),)], labels=(5, 5))

    def test_rejects_ragged_periods(self):
        with pytest.raises(ValidationError):
            PricedPanel(("A", "B"), (((1.0, 1.0),),), (0,))


class TestNominal:
    def test_us_2015(self, us_panel):
        assert nominal_gdp(us_panel, 0) == pytest.approx(4000.0)

    def test_china_2015(self, china_panel):
        assert nominal_gdp(china_panel, 0) == pytest.approx(3500.0)

    def test_all_zero_quantities(self):
        p = panel_of([((0.0, 1.0), (0.0, 2.0))])
        assert nominal_gdp(p, 0) == 0.0

    def test_out_of_range(self, china_panel):
        with pytest.raises(ValidationError):
            nominal_gdp(china_panel, 5)

    def test_china_growth(self, china_panel):
        assert nominal_growth(china_panel, 0) == pytest.approx(
            3680.45 / 3500.0 - 1.0, rel=1e-12
        )

    def test_us_growth_zero(self, us_panel):
        assert nominal_growth(us_panel, 0) == 0.0

    def test_zero_base_degenerate(self):
        p = panel_of([((0.0, 1.0),), ((1.0, 1.0),)])
        with pytest.raises(DegenerateBaseError):
            nominal_growth(p, 0)

    def test_subnormal_base_not_finite(self):
        p = panel_of([((5e-324, 1.0),), ((1.0, 1.0),)])
        with pytest.raises(DegenerateBaseError,
                           match="^growth from period 0 to 1 is not finite$"):
            nominal_growth(p, 0)


class TestRealGrowth:
    def test_china_laspeyres(self, china_panel):
        g = real_growth(china_panel, 0, IndexMethod.LASPEYRES)
        assert g == pytest.approx(3635.0 / 3500.0 - 1.0, rel=1e-12)

    def test_china_paasche(self, china_panel):
        g = real_growth(china_panel, 0, IndexMethod.PAASCHE)
        assert g == pytest.approx(3680.45 / 3545.0 - 1.0, rel=1e-12)

    def test_identical_periods_zero(self, us_panel):
        for method in ALL_METHODS:
            assert real_growth(us_panel, 0, method) == pytest.approx(0.0, abs=1e-15)

    def test_tornqvist_rejects_zero_quantity(self):
        p = panel_of([((0.0, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, 1.0))])
        with pytest.raises(MethodDomainError):
            real_growth(p, 0, IndexMethod.TORNQVIST)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_subnormal_base_not_finite(self, method):
        p = panel_of([((5e-324, 1.0), (5e-324, 1.0)),
                      ((1.0, 1.0), (1.0, 1.0)),
                      ((2.0, 1.0), (2.0, 1.0))])
        for fn in (real_growth, inflation):
            with pytest.raises(DegenerateBaseError,
                               match="^growth from period 0 to 1 is not "):
                fn(p, 0, method)
        with pytest.raises(DegenerateBaseError, match="period 0 to 1"):
            growth_series(p, method, geometric_average=True)
        assert real_growth(p, 1, method) == pytest.approx(1.0)

    def test_laspeyres_allows_zero_quantity(self):
        p = panel_of([((0.0, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, 1.0))])
        assert real_growth(p, 0, IndexMethod.LASPEYRES) == pytest.approx(1.0)

    @given(panels())
    def test_fisher_betweenness(self, panel):
        for step in range(panel.n_periods - 1):
            g_l = real_growth(panel, step, IndexMethod.LASPEYRES)
            g_p = real_growth(panel, step, IndexMethod.PAASCHE)
            g_f = real_growth(panel, step, IndexMethod.FISHER)
            assert min(g_l, g_p) - 1e-12 <= g_f <= max(g_l, g_p) + 1e-12

    @given(panels(), st.floats(0.1, 10.0))
    def test_numeraire_invariance(self, panel, c):
        def scaled(period_idx):
            periods = [
                tuple(
                    (q, p * c) if i == period_idx else (q, p)
                    for q, p in period
                )
                for i, period in enumerate(panel.periods)
            ]
            return PricedPanel(panel.sector_names, tuple(periods),
                               panel.period_labels)

        g_l = real_growth(panel, 0, IndexMethod.LASPEYRES)
        assert real_growth(scaled(1), 0, IndexMethod.LASPEYRES) == pytest.approx(
            g_l, rel=1e-9, abs=1e-12
        )
        g_p = real_growth(panel, 0, IndexMethod.PAASCHE)
        assert real_growth(scaled(0), 0, IndexMethod.PAASCHE) == pytest.approx(
            g_p, rel=1e-9, abs=1e-12
        )
        both = PricedPanel(
            panel.sector_names,
            tuple(
                tuple((q, p * c) for q, p in period) for period in panel.periods
            ),
            panel.period_labels,
        )
        for method in (IndexMethod.FISHER, IndexMethod.TORNQVIST):
            assert real_growth(both, 0, method) == pytest.approx(
                real_growth(panel, 0, method), rel=1e-9, abs=1e-12
            )

    @given(panels())
    def test_quantity_homogeneity(self, panel):
        doubled = PricedPanel(
            panel.sector_names,
            tuple(
                tuple((2.0 * q, p) for q, p in period) if i == 1 else period
                for i, period in enumerate(panel.periods)
            ),
            panel.period_labels,
        )
        for method in (IndexMethod.LASPEYRES, IndexMethod.PAASCHE,
                       IndexMethod.FISHER):
            g = real_growth(panel, 0, method)
            g2 = real_growth(doubled, 0, method)
            assert 1.0 + g2 == pytest.approx(2.0 * (1.0 + g), rel=1e-12)

    @given(panels())
    def test_nominal_factorization(self, panel):
        for step in range(panel.n_periods - 1):
            g_nom = nominal_growth(panel, step)
            for method in ALL_METHODS:
                g_real = real_growth(panel, step, method)
                g_inf = inflation(panel, step, method)
                assert (1.0 + g_real) * (1.0 + g_inf) == pytest.approx(
                    1.0 + g_nom, rel=1e-12
                )


class TestInflation:
    def test_china_laspeyres(self, china_panel):
        pi = inflation(china_panel, 0, IndexMethod.LASPEYRES)
        expected = (3680.45 / 3500.0) / (3635.0 / 3500.0) - 1.0
        assert pi == pytest.approx(expected, rel=1e-12)
        assert pi == pytest.approx(0.01250, abs=5e-6)

    def test_us_zero(self, us_panel):
        assert inflation(us_panel, 0, IndexMethod.LASPEYRES) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_constant_prices_zero(self):
        p = panel_of([((1.0, 2.0),), ((3.0, 2.0),), ((5.0, 2.0),)])
        for step in (0, 1):
            assert inflation(p, step, IndexMethod.LASPEYRES) == pytest.approx(
                0.0, abs=1e-15
            )


class TestGrowthSeries:
    def test_constant_panel(self):
        p = panel_of([((1.0, 1.0),)] * 4)
        s = growth_series(p, IndexMethod.LASPEYRES)
        assert s.rates == (0.0, 0.0, 0.0)
        assert s.chained_level == (1.0, 1.0, 1.0)
        assert s.running_average == (0.0, 0.0, 0.0)

    def test_single_period_insufficient(self):
        p = panel_of([((1.0, 1.0),)])
        with pytest.raises(InsufficientDataError):
            growth_series(p, IndexMethod.LASPEYRES)

    @given(panels())
    def test_chained_level_consistency(self, panel):
        s = growth_series(panel, IndexMethod.LASPEYRES)
        product = 1.0
        for j, rate in enumerate(s.rates):
            product *= 1.0 + rate
            assert s.chained_level[j] == pytest.approx(product, rel=1e-12)

    def test_geometric_average(self):
        p = panel_of([((1.0, 1.0),), ((2.0, 1.0),), ((2.0, 1.0),)])
        s = growth_series(p, IndexMethod.LASPEYRES, geometric_average=True)
        assert s.running_average[-1] == pytest.approx(math.sqrt(2.0) - 1.0)


class TestCircularity:
    def test_hand_loop(self, hand_loop):
        s = growth_series(hand_loop, IndexMethod.LASPEYRES)
        assert s.rates == pytest.approx((0.5, -0.25), rel=1e-15)
        residual = circularity_residual(hand_loop, IndexMethod.LASPEYRES)
        assert residual == pytest.approx(math.log(1.125), rel=1e-12)
        assert abs(residual) > 0.1

    def test_constant_prices_telescope(self):
        p = panel_of([
            ((1.0, 3.0), (2.0, 7.0)),
            ((5.0, 3.0), (1.0, 7.0)),
            ((2.0, 3.0), (9.0, 7.0)),
            ((1.0, 3.0), (2.0, 7.0)),
        ])
        assert circularity_residual(p, IndexMethod.LASPEYRES) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_not_a_loop(self, china_panel):
        with pytest.raises(NotALoopError):
            circularity_residual(china_panel, IndexMethod.LASPEYRES)


class TestPathIntegral:
    def test_constant_price_single_sector(self):
        p = panel_of([((1.0, 2.0),), ((5.0, 2.0),), ((8.0, 2.0),)])
        assert path_integral_gdp(p) == pytest.approx(2.0 * (8.0 - 1.0))

    def test_order_dependence(self):
        # Price field P_A = 1, P_B = Y_A: raising A first makes the B leg
        # twice as expensive as raising B first.
        a_first = panel_of([
            ((1.0, 1.0), (1.0, 1.0)),
            ((2.0, 1.0), (1.0, 2.0)),
            ((2.0, 1.0), (2.0, 2.0)),
        ])
        b_first = panel_of([
            ((1.0, 1.0), (1.0, 1.0)),
            ((1.0, 1.0), (2.0, 1.0)),
            ((2.0, 1.0), (2.0, 1.0)),
        ])
        assert path_integral_gdp(a_first) == pytest.approx(3.0, abs=1e-15)
        assert path_integral_gdp(b_first) == pytest.approx(2.0, abs=1e-15)

    @given(panels(min_periods=2, max_periods=6))
    def test_reversal_antisymmetry(self, panel):
        reverse = PricedPanel(
            panel.sector_names,
            tuple(reversed(panel.periods)),
            panel.period_labels,
        )
        # termwise exact negation; summation order differs, so scale the
        # tolerance by the total magnitude of the trapezoid terms
        scale = sum(
            abs(0.5 * (p0 + p1) * (q1 - q0))
            for step in range(panel.n_periods - 1)
            for (q0, p0), (q1, p1) in zip(
                panel.periods[step], panel.periods[step + 1]
            )
        )
        assert path_integral_gdp(reverse) == pytest.approx(
            -path_integral_gdp(panel), abs=1e-12 * max(1.0, scale)
        )

    def test_closed_loop_zero(self):
        p = panel_of([
            ((1.0, 1.0),), ((4.0, 3.0),), ((2.0, 5.0),),
            ((4.0, 3.0),), ((1.0, 1.0),),
        ])
        assert path_integral_gdp(p) == pytest.approx(0.0, abs=1e-12)

    def test_single_point_insufficient(self):
        with pytest.raises(InsufficientDataError):
            path_integral_gdp(panel_of([((1.0, 1.0),)]))


# The index engine as it was before the one-pass kernel: ``real_growth``
# rebuilt the quantity and price tuples of both periods on every call,
# Fisher called it twice, and the running average re-summed the prefix.
# Each float ``sum(...)`` of that code is spelled out below as the
# left-to-right loop from zero that CPython 3.11's ``sum`` performs; 3.12+
# compensates its ``sum``, so the spelled-out loop is the oracle on every
# version for the kernel's explicit ``+=`` loops.


def left_to_right_sum(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


def oracle_real_growth(panel, step, method):
    # Growth that is not finite (a positive base so small that the ratio
    # overflows) is refused, as in the kernel.
    growth = unchecked_oracle_real_growth(panel, step, method)
    if not math.isfinite(growth):
        raise DegenerateBaseError(
            f"growth from period {step} to {step + 1} is not finite"
        )
    return growth


def unchecked_oracle_real_growth(panel, step, method):
    if not 0 <= step < panel.n_periods - 1:
        raise ValidationError(
            f"step {step} out of range for {panel.n_periods} periods"
        )
    q0, q1 = panel.quantities(step), panel.quantities(step + 1)
    p0, p1 = panel.prices(step), panel.prices(step + 1)

    def basket(prices, quantities):
        return left_to_right_sum(p * q for p, q in zip(prices, quantities))

    if method is IndexMethod.LASPEYRES:
        base = basket(p0, q0)
        if base <= 0.0:
            raise DegenerateBaseError(f"zero base value at period {step}")
        return basket(p0, q1) / base - 1.0
    if method is IndexMethod.PAASCHE:
        base = basket(p1, q0)
        if base <= 0.0:
            raise DegenerateBaseError(f"zero base value at period {step}")
        return basket(p1, q1) / base - 1.0
    if method is IndexMethod.FISHER:
        g_l = unchecked_oracle_real_growth(panel, step, IndexMethod.LASPEYRES)
        g_p = unchecked_oracle_real_growth(panel, step, IndexMethod.PAASCHE)
        return math.sqrt((1.0 + g_l) * (1.0 + g_p)) - 1.0
    if method is IndexMethod.TORNQVIST:
        if any(q <= 0.0 for q in q0 + q1):
            raise MethodDomainError(
                "Tornqvist requires strictly positive quantities"
            )
        gdp0, gdp1 = basket(p0, q0), basket(p1, q1)
        if gdp0 <= 0.0 or gdp1 <= 0.0:
            period = step if gdp0 <= 0.0 else step + 1
            raise DegenerateBaseError(f"zero nominal GDP at period {period}")
        log_index = 0.0
        for a in range(len(q0)):
            share = 0.5 * (p0[a] * q0[a] / gdp0 + p1[a] * q1[a] / gdp1)
            if q1[a] / q0[a] == 0.0:
                raise MethodDomainError(
                    f"Tornqvist quantity ratio underflows to 0 at period {step}"
                )
            log_index += share * math.log(q1[a] / q0[a])
        return math.exp(log_index) - 1.0
    raise ValidationError(f"unknown index method {method!r}")


def oracle_inflation(panel, step, method):
    # nominal_growth is not part of the kernel and is used as it is.
    g_nom = nominal_growth(panel, step)
    g_real = oracle_real_growth(panel, step, method)
    if 1.0 + g_real == 0.0:
        raise DegenerateBaseError(
            f"real output falls to zero at period {step + 1}: "
            "inflation is undefined"
        )
    return (1.0 + g_nom) / (1.0 + g_real) - 1.0


def oracle_growth_series(panel, method, geometric_average=False,
                         values=None):
    if panel.n_periods < 2:
        raise InsufficientDataError("growth needs at least two periods")
    if values is not None and len(values) != panel.n_periods:
        raise ValidationError("one valuation per period required")
    rates = []
    for step in range(panel.n_periods - 1):
        if values is None:
            rates.append(oracle_real_growth(panel, step, method))
        else:
            if values[step] <= 0.0:
                raise DegenerateBaseError(f"zero valuation at period {step}")
            rate = values[step + 1] / values[step] - 1.0
            if not math.isfinite(rate):
                raise DegenerateBaseError(
                    f"growth from period {step} to {step + 1} is not finite"
                )
            rates.append(rate)
    chained, averages = [], []
    level = 1.0
    for j, rate in enumerate(rates):
        level *= 1.0 + rate
        chained.append(level)
        if geometric_average:
            averages.append(level ** (1.0 / (j + 1)) - 1.0)
        else:
            averages.append(left_to_right_sum(rates[: j + 1]) / (j + 1))
    return tuple(rates), tuple(chained), tuple(averages)


def oracle_path_integral_gdp(path):
    if path.n_periods < 2:
        raise InsufficientDataError("path integral needs at least two points")
    total = 0.0
    for step in range(path.n_periods - 1):
        q0, q1 = path.quantities(step), path.quantities(step + 1)
        p0, p1 = path.prices(step), path.prices(step + 1)
        for a in range(len(q0)):
            total += 0.5 * (p0[a] + p1[a]) * (q1[a] - q0[a])
    return total


def oracle_common_price_valuations(panel, reference_prices):
    # The checks of the reference prices are unchanged and left out.  The
    # valuation still uses the builtin ``sum``, so the oracle does too: a
    # spelled-out loop would differ from it on 3.12+.
    return tuple(
        sum(p * q for p, q in zip(reference_prices, panel.quantities(i)))
        for i in range(panel.n_periods)
    )


def oracle_common_price_growth(panel, reference_prices):
    values = oracle_common_price_valuations(panel, reference_prices)
    return oracle_growth_series(panel, None, values=values)


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of the error it
    raised.  Any error that is not a ``ModelError`` fails the test."""
    try:
        result = fn(*args, **kwargs)
    except ModelError as exc:
        return type(exc), str(exc)
    if isinstance(result, GrowthSeries):
        return result.rates, result.chained_level, result.running_average
    return result


def long_panel(n_periods=2000, seed=5):
    """Two sectors drifting apart over a long horizon."""
    rng = random.Random(seed)
    periods, qty, price = [], [100.0, 40.0], [1.0, 3.0]
    for _ in range(n_periods):
        periods.append(tuple(zip(qty, price)))
        qty = [q * math.exp(rng.gauss(0.01, 0.02)) for q in qty]
        price = [p * math.exp(rng.gauss(0.0, 0.03)) for p in price]
    return panel_of(periods)


class TestOnePassKernel:
    """The one-pass kernel gives the old engine's results bit for bit and
    raises its errors on the same inputs."""

    def assert_same_as_oracle(self, panel):
        def check(new, old, *args, **kwargs):
            # repr tells floats apart bit for bit, and a nan equals a nan.
            assert repr(outcome(new, *args, **kwargs)) == repr(
                outcome(old, *args, **kwargs)
            )

        for method in ALL_METHODS:
            for step in range(panel.n_periods - 1):
                check(real_growth, oracle_real_growth, panel, step, method)
                check(inflation, oracle_inflation, panel, step, method)
            for geometric in (False, True):
                check(growth_series, oracle_growth_series, panel, method,
                      geometric_average=geometric)
        check(path_integral_gdp, oracle_path_integral_gdp, panel)
        reference = panel.prices(0)
        check(common_price_valuations, oracle_common_price_valuations,
              panel, reference)
        check(common_price_growth, oracle_common_price_growth,
              panel, reference)

    @given(panels(max_periods=12))
    def test_positive_panels(self, panel):
        self.assert_same_as_oracle(panel)

    @given(panels(max_periods=12, positive_quantities=False))
    def test_panels_with_zero_quantities(self, panel):
        self.assert_same_as_oracle(panel)

    def test_long_panel(self):
        self.assert_same_as_oracle(long_panel())

    @pytest.mark.parametrize("periods, method, error, message", [
        ([((0.0, 1.0), (0.0, 2.0)), ((1.0, 1.0), (1.0, 2.0))],
         IndexMethod.LASPEYRES, DegenerateBaseError,
         "zero base value at period 0"),
        ([((1.0, 1.0), (2.0, 2.0)), ((0.0, 3.0), (0.0, 2.0)),
          ((1.0, 1.0), (1.0, 2.0))],
         IndexMethod.FISHER, DegenerateBaseError,
         "zero base value at period 1"),
        ([((1.0, 1.0), (2.0, 2.0)), ((1.5, 1.0), (2.0, 2.0)),
          ((1.0, 1.0), (0.0, 2.0))],
         IndexMethod.TORNQVIST, MethodDomainError, "Tornqvist requires"),
        # a zero base under Tornqvist is a domain error, not a zero base
        ([((0.0, 1.0),), ((1.0, 1.0),)],
         IndexMethod.TORNQVIST, MethodDomainError, "Tornqvist requires"),
        # positive subnormal quantities: a ratio or a period's value that
        # rounds to zero
        ([((2.0, 1.0),), ((5e-324, 1.0),)],
         IndexMethod.TORNQVIST, MethodDomainError, "underflows to 0"),
        ([((1.0, 1.0),), ((5e-324, 0.1),)],
         IndexMethod.TORNQVIST, DegenerateBaseError,
         "zero nominal GDP at period 1"),
    ])
    def test_errors_match(self, periods, method, error, message):
        panel = panel_of(periods)
        self.assert_same_as_oracle(panel)
        with pytest.raises(error, match=message):
            growth_series(panel, method)

    def test_inflation_after_output_falls_to_zero(self):
        panel = panel_of([((1.0, 1.0), (1.0, 1.0)), ((0.0, 1.0), (0.0, 1.0))])
        self.assert_same_as_oracle(panel)
        for method in (IndexMethod.LASPEYRES, IndexMethod.PAASCHE,
                       IndexMethod.FISHER):
            with pytest.raises(DegenerateBaseError, match="falls to zero"):
                inflation(panel, 0, method)

    def test_method_errors_match(self):
        panel = panel_of([((1.0, 1.0),), ((2.0, 1.0),)])
        for method in (None, "laspeyres"):
            assert outcome(growth_series, panel, method) == outcome(
                oracle_growth_series, panel, method
            )
            assert outcome(real_growth, panel, 0, method) == outcome(
                oracle_real_growth, panel, 0, method
            )
