import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdppath import (
    DegenerateBaseError,
    IndexMethod,
    IslandScenario,
    NoSolutionError,
    PricedPanel,
    ProductivitySchedule,
    ValidationError,
    common_price_growth,
    default_spec,
    generate_panel,
    model_catchup,
    naive_catchup,
    nominal_gdp,
    perspective_report,
    real_growth,
)


class TestNaiveCatchup:
    def test_china_us_headline(self):
        assert naive_catchup(11.0, 18.0, 0.06, 0.03) == pytest.approx(
            17.15, abs=0.01
        )

    def test_equal_sizes(self):
        assert naive_catchup(10.0, 10.0, 0.06, 0.03) == 0.0

    def test_diverging_is_negative(self):
        assert naive_catchup(11.0, 18.0, 0.03, 0.06) < 0.0

    def test_equal_rates_no_solution(self):
        with pytest.raises(NoSolutionError):
            naive_catchup(11.0, 18.0, 0.03, 0.03)

    @pytest.mark.parametrize("args", [
        (2.0, 5e-324, 0.0, 1.0),  # gdp_big / gdp_small underflows
        (1.0, 2.0, -0.9999999999999999, 1e308),  # growth ratio underflows
        (1e-300, 1e300, 0.06, 0.03),  # gdp_big / gdp_small overflows
        (1.0, 2.0, 1e300, -0.9999999999999999),  # growth ratio overflows
    ])
    def test_unrepresentable_ratio_raises(self, args):
        with pytest.raises(NoSolutionError, match="out of floating-point"):
            naive_catchup(*args)

    def test_rejects_nonpositive_gdp(self):
        with pytest.raises(ValidationError):
            naive_catchup(0.0, 18.0, 0.06, 0.03)

    @pytest.mark.parametrize("g_small, g_big", [(-1.0, 0.03), (0.06, -1.5)])
    def test_rejects_fall_of_100_percent_or_more(self, g_small, g_big):
        with pytest.raises(ValidationError, match="must exceed -100%"):
            naive_catchup(11.0, 18.0, g_small, g_big)

    @given(
        c=st.floats(0.01, 100.0),
        small=st.floats(1.0, 50.0),
        big=st.floats(51.0, 200.0),
    )
    def test_scale_invariance(self, c, small, big):
        x = naive_catchup(small, big, 0.06, 0.03)
        assert naive_catchup(c * small, c * big, 0.06, 0.03) == pytest.approx(
            x, rel=1e-9
        )


class TestCommonPriceGrowth:
    def test_china_at_us_reference(self, china_panel):
        series = common_price_growth(china_panel, (1.0, 10.0))
        assert series.rates[0] == pytest.approx(
            (2120.0 + 3030.0) / (2000.0 + 3000.0) - 1.0, rel=1e-12
        )
        assert series.rates[0] == pytest.approx(0.03)

    def test_own_base_prices_match_laspeyres(self, china_panel):
        series = common_price_growth(china_panel, china_panel.prices(0))
        assert series.rates[0] == pytest.approx(
            real_growth(china_panel, 0, IndexMethod.LASPEYRES), rel=1e-12
        )

    def test_constant_quantities(self, us_panel):
        series = common_price_growth(us_panel, (3.0, 4.0))
        assert series.rates == (0.0,)

    def test_reference_rescale_invariance(self, china_panel):
        base = common_price_growth(china_panel, (1.0, 10.0)).rates
        scaled = common_price_growth(china_panel, (7.0, 70.0)).rates
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_dimension_mismatch(self, china_panel):
        with pytest.raises(ValidationError):
            common_price_growth(china_panel, (1.0,))

    def test_subnormal_valuation_not_finite(self):
        panel = one_sector_panel([5e-324, 1.0, 2.0], start=0)
        with pytest.raises(DegenerateBaseError,
                           match="^growth from period 0 to 1 is not finite$"):
            common_price_growth(panel, (1.0,))

    def test_nonpositive_reference(self, china_panel):
        with pytest.raises(ValidationError):
            common_price_growth(china_panel, (1.0, 0.0))


class TestPerspectiveReport:
    def test_china_decomposition(self, china_panel):
        r = perspective_report(china_panel, 0, IndexMethod.LASPEYRES)
        assert r.national_real_growth == pytest.approx(0.03857, abs=5e-6)
        assert r.national_inflation == pytest.approx(0.01250, abs=5e-6)
        assert r.international_growth == pytest.approx(0.05156, abs=5e-6)

    def test_us_all_zero(self, us_panel):
        r = perspective_report(us_panel, 0, IndexMethod.LASPEYRES)
        assert r.national_real_growth == pytest.approx(0.0, abs=1e-15)
        assert r.national_inflation == pytest.approx(0.0, abs=1e-15)
        assert r.international_growth == pytest.approx(0.0, abs=1e-15)

    def test_constant_prices_collapse(self):
        p = PricedPanel(
            ("A",), (((1.0, 2.0),), ((3.0, 2.0),)), (0, 1)
        )
        r = perspective_report(p, 0, IndexMethod.LASPEYRES)
        assert r.national_inflation == pytest.approx(0.0, abs=1e-15)
        assert r.national_real_growth == pytest.approx(
            r.international_growth, rel=1e-12
        )

    def test_factorization_identity(self, china_panel):
        for method in IndexMethod:
            r = perspective_report(china_panel, 0, method)
            assert (1.0 + r.national_real_growth) * (
                1.0 + r.national_inflation
            ) == pytest.approx(1.0 + r.international_growth, rel=1e-12)

    def test_overflowing_inflation_refused(self):
        # Real output falls to 1.2e-16 of its base while nominal GDP grows
        # 2e302-fold: the deflator's ratio overflows although both growth
        # rates are finite.
        panel = PricedPanel(("A",), (((1.0, 1e-10),), ((1.2e-16, 1.7e308),)),
                            (0, 1))
        with pytest.raises(DegenerateBaseError,
                           match="^growth from period 0 to 1 is not finite$"):
            perspective_report(panel, 0, IndexMethod.LASPEYRES)


def one_sector_panel(values, price=1.0, start=2000):
    return PricedPanel(
        ("A",),
        tuple(((v, price),) for v in values),
        tuple(range(start, start + len(values))),
    )


class TestModelCatchup:
    def test_identical_economies_cross_immediately(self, china_panel):
        result = model_catchup(china_panel, china_panel)
        assert result.crossing_year == china_panel.period_labels[0]
        assert result.fractional_year == china_panel.period_labels[0]

    def test_static_big_matches_analytic_solution(self):
        horizon = 15
        small = one_sector_panel(
            [11.0 * 1.06**t for t in range(horizon)], start=0
        )
        big = one_sector_panel([18.0] * horizon, start=0)
        result = model_catchup(small, big, reference_rule="common-prices")
        analytic = math.log(18.0 / 11.0) / math.log(1.06)
        assert result.crossing_year == math.ceil(analytic)
        assert result.fractional_year == pytest.approx(analytic, abs=0.05)
        # year-0 growth of the static economy is 0; naive estimate matches
        assert result.naive_years == pytest.approx(analytic, rel=1e-6)

    def test_no_crossing_in_horizon(self):
        small = one_sector_panel([1.0, 1.01, 1.02], start=0)
        big = one_sector_panel([10.0, 10.0, 10.0], start=0)
        result = model_catchup(small, big)
        assert result.crossing_year is None
        assert result.fractional_year is None

    def test_cost_disease_drift_comparison(self, capsys):
        # Table-1-style economies: the big one static, the small one with
        # service-price drift.  The model crossing is compared against the
        # naive extrapolation from year-0 measured real growth.
        horizon = 30
        small_periods = []
        q_a, q_b, p_b = 2000.0, 300.0, 5.0
        for _ in range(horizon):
            small_periods.append(((q_a, 1.0), (q_b, p_b)))
            q_a *= 1.06
            q_b *= 1.01
            p_b *= 1.03
        small = PricedPanel(("A", "B"), tuple(small_periods),
                            tuple(range(horizon)))
        big_period = ((2000.0, 1.0), (200.0, 10.0))
        big = PricedPanel(("A", "B"), (big_period,) * horizon,
                          tuple(range(horizon)))
        result = model_catchup(small, big, reference_rule="own-nominal")
        assert result.crossing_year is not None
        assert result.naive_years is not None
        print(
            f"model crossing year {result.fractional_year:.2f} vs "
            f"naive estimate {result.naive_years:.2f}"
        )

    @pytest.mark.parametrize("first", [0.0, 5e-324])
    def test_tiny_base_refused_like_zero_base(self, first):
        # Year-0 Laspeyres growth has no finite value either way.
        small = one_sector_panel([first, 1.0, 2.0], start=0)
        big = one_sector_panel([3.0, 3.0, 3.0], start=0)
        for rule in ("common-prices", "own-nominal"):
            with pytest.raises(DegenerateBaseError, match="period 0"):
                model_catchup(small, big, reference_rule=rule)

    @pytest.mark.parametrize("rule", ["common-prices", "own-nominal"])
    def test_overflowing_valuation_refused(self, rule):
        # Both economies' period-1 valuations overflow to inf, which would
        # compare as a crossing with a NaN fractional year.
        def panel(rows):
            return PricedPanel(("A", "B"), tuple(
                ((a, 1.0), (b, 1.0)) for a, b in rows), (0, 1, 2))

        small = panel([(1.0, 1.0), (1e308, 1e308), (1.7e308, 1.7e308)])
        big = panel([(1e308, 1.0), (1.5e308, 1e308), (1.7e308, 1.7e308)])
        with pytest.raises(DegenerateBaseError, match=(
                "^small economy's valuation at period 1 is not finite$")):
            model_catchup(small, big, reference_rule=rule)

    @pytest.mark.parametrize("start", [10**400, -10**400, 2**1024 - 1],
                             ids=["10**400", "-10**400", "2**1024-1"])
    @pytest.mark.parametrize("small_values, period", [
        ([3.0, 3.0], 0),  # crosses at once: the label itself
        ([1.0, 4.0], 1),  # interpolated from the label before
    ], ids=["period-0", "period-1"])
    def test_label_beyond_float_range_refused(self, start, small_values,
                                              period):
        small = one_sector_panel(small_values, start=start)
        big = one_sector_panel([3.0, 3.0], start=start)
        with pytest.raises(ValidationError, match=(
                f"^the crossing at period {period} has no fractional year: "
                "a period label is beyond the float range$")):
            model_catchup(small, big)

    def test_largest_float_label_still_crosses(self):
        start = int(1.7976931348623157e308) - 1
        small = one_sector_panel([1.0, 4.0], start=start)
        big = one_sector_panel([3.0, 3.0], start=start)
        result = model_catchup(small, big)
        assert result.crossing_year == start + 1
        assert result.fractional_year == 1.7976931348623157e308

    @pytest.mark.parametrize("rule", ["common-prices", "own-nominal"])
    @pytest.mark.parametrize("scale", [1.0, 0.1, 0.5])
    def test_gaps_near_the_float_maximum(self, rule, scale):
        # The two gaps differ by more than the largest float: unscaled,
        # their difference overflowed and the fraction read 0.
        small = one_sector_panel([1.0 * scale, 1.7e308 * scale], start=2000)
        big = one_sector_panel([1.7e308 * scale, 1.0 * scale], start=2000)
        result = model_catchup(small, big, reference_rule=rule)
        assert result.crossing_year == 2001
        assert result.fractional_year == 2000.5

    def test_finite_gap_difference_keeps_its_bits(self):
        # Halving is only for a difference that overflows: just below the
        # float maximum the fraction is the unscaled one.
        small = one_sector_panel([1.0, 0.6e308], start=2000)
        big = one_sector_panel([1.1e308, 0.5e308], start=2000)
        result = model_catchup(small, big)
        gap_prev, gap_now = 1.1e308 - 1.0, 0.5e308 - 0.6e308
        assert result.fractional_year == 2000 + gap_prev / (gap_prev - gap_now)

    def test_mismatched_horizons_rejected(self, china_panel):
        other = one_sector_panel([1.0, 2.0, 3.0], start=2015)
        with pytest.raises(ValidationError):
            model_catchup(china_panel, other)

    def test_common_prices_need_the_same_sectors(self, china_panel):
        renamed = PricedPanel(("X", "Y"), china_panel.periods,
                              china_panel.period_labels)
        with pytest.raises(ValidationError, match="same sectors"):
            model_catchup(renamed, china_panel, reference_rule="common-prices")
        # Each economy valued at its own prices in a shared currency: the
        # sectors need not match.
        result = model_catchup(renamed, china_panel, reference_rule="own-nominal")
        assert result.crossing_year == 2015

    def test_unknown_rule(self, china_panel):
        with pytest.raises(ValidationError):
            model_catchup(china_panel, china_panel, reference_rule="martian")


def constant_growth_panel(spec, growth_a, growth_b, years=98):
    """The spec's panel over a hand-built schedule that grows each sector by
    a constant rate from 1900."""
    values_a, values_b = [1.0], [1.0]
    for _ in range(years):
        values_a.append(values_a[-1] * (1.0 + growth_a))
        values_b.append(values_b[-1] * (1.0 + growth_b))
    schedule = ProductivitySchedule(1900, tuple(values_a), tuple(values_b))
    return generate_panel(IslandScenario("hand-built", spec, schedule))


BIG_SPEC = default_spec()
# Same economy with 11/18 of the labor force: year-0 GDP is 11 against 18.
SMALL_SPEC = dataclasses.replace(
    BIG_SPEC, total_labor=BIG_SPEC.total_labor * 11.0 / 18.0
)


class TestCatchupInTheModel:
    """The abstract's 11*1.06^X = 18*1.03^X, asked of two model economies:
    the big one grows every sector 3% a year, the small one as given."""

    @pytest.fixture(scope="class")
    def big(self):
        return constant_growth_panel(BIG_SPEC, 0.03, 0.03)

    def test_flat_case_agrees_with_naive(self, big):
        # Relative prices never move, so every index reads 6% and 3% and
        # the model differs from the closed form only by interpolating
        # linearly between years.
        small = constant_growth_panel(SMALL_SPEC, 0.06, 0.06)
        result = model_catchup(small, big, reference_rule="common-prices")
        assert result.crossing_year == 1918
        assert result.fractional_year - 1900 == pytest.approx(17.148, abs=5e-4)
        assert result.naive_years == pytest.approx(17.153, abs=5e-4)
        assert result.naive_years == pytest.approx(
            naive_catchup(11.0, 18.0, 0.06, 0.03), rel=1e-9
        )
        assert abs(result.fractional_year - 1900 - result.naive_years) < 1.0

    @pytest.mark.parametrize("growth_a, growth_b, model_years, naive_years", [
        (0.02, 0.10, 19.54, -83.2),  # the first step reads slower than 3%
        (0.10, 0.02, 19.49, 8.49),
    ])
    def test_curved_cases_depart_from_naive(
        self, big, growth_a, growth_b, model_years, naive_years
    ):
        small = constant_growth_panel(SMALL_SPEC, growth_a, growth_b)
        result = model_catchup(small, big, reference_rule="common-prices")
        assert result.crossing_year == 1920
        assert result.fractional_year - 1900 == pytest.approx(
            model_years, abs=5e-3
        )
        assert result.naive_years == pytest.approx(naive_years, abs=5e-2)

    @pytest.mark.parametrize("growth_a, growth_b", [
        (0.06, 0.06), (0.02, 0.10), (0.10, 0.02),
    ])
    def test_own_nominal_never_crosses(self, big, growth_a, growth_b):
        # Under the wage numeraire own-price GDP is sum L_a/lam_a, the labor
        # force over 2/3, every year: the rule compares labor forces.
        small = constant_growth_panel(SMALL_SPEC, growth_a, growth_b)
        for panel, spec in ((small, SMALL_SPEC), (big, BIG_SPEC)):
            for i in range(panel.n_periods):
                assert nominal_gdp(panel, i) == pytest.approx(
                    1.5 * spec.total_labor, rel=1e-12
                )
        result = model_catchup(small, big, reference_rule="own-nominal")
        assert result.crossing_year is None
        assert result.fractional_year is None
