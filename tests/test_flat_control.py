"""The flat control: without subsistence every observer agrees.

A Divisia index is path-independent exactly when preferences are homothetic
(Hulten 1973; Samuelson and Swamy 1974).  The model's utility
``u = (Y_A/L_t - N0) * (Y_B/L_t)^omega`` is homothetic exactly when
``N0 = 0``: it is then Cobb-Douglas, for which the Tornqvist index is exact
(Diewert 1976).  So along any simulated path the chained Tornqvist level is
the money-metric growth ``(u_T/u_0)^(1/(1+omega))``, up to rounding.  These
tests check the whole simulate -> panel -> index chain against that closed
form, with no copy of old code.
"""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from gdppath import (
    EconomySpec,
    IndexMethod,
    IslandScenario,
    PricedPanel,
    ProductivitySchedule,
    SectorParams,
    build_schedule,
    circularity_residual,
    default_spec,
    generate_panel,
    growth_series,
    island_scenario,
    utility,
)

EPS = 2.0 ** -52


def tornqvist_bound(n_steps, n_sectors):
    """The relative error allowed between the chained Tornqvist level and
    the money-metric growth.

    Each step's factor is off ``prod r_a^s_a`` by its expenditure shares'
    roundings (the solver's prices and outputs, a product, a sum and a
    division: a few ulps of a share, times ``|log r_a| < 1``), the logs, the
    sum and the exp: under 4 ulps per sector and step, chaining included.
    The reference takes two utilities, whose power amplifies one rounding
    of ``Y_B/L_t`` (1 + omega)-fold, a ratio, and the power
    ``1/(1 + omega)`` that shrinks it back: under 8 ulps."""
    return (8 + 4 * n_steps * n_sectors) * EPS


def money_metric_growth(spec, panel):
    (y_a0, _), (y_b0, _) = panel.periods[0]
    (y_a1, _), (y_b1, _) = panel.periods[-1]
    ratio = utility(spec, y_a1, y_b1) / utility(spec, y_a0, y_b0)
    return ratio ** (1.0 / (1.0 + spec.omega))


def chained_level(panel, method):
    return growth_series(panel, method).chained_level[-1]


@st.composite
def homothetic_specs(draw):
    sectors = tuple(
        SectorParams(name, draw(st.floats(0.2, 0.9)),
                     draw(st.floats(0.0, 0.1)))
        for name in ("A", "B")
    )
    return EconomySpec(
        sectors=sectors,
        total_labor=draw(st.floats(1.0, 1e6)),
        rate_of_return=draw(st.floats(0.01, 0.1)),
        subsistence=0.0,
        omega=draw(st.floats(0.1, 8.0)),
    )


@st.composite
def increasing_schedules(draw):
    n_steps = draw(st.integers(1, 30))
    multipliers = st.floats(1.0001, 1.2)
    values = []
    for _ in range(2):
        series = [1.0]
        for _ in range(n_steps):
            series.append(series[-1] * draw(multipliers))
        values.append(tuple(series))
    return ProductivitySchedule(1900, *values)


class TestHomotheticControl:
    @given(homothetic_specs(), increasing_schedules())
    def test_tornqvist_is_the_money_metric(self, spec, schedule):
        panel = generate_panel(IslandScenario("drawn", spec, schedule))
        level = chained_level(panel, IndexMethod.TORNQVIST)
        money = money_metric_growth(spec, panel)
        bound = tornqvist_bound(panel.n_periods - 1, len(panel.sector_names))
        assert abs(level / money - 1.0) <= bound

    def test_islands_agree_without_subsistence(self):
        flat = dataclasses.replace(default_spec(), subsistence=0.0)
        for rule in ("north", "middle", "south"):
            panel = generate_panel(
                IslandScenario(rule, flat, build_schedule(rule)))
            money = money_metric_growth(flat, panel)
            tornqvist = chained_level(panel, IndexMethod.TORNQVIST)
            bound = tornqvist_bound(panel.n_periods - 1,
                                    len(panel.sector_names))
            assert abs(tornqvist / money - 1.0) <= bound
            # The islands share their first and last periods, and both
            # superlative indexes read the same growth on each.
            for method in (IndexMethod.FISHER, IndexMethod.TORNQVIST):
                assert round(chained_level(panel, method), 2) == 18.93
        # The two routes' Laspeyres and Paasche levels still differ.
        north = generate_panel(
            IslandScenario("north", flat, build_schedule("north")))
        assert round(chained_level(north, IndexMethod.LASPEYRES), 3) == 19.073
        assert round(chained_level(north, IndexMethod.PAASCHE), 3) == 18.788

    def test_loop_closes_only_without_subsistence(self):
        def loop(spec):
            north, south = (
                generate_panel(IslandScenario(rule, spec, build_schedule(rule)))
                for rule in ("north", "south"))
            periods = north.periods + south.periods[-2::-1]
            return PricedPanel(north.sector_names, periods,
                               tuple(range(len(periods))))

        flat = loop(dataclasses.replace(default_spec(), subsistence=0.0))
        bound = tornqvist_bound(flat.n_periods - 1, len(flat.sector_names))
        # The log of a level within ``bound`` of 1 is within about ``bound``
        # of 0.
        assert abs(circularity_residual(flat, IndexMethod.TORNQVIST)) <= bound
        # With the default subsistence no index closes the loop.
        curved = loop(island_scenario("north").spec)
        for method in IndexMethod:
            assert circularity_residual(curved, method) > 1.0
