import dataclasses
import math
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gdppath import (
    CalibrationError,
    DegenerateSectorError,
    EconomySpec,
    IndexMethod,
    InfeasibleAllocationError,
    IslandScenario,
    ProductivitySchedule,
    SectorParams,
    ValidationError,
    build_schedule,
    calibrate_constant_growth,
    default_spec,
    generate_panel,
    growth_series,
    island_scenario,
    scenarios,
    solve_equilibrium,
)
from gdppath.equilibrium import _OUTPUT_OVERFLOW
from gdppath.scenarios import (
    ISLAND_RULES,
    MAX_CALIBRATED_RATE,
    MAX_HORIZON_YEARS,
    T_END,
    _bisect,
    _check_horizon,
    _constant_growth_path,
    _normalize,
)

from conftest import bisect_root, outcome, two_sector_specs


def raw_product(multiplier_fn, n_steps=98):
    value = 1.0
    for i in range(1, n_steps + 1):
        value *= multiplier_fn(i)
    return value


class TestBuildSchedule:
    def test_middle_raw_endpoint(self):
        s = build_schedule("middle", normalize=False)
        assert s.values_a[-1] == pytest.approx(1.0305**98, rel=1e-12)
        assert s.values_a[-1] == pytest.approx(18.99, abs=0.01)

    def test_north_raw_endpoint_and_symmetry(self):
        s = build_schedule("north", normalize=False)
        expected = raw_product(lambda i: 1.0 + 0.06 * (100 - i) / 99.0)
        assert s.values_a[-1] == pytest.approx(expected, rel=1e-12)
        # the raw product happens to land almost exactly on 18.93
        assert s.values_a[-1] == pytest.approx(18.93, abs=0.01)
        # A and B products are term-for-term mirrors, equal overall
        assert s.values_b[-1] == pytest.approx(s.values_a[-1], rel=1e-12)

    def test_normalized_endpoints(self):
        for rule in ("north", "middle", "south"):
            s = build_schedule(rule, normalize=True)
            assert s.values_a[-1] == pytest.approx(18.93, rel=1e-9)
            assert s.values_b[-1] == pytest.approx(18.93, rel=1e-9)
            assert s.values_a[0] == 1.0
            assert s.values_b[0] == 1.0

    def test_north_south_mirror(self):
        north = build_schedule("north", normalize=False)
        south = build_schedule("south", normalize=False)
        assert north.values_a == south.values_b
        assert north.values_b == south.values_a

    def test_strictly_increasing(self):
        for rule in ("north", "middle", "south"):
            s = build_schedule(rule)
            for series in (s.values_a, s.values_b):
                assert all(b > a for a, b in zip(series, series[1:]))

    def test_unknown_rule(self):
        with pytest.raises(ValidationError):
            build_schedule("atlantis")

    def test_bad_range(self):
        with pytest.raises(ValidationError):
            build_schedule("middle", start=1998, end=1900)


class TestScheduleValidation:
    @pytest.mark.parametrize("end, values_a, message", [
        (1900, (1.0,), "at least 2 yearly values"),
        (1901, (1.0, 1.1, 1.2), "as many per sector"),
        (1901, (1.5, 1.6), "productivity must start at 1"),
        (1901, (1.0, 1.0), "positive and strictly increasing"),
        (1901, (math.nan, 1.6), "productivity must start at 1"),
        (1902, (1.0, math.nan, 2.0), "positive and strictly increasing"),
        (1902, (1.0, 2.0, math.inf), "positive and strictly increasing"),
    ])
    def test_rejects(self, end, values_a, message):
        # Sector B's values run from 1900 through ``end``.
        values_b = tuple(1.0 + 0.1 * i for i in range(end - 1900 + 1))
        with pytest.raises(ValidationError, match=message):
            ProductivitySchedule(1900, values_a, values_b)

    def test_years_follow_from_the_values(self):
        schedule = ProductivitySchedule(1950, (1.0, 1.5, 2.0), (1.0, 1.1, 1.2))
        assert schedule.years == (1950, 1951, 1952)


def oracle_raw_multipliers(rule, n_steps):
    """The island recursion before the rule table: dispatch on the rule
    name in every step."""
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


def oracle_build_schedule(rule, start, end, normalize):
    """``build_schedule`` before the rule table: the multipliers first,
    then their products."""
    if end <= start:
        raise ValidationError("end must exceed start")
    _check_horizon(end - start)
    mult_a, mult_b = oracle_raw_multipliers(rule, end - start)
    values_a, values_b = [1.0], [1.0]
    for ma, mb in zip(mult_a, mult_b):
        values_a.append(values_a[-1] * ma)
        values_b.append(values_b[-1] * mb)
    if normalize:
        values_a = _normalize(values_a, T_END)
        values_b = _normalize(values_b, T_END)
    return ProductivitySchedule(start, tuple(values_a), tuple(values_b))


class TestRuleTable:
    """The rule table builds the schedules the per-step dispatch built, bit
    for bit, and refuses the same inputs with the same errors."""

    @pytest.mark.parametrize("rule", ISLAND_RULES + ("atlantis", None))
    @pytest.mark.parametrize("normalize", [True, False])
    def test_matches_oracle(self, rule, normalize):
        for horizon in [*range(-2, 130), 500, 1000, 1001]:
            args = (rule, 1900, 1900 + horizon, normalize)
            expected = outcome(oracle_build_schedule, *args)
            if rule in ("north", "south") and 99 < horizon <= 1000:
                # The oracle's step falls to 1 in year 100 and the schedule
                # refuses it; the table refuses the horizon up front.
                assert expected == (ValidationError, "productivity must be "
                                    "finite, positive and strictly increasing")
                expected = (ValidationError, f"horizon of {horizon} years "
                            f"exceeds the maximum of 99 for rule {rule!r}")
            assert repr(outcome(build_schedule, *args)) == repr(expected)


class TestHorizonCap:
    def test_longest_horizon_builds(self):
        s = build_schedule("middle", start=1900, end=1900 + MAX_HORIZON_YEARS)
        assert len(s.values_a) == MAX_HORIZON_YEARS + 1

    @pytest.mark.parametrize("rule", ["north", "south"])
    def test_island_horizon_limit(self, rule):
        # The step 1 + 0.06 * (100 - i) / 99 reaches 1 at i = 100.
        assert build_schedule(rule, 1900, 1999).years[-1] == 1999
        with pytest.raises(ValidationError) as info:
            build_schedule(rule, 1900, 2000)
        assert str(info.value) == (
            f"horizon of 100 years exceeds the maximum of 99 for rule {rule!r}"
        )

    @pytest.mark.parametrize("call", [
        lambda: build_schedule("middle", start=1900, end=1900 + 1001),
        lambda: build_schedule("middle", start=1900, end=3_000_000),
        lambda: calibrate_constant_growth(years=MAX_HORIZON_YEARS + 1),
        lambda: calibrate_constant_growth(years=3_000_000),
    ], ids=["schedule-1001", "schedule-3000000", "calibration-1001",
            "calibration-3000000"])
    def test_rejected_before_allocation(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="exceeds the maximum"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestGeneratePanel:
    def test_99_periods(self):
        panel = generate_panel(island_scenario("middle"))
        assert panel.n_periods == 99
        assert panel.period_labels[0] == 1900
        assert panel.period_labels[-1] == 1998

    def test_first_row_equilibrium(self):
        panel = generate_panel(island_scenario("north"))
        (y_a, p_a), (y_b, p_b) = panel.periods[0]
        assert y_a == pytest.approx(168270, abs=10.0)
        # P = W / (lam*y) at T = 1, y = ((1-lam)/gr)^((1-lam)/lam)
        assert p_a == pytest.approx(0.861684, rel=1e-6)
        assert y_b == pytest.approx(5807, abs=2.0)
        assert p_b == pytest.approx(0.861684, rel=1e-6)

    def test_island_endpoints_agree(self):
        panels = [
            generate_panel(island_scenario(rule))
            for rule in ("north", "middle", "south")
        ]
        for other in panels[1:]:
            for idx in (0, -1):
                for (q0, p0), (q1, p1) in zip(
                    panels[0].periods[idx], other.periods[idx]
                ):
                    assert q1 == pytest.approx(q0, rel=1e-9)
                    assert p1 == pytest.approx(p0, rel=1e-9)

    def test_labor_strictly_decreasing(self):
        for rule in ("north", "middle", "south"):
            scenario = island_scenario(rule)
            labors = [
                solve_equilibrium(scenario.spec, (ta, tb)).labor[0]
                for ta, tb in zip(
                    scenario.schedule.values_a, scenario.schedule.values_b
                )
            ]
            assert all(b < a for a, b in zip(labors, labors[1:]))

    def test_infeasible_year_reported(self):
        spec = EconomySpec(
            sectors=(SectorParams("A", 2 / 3, 0.055),
                     SectorParams("B", 2 / 3, 0.055)),
            total_labor=100_000.0,
            rate_of_return=0.055,
            subsistence=2.0,  # unreachable at T_A = 1
            omega=5.0,
        )
        scenario = IslandScenario("middle", spec, build_schedule("middle"))
        with pytest.raises(InfeasibleAllocationError, match="1900"):
            generate_panel(scenario)

    def test_degenerate_year_reported(self):
        # T_A = 1e308 overflows the capital stock in the second year.
        schedule = ProductivitySchedule(1900, (1.0, 1e308), (1.0, 2.0))
        scenario = IslandScenario("hand-built", default_spec(), schedule)
        with pytest.raises(DegenerateSectorError, match=r"^year 1901: "):
            generate_panel(scenario)

    def test_overflowing_output_year_reported(self):
        # T_A = 1e305 leaves capital per labor and the prices finite, but
        # sector A's output overflows in the second year.
        schedule = ProductivitySchedule(1900, (1.0, 1e305), (1.0, 2.0))
        scenario = IslandScenario("hand-built", default_spec(), schedule)
        with pytest.raises(DegenerateSectorError) as info:
            generate_panel(scenario)
        assert str(info.value) == "year 1901: a sector's output L*y overflows"

    @pytest.mark.parametrize("rule", ISLAND_RULES)
    def test_one_kernel_call_per_panel(self, monkeypatch, rule):
        # Year 0 goes through the kernel once; no later year calls it.
        calls = []
        solve_year = scenarios._solve_year
        monkeypatch.setattr(scenarios, "_solve_year",
                            lambda *a: calls.append(a) or solve_year(*a))
        generate_panel(island_scenario(rule))
        assert len(calls) == 1


class TestCalibration:
    def test_single_year(self):
        schedule, rate = calibrate_constant_growth(
            target_t_end=1.0305, years=1
        )
        panel = generate_panel(
            IslandScenario("constant", default_spec(), schedule)
        )
        series = growth_series(panel, IndexMethod.LASPEYRES)
        assert len(series.rates) == 1
        assert series.rates[0] == pytest.approx(rate, abs=1e-9)

    def test_short_horizon_fixed_point(self):
        schedule, rate = calibrate_constant_growth(
            target_t_end=1.0305**10, years=10
        )
        assert schedule.values_a[-1] == pytest.approx(1.0305**10, abs=1e-6)
        panel = generate_panel(
            IslandScenario("constant", default_spec(), schedule)
        )
        series = growth_series(panel, IndexMethod.LASPEYRES)
        assert max(series.rates) - min(series.rates) < 1e-4
        for measured in series.rates:
            assert measured == pytest.approx(rate, abs=1e-4)

    def test_uniform_target_degenerates_to_middle(self):
        # With the endpoint of a uniform 3.05% schedule, the calibrated
        # sector-A multipliers come out uniform at that same 3.05%.
        schedule, rate = calibrate_constant_growth(
            target_t_end=1.0305**12, years=12
        )
        mults = [
            b / a for a, b in zip(schedule.values_a, schedule.values_a[1:])
        ]
        for m in mults:
            assert m == pytest.approx(1.0305, abs=1e-6)
        assert rate == pytest.approx(0.0305, abs=1e-6)

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            calibrate_constant_growth(years=0)
        with pytest.raises(ValidationError):
            calibrate_constant_growth(target_t_end=0.5)
        with pytest.raises(ValidationError,
                           match="^target productivity endpoint must exceed "
                                 "1$"):
            calibrate_constant_growth(target_t_end=math.nan)


CLAMP = 1.0 + 1e-12

# A non-default economy without a subsistence floor, so the quadratic's
# constant term is zero.
NO_FLOOR_SPEC = EconomySpec(
    sectors=(SectorParams("A", 0.6, 0.04), SectorParams("B", 0.75, 0.07)),
    total_labor=50_000.0,
    rate_of_return=0.05,
    subsistence=0.0,
    omega=3.0,
)


def bisection_multipliers(rate, mult_b, years, spec, tol=1e-15):
    """The per-year solve before the closed form: bisect each year's
    Laspeyres growth gap in the sector-A multiplier over [clamp, 3]."""
    t_a, t_b = 1.0, 1.0
    eq = solve_equilibrium(spec, (t_a, t_b))
    multipliers = []
    for _ in range(years):
        t_b_next = t_b * mult_b
        prices = eq.prices
        base = sum(p * q for p, q in zip(prices, eq.outputs))

        def growth_gap(m):
            nxt = solve_equilibrium(spec, (t_a * m, t_b_next))
            value = sum(p * q for p, q in zip(prices, nxt.outputs))
            return value / base - 1.0 - rate

        if growth_gap(CLAMP) >= 0.0:
            m = CLAMP
        else:
            m = bisect_root(growth_gap, CLAMP, 3.0, tol=tol)
        multipliers.append(m)
        t_a *= m
        t_b = t_b_next
        eq = solve_equilibrium(spec, (t_a, t_b))
    return multipliers


def checked_growth_path(rate, mult_b, years, spec):
    """The closed-form path as it stood when each year went through the
    checked ``solve_equilibrium``: the base value from the point's prices
    and outputs, and u = c_A*T_A from the spec's constants."""
    t_a, t_b = 1.0, 1.0
    (lam_a, _, c_a), (lam_b, _, c_b) = spec._sector_constants
    scale = spec.total_labor / spec._labor_denominator
    w_b = scale * spec.omega * lam_b
    n0 = spec.subsistence
    values_a, values_b = [t_a], [t_b]
    for _ in range(years):
        eq = solve_equilibrium(spec, (t_a, t_b))
        t_b *= mult_b
        p_a, p_b = eq.prices
        base_value = p_a * eq.outputs[0] + p_b * eq.outputs[1]
        u = c_a * t_a
        y_b = c_b * t_b
        a = p_a * scale * lam_a * u
        b = w_b * (p_a * n0 + p_b * y_b) - (1.0 + rate) * base_value
        c = -p_b * w_b * y_b * n0 / u
        disc = b * b - 4.0 * a * c
        if not disc < math.inf:
            a, b, c = a / scale, b / scale, c / scale
            disc = b * b - 4.0 * a * c
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        m_star = q / a if q > 0.0 else (c / q if q else 0.0)
        m_star = max(m_star, 1.0 + 1e-12)
        t_a *= m_star
        if not t_a < math.inf:
            raise CalibrationError(
                f"sector A productivity overflows at rate {rate!r}"
            )
        values_a.append(t_a)
        values_b.append(t_b)
    return values_a, values_b


def nested_bisection_rate(target, years):
    """The whole calibration before the closed form: an outer bisection on
    the rate over the per-year bisection oracle, at the old tolerances."""
    mult_b = target ** (1.0 / years)
    return bisect_root(
        lambda r: math.prod(
            bisection_multipliers(r, mult_b, years, default_spec(), tol=1e-13)
        ) - target,
        1e-4, 0.15, tol=1e-12,
    )


def assert_constant_laspeyres(schedule, rate, target, spec=None):
    assert schedule.values_a[-1] == pytest.approx(target, rel=1e-9)
    assert schedule.values_b[-1] == pytest.approx(target, rel=1e-9)
    panel = generate_panel(
        IslandScenario("constant", spec or default_spec(), schedule)
    )
    for measured in growth_series(panel, IndexMethod.LASPEYRES).rates:
        assert measured == pytest.approx(rate, abs=1e-12)


class TestClosedFormMultipliers:
    @pytest.mark.parametrize(
        "spec,rate,mult_b,years",
        [
            (default_spec(), 0.001, 18.93 ** (1 / 98), 98),  # every year clamped
            (default_spec(), 0.0305, 18.93 ** (1 / 98), 98),
            (default_spec(), 0.12, 18.93 ** (1 / 98), 98),
            (NO_FLOOR_SPEC, 0.05, 1.08, 20),  # every year clamped
            (NO_FLOOR_SPEC, 0.07, 1.08, 20),
        ],
    )
    def test_matches_bisection_oracle(self, spec, rate, mult_b, years):
        values_a, _ = _constant_growth_path(mult_b, years, spec)(rate)
        got = [b / a for a, b in zip(values_a, values_a[1:])]
        want = bisection_multipliers(rate, mult_b, years, spec)
        assert len(got) == years
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize(
        "target,years", [(1.0305**10, 10), (2.0, 10), (1.05**8, 8)]
    )
    def test_same_rate_as_nested_bisection(self, target, years):
        _, rate = calibrate_constant_growth(target, years)
        assert rate == nested_bisection_rate(target, years)

    @given(spec=two_sector_specs(), rate=st.floats(0.0, 1.0),
           mult_b=st.floats(1.0, 1.3, exclude_min=True),
           years=st.integers(1, 40))
    @example(spec=dataclasses.replace(default_spec(), subsistence=5.0),
             rate=0.03, mult_b=1.03, years=10)  # infeasible subsistence
    @example(spec=dataclasses.replace(default_spec(), total_labor=1e307),
             rate=0.15, mult_b=1.03, years=40)  # a sector's output overflows
    # T_A overflows to inf; with kappa < 1, T*kappa stays finite until then.
    @example(spec=dataclasses.replace(default_spec(), total_labor=1.0,
                                      rate_of_return=0.3, subsistence=0.5),
             rate=1.0, mult_b=1.03, years=1000)
    # Sector B's faults, which the drawn specs never reach: c_B = 0, then
    # c_B = 4.6e-311, whose price overflows, then the latter with sector A
    # degenerate too, whose error comes first; last with sector A
    # degenerate only at T_A = 1 (c_A = 2.1e-321 > 0, but lam_A*c_A
    # rounds to 0), so that year 0's kernel names sector A.
    @example(spec=dataclasses.replace(default_spec(), sectors=(
        default_spec().sectors[0], SectorParams("B", 0.5, 1e300))),
        rate=0.03, mult_b=1.03, years=10)
    @example(spec=dataclasses.replace(default_spec(), sectors=(
        default_spec().sectors[0], SectorParams("B", 0.01, 1350.0))),
        rate=0.03, mult_b=1.03, years=10)
    @example(spec=dataclasses.replace(default_spec(), sectors=(
        SectorParams("A", 0.5, 1e300), SectorParams("B", 0.01, 1350.0))),
        rate=0.03, mult_b=1.03, years=10)
    @example(spec=dataclasses.replace(default_spec(), sectors=(
        SectorParams("A", 0.001, 2.037), SectorParams("B", 0.01, 1350.0))),
        rate=0.03, mult_b=1.03, years=10)
    @settings(max_examples=300)
    def test_kernel_path_matches_checked_path(self, spec, rate, mult_b,
                                              years):
        # Within these bounds T*kappa stays finite, so the checks that
        # solve_equilibrium adds never fire, and each year of the path, which
        # restates the kernel, gives the same bits and the same errors.  The
        # path returns an overshoot's reason where the checked loop raises.
        got = outcome(lambda: _constant_growth_path(mult_b, years, spec)(rate))
        if isinstance(got, str):
            got = (DegenerateSectorError if got == _OUTPUT_OVERFLOW
                   else CalibrationError), got
        want = outcome(checked_growth_path, rate, mult_b, years, spec)
        assert repr(got) == repr(want)

    def test_cli_default_rate(self):
        # The rate the nested bisection gave before the closed form.
        assert calibrate_constant_growth()[1] == 0.03046239871955931

    @pytest.mark.parametrize("args", [(), (8.0, 10)])
    def test_one_kernel_call_per_calibration(self, monkeypatch, args):
        # Year 0 goes through the kernel once; no path calls it.
        calls = []
        solve_year = scenarios._solve_year
        monkeypatch.setattr(scenarios, "_solve_year",
                            lambda *a: calls.append(a) or solve_year(*a))
        calibrate_constant_growth(*args)
        assert len(calls) == 1


class TestCalibrationBracket:
    @pytest.mark.parametrize("target,years", [(8.0, 10), (18.93, 10)])
    def test_rate_above_initial_bracket(self, target, years):
        schedule, rate = calibrate_constant_growth(target, years)
        assert rate > 0.15
        assert_constant_laspeyres(schedule, rate, target)

    @pytest.mark.parametrize("target", [1.001, 1.0001])
    def test_target_near_one(self, target):
        # Even the rate 1e-4 overshoots these, so the bracket starts at 0.
        schedule, rate = calibrate_constant_growth(target, 98)
        assert 0.0 < rate < 1e-4
        assert_constant_laspeyres(schedule, rate, target)

    def test_target_below_the_clamp_gives_up(self):
        # At rate 0 every sector-A multiplier is clamped to 1 + 1e-12, whose
        # 98th power already overshoots 1 + 1e-11.
        with pytest.raises(CalibrationError, match=(
            r"^bracket \[0\.0, 0\.15\] does not enclose a root"
        )):
            calibrate_constant_growth(1.0 + 1e-11, 98)

    def test_unreachable_target_gives_up(self):
        with pytest.raises(CalibrationError, match="no constant rate up to"):
            calibrate_constant_growth(1e300, 1)

    @pytest.mark.parametrize("target, years", [(1e308, 3), (1.7e308, 1)])
    def test_endpoint_capital_overflow_refused(self, target, years):
        # Refused before any path is solved, naming the target: the solve
        # used to fail on "k must be finite, got inf" (1e308) or on a NaN
        # productivity the caller never passed (1.7e308).
        with pytest.raises(ValidationError) as info:
            calibrate_constant_growth(target, years)
        assert str(info.value) == (
            f"target productivity endpoint {target!r}: sector A's capital "
            "per labor T*kappa = inf is not finite"
        )

    @pytest.mark.parametrize("target", [1e303, 1e306, 3e306, 1e307])
    def test_overflowing_quadratic_refused(self, target):
        # With T_B = target in the one year, the quadratic's coefficients
        # overflow and its root, sector A's multiplier, is NaN.
        with pytest.raises(CalibrationError) as info:
            calibrate_constant_growth(target, 1)
        assert str(info.value) == (
            "sector A productivity overflows at rate 0.15")

    @pytest.mark.parametrize("target", [1e305, 1e307])
    def test_last_year_left_unsolved(self, target):
        # The last year's outputs overflow, but no multiplier needs that
        # year's equilibrium, so the bracket search ends as it would if
        # they did not.
        with pytest.raises(CalibrationError,
                           match=r"^no constant rate up to 9\.6 reaches"):
            calibrate_constant_growth(target, 2)

    def test_sector_a_overflow(self):
        # A tiny sector-A value share needs huge multipliers at the upper
        # end of the bracket, and sector A's productivity overflows; that
        # path overshoots, and the default rate is found.
        spec = EconomySpec(
            sectors=default_spec().sectors,
            total_labor=100_000.0,
            rate_of_return=0.055,
            subsistence=1.0,
            omega=1e5,
        )
        schedule, rate = calibrate_constant_growth(18.93, 98, spec)
        assert rate == 0.03046239871955931
        assert_constant_laspeyres(schedule, rate, 18.93, spec)

    @pytest.mark.parametrize("target", [1e250, 1e300])
    def test_small_labor_force_productivity_overflow(self, target):
        # With one worker no output overflows, so at a too-high candidate
        # rate sector A's productivity overflows partway through the path.
        # That path overshoots, so the rate is the default labor force's,
        # bit for bit.
        spec = dataclasses.replace(default_spec(), total_labor=1.0)
        schedule, rate = calibrate_constant_growth(target, 1000, spec)
        assert rate == {1e250: 0.778279410039167,
                        1e300: 0.9952623149688248}[target]
        assert_constant_laspeyres(schedule, rate, target, spec)

    @pytest.mark.parametrize("labor", [1e150, 1e155, 1e160, 1e200, 1e250])
    def test_large_labor_force_calibrates(self, labor):
        # The quadratic's coefficients all scale with the labor force and
        # its root does not, so the rate keeps every bit; from about 1e155
        # the discriminant overflows unless that factor is divided out.
        spec = dataclasses.replace(default_spec(), total_labor=labor)
        _, rate = calibrate_constant_growth(18.93, 98, spec)
        assert rate == 0.03046239871955931

    @pytest.mark.parametrize("labor", [1e290, 1e300, 1e303, 1e305])
    def test_huge_labor_force_output_overflows(self, labor):
        # The path at the bracket's upper end, rate 0.15, overflows a
        # sector's output L*y; it counts as an overshoot, and the default
        # rate's schedule, which simulates at these labor forces, is found.
        spec = dataclasses.replace(default_spec(), total_labor=labor)
        _, rate = calibrate_constant_growth(18.93, 98, spec)
        assert rate == 0.03046239871955931

    def test_year_zero_output_overflows(self):
        # Year 0, which every path shares, overflows a sector's output: the
        # kernel raises before any path is solved, as generate_panel does.
        spec = dataclasses.replace(default_spec(), total_labor=1.5e308)
        with pytest.raises(DegenerateSectorError,
                           match=r"^a sector's output L\*y overflows$"):
            calibrate_constant_growth(18.93, 98, spec)

    def test_degenerate_sector_is_no_overshoot(self):
        # Only an overflowing output counts as an overshoot: a sector whose
        # output per labor underflows to zero fails every path as before.
        base = default_spec()
        spec = dataclasses.replace(
            base, sectors=(SectorParams("A", 0.01, 0.1), base.sectors[1]),
            rate_of_return=1e4)
        with pytest.raises(DegenerateSectorError, match="^cannot price a "
                           "sector with zero output per labor$"):
            calibrate_constant_growth(18.93, 98, spec)

    def test_calibrated_path_output_overflows(self):
        # Every path that reaches the target overflows a sector's output;
        # the bisection closes in on the rate from which paths overflow,
        # and the error names it.
        spec = dataclasses.replace(default_spec(), total_labor=1e307)
        with pytest.raises(CalibrationError,
                           match=r"^calibrated rate 0\.0\d+: a sector's "
                                 r"output L\*y overflows$"):
            calibrate_constant_growth(18.93, 98, spec)


def plain_calibration(target, years, spec=None):
    """The calibration before the replay, after its input checks: the plain
    ``_bisect`` on the endpoint gap, which solves the path of every midpoint.
    Returns the outcome, the rate and schedule values or the error's type
    and message, and the number of paths solved."""
    solved = {}

    def calibrate():
        path = _constant_growth_path(target ** (1.0 / years), years,
                                     spec or default_spec())

        def gap(rate):
            if rate not in solved:
                solved[rate] = path(rate)
            values = solved[rate]  # an overshoot's reason, or the values
            return (math.inf if isinstance(values, str)
                    else values[0][-1] - target)

        hi = 0.15
        while gap(hi) < 0.0:
            hi *= 2.0
            if hi > MAX_CALIBRATED_RATE:
                raise CalibrationError(
                    f"no constant rate up to {hi / 2.0} reaches the "
                    f"endpoint {target}")
        rate = _bisect(gap, 0.0 if gap(1e-4) > 0.0 else 1e-4, hi)
        gap(rate)
        if isinstance(solved[rate], str):
            raise CalibrationError(f"calibrated rate {rate!r}: "
                                   f"{solved[rate]}")
        values_a, values_b = solved[rate]
        if not abs(values_a[-1] - target) <= 1e-9 * target:
            raise CalibrationError(
                f"calibrated rate {rate!r} ends sector A at "
                f"{values_a[-1]!r}, missing the target {target!r} by more "
                "than 1e-9 relative")
        return rate, tuple(values_a), tuple(values_b)

    return outcome(calibrate), len(solved)


def replayed_calibration(target, years, spec=None):
    """``calibrate_constant_growth``'s outcome, as ``plain_calibration``
    gives it, the number of paths it solved and their rates, in order."""
    paths = []

    def counted_path(*args):
        path = _constant_growth_path(*args)

        def counted(rate):
            paths.append(rate)
            return path(rate)
        return counted

    def calibrate():
        schedule, rate = calibrate_constant_growth(target, years, spec)
        return rate, schedule.values_a, schedule.values_b

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "_constant_growth_path", counted_path)
        return outcome(calibrate), len(paths), paths


def plain_rates(target, years, spec=None):
    """The rates whose paths ``plain_calibration`` solves."""
    rates, path_function = set(), _constant_growth_path

    def counted_path(*args):
        path = path_function(*args)

        def counted(rate):
            rates.add(rate)
            return path(rate)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(globals(), "_constant_growth_path", counted_path)
        plain_calibration(target, years, spec)
    return rates


@st.composite
def horizons_and_targets(draw):
    """A target (1 + g)**years for a horizon of 1 to 60 years and a yearly
    growth g from 0.1% to 30%."""
    years = draw(st.integers(1, 60))
    return (1.0 + draw(st.floats(0.001, 0.3))) ** years, years


@st.composite
def identical_sector_specs(draw):
    """Valid economies whose two sectors share one elasticity and one
    depreciation; the rest is drawn as ``two_sector_specs()`` draws it."""
    rate = draw(st.floats(0.0, 0.2))
    sector = draw(st.floats(0.05, 0.95)), draw(st.floats(0.001, 0.2))
    return EconomySpec(
        sectors=(SectorParams("A", *sector), SectorParams("B", *sector)),
        total_labor=draw(st.floats(1.0, 1e6)),
        rate_of_return=rate,
        subsistence=draw(st.floats(0.0, 5.0)),
        omega=draw(st.floats(0.0, 10.0)),
    )


def with_elasticities(lam_a, lam_b):
    return dataclasses.replace(default_spec(), sectors=(
        SectorParams("A", lam_a, 0.055), SectorParams("B", lam_b, 0.055)))


def guess(target, years):
    """The calibration's first window is this rate -+ 1e-13."""
    return target ** (1.0 / years) - 1.0


ONE_WORKER = dataclasses.replace(default_spec(), total_labor=1.0)
# Sectors that differ, so that the guess misses: at the CLI default's target
# the root lies below it with the smaller lam_A, above it with the smaller
# lam_B.
LAMBDA_A_HALF = with_elasticities(0.5, 2.0 / 3.0)
LAMBDA_B_HALF = with_elasticities(2.0 / 3.0, 0.5)
# The rates the bracket set-up can solve: 1e-4 and each doubling of 0.15.
BRACKET_PROBES = {1e-4, *(0.15 * 2.0**k for k in range(7))}


class TestReplayedBisection:
    @given(spec=two_sector_specs(), case=horizons_and_targets())
    # Sector A's productivity overflows at the too-high rates.
    @example(spec=ONE_WORKER, case=(1e250, 1000))
    @example(spec=ONE_WORKER, case=(1e300, 1000))
    @example(spec=default_spec(), case=(T_END, 98))
    # Every path that reaches the target overflows a sector's output.
    @example(spec=dataclasses.replace(default_spec(), total_labor=1e307),
             case=(T_END, 98))
    # The rate 0 hits the target: _bisect returns the bracket's end.
    @example(spec=default_spec(), case=(1.0 + 1e-12, 1))
    # The bracket encloses no root.
    @example(spec=default_spec(), case=(1.0 + 1e-11, 98))
    # The endpoint misses the target (TestNoSilentResults).
    @example(spec=dataclasses.replace(NO_FLOOR_SPEC, omega=1e4),
             case=(2.0, 10))
    # Without a service sector and with a huge labor force, the endpoint
    # jumps from below the target to an overflow.
    @example(spec=dataclasses.replace(default_spec(),
                                      total_labor=7.115727215717695e+209,
                                      omega=0.0),
             case=(1.9473881220933037e+104, 762))
    @example(spec=dataclasses.replace(default_spec(),
                                      total_labor=1.7183847689982454e+200,
                                      omega=0.0),
             case=(1.252335344181258e+164, 486))
    def test_same_outcome_as_plain_bisection(self, spec, case):
        got, paths, _ = replayed_calibration(*case, spec)
        want, plain = plain_calibration(*case, spec)
        assert repr(got) == repr(want)
        assert paths <= plain + 2

    @given(spec=identical_sector_specs(), case=horizons_and_targets())
    def test_identical_sectors_same_outcome_as_plain_bisection(self, spec,
                                                               case):
        # two_sector_specs() almost never draws these, whose guess is exact.
        got, paths, _ = replayed_calibration(*case, spec)
        want, plain = plain_calibration(*case, spec)
        assert repr(got) == repr(want)
        assert paths <= plain + 2

    def test_window_end_on_a_root_is_refused(self):
        # A target whose plain bisection exits on an exact zero at a
        # midpoint m (found by a search over targets near 2.0, 10 years):
        # the endpoint of m's path is the target itself.  The guess's lower
        # end lies above m, so the guess window is refused and the plain
        # bisection runs: the replay solves m's path, reads its gap 0.0 and
        # returns m.
        target = 2.000000993571397
        want, _ = plain_calibration(target, 10, LAMBDA_A_HALF)
        m = want[0]
        path = _constant_growth_path(target ** 0.1, 10, LAMBDA_A_HALF)
        assert path(m)[0][-1] == target and m < guess(target, 10) - 1e-13
        assert replayed_calibration(target, 10, LAMBDA_A_HALF)[0] == want

    def test_cli_default_path_count(self):
        assert plain_calibration(T_END, 98)[1] == 41
        assert replayed_calibration(T_END, 98)[1] <= 4

    @given(years=st.integers(8, 12), growth=st.floats(0.03, 0.08))
    def test_workload_path_count(self, years, growth):
        # The benchmark's calibrations: the default economy, 8-12 years,
        # 3-8% a year.
        assert replayed_calibration((1.0 + growth) ** years, years)[1] <= 4

    @pytest.mark.parametrize(
        "target,years", [(8.0, 10), (18.93, 10), (1.001, 98), (1.0001, 98)]
    )
    def test_bracket_path_count(self, target, years):
        assert (replayed_calibration(target, years)[1]
                <= plain_calibration(target, years)[1] + 2)


class TestGuessWindow:
    # The guess's window comes first: certified by strict signs at both
    # ends, it is the window; else the plain bisection runs.  Each case
    # checks which rates had their paths solved.
    @pytest.mark.parametrize("target,years", [(T_END, 98), (8.0, 10)])
    def test_certified_guess_needs_no_estimate(self, target, years):
        g = guess(target, years)
        got, _, rates = replayed_calibration(target, years)
        assert repr(got) == repr(plain_calibration(target, years)[0])
        assert all(abs(r - g) <= 1e-12 for r in rates
                   if r not in BRACKET_PROBES)

    @given(years=st.integers(8, 12), growth=st.floats(0.03, 0.08))
    @example(years=98, growth=T_END ** (1.0 / 98) - 1.0)  # the CLI default
    def test_certified_guess_skips_the_probes(self, years, growth):
        # A guess inside the first bracket [1e-4, 0.15] is tried first; once
        # certified, its ends sign the bracket probes, and no probe's path
        # is solved.  The workload's draws and the CLI default.
        target = (1.0 + growth) ** years
        g = guess(target, years)
        assert 1e-4 < g - 1e-13 and g + 1e-13 < 0.15
        got, _, rates = replayed_calibration(target, years)
        assert repr(got) == repr(plain_calibration(target, years)[0])
        assert rates[:2] == [g - 1e-13, g + 1e-13]
        assert not set(rates) & BRACKET_PROBES

    def test_guess_above_the_first_bracket_solves_the_probes(self):
        # The guess, about 23% a year, lies above the first bracket's end
        # 0.15: the probes come first and double the end to 0.3, and then
        # the guess's window is tried in the final bracket [1e-4, 0.3].
        g = guess(8.0, 10)
        assert 0.15 < g - 1e-13 and g + 1e-13 < 0.3
        got, _, rates = replayed_calibration(8.0, 10)
        assert repr(got) == repr(plain_calibration(8.0, 10)[0])
        assert rates[:5] == [0.15, 0.3, 1e-4, g - 1e-13, g + 1e-13]

    @pytest.mark.parametrize("spec", [LAMBDA_A_HALF, LAMBDA_B_HALF],
                             ids=["LAMBDA_A_HALF", "LAMBDA_B_HALF"])
    def test_guess_misses_the_root(self, spec):
        # The guess window lies wholly above the root or wholly below it, so
        # the gap's signs at its ends are not both strict: the plain
        # bisection runs, after the probes of one or both guess ends.
        g = guess(T_END, 98)
        got, paths, rates = replayed_calibration(T_END, 98, spec)
        want, plain = plain_calibration(T_END, 98, spec)
        assert repr(got) == repr(want)
        assert set(rates) <= (plain_rates(T_END, 98, spec) | BRACKET_PROBES
                              | {g - 1e-13, g + 1e-13})
        assert paths <= plain + 2

    def test_guess_outside_the_bracket(self):
        # The guess 0.16 lies above the bracket's end 0.15, the root below:
        # no guess end is solved, and the plain bisection runs.
        assert guess(1.16, 1) > 0.15
        got, paths, _ = replayed_calibration(1.16, 1, LAMBDA_A_HALF)
        want, plain = plain_calibration(1.16, 1, LAMBDA_A_HALF)
        assert repr(got) == repr(want) and paths == plain

    def test_window_end_on_a_root_is_refused(self):
        # Sectors a hair apart put the root on the guess window's lower end
        # (lam_B and the target found by a search): that end is also a
        # midpoint of the plain bisection, which exits there on an exact
        # zero.  So the window is refused, the plain bisection runs, and the
        # replay returns the same midpoint.
        spec = with_elasticities(2.0 / 3.0, 0.666666666669162)
        target = 1.4802443357365291
        want, _ = plain_calibration(target, 10, spec)
        path = _constant_growth_path(target ** 0.1, 10, spec)
        assert want[0] == guess(target, 10) - 1e-13
        assert path(want[0])[0][-1] == target
        assert replayed_calibration(target, 10, spec)[0] == want


class TestNoCurvatureOnTheDiagonal:
    # The "no curvature on the diagonal" case.  With one elasticity and one
    # depreciation, c_A = c_B, and with T_A = T_B both sectors have one
    # output per labor and one price: the relative price never moves.  In
    # the Divisia 1-form theta = f(x) dx + g(x) dz (x = ln T_A, z = ln T_B),
    # k = omega makes S = 1 + omega and f + g = 1, so on the diagonal
    # theta = dx: the chained index is the productivity growth, with no
    # index-number drift (Hulten 1973, Econometrica 41(6)).  So the
    # calibration's root is the guess target**(1/years) - 1.
    @given(spec=identical_sector_specs(), case=horizons_and_targets())
    @example(spec=default_spec(), case=(T_END, 98))
    def test_rate_is_the_closed_form(self, spec, case):
        got = outcome(calibrate_constant_growth, *case, spec)
        assume(isinstance(got[0], ProductivitySchedule))
        schedule, rate = got
        # _bisect returns a midpoint within its tolerance 1e-12 of the
        # endpoint's sign change, and that sign change and the guess each
        # round within a few ulps (about 1e-16) of the exact root.  So 2e-12
        # leaves 1e-12 for the rounding.
        assert abs(rate - guess(*case)) <= 2e-12
        # Per step, Laspeyres minus Paasche is about s_A*s_B times the change
        # of ln(p_A/p_B) times that of ln(Y_A/Y_B).  Here s_A is also the
        # growth's elasticity to m_A, so the first is ln(m_B/m_A), about
        # (guess - rate)/s_A; and s_B times the second is below ln(1.3), the
        # largest yearly rise of ln y, since Y_A/Y_B moves only with N0/y.
        # So the gap is below 0.27*2e-12, plus a few ulps of rounding.
        panel = generate_panel(IslandScenario("constant", spec, schedule))
        laspeyres = growth_series(panel, IndexMethod.LASPEYRES).rates
        paasche = growth_series(panel, IndexMethod.PAASCHE).rates
        assert len(laspeyres) == len(paasche) == case[1]
        for step_l, step_p in zip(laspeyres, paasche):
            assert abs(step_l - step_p) <= 1e-12


class TestDefaultSpec:
    FRESH = EconomySpec(
        sectors=(SectorParams("A", 2.0 / 3.0, 0.055),
                 SectorParams("B", 2.0 / 3.0, 0.055)),
        total_labor=100_000.0, rate_of_return=0.055, subsistence=1.6711,
        omega=5.0,
    )

    def test_built_once(self):
        assert default_spec() is default_spec()

    def test_equals_a_fresh_build(self):
        spec = default_spec()
        assert spec == self.FRESH and hash(spec) == hash(self.FRESH)
        assert repr(spec) == repr(self.FRESH)
        assert spec._sector_constants == self.FRESH._sector_constants

    def test_replace_leaves_it_unchanged(self):
        other = dataclasses.replace(default_spec(), omega=1.0)
        assert other is not default_spec() and other.omega == 1.0
        assert default_spec().omega == 5.0
        assert repr(default_spec()) == repr(self.FRESH)


class TestNoSilentResults:
    @pytest.mark.parametrize("root", [0.0, 1.0])
    def test_bisect_returns_a_root_at_an_end(self, root):
        assert _bisect(lambda x: x - root, 0.0, 1.0) == root

    def test_bisect_raises_when_out_of_steps(self):
        # 200 halvings of 1e60 leave a bracket wider than 1e-12.
        with pytest.raises(CalibrationError) as info:
            _bisect(lambda x: x - 0.3, 0.0, 1e60)
        assert str(info.value) == (
            "bisection did not converge in 200 steps: root in "
            "[0.0, 0.6223015277861141], wider than 1e-12")

    def test_endpoint_miss_raises(self):
        # With no subsistence floor and omega = 1e4, sector A holds about
        # 1e-4 of the value, so the 1e-12 rate tolerance moves sector A's
        # endpoint by more than 1e-9 relative.
        spec = EconomySpec(
            sectors=default_spec().sectors,
            total_labor=100_000.0,
            rate_of_return=0.055,
            subsistence=0.0,
            omega=1e4,
        )
        with pytest.raises(CalibrationError, match="missing the target"):
            calibrate_constant_growth(2.0, 10, spec)


class TestIslandAverages:
    def test_ordering_north_middle_south(self):
        averages = {}
        for rule in ("north", "middle", "south"):
            panel = generate_panel(island_scenario(rule))
            series = growth_series(panel, IndexMethod.LASPEYRES)
            averages[rule] = series.running_average[-1]
        assert averages["north"] > averages["middle"] > averages["south"]
        assert averages["middle"] == pytest.approx(0.030, abs=0.003)
