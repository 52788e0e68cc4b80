import copy
import dataclasses
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdppath import (
    DegenerateSectorError,
    EconomySpec,
    EquilibriumPoint,
    InfeasibleAllocationError,
    IslandScenario,
    ModelError,
    ProductivitySchedule,
    SectorParams,
    ValidationError,
    allocate_labor,
    default_spec,
    generate_panel,
    island_scenario,
    solve_capital_per_labor,
    solve_equilibrium,
    utility,
)
from gdppath.equilibrium import WAGE_NUMERAIRE, _solve_year
from gdppath.indexes import PricedPanel
from gdppath.scenarios import ISLAND_RULES

from conftest import (
    bisect_root,
    golden_section_max,
    outcome,
    two_sector_specs,
)

LAM = 2.0 / 3.0
GR = 0.11  # R_c + delta for the baseline economy


def cobb_douglas(t, lam, k):
    """Per-labor output y = T^lam * k^(1-lam)."""
    return t**lam * k ** (1.0 - lam)


class TestCapitalPerLabor:
    def test_matches_bisection_oracle_baseline(self):
        k = solve_capital_per_labor(1.0, LAM, GR)
        k_oracle = bisect_root(
            lambda x: (1.0 - LAM) * x ** (-LAM) - GR, 1e-12, 1e12
        )
        assert k == pytest.approx(k_oracle, rel=1e-10)
        assert k == pytest.approx(5.27508, rel=1e-5)

    def test_zero_productivity(self):
        assert solve_capital_per_labor(0.0, LAM, GR) == 0.0

    def test_overflow_is_validation_error(self):
        # ((1-lam)/gr)^(1/lam) = 9.08^1000 is beyond the float range.
        with pytest.raises(ValidationError, match="overflows"):
            solve_capital_per_labor(1.0, 0.001, GR)

    def test_subnormal_elasticity_overflow_refused(self):
        # 1/lam is already inf, so the power is inf with no OverflowError.
        with pytest.raises(ValidationError, match=(
                r"^capital per labor \(\(1-lam\)/gr\)\^\(1/lam\) overflows "
                r"at lam = 5e-324, gr = 0.11$")):
            solve_capital_per_labor(1.0, 5e-324, GR)

    def test_overflowing_capital_refused(self):
        # T * ((1-lam)/gr)^(1/lam) = 1e308 * 2500 is beyond the float range.
        with pytest.raises(ValidationError) as info:
            solve_capital_per_labor(1e308, 0.5, 0.01)
        assert str(info.value) == "k must be finite, got inf"

    def test_linear_in_productivity(self):
        k1 = solve_capital_per_labor(1.0, LAM, GR)
        k = solve_capital_per_labor(18.93, LAM, GR)
        assert k == pytest.approx(18.93 * k1, rel=1e-12)
        assert k == pytest.approx(99.857, rel=1e-4)

    @pytest.mark.parametrize(
        "t,lam,gr",
        [(float("nan"), LAM, GR), (1.0, 1.5, GR), (1.0, LAM, -0.1),
         (-1.0, LAM, GR), (1.0, 0.0, GR)],
    )
    def test_rejects_bad_inputs(self, t, lam, gr):
        with pytest.raises(ValidationError):
            solve_capital_per_labor(t, lam, gr)

    @given(
        t=st.floats(0.01, 100.0),
        lam=st.floats(0.05, 0.95),
        gr=st.floats(0.01, 1.0),
    )
    def test_foc_residual(self, t, lam, gr):
        k = solve_capital_per_labor(t, lam, gr)
        assert abs((1.0 - lam) * t**lam * k ** (-lam) - gr) <= 1e-10

    @given(
        t=st.floats(0.01, 100.0),
        lam=st.floats(0.1, 0.9),
        gr=st.floats(0.02, 0.5),
    )
    def test_marginal_product_finite_difference(self, t, lam, gr):
        k = solve_capital_per_labor(t, lam, gr)
        h = k * 1e-6
        slope = (
            cobb_douglas(t, lam, k + h) - cobb_douglas(t, lam, k - h)
        ) / (2.0 * h)
        assert slope == pytest.approx(gr, rel=1e-6)


class TestAllocateLabor:
    def _oracle(self, spec, t_a):
        # Maximize utility over L_A with per-labor outputs at equilibrium.
        y_a, y_b = (
            cobb_douglas(t_a, s.elasticity, solve_capital_per_labor(
                t_a, s.elasticity, spec.gross_return(s)))
            for s in spec.sectors
        )

        def u_of(labor_a):
            return utility(
                spec, labor_a * y_a, (spec.total_labor - labor_a) * y_b
            )

        lo = spec.subsistence * spec.total_labor / y_a
        return golden_section_max(u_of, lo, spec.total_labor, tol=1e-7)

    def test_paper_baseline(self, spec):
        labor_a, labor_b = allocate_labor(spec, 1.0)
        assert labor_a == pytest.approx(96664, abs=1.0)
        assert labor_a + labor_b == spec.total_labor
        assert labor_a == pytest.approx(
            self._oracle(spec, 1.0), abs=1e-4 * spec.total_labor
        )

    def test_zero_subsistence_closed_form(self, spec):
        zero_n0 = EconomySpec(
            sectors=spec.sectors,
            total_labor=spec.total_labor,
            rate_of_return=spec.rate_of_return,
            subsistence=0.0,
            omega=spec.omega,
        )
        labor_a, _ = allocate_labor(zero_n0, 1.0)
        lam = 2.0 / 3.0
        assert labor_a == pytest.approx(
            spec.total_labor * lam / (lam + 5.0 * lam), rel=1e-12
        )
        assert labor_a == pytest.approx(16666.7, rel=1e-4)

    def test_high_productivity(self, spec):
        labor_a, _ = allocate_labor(spec, 18.93)
        assert labor_a == pytest.approx(20893, abs=1.0)
        assert labor_a == pytest.approx(
            self._oracle(spec, 18.93), abs=1e-4 * spec.total_labor
        )

    @pytest.mark.parametrize("t_a", [1.0, 2.0, 5.0, 10.0, 18.93])
    def test_oracle_agreement_grid(self, spec, t_a):
        labor_a, _ = allocate_labor(spec, t_a)
        assert labor_a == pytest.approx(
            self._oracle(spec, t_a), abs=1e-4 * spec.total_labor
        )

    def test_infeasible_low_productivity(self, spec):
        with pytest.raises(InfeasibleAllocationError):
            allocate_labor(spec, 0.5)

    def test_adding_up_is_exact(self, spec):
        for t_a in (1.0, 3.3, 7.7, 18.93):
            labor_a, labor_b = allocate_labor(spec, t_a)
            assert labor_a + labor_b == spec.total_labor

    def test_zero_productivity_produces_nothing(self, spec):
        with pytest.raises(InfeasibleAllocationError, match="produces nothing"):
            allocate_labor(spec, 0.0)


class TestSolveEquilibrium:
    def test_baseline_composition(self, spec):
        eq = solve_equilibrium(spec, (1.0, 1.0))
        assert eq.labor[0] == pytest.approx(96664, abs=1.0)
        assert eq.outputs[0] == pytest.approx(168270, abs=10.0)
        assert eq.outputs[1] == pytest.approx(5807, abs=2.0)
        # P = W / (lam*y) with y = T*((1-lam)/gr)^((1-lam)/lam) = 1.740777
        assert eq.prices[0] == pytest.approx(0.861684, rel=1e-6)
        assert eq.prices[0] == eq.prices[1]

    def test_endpoint_composition(self, spec):
        eq = solve_equilibrium(spec, (18.93, 18.93))
        # P = W / (lam*y) with y = 18.93 * 1.740777 = 32.95290
        assert eq.prices[0] == pytest.approx(0.0455195, rel=1e-6)
        assert eq.labor[0] == pytest.approx(20893, abs=1.0)

    def test_symmetric_sectors_share_price(self, spec):
        for t in (1.0, 2.5, 18.93):
            eq = solve_equilibrium(spec, (t, t))
            assert eq.prices[0] == eq.prices[1]

    def test_invariants_hold(self, spec):
        for ts in ((3.0, 1.5), (1.0, 1.0), (18.93, 3.0), (100.0, 250.0)):
            eq = solve_equilibrium(spec, ts)
            assert sum(eq.labor) == spec.total_labor
            for i, sector in enumerate(spec.sectors):
                gr = spec.gross_return(sector)
                lam = sector.elasticity
                t = ts[i]
                foc = (
                    (1.0 - lam) * t**lam * eq.capital_per_labor[i] ** (-lam)
                    - gr
                )
                assert abs(foc) <= 1e-10
                # zero profit with physical capital charged at the own price
                revenue = eq.prices[i] * eq.output_per_labor[i]
                budget = (
                    revenue
                    - WAGE_NUMERAIRE
                    - eq.prices[i] * eq.capital_per_labor[i] * gr
                )
                assert abs(budget) <= 1e-10 * revenue
                # labor earns its Cobb-Douglas share of revenue
                assert (abs(lam * revenue - WAGE_NUMERAIRE)
                        <= 1e-12 * WAGE_NUMERAIRE)
                assert all(v > 0 for v in (
                    eq.capital_per_labor[i], eq.output_per_labor[i],
                    eq.prices[i], eq.labor[i], eq.outputs[i],
                ))

    def test_own_price_gdp_is_labor_over_elasticity(self, spec):
        # P*Y = W/(lam*y) * L*y = L/lam per sector, whatever the
        # productivities: own-price GDP is L_t/lam = 150000 every year.
        for ts in ((1.0, 1.0), (3.0, 1.5), (18.93, 3.0), (100.0, 250.0)):
            eq = solve_equilibrium(spec, ts)
            gdp = sum(p * q for p, q in zip(eq.prices, eq.outputs))
            assert gdp == pytest.approx(
                sum(la / s.elasticity for la, s in zip(eq.labor, spec.sectors)),
                rel=1e-12,
            )
            assert gdp == pytest.approx(150_000.0, rel=1e-12)

    def test_wrong_productivity_count(self, spec):
        with pytest.raises(ValidationError):
            solve_equilibrium(spec, (1.0,))

    def test_overflowing_output_is_degenerate_not_nan(self, spec):
        # y = 1e308 * 1.74 is just finite, so the price is too, but sector
        # A's output L*y is not; the kernel refuses it.
        with pytest.raises(DegenerateSectorError, match="overflows"):
            _solve_year(spec, 1e308, 1.0)
        schedule = ProductivitySchedule(1900, (1.0, 1e308), (1.0, 2.0))
        with pytest.raises(DegenerateSectorError, match="overflows"):
            generate_panel(IslandScenario("hand-built", spec, schedule))

    def test_overflowing_output_refused(self, spec):
        # At T_A = 1e305 capital per labor and the price are finite, but
        # sector A's output L_A * y_A is not.
        with pytest.raises(DegenerateSectorError) as info:
            solve_equilibrium(spec, (1e305, 1.0))
        assert str(info.value) == "a sector's output L*y overflows"


# The kernel written out in closed form from the spec's public fields: per
# sector the checked capital per labor k = T*kappa, then y = c*T with
# c = kappa^(1-lam) and P = W/(lam*y), then the labor split and the outputs
# L*y.  Each constant is computed in the order EconomySpec computes it, so
# the results agree bit for bit.  The reference calls nothing in gdppath
# and keeps the public functions' checks, messages and order.
def reference_constants(spec, sector):
    """gr = R_c + delta, kappa = ((1-lam)/gr)^(1/lam) and c = kappa^(1-lam),
    the output per labor at T = 1."""
    lam = sector.elasticity
    gr = spec.rate_of_return + sector.depreciation
    kappa = ((1.0 - lam) / gr) ** (1.0 / lam)
    return gr, kappa, kappa ** (1.0 - lam)


def reference_capital_per_labor(t, lam, gr):
    """solve_capital_per_labor's closed form and checks (lam and gr are valid
    for every spec)."""
    if not math.isfinite(t):
        raise ValidationError(f"productivity must be finite, got {t!r}")
    if t < 0.0:
        raise ValidationError("productivity must be >= 0")
    k = t * ((1.0 - lam) / gr) ** (1.0 / lam) if t != 0.0 else 0.0
    if not math.isfinite(k):
        raise ValidationError(f"k must be finite, got {k!r}")
    return k


def reference_labor_split(spec, y_a):
    """The labor pair at sector A's output per labor y_A > 0."""
    lam_a, lam_b = (s.elasticity for s in spec.sectors)
    total = spec.total_labor
    share = (lam_a + spec.omega * lam_b * (spec.subsistence / y_a)) / (
        lam_a + spec.omega * lam_b
    )
    labor_a = total * share
    if not labor_a <= total:
        raise InfeasibleAllocationError(
            f"subsistence infeasible: formula requires L_A = {labor_a:.1f} "
            f"> L_t = {total:.1f}"
        )
    return labor_a, total - labor_a


def reference_allocate_labor(spec, t_a):
    """allocate_labor: T_A's checks, then the labor split at y_A = c_A*T_A."""
    sec_a = spec.sectors[0]
    gr_a, _, c_a = reference_constants(spec, sec_a)
    reference_capital_per_labor(t_a, sec_a.elasticity, gr_a)
    y_a = c_a * t_a
    if y_a <= 0.0:
        raise InfeasibleAllocationError(
            "sector A produces nothing; subsistence cannot be met"
        )
    return reference_labor_split(spec, y_a)


def reference_solve_year(spec, t_a, t_b):
    """One year's outputs per labor, prices, labor pair and outputs."""
    ys, prices = [], []
    for sector, t in zip(spec.sectors, (t_a, t_b)):
        y = reference_constants(spec, sector)[2] * t
        net_output = sector.elasticity * y
        if net_output <= 0.0:
            raise DegenerateSectorError(
                "cannot price a sector with zero output per labor"
            )
        ys.append(y)
        prices.append(WAGE_NUMERAIRE / net_output)
    if math.inf in prices:
        raise DegenerateSectorError(
            "cannot price a sector: its price W/(lam*y) overflows"
        )
    labors = reference_labor_split(spec, ys[0])
    outputs = tuple(la * y for la, y in zip(labors, ys))
    if not all(out < math.inf for out in outputs):
        raise DegenerateSectorError("a sector's output L*y overflows")
    return tuple(ys), tuple(prices), labors, outputs


def reference_solve_equilibrium(spec, productivities):
    if len(productivities) != len(spec.sectors):
        raise ValidationError(
            f"expected {len(spec.sectors)} productivities, "
            f"got {len(productivities)}"
        )
    capital = tuple(
        reference_capital_per_labor(t, sector.elasticity,
                                    reference_constants(spec, sector)[0])
        for sector, t in zip(spec.sectors, productivities)
    )
    ys, prices, labors, outputs = reference_solve_year(spec, *productivities)
    return EquilibriumPoint(
        sector_names=tuple(s.name for s in spec.sectors),
        capital_per_labor=capital,
        output_per_labor=ys,
        prices=prices,
        labor=labors,
        outputs=outputs,
    )


def reference_generate_panel(scenario):
    """Each year's solve, named by its year where it fails, then the panel
    built with every check of ``PricedPanel``."""
    spec, schedule = scenario.spec, scenario.schedule
    periods = []
    for year, t_a, t_b in zip(
        schedule.years, schedule.values_a, schedule.values_b
    ):
        try:
            _, prices, _, outputs = reference_solve_year(spec, t_a, t_b)
        except ModelError as exc:
            raise type(exc)(f"year {year}: {exc}") from exc
        periods.append(tuple(zip(outputs, prices)))
    return PricedPanel(
        sector_names=tuple(s.name for s in spec.sectors),
        periods=tuple(periods),
        period_labels=schedule.years,
    )


# Zero makes a sector degenerate, subnormal and small values make the
# subsistence floor infeasible; the bound keeps capital per labor finite.
productivities = st.one_of(
    st.floats(0.0, 1e6), st.sampled_from([0.0, 5e-324, 1e-300, 1e-3])
)


class TestKernelMatchesHelperChain:
    """solve_equilibrium gives the reference's point bit for bit and raises
    its errors on the same inputs."""

    @given(spec=two_sector_specs(), t_a=productivities, t_b=productivities)
    @example(spec=EconomySpec(sectors=(SectorParams("A", LAM, 0.055),
                                       SectorParams("B", LAM, 0.055)),
                              total_labor=100_000.0, rate_of_return=0.055,
                              subsistence=1.6711, omega=5.0),
             t_a=0.5, t_b=1.0)  # infeasible subsistence
    @example(spec=EconomySpec(sectors=(SectorParams("A", LAM, 0.055),
                                       SectorParams("B", LAM, 0.055)),
                              total_labor=100_000.0, rate_of_return=0.055,
                              subsistence=1.6711, omega=5.0),
             t_a=1.0, t_b=0.0)  # degenerate sector B
    @settings(max_examples=300)
    def test_same_point_or_error(self, spec, t_a, t_b):
        # repr tells floats apart bit for bit, -0.0 from 0.0 included.
        for ts in ((t_a, t_b), [t_a, t_b]):
            assert repr(outcome(solve_equilibrium, spec, ts)) == repr(
                outcome(reference_solve_equilibrium, spec, ts)
            )

    @given(spec=two_sector_specs(), t_a=st.one_of(
        st.floats(),
        st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e308, math.inf, math.nan]),
    ))
    @settings(max_examples=300)
    def test_allocate_labor_matches_reference(self, spec, t_a):
        assert repr(outcome(allocate_labor, spec, t_a)) == repr(
            outcome(reference_allocate_labor, spec, t_a)
        )

    @pytest.mark.parametrize("ts, error", [
        ((0.5, 1.0), InfeasibleAllocationError),
        ((0.0, 1.0), DegenerateSectorError),
        ((1.0, 0.0), DegenerateSectorError),
        ((float("nan"), 1.0), ValidationError),
        ((1.0, float("inf")), ValidationError),
        ((-1.0, 1.0), ValidationError),
        ((1.0, 1e308), ValidationError),  # capital per labor overflows
        ((1.0,), ValidationError),
        ((1.0, 1.0, 1.0), ValidationError),
        ((1.0, 1e-309), DegenerateSectorError),  # P_B = W/(lam*y) overflows
    ])
    def test_errors_match(self, spec, ts, error):
        got = outcome(solve_equilibrium, spec, ts)
        assert got == outcome(reference_solve_equilibrium, spec, ts)
        assert got[0] is error

    def test_nan_labor_share_is_infeasible(self, spec):
        # With omega = 0 the labor share is lam_A + 0 * (N0/y_A), and N0/y_A
        # overflows at a tiny T_A: 0 * inf is NaN.
        spec = dataclasses.replace(spec, subsistence=5.0, omega=0.0)
        ts = (1e-308, 1.0)
        got = outcome(solve_equilibrium, spec, ts)
        assert got == outcome(reference_solve_equilibrium, spec, ts)
        assert got[0] is InfeasibleAllocationError
        with pytest.raises(InfeasibleAllocationError):
            allocate_labor(spec, ts[0])


# From 0 and the least subnormal up to near the float maximum, where
# capital per labor, output per labor or output overflows.
extreme_productivities = st.one_of(
    st.floats(0.0, 1.7e308),
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, 1e303, 1e305, 1e306,
                     1e307, 1e308, 1.7e308]),
)


class TestKernelInvariant:
    """Every year the kernel solves is a valid panel entry per sector, the
    rule ``PricedPanel`` checks; ``generate_panel`` builds its panel on
    this without a second check."""

    @given(spec=two_sector_specs(), t_a=extreme_productivities,
           t_b=extreme_productivities)
    @example(spec=default_spec(), t_a=1e305, t_b=1.0)  # output overflows
    @example(spec=default_spec(), t_a=1.0, t_b=1e305)
    @settings(max_examples=500)
    def test_results_are_valid_panel_entries(self, spec, t_a, t_b):
        try:
            _, prices, _, outputs = _solve_year(spec, t_a, t_b)
        except ModelError:
            return
        for y, p in zip(outputs, prices):
            assert 0.0 <= y < math.inf and 0.0 < p < math.inf


def physical_chain(t, lam, gr):
    """k, y and net output per labor the way the model is derived: capital
    k = T*kappa, output y = T^lam * k^(1-lam), and y - k*gr, which is left
    once the capital charge at the own price is paid."""
    k = t * ((1.0 - lam) / gr) ** (1.0 / lam)
    y = cobb_douglas(t, lam, k)
    return k, y, y - k * gr


class TestClosedFormMatchesPhysicalChain:
    """The kernel's y = c*T and P = W/(lam*y) agree with the physical chain
    they are derived from, P = W/(y - k*gr), wherever the chain's values are
    normal floats with room to spare.

    The bound is a few roundings per chain plus what the chain's powers
    carry: lam + (1-lam) need not be exactly 1 in floats, so T^lam * k^(1-lam)
    is off by up to |ln T| roundings, and a kappa rounded at its exponent
    1/lam by up to |ln kappa|.  y - k*gr then cancels all but lam of y, which
    divides P's bound by lam.  Measured over 30000 drawn points: at most a
    quarter of either bound."""

    @given(spec=two_sector_specs(), t_a=extreme_productivities,
           t_b=extreme_productivities)
    @settings(max_examples=500)
    def test_agree_where_the_chain_is_finite(self, spec, t_a, t_b):
        # y and P depend on neither L_t nor N0.  At L_t = 1 and N0 = 0 no
        # labor split is infeasible and no output exceeds its y.
        spec = dataclasses.replace(spec, total_labor=1.0, subsistence=0.0)
        chains = []
        for sector, t in zip(spec.sectors, (t_a, t_b)):
            lam, gr = sector.elasticity, spec.gross_return(sector)
            try:
                k, y, net = physical_chain(t, lam, gr)
            except OverflowError:
                return
            # A normal net at most half the float maximum keeps W/net so too.
            if not all(sys.float_info.min <= v <= sys.float_info.max / 2.0
                       for v in (k, y, net)):
                return
            kappa = k / t
            bound = 2.0**-52 * (8.0 + abs(math.log(t)) + abs(math.log(kappa)))
            chains.append((y, WAGE_NUMERAIRE / net, bound, bound / lam))
        ys, prices, _, _ = _solve_year(spec, t_a, t_b)
        for (y_chain, p_chain, y_bound, p_bound), y, p in zip(
                chains, ys, prices):
            assert abs(y_chain - y) <= y_bound * y
            assert abs(p_chain - p) <= p_bound * p


@st.composite
def near_overflow_scenarios(draw):
    """Short schedules of strictly increasing productivities from 1 up to
    near the float maximum, on the baseline or a drawn economy."""
    spec = draw(st.one_of(st.just(default_spec()), two_sector_specs()))
    n = draw(st.integers(1, 4))
    value = st.one_of(
        st.floats(1.0, 1.7e308, exclude_min=True),
        st.sampled_from([2.0, 1e300, 1e303, 1e304, 3e304, 1e305, 3e305,
                         1e306, 1e307, 5e307, 1e308, 1.7e308]),
    )

    def path():
        return (1.0, *sorted(draw(st.lists(value, min_size=n, max_size=n,
                                           unique=True))))

    schedule = ProductivitySchedule(draw(st.integers(1, 3000)), path(),
                                    path())
    return IslandScenario("hand-built", spec, schedule)


class TestPanelNeedsNoSecondCheck:
    """generate_panel, building its panel unchecked, gives the reference's
    panel, built with every check, bit for bit, or its error: a year whose
    output overflows is refused by the kernel itself."""

    @given(near_overflow_scenarios())
    @example(IslandScenario("hand-built", default_spec(), ProductivitySchedule(
        1900, (1.0, 1e305), (1.0, 2.0))))
    @example(IslandScenario("hand-built", default_spec(), ProductivitySchedule(
        1900, (1.0, 1e305, 1e308), (1.0, 2.0, 3.0))))
    @settings(max_examples=300)
    def test_same_panel_or_error(self, scenario):
        # repr tells floats apart bit for bit, -0.0 from 0.0 included.
        assert repr(outcome(generate_panel, scenario)) == repr(
            outcome(reference_generate_panel, scenario))


class TestUtility:
    def test_subsistence_boundary(self, spec):
        assert utility(spec, spec.subsistence * spec.total_labor, 123.0) == 0.0

    def test_unit_service_factor(self, spec):
        u = utility(
            spec, 2.0 * spec.subsistence * spec.total_labor, spec.total_labor
        )
        assert u == pytest.approx(spec.subsistence, rel=1e-12)

    def test_zero_service(self, spec):
        assert utility(spec, 2.0 * spec.subsistence * spec.total_labor, 0.0) == 0.0

    def test_negative_below_subsistence(self, spec):
        assert utility(spec, 0.0, spec.total_labor) < 0.0

    @pytest.mark.parametrize("outputs", [(-1.0, 1.0), (1.0, -1.0)])
    def test_rejects_negative_output(self, spec, outputs):
        with pytest.raises(ValidationError, match="outputs must be >= 0"):
            utility(spec, *outputs)

    @pytest.mark.parametrize("total_labor, outputs", [
        (100_000.0, (1e6, 1e300)),  # (Y_B/L_t)^omega = 1e1475 overflows
        (0.5, (1.0, 1.7e308)),  # Y_B/L_t overflows, and 0 * inf is NaN
    ])
    def test_refuses_utility_beyond_float_range(self, spec, total_labor,
                                                outputs):
        spec = dataclasses.replace(spec, total_labor=total_labor)
        with pytest.raises(ValidationError, match="utility must be finite"):
            utility(spec, *outputs)


def expenditure(spec, prices, u):
    """E(p, u) = p_A*N0 + [u*(1+w)^(1+w)*p_A*p_B^w / w^w]^(1/(1+w)), the
    least spending per person that reaches utility u > 0 at prices p under
    u = (x_A - N0) * x_B^w; None where a term leaves the normal float
    range."""
    (p_a, p_b), w = prices, spec.omega
    try:
        inner = u * (1.0 + w) ** (1.0 + w) * p_a * p_b**w / w**w
    except OverflowError:
        return None
    if not sys.float_info.min <= inner < math.inf:
        return None
    return p_a * spec.subsistence + inner ** (1.0 / (1.0 + w))


class TestConsumerOptimum:
    """Every solved year is the consumer's optimum at its prices: where
    u > 0, the economy spends the least that reaches u, L_t*E(p, u) = p.q.
    The largest relative gap measured is 7.3e-16 over 20000 drawn years."""

    def assert_optimal(self, spec, prices, outputs):
        try:
            u = utility(spec, *outputs)
        except ValidationError:  # u beyond the float range
            return
        if not u >= sys.float_info.min:
            return
        least = expenditure(spec, prices, u)
        if least is None:
            return
        spending = prices[0] * outputs[0] + prices[1] * outputs[1]
        assert abs(spec.total_labor * least - spending) <= 4e-15 * spending

    @given(spec=two_sector_specs(), t_a=productivities, t_b=productivities)
    @settings(max_examples=300)
    def test_solved_years(self, spec, t_a, t_b):
        try:
            eq = solve_equilibrium(spec, (t_a, t_b))
        except ModelError:
            return
        self.assert_optimal(spec, eq.prices, eq.outputs)

    @pytest.mark.parametrize("rule", ISLAND_RULES)
    def test_islands(self, rule):
        scenario = island_scenario(rule)
        panel = generate_panel(scenario)
        for i in range(panel.n_periods):
            self.assert_optimal(scenario.spec, panel.prices(i),
                                panel.quantities(i))


class TestSpecValidation:
    def test_bad_elasticity(self):
        with pytest.raises(ValidationError):
            SectorParams("A", 1.5, 0.055)

    def test_negative_depreciation(self):
        with pytest.raises(ValidationError):
            SectorParams("A", 0.5, -0.01)

    def test_single_sector_economy_rejected(self):
        with pytest.raises(ValidationError):
            EconomySpec(
                sectors=(SectorParams("A", 0.5, 0.05),),
                total_labor=100.0,
                rate_of_return=0.05,
                subsistence=0.0,
                omega=1.0,
            )

    def test_three_sector_economy_rejected(self):
        with pytest.raises(ValidationError, match="exactly two sectors"):
            EconomySpec(
                sectors=(SectorParams("A", 0.5, 0.05),
                         SectorParams("B", 0.5, 0.05),
                         SectorParams("C", 0.5, 0.05)),
                total_labor=100.0,
                rate_of_return=0.05,
                subsistence=0.0,
                omega=1.0,
            )

    def test_compiled_constants_leave_equality_and_repr(self, spec):
        same = EconomySpec(
            sectors=spec.sectors,
            total_labor=spec.total_labor,
            rate_of_return=spec.rate_of_return,
            subsistence=spec.subsistence,
            omega=spec.omega,
        )
        assert same == spec and hash(same) == hash(spec)
        assert repr(spec) == (
            f"EconomySpec(sectors={spec.sectors!r}, total_labor=100000.0, "
            "rate_of_return=0.055, subsistence=1.6711, omega=5.0)"
        )
        assert spec._sector_names == ("A", "B")
        # Each compiled field, even one that differs, is left out of
        # equality, hash and repr.
        for name in ("_sector_names", "_sector_constants", "_omega_lam_b",
                     "_labor_denominator"):
            other = copy.copy(spec)
            object.__setattr__(other, name, None)
            assert other == spec and hash(other) == hash(spec)
            assert repr(other) == repr(spec)

    @pytest.mark.parametrize("field, value, message", [
        ("total_labor", 0.0, "total_labor must be > 0"),
        ("total_labor", -1.0, "total_labor must be > 0"),
        ("subsistence", -0.1, "subsistence must be >= 0"),
        ("omega", -1.0, "omega must be >= 0"),
        ("rate_of_return", -0.1, r"sector A: gross return R_c \+ delta must "),
    ])
    def test_rejects_out_of_range_parameter(self, spec, field, value, message):
        with pytest.raises(ValidationError, match=message):
            dataclasses.replace(spec, **{field: value})

    @pytest.mark.parametrize("lam, rate, delta, gr", [
        (5e-324, 0.055, 0.055, "0.11"),  # 1/lam is inf
        (LAM, 5e-324, 0.0, "5e-324"),  # (1-lam)/gr is inf
    ], ids=["subnormal-lam", "subnormal-gross-return"])
    def test_infinite_capital_factor_refused(self, lam, rate, delta, gr):
        # The power is inf with no OverflowError: kappa = c = inf would
        # only fail later, as an output that overflows.
        with pytest.raises(ValidationError) as info:
            EconomySpec(
                sectors=(SectorParams("A", lam, delta),
                         SectorParams("B", LAM, delta)),
                total_labor=100.0,
                rate_of_return=rate,
                subsistence=0.0,
                omega=1.0,
            )
        assert str(info.value) == (
            "sector A: capital per labor ((1-lam)/gr)^(1/lam) overflows at "
            f"lam = {lam!r}, gr = {gr}")

    @pytest.mark.parametrize("bad", [0, 1])
    def test_overflowing_capital_names_sector(self, bad):
        sectors = [SectorParams("A", LAM, 0.055), SectorParams("B", LAM, 0.055)]
        sectors[bad] = SectorParams(sectors[bad].name, 0.001, 0.055)
        with pytest.raises(ValidationError,
                           match=f"sector {sectors[bad].name}: .*overflows"):
            EconomySpec(
                sectors=tuple(sectors),
                total_labor=100.0,
                rate_of_return=0.055,
                subsistence=0.0,
                omega=1.0,
            )
