import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdppath import (
    EconomySpec,
    InfeasibleAllocationError,
    SectorParams,
    ValidationError,
    allocate_labor,
    output_per_labor,
    price_of_sector,
    solve_capital_per_labor,
    solve_equilibrium,
    utility,
)
from gdppath.equilibrium import equilibrium_output_per_labor

from conftest import bisect_root, golden_section_max

LAM = 2.0 / 3.0
GR = 0.11  # R_c + delta for the baseline economy


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
            output_per_labor(t, lam, k + h) - output_per_labor(t, lam, k - h)
        ) / (2.0 * h)
        assert slope == pytest.approx(gr, rel=1e-6)


class TestOutputPerLabor:
    def test_baseline(self):
        y = output_per_labor(1.0, LAM, 5.27508)
        assert y == pytest.approx(1.74078, rel=1e-5)
        # cube of y recovers k for lam = 2/3, T = 1
        assert y**3 == pytest.approx(5.27508, rel=1e-4)

    def test_identity_case(self):
        assert output_per_labor(1.0, LAM, 1.0) == pytest.approx(1.0)

    def test_homogeneity(self):
        y1 = output_per_labor(1.0, LAM, 5.27508)
        y = output_per_labor(18.93, LAM, 18.93 * 5.27508)
        assert y == pytest.approx(18.93 * y1, rel=1e-12)
        assert y == pytest.approx(32.953, rel=1e-4)

    def test_rejects_bad_elasticity(self):
        with pytest.raises(ValidationError):
            output_per_labor(1.0, 1.2, 1.0)

    @given(
        t=st.floats(0.01, 50.0),
        lam=st.floats(0.1, 0.9),
        k=st.floats(0.01, 50.0),
        labor=st.floats(1.0, 1e6),
        z=st.sampled_from([0.5, 2.0, 10.0]),
    )
    def test_constant_returns_to_scale(self, t, lam, k, labor, z):
        # Total output from (z*L, z*K) equals z times output from (L, K).
        base = labor * output_per_labor(t, lam, k)
        scaled = (z * labor) * output_per_labor(t, lam, (z * k * labor) / (z * labor))
        assert scaled == pytest.approx(z * base, rel=1e-12)


class TestPriceOfSector:
    def test_baseline(self):
        p = price_of_sector(1.0, 5.27508, 1.74078, GR)
        assert p == pytest.approx(0.90779, rel=1e-5)

    def test_zero_wage_capital_share(self):
        # With zero wage price*output covers capital cost only: (1-lam).
        p = price_of_sector(0.0, 5.27508, 1.74078, GR)
        assert p == pytest.approx(1.0 / 3.0, rel=1e-4)

    def test_cost_disease_decline(self):
        p = price_of_sector(1.0, 99.857, 32.953, GR)
        assert p == pytest.approx(0.36368, rel=1e-4)

    def test_zero_output_is_degenerate(self):
        from gdppath import DegenerateSectorError

        with pytest.raises(DegenerateSectorError):
            price_of_sector(1.0, 1.0, 0.0, GR)

    @given(
        wage=st.floats(0.1, 10.0),
        k=st.floats(0.0, 100.0),
        y=st.floats(0.1, 100.0),
        gr=st.floats(0.01, 1.0),
        scale=st.floats(0.1, 10.0),
    )
    def test_numeraire_degree_zero(self, wage, k, y, gr, scale):
        # Scaling the wage scales the price proportionally through the
        # budget identity once the capital charge scales with it too.
        p = price_of_sector(wage, k, y, gr)
        p_scaled = price_of_sector(scale * wage, scale * k, y, gr)
        assert p_scaled == pytest.approx(scale * p, rel=1e-12)


class TestAllocateLabor:
    def _oracle(self, spec, t_a):
        # Maximize utility over L_A with per-labor outputs at equilibrium.
        sec_a, sec_b = spec.sectors
        y_a = equilibrium_output_per_labor(
            t_a, sec_a.elasticity, spec.gross_return(sec_a)
        )
        y_b = equilibrium_output_per_labor(
            t_a, sec_b.elasticity, spec.gross_return(sec_b)
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


class TestSolveEquilibrium:
    def test_baseline_composition(self, spec):
        eq = solve_equilibrium(spec, (1.0, 1.0))
        assert eq.labor[0] == pytest.approx(96664, abs=1.0)
        assert eq.outputs[0] == pytest.approx(168270, abs=10.0)
        assert eq.outputs[1] == pytest.approx(5807, abs=2.0)
        # P = W / (lam*y) with y = T*((1-lam)/gr)^((1-lam)/lam) = 1.740777
        assert eq.prices[0] == pytest.approx(0.861684, rel=1e-6)
        assert eq.prices[0] == eq.prices[1]
        assert eq.wage == 1.0

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
                    - eq.wage
                    - eq.prices[i] * eq.capital_per_labor[i] * gr
                )
                assert abs(budget) <= 1e-10 * revenue
                # labor earns its Cobb-Douglas share of revenue
                assert abs(lam * revenue - eq.wage) <= 1e-12 * eq.wage
                assert all(v > 0 for v in (
                    eq.capital_per_labor[i], eq.output_per_labor[i],
                    eq.prices[i], eq.labor[i], eq.outputs[i],
                ))

    def test_wrong_productivity_count(self, spec):
        with pytest.raises(ValidationError):
            solve_equilibrium(spec, (1.0,))


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
