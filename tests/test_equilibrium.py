import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdppath import (
    DegenerateSectorError,
    EconomySpec,
    EquilibriumPoint,
    InfeasibleAllocationError,
    ModelError,
    SectorParams,
    ValidationError,
    allocate_labor,
    output_per_labor,
    solve_capital_per_labor,
    solve_equilibrium,
    utility,
)
from gdppath.equilibrium import WAGE_NUMERAIRE, equilibrium_output_per_labor

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

    def test_wrong_productivity_count(self, spec):
        with pytest.raises(ValidationError):
            solve_equilibrium(spec, (1.0,))


# solve_equilibrium as it was before the spec-compiled kernel: each year went
# through the validated public helpers, which recomputed the capital factor
# per sector and sector A's output per labor a second time for the labor
# split.  Copied as it was, apart from the wage field EquilibriumPoint no
# longer has and the check that no price overflows.
def helper_chain_solve_equilibrium(spec, productivities):
    if len(productivities) != len(spec.sectors):
        raise ValidationError(
            f"expected {len(spec.sectors)} productivities, "
            f"got {len(productivities)}"
        )
    wage = WAGE_NUMERAIRE
    ks, ys, prices = [], [], []
    for sector, t in zip(spec.sectors, productivities):
        gr = spec.gross_return(sector)
        k = solve_capital_per_labor(t, sector.elasticity, gr)
        y = output_per_labor(t, sector.elasticity, k)
        net_output = y - k * gr
        if net_output <= 0.0:
            raise DegenerateSectorError(
                "cannot price a sector with zero output per labor"
            )
        ks.append(k)
        ys.append(y)
        prices.append(wage / net_output)
    if math.inf in prices:
        raise DegenerateSectorError(
            "cannot price a sector: its price W/(lam*y) overflows"
        )
    if len(spec.sectors) != 2:
        raise ValidationError(
            "labor allocation implements the two-sector economy only"
        )
    labor_a, labor_b = allocate_labor(spec, productivities[0])
    labors = [labor_a, labor_b]
    outputs = [la * y for la, y in zip(labors, ys)]
    return EquilibriumPoint(
        sector_names=tuple(s.name for s in spec.sectors),
        capital_per_labor=tuple(ks),
        output_per_labor=tuple(ys),
        prices=tuple(prices),
        labor=tuple(labors),
        outputs=tuple(outputs),
    )


def solve_outcome(solve, spec, productivities):
    """The solved point, or the class and message of the error raised."""
    try:
        return solve(spec, productivities)
    except ModelError as exc:
        return type(exc), str(exc)


@st.composite
def two_sector_specs(draw):
    rate = draw(st.floats(0.0, 0.2))
    sectors = tuple(
        SectorParams(name, draw(st.floats(0.05, 0.95)),
                     draw(st.floats(0.001, 0.2)))
        for name in ("A", "B")
    )
    return EconomySpec(
        sectors=sectors,
        total_labor=draw(st.floats(1.0, 1e6)),
        rate_of_return=rate,
        subsistence=draw(st.floats(0.0, 5.0)),
        omega=draw(st.floats(0.0, 10.0)),
    )


# Zero makes a sector degenerate, subnormal and small values make the
# subsistence floor infeasible; the bound keeps capital per labor finite.
productivities = st.one_of(
    st.floats(0.0, 1e6), st.sampled_from([0.0, 5e-324, 1e-300, 1e-3])
)


class TestKernelMatchesHelperChain:
    """solve_equilibrium gives the helper chain's point bit for bit and
    raises its errors on the same inputs."""

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
            assert repr(solve_outcome(solve_equilibrium, spec, ts)) == repr(
                solve_outcome(helper_chain_solve_equilibrium, spec, ts)
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
        got = solve_outcome(solve_equilibrium, spec, ts)
        assert got == solve_outcome(helper_chain_solve_equilibrium, spec, ts)
        assert got[0] is error

    def test_nan_labor_share_is_infeasible(self, spec):
        # With omega = 0 the labor share is lam_A + 0 * (N0/y_A), and N0/y_A
        # overflows at a tiny T_A: 0 * inf is NaN.
        spec = dataclasses.replace(spec, subsistence=5.0, omega=0.0)
        ts = (1e-308, 1.0)
        got = solve_outcome(solve_equilibrium, spec, ts)
        assert got == solve_outcome(helper_chain_solve_equilibrium, spec, ts)
        assert got[0] is InfeasibleAllocationError
        with pytest.raises(InfeasibleAllocationError):
            allocate_labor(spec, ts[0])


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
