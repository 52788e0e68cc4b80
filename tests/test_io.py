import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdppath import (
    PanelFormatError,
    PricedPanel,
    ValidationError,
    generate_panel,
    island_scenario,
    read_panel,
    read_scenario_config,
    write_panel,
)
from gdppath.panel_io import GENERAL, PAPER_COMPAT


@st.composite
def panels(draw):
    n_sectors = draw(st.integers(1, 3))
    n_periods = draw(st.integers(1, 5))
    qty = st.floats(0.0, 1e6, allow_nan=False)
    price = st.floats(1e-3, 1e4, allow_nan=False, exclude_min=True)
    names = tuple(f"S{i}" for i in range(n_sectors))
    periods = tuple(
        tuple((draw(qty), draw(price)) for _ in range(n_sectors))
        for _ in range(n_periods)
    )
    return PricedPanel(names, periods, tuple(range(n_periods)))


def assert_panels_close(a, b, rel=1e-12):
    assert a.n_periods == b.n_periods
    for pa, pb in zip(a.periods, b.periods):
        for (qa, pra), (qb, prb) in zip(pa, pb):
            assert qb == pytest.approx(qa, rel=rel, abs=1e-300)
            assert prb == pytest.approx(pra, rel=rel)


class TestPaperCompat:
    def test_island_panel_shape(self):
        panel = generate_panel(island_scenario("middle"))
        text = write_panel(panel, PAPER_COMPAT)
        lines = text.strip().split("\n")
        assert len(lines) == 99
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_round_trip(self):
        panel = generate_panel(island_scenario("north"))
        text = write_panel(panel, PAPER_COMPAT)
        back = read_panel(text, PAPER_COMPAT, start_year=1900)
        assert back.period_labels == panel.period_labels
        assert_panels_close(panel, back)

    def test_china_table_rows(self):
        text = "2000,1,300,5\n2120,1,303,5.15\n"
        panel = read_panel(text, PAPER_COMPAT, start_year=2015)
        assert panel.period_labels == (2015, 2016)
        assert panel.periods[0] == ((2000.0, 1.0), (300.0, 5.0))
        assert panel.periods[1] == ((2120.0, 1.0), (303.0, 5.15))

    def test_rejects_three_sector_panel(self):
        panel = PricedPanel(
            ("A", "B", "C"),
            (((1.0, 1.0), (1.0, 1.0), (1.0, 1.0)),),
            (0,),
        )
        with pytest.raises(ValidationError):
            write_panel(panel, PAPER_COMPAT)

    def test_negative_price_names_line(self):
        text = "1,1,1,1\n1,1,1,-1\n"
        with pytest.raises(PanelFormatError, match="line 2"):
            read_panel(text, PAPER_COMPAT)

    def test_wrong_field_count_names_line(self):
        with pytest.raises(PanelFormatError, match="line 1"):
            read_panel("1,2,3\n", PAPER_COMPAT)

    def test_non_numeric_names_line(self):
        with pytest.raises(PanelFormatError, match="line 3"):
            read_panel("1,1,1,1\n1,1,1,1\n1,x,1,1\n", PAPER_COMPAT)

    def test_empty_stream(self):
        with pytest.raises(PanelFormatError):
            read_panel("", PAPER_COMPAT)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column, what", [(0, "quantity"), (1, "price")])
    def test_non_finite_names_line(self, token, column, what):
        row = ["1", "1", "1", "1"]
        row[column] = token
        text = "2,1,1,1\n" + ",".join(row) + "\n"
        with pytest.raises(PanelFormatError,
                           match=f"^line 2: sector A: non-finite {what} "):
            read_panel(text, PAPER_COMPAT)


class TestGeneral:
    def test_three_sector_header(self):
        panel = PricedPanel(
            ("A", "B", "C"),
            (((1.0, 1.0), (2.0, 2.0), (3.0, 3.0)),),
            (1990,),
        )
        text = write_panel(panel, GENERAL)
        header = text.split("\n", 1)[0]
        assert header == "year,Y_A,P_A,Y_B,P_B,Y_C,P_C"
        assert len(header.split(",")) == 7

    def test_round_trip_preserves_names_and_years(self):
        panel = PricedPanel(
            ("farm", "care"),
            (((10.0, 0.5), (1.0, 3.0)), ((11.0, 0.5), (1.5, 3.5))),
            (2001, 2003),
        )
        back = read_panel(write_panel(panel, GENERAL), GENERAL)
        assert back.sector_names == ("farm", "care")
        assert back.period_labels == (2001, 2003)
        assert_panels_close(panel, back)

    def test_malformed_header(self):
        with pytest.raises(PanelFormatError):
            read_panel("time,Y_A,P_A\n0,1,1\n", GENERAL)

    def test_mismatched_sector_columns(self):
        with pytest.raises(PanelFormatError):
            read_panel("year,Y_A,P_B\n0,1,1\n", GENERAL)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column, what", [(1, "quantity"), (2, "price")])
    def test_non_finite_names_line(self, token, column, what):
        row = ["1901", "1", "1"]
        row[column] = token
        text = "year,Y_farm,P_farm\n1900,1,1\n" + ",".join(row) + "\n"
        with pytest.raises(PanelFormatError,
                           match=f"^line 3: sector farm: non-finite {what} "):
            read_panel(text, GENERAL)

    @given(panels())
    def test_round_trip_identity(self, panel):
        for mode in ([PAPER_COMPAT] if len(panel.sector_names) == 2 else []) + [GENERAL]:
            back = read_panel(
                write_panel(panel, mode), mode, start_year=0,
                sector_names=panel.sector_names,
            )
            assert_panels_close(panel, back)


class TestScenarioConfig:
    def test_empty_gives_middle_defaults(self):
        scenario = read_scenario_config("")
        assert scenario.name == "middle"
        assert scenario.spec.total_labor == 100_000.0
        assert scenario.spec.subsistence == 1.6711
        assert scenario.spec.omega == 5.0
        assert scenario.spec.rate_of_return == 0.055
        assert scenario.spec.sectors[0].elasticity == pytest.approx(2 / 3)
        assert scenario.spec.sectors[0].depreciation == 0.055
        assert scenario.schedule.start_year == 1900
        assert scenario.schedule.end_year == 1998
        assert scenario.schedule.endpoint_normalized

    def test_rule_override(self):
        scenario = read_scenario_config("rule = north\n")
        assert scenario.name == "north"

    def test_out_of_range_elasticity(self):
        with pytest.raises(ValidationError):
            read_scenario_config("lambda_A = 1.5\n")

    def test_unknown_key(self):
        with pytest.raises(PanelFormatError, match="unknown key"):
            read_scenario_config("flux_capacitor = 1\n")

    def test_unparsable_value(self):
        with pytest.raises(PanelFormatError):
            read_scenario_config("omega = banana\n")

    def test_comments_and_blanks_skipped(self):
        scenario = read_scenario_config("# a comment\n\nrule = south\n")
        assert scenario.name == "south"

    def test_normalize_flag(self):
        scenario = read_scenario_config("normalize = false\n")
        assert not scenario.schedule.endpoint_normalized
