import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdppath import (
    EconomySpec,
    IslandScenario,
    PanelFormatError,
    PricedPanel,
    SectorParams,
    ValidationError,
    build_schedule,
    default_spec,
    generate_panel,
    island_scenario,
    read_panel,
    read_scenario_config,
    write_panel,
)
from gdppath.panel_io import (
    GENERAL,
    PANEL_MODES,
    PAPER_COMPAT,
    write_columns,
)
from gdppath.scenarios import END_YEAR, START_YEAR, T_END

from conftest import outcome

# The line boundaries str.splitlines splits on (the Python library
# reference, under str.splitlines).
LINE_BOUNDARIES = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


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

    @pytest.mark.parametrize("header", ["year,P_A,Y_A", "year,Y_A,Q_A"])
    def test_malformed_column_pair(self, header):
        with pytest.raises(PanelFormatError,
                           match="^line 1: malformed column pair "):
            read_panel(f"{header}\n0,1,1\n", GENERAL)

    @pytest.mark.parametrize("mode", ["csv", "", None])
    def test_unknown_mode(self, mode):
        with pytest.raises(ValidationError, match="unknown panel mode"):
            read_panel("1,1,1,1\n", mode)

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
            back = read_panel(write_panel(panel, mode), mode, start_year=0)
            assert_panels_close(panel, back)

    @given(st.lists(st.text(st.sampled_from("A,b \n\r\x85\u2028"),
                            max_size=4) | st.text(max_size=4),
                    min_size=1, max_size=3))
    @example(["A", " B ", ""])
    def test_names_refused_or_read_back(self, names):
        # Either write_panel refuses a name that holds a comma or a line
        # boundary, naming it, or the panel reads back equal.
        panel = PricedPanel(tuple(names), (((1.0, 2.0),) * len(names),),
                            (1900,))
        try:
            text = write_panel(panel, GENERAL)
        except ValidationError as exc:
            refused = [name for name in names if repr(name) in str(exc)]
            assert refused and set(refused[0]) & {",", *LINE_BOUNDARIES}
        else:
            assert read_panel(text, GENERAL) == panel

    @pytest.mark.parametrize("name", ["A,B", "Y_A\nyear", "A\r", "\r\n",
                                      *LINE_BOUNDARIES])
    def test_unreadable_name_refused(self, name):
        # Unguarded, "A,B" wrote a header that read back as the malformed
        # column pair 'Y_A','B'.
        panel = PricedPanel((name, "C"), (((1.0, 2.0), (3.0, 4.0)),), (1900,))
        with pytest.raises(ValidationError) as info:
            write_panel(panel, GENERAL)
        assert str(info.value) == (f"general layout: sector name {name!r} "
                                   "holds a comma or a line boundary")
        assert write_panel(panel, PAPER_COMPAT)  # that layout has no names


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
        assert scenario.schedule.years[-1] == 1998
        assert scenario.schedule.values_a[-1] == pytest.approx(T_END, rel=1e-12)

    def test_rule_override(self):
        scenario = read_scenario_config("rule = north\n")
        assert scenario.name == "north"

    @pytest.mark.parametrize("rule", ["north", "south"])
    def test_island_horizon_limit(self, rule):
        with pytest.raises(ValidationError) as info:
            read_scenario_config(f"rule = {rule}\nend_year = 2000\n")
        assert str(info.value) == (
            f"horizon of 100 years exceeds the maximum of 99 for rule {rule!r}"
        )
        read_scenario_config("rule = middle\nend_year = 2900\n")

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
        assert scenario.schedule == build_schedule("middle", normalize=False)

    @pytest.mark.parametrize("token, normalize", [
        ("yes", True), ("ON", True), ("1", True), ("true", True),
        ("off", False), ("No", False), ("0", False), ("maybe", None),
    ])
    def test_normalize_spellings(self, token, normalize):
        text = f"normalize = {token}\n"
        if normalize is None:
            with pytest.raises(PanelFormatError,
                               match="key normalize: unparsable value 'maybe'"):
                read_scenario_config(text)
        else:
            assert read_scenario_config(text).schedule == build_schedule(
                "middle", normalize=normalize)


    def test_line_without_equals_names_line(self):
        with pytest.raises(PanelFormatError) as info:
            read_scenario_config("rule middle\n")
        assert str(info.value) == (
            "line 1: expected 'key = value', got 'rule middle'")


class TestWriteColumns:
    def test_labels_then_columns(self):
        text = write_columns((1901, 1902), (0.1, 1 / 3), (2.0, -0.5))
        assert text == ("1901,0.10000000000000001,2\n"
                        "1902,0.33333333333333331,-0.5\n")

    def test_no_rows_is_a_newline(self):
        assert write_columns(()) == "\n"
        assert write_columns((), ()) == "\n"


class TestEntryRule:
    def test_two_fault_paper_compat_row_reports_sector_a(self):
        # Sector by sector, parse then check: sector A's non-finite
        # quantity comes before sector B's unparsable field.
        with pytest.raises(PanelFormatError) as info:
            read_panel("nan,1,abc,1\n", PAPER_COMPAT)
        assert str(info.value) == "line 1: sector A: non-finite quantity nan"

    @pytest.mark.parametrize("pair, problem", [
        ((math.nan, 1.0), "non-finite quantity nan"),
        ((1.0, math.inf), "non-finite price inf"),
        ((-1.0, 1.0), "negative quantity -1.0"),
        ((1.0, 0.0), "non-positive price 0.0"),
    ])
    def test_panel_names_the_field(self, pair, problem):
        with pytest.raises(ValidationError) as info:
            PricedPanel(("A", "farm"), (((1.0, 1.0), pair),), (0,))
        assert str(info.value) == f"period 0, sector farm: {problem}"


# The reference reader and writers.  The reader parses and checks a text
# row by row and each row field pair by field pair, with the messages of
# ``read_panel``, and then builds the panel with every check of
# ``PricedPanel``; the writers format each float with ``format(v, ".17g")``
# and each row with ``str.join``.  The differential tests below hold
# ``read_panel``, ``write_panel`` and ``write_columns`` to them.


def _oracle_fmt(x):
    return format(x, ".17g")


def oracle_write_panel(panel, mode=PAPER_COMPAT):
    if mode == PAPER_COMPAT:
        if len(panel.sector_names) != 2:
            raise ValidationError(
                "paper-compat layout requires exactly two sectors"
            )
        lines = [
            ",".join(_oracle_fmt(v) for pair in period for v in pair)
            for period in panel.periods
        ]
    elif mode == GENERAL:
        header = ["year"]
        for name in panel.sector_names:
            header += [f"Y_{name}", f"P_{name}"]
        lines = [",".join(header)]
        for label, period in zip(panel.period_labels, panel.periods):
            row = [str(label)]
            for qty, price in period:
                row += [_oracle_fmt(qty), _oracle_fmt(price)]
            lines.append(",".join(row))
    else:
        raise ValidationError(f"unknown panel mode {mode!r}")
    return "\n".join(lines) + "\n"


def oracle_write_columns(labels, *columns):
    lines = [",".join([str(label), *map(_oracle_fmt, row)])
             for label, *row in zip(labels, *columns)]
    return "\n".join(lines) + "\n"


def _oracle_parse_float(token, line_no):
    try:
        return float(token)
    except ValueError:
        raise PanelFormatError(
            f"line {line_no}: non-numeric field {token!r}"
        ) from None


def _oracle_check_pair(qty, price, name, line_no):
    if not math.isfinite(qty):
        raise PanelFormatError(
            f"line {line_no}: sector {name}: non-finite quantity {qty}"
        )
    if not math.isfinite(price):
        raise PanelFormatError(
            f"line {line_no}: sector {name}: non-finite price {price}"
        )
    if qty < 0.0:
        raise PanelFormatError(
            f"line {line_no}: sector {name}: negative quantity {qty}"
        )
    if price <= 0.0:
        raise PanelFormatError(
            f"line {line_no}: sector {name}: non-positive price {price}"
        )


def _oracle_parse_header(line_no, header):
    cols = header.split(",")
    if len(cols) < 3 or cols[0] != "year" or (len(cols) - 1) % 2 != 0:
        raise PanelFormatError(f"line {line_no}: malformed header {header!r}")
    names = []
    for i in range(1, len(cols), 2):
        if not (cols[i].startswith("Y_") and cols[i + 1].startswith("P_")):
            raise PanelFormatError(
                f"line {line_no}: malformed column pair "
                f"{cols[i]!r},{cols[i + 1]!r}"
            )
        if cols[i][2:] != cols[i + 1][2:]:
            raise PanelFormatError(
                f"line {line_no}: mismatched sector names in "
                f"{cols[i]!r},{cols[i + 1]!r}"
            )
        names.append(cols[i][2:])
    return names


def oracle_read_panel(text, mode=PAPER_COMPAT, start_year=START_YEAR):
    if mode not in PANEL_MODES:
        raise ValidationError(f"unknown panel mode {mode!r}")
    lines = enumerate(text.splitlines(), start=1)
    rows = [(line_no, line) for line_no, line in lines if line.strip()]
    if not rows:
        raise PanelFormatError("empty panel stream")
    general = mode == GENERAL
    names = _oracle_parse_header(*rows.pop(0)) if general else ["A", "B"]
    if not rows:
        raise PanelFormatError("panel stream has a header but no rows")
    width = 2 * len(names) + general  # a general row leads with its year
    periods, labels = [], []
    for line_no, line in rows:
        fields = line.split(",")
        if len(fields) != width:
            raise PanelFormatError(
                f"line {line_no}: expected {width} fields, got {len(fields)}"
            )
        tokens = iter(fields)
        if general:
            year = next(tokens)
            try:
                labels.append(int(year))
            except ValueError:
                raise PanelFormatError(
                    f"line {line_no}: bad year {year!r}"
                ) from None
        period = []
        for name, q_field, p_field in zip(names, tokens, tokens):
            qty = _oracle_parse_float(q_field, line_no)
            price = _oracle_parse_float(p_field, line_no)
            _oracle_check_pair(qty, price, name, line_no)
            period.append((qty, price))
        periods.append(tuple(period))
    if not general:
        labels = range(start_year, start_year + len(periods))
    return PricedPanel(tuple(names), tuple(periods), tuple(labels))


def assert_reader_matches_oracle(mode, text, start_year):
    """``read_panel`` reads ``text`` as the reference does, bit for bit, or
    fails on the same fault with the same message; a panel it reads is
    written back as the reference writes it."""
    new = outcome(read_panel, text, mode, start_year)
    assert repr(new) == repr(outcome(oracle_read_panel, text, mode,
                                     start_year))
    if isinstance(new, PricedPanel):
        assert write_panel(new, mode) == oracle_write_panel(new, mode)


GOOD_TOKENS = ("1", "2.5", "1e-3", "5e-324", "1e308", " 7 ", "1_0")
BAD_TOKENS = ("nan", "inf", "-inf", "-1", "0", "-0", "abc", "")


@st.composite
def panel_texts(draw):
    """A panel's text in either layout, mostly valid, with blank lines,
    wrong widths, bad tokens and malformed headers mixed in."""
    mode = draw(st.sampled_from(PANEL_MODES))
    general = mode == GENERAL
    n_sectors = draw(st.integers(1, 3)) if general else 2
    token = st.one_of(st.sampled_from(GOOD_TOKENS),
                      st.floats(0.0, 1e6).map(repr))
    if draw(st.booleans()):
        token = st.one_of(token, st.sampled_from(BAD_TOKENS))
    lines = []
    if general:
        names = [draw(st.sampled_from(["a", "b", "farm", ""]))
                 for _ in range(n_sectors)]
        cols = ["year"] + [f"{c}_{n}" for n in names for c in "YP"]
        if draw(st.integers(0, 9)) == 0:
            i = draw(st.integers(0, len(cols) - 1))
            cols[i] = draw(st.sampled_from(["time", "Y_x", "P_y", "Q_a", ""]))
        if draw(st.integers(0, 9)) == 0:
            del cols[-1]
        lines.append(",".join(cols))
    year = 1990
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        fields = [draw(token) for _ in range(2 * n_sectors)]
        if general:
            year += draw(st.integers(0, 2))
            fields.insert(0, draw(st.sampled_from(
                [str(year)] * 9 + ["x", "1.5"])))
        if draw(st.integers(0, 15)) == 0:
            del fields[-1]
        if draw(st.integers(0, 15)) == 0:
            fields.append("1")
        lines.append(",".join(fields))
    return mode, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestSingleRowLoop:
    """The single row loop reads what the reference reads, and fails on the
    same fault with the same message."""

    @given(panel_texts())
    def test_reader_matches_oracle(self, case):
        mode, text = case
        assert_reader_matches_oracle(mode, text, 1900)


# The writers against the reference over the whole float range: each builds
# its text by one ``%`` over its cells.

FLOAT_MAX = 1.7976931348623157e308


@st.composite
def wide_panels(draw):
    """1-8 sectors, quantities from 0.0 (and -0.0) and prices from the least
    subnormal up to the largest float, and labels that may be negative or
    wider than 64 bits."""
    n_sectors = draw(st.integers(1, 8))
    n_periods = draw(st.integers(1, 6))
    qty = st.floats(0.0, FLOAT_MAX) | st.just(-0.0)
    price = st.floats(5e-324, FLOAT_MAX)
    start = draw(st.integers(-(10**30), 10**30))
    steps = draw(st.lists(st.integers(1, 10**20), min_size=n_periods - 1,
                          max_size=n_periods - 1))
    periods = tuple(
        tuple((draw(qty), draw(price)) for _ in range(n_sectors))
        for _ in range(n_periods)
    )
    names = tuple(f"S{i}" for i in range(n_sectors))
    labels = tuple(itertools.accumulate([start, *steps]))
    return PricedPanel(names, periods, labels)


def _spread_panel(n_sectors=8, n_periods=1000):
    """A fixed panel whose entries fall in every binary exponent range,
    subnormals and zero quantities included."""
    rng = random.Random(16)

    def entry():
        qty = math.ldexp(rng.random(), rng.randint(-1074, 1024))
        price = math.ldexp(rng.random(), rng.randint(-1074, 1024))
        return qty, max(price, 5e-324)

    periods = tuple(tuple(entry() for _ in range(n_sectors))
                    for _ in range(n_periods))
    names = tuple(f"S{i}" for i in range(n_sectors))
    return PricedPanel(names, periods, tuple(range(-500, n_periods - 500)))


def assert_writer_matches_oracle(panel):
    for mode in PANEL_MODES + ("csv",):
        new = outcome(write_panel, panel, mode)
        assert repr(new) == repr(outcome(oracle_write_panel, panel, mode))
    assert read_panel(write_panel(panel, GENERAL), GENERAL) == panel


class TestWritersMatchFormatOracle:
    @given(wide_panels())
    def test_panel_writer(self, panel):
        assert_writer_matches_oracle(panel)

    # Outside hypothesis, whose per-example deadline a 1000-period panel
    # can exceed under a line tracer.
    @pytest.mark.parametrize("n_sectors", [8, 2])
    def test_panel_writer_spread(self, n_sectors):
        assert_writer_matches_oracle(_spread_panel(n_sectors))

    @given(st.data())
    def test_columns_writer(self, data):
        n_rows = data.draw(st.integers(0, 6))
        labels = tuple(data.draw(st.lists(
            st.integers(-(10**30), 10**30), min_size=n_rows, max_size=n_rows)))
        value = st.floats() | st.sampled_from(
            [math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324])
        columns = [
            tuple(data.draw(st.lists(value, min_size=n_rows,
                                     max_size=n_rows)))
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        assert write_columns(labels, *columns) == oracle_write_columns(
            labels, *columns)


# Tokens that parse to a valid entry, and tokens at fault: non-finite,
# negative or zero once parsed, or unparsable.
ENTRY_TOKENS = ("1", "2.5", "1e-3", "5e-324", "1e308", " 7 ", "1_0", "+3")
FAULT_TOKENS = ("nan", " nan", "inf", "-inf", "1e400", "-1", "-1e-300", "0",
                "-0", "0.0", "1e-400", "abc", "", "1..5", "0x10")


@st.composite
def fuzzed_panel_texts(draw):
    """A panel's text in either layout, whose rows often hold two or more
    faulty fields, and whose year labels may repeat or fall."""
    mode = draw(st.sampled_from(PANEL_MODES))
    general = mode == GENERAL
    n_sectors = draw(st.integers(1, 3)) if general else 2
    fault_rate = draw(st.sampled_from([0, 1, 2, 4]))
    good = st.one_of(st.sampled_from(ENTRY_TOKENS),
                     st.floats(1e-300, 1e300).map(repr))

    def token():
        if fault_rate and draw(st.integers(0, fault_rate)) == 0:
            return draw(st.sampled_from(FAULT_TOKENS))
        return draw(good)

    lines = []
    if general:
        cols = ["year"] + [f"{c}_S{i}" for i in range(n_sectors) for c in "YP"]
        if draw(st.integers(0, 19)) == 0:
            cols[draw(st.integers(0, len(cols) - 1))] = "Q_x"
        lines.append(",".join(cols))
    year = draw(st.integers(1900, 2000))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", "  "])))
        fields = [token() for _ in range(2 * n_sectors)]
        if general:
            year += draw(st.sampled_from([1, 1, 1, 2, 0, -1]))
            fields.insert(0, draw(st.sampled_from([str(year)] * 19 + ["x"])))
        if draw(st.integers(0, 19)) == 0:
            del fields[-1]
        lines.append(",".join(fields))
    return mode, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestEntriesCheckedOnce:
    """The reader that checks each entry once reads every text as the
    reference does, and fails on the same fault with the same message."""

    @settings(max_examples=300)
    @given(fuzzed_panel_texts(), st.sampled_from([1900, 2001]))
    # Two faults in a row: an entry at fault before an unparsable field.
    @example((PAPER_COMPAT, "1,1,1,1\n-1,1,abc,1\n"), 1900)
    @example((GENERAL, "year,Y_a,P_a,Y_b,P_b\n1990,1,0,1e400,x\n"), 1900)
    # Texts the bulk pass leaves to the row-by-row pass, or must read as it
    # does: blank lines before the header, mid-panel and last; a short row
    # then a long one, whose fields add up to full rows; valid entries whose
    # sum overflows; a -0 quantity; nan; and a year with spaces.
    @example((GENERAL, "\nyear,Y_a,P_a\n1990,1,1\n1991,2,1\n"), 1900)
    @example((PAPER_COMPAT, "1,1,1,1\n\n2,1,2,1\n"), 1900)
    @example((GENERAL, "year,Y_a,P_a\n1990,1,1\n1991,2,1\n  "), 1900)
    @example((PAPER_COMPAT, "1,1,1,1\n1,1,1\n1,1,1,1,1\n"), 1900)
    @example((PAPER_COMPAT, "1e308,1,1e308,1\n1.5e308,1,1e308,1\n"), 1900)
    @example((GENERAL, "year,Y_a,P_a\n1990,-0,1\n1991,1,1\n"), 1900)
    @example((PAPER_COMPAT, "1,1,1,1\n1,1,nan,1\n"), 1900)
    @example((GENERAL, "year,Y_a,P_a\n 1901 ,1,1\n1902,1,1\n"), 1900)
    def test_reader_matches_oracle(self, case, start_year):
        mode, text = case
        assert_reader_matches_oracle(mode, text, start_year)

    def test_falling_labels_refused(self):
        text = "year,Y_a,P_a\n1991,1,1\n1990,1,1\n"
        with pytest.raises(ValidationError,
                           match="^period labels must be strictly increasing$"):
            read_panel(text, GENERAL)


# The scenario config reader as it was in the CSV module, with its key list
# and its per-call defaults and parsers.  It is the oracle of the
# differential test below.

_ORACLE_CONFIG_KEYS = (
    "rule",
    "start_year",
    "end_year",
    "normalize",
    "lambda_A",
    "lambda_B",
    "delta",
    "R_c",
    "L_t",
    "N0",
    "omega",
)


def _oracle_parse_bool(token):
    token = token.lower()
    if token in ("true", "yes", "1", "on"):
        return True
    if token in ("false", "no", "0", "off"):
        return False
    raise ValueError(token)


def oracle_read_scenario_config(text):
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise PanelFormatError(
                f"line {line_no}: expected 'key = value', got {stripped!r}"
            )
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _ORACLE_CONFIG_KEYS:
            raise PanelFormatError(f"line {line_no}: unknown key {key!r}")
        values[key] = raw.strip()

    def get(key, default, parse):
        if key not in values:
            return default
        try:
            return parse(values[key])
        except ValueError:
            raise PanelFormatError(
                f"key {key}: unparsable value {values[key]!r}"
            ) from None

    rule = values.get("rule", "middle")
    base = default_spec()
    sectors = tuple(
        SectorParams(s.name, get(f"lambda_{s.name}", s.elasticity, float),
                     get("delta", s.depreciation, float))
        for s in base.sectors
    )
    spec = EconomySpec(
        sectors,
        total_labor=get("L_t", base.total_labor, float),
        rate_of_return=get("R_c", base.rate_of_return, float),
        subsistence=get("N0", base.subsistence, float),
        omega=get("omega", base.omega, float),
    )
    schedule = build_schedule(
        rule,
        start=get("start_year", START_YEAR, int),
        end=get("end_year", END_YEAR, int),
        normalize=get("normalize", True, _oracle_parse_bool),
    )
    return IslandScenario(name=rule, spec=spec, schedule=schedule)


# Per key, in the order the scenario takes them: values that parse and
# pass, and values that are at fault, some refused by a check and some
# unparsable.
_UNPARSABLE = ["abc", "", "1,5", "0x10"]
_INT_UNPARSABLE = ["1900.0", "1e3", "19 00", *_UNPARSABLE]
CONFIG_VALUES = {
    "lambda_A": (["0.5", "2e-1", "0.9"],
                 ["0", "1", "1.5", "-0.2", "nan", "inf", *_UNPARSABLE]),
    "delta": (["0", "0.1"], ["-0.01", "nan", "inf", *_UNPARSABLE]),
    "lambda_B": (["0.3", "0.75"], ["1", "-1", "nan", *_UNPARSABLE]),
    "L_t": (["1000", "1e5", " 2.5 "], ["0", "-5", "nan", "inf", *_UNPARSABLE]),
    "R_c": (["0.02", "0.3"], ["nan", "-inf", "-0.1", "1e308", *_UNPARSABLE]),
    "N0": (["0", "1.6711", "2"], ["-1", "nan", "inf", *_UNPARSABLE]),
    "omega": (["0", "5", "1.5"], ["-1", "nan", "inf", *_UNPARSABLE]),
    "rule": (["north", "middle", "south"], ["east", "", "North"]),
    "start_year": (["1900", "1950", " 1990"],
                   ["2000", "-5", "1998", *_INT_UNPARSABLE]),
    "end_year": (["1998", "1960", "2000"],
                 ["1900", "3000", "1899", *_INT_UNPARSABLE]),
    "normalize": (["yes", "OFF", "1", "false"], ["maybe", "2", *_UNPARSABLE]),
}
NOISE_LINES = ["", "   ", "# comment", "  # lambda_A = x", "#"]
BAD_LINES = ["rule middle", "omega", "L_t 5", "=", " = 1", "flux = 1",
             "lambda = 0.5", "Rule = north", "l_t = 5"]


@st.composite
def config_texts(draw):
    """A scenario config: each key absent, good or at fault, in any order,
    among comments and blank lines, now and then with a repeated key, a line
    without '=' or an unknown key.  The keys taken before a drawn one are
    never at fault and half of those after it are, so that faults cluster
    and the test sees which of several is reported."""
    clean = draw(st.integers(0, len(CONFIG_VALUES)))
    lines = []
    for i, (key, (good, bad)) in enumerate(CONFIG_VALUES.items()):
        kind = draw(st.integers(0, 3))  # absent, good, at fault, at fault
        if kind:
            pool = bad if kind > 1 and i >= clean else good
            lines.append((key, draw(st.sampled_from(pool))))
    for _ in range(draw(st.integers(0, 1))):
        key = draw(st.sampled_from(list(CONFIG_VALUES)))
        lines.append((key, draw(st.sampled_from(sum(CONFIG_VALUES[key], [])))))
    lines = [f"{key}{draw(st.sampled_from(['=', ' = ', '= ', ' =']))}{value}"
             for key, value in draw(st.permutations(lines))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(NOISE_LINES)))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(BAD_LINES)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestScenarioConfigMove:
    """The config reader beside the scenarios reads every config as the
    reader in the CSV module did, and fails on the same fault."""

    @given(config_texts())
    def test_reader_matches_oracle(self, text):
        assert outcome(read_scenario_config, text) == outcome(
            oracle_read_scenario_config, text)

    def test_every_pair_of_faults_reports_as_before(self):
        # Two values at fault, each refused or unparsable, in either order:
        # the reader names the same one as the old reader did.
        faults = [(key, value) for key, (_, bad) in CONFIG_VALUES.items()
                  for value in (bad[0], bad[-1])]
        for (k1, v1), (k2, v2) in itertools.permutations(faults, 2):
            text = f"{k1} = {v1}\n{k2} = {v2}\n"
            assert outcome(read_scenario_config, text) == outcome(
                oracle_read_scenario_config, text), text
