"""Fuzz ``main(argv)`` with generated panel and config files.

Whatever the input, ``gdppath`` ends with a documented exit code (0 success,
1 usage, 2 data, 3 infeasibility), prints at most one stderr line, and lets
no exception escape.  Files have at most five rows or years, so every
horizon stays small and the horizon cap is never reached by allocating.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gdppath.cli import main

SOUP = ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "0", "-0", "0.0",
        "5e-324", "1e-310", "2.2e-308", "1e-300", "1e300",
        "1.7976931348623157e308", "1", "2", "-1", "", " ", "x", "1,5", "0x10"]
plain = st.floats(1e-3, 1e3).map(repr)
tokens = st.one_of(
    plain,
    st.sampled_from(SOUP),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
often = st.integers(0, 7).map(bool)  # true seven times in eight
years = st.one_of(
    st.integers(1895, 1905).map(str),
    st.sampled_from(["-1", "0", "1e3", "99999999999999999999", "x", "nan"]),
)
junk = st.sampled_from([b"\xff", b"\xfe\xfe", b"\xc3\x28", b"\x00", b"\r"])


@st.composite
def panel_files(draw, layout: str, n_rows: int) -> bytes:
    # Half the files hold plain numbers only, so that they parse and reach
    # the index kernels; the other half draw from the soup.
    values = draw(st.sampled_from([plain, tokens]))
    width = 4 if draw(often) else draw(st.sampled_from([3, 5]))
    body = [[draw(values) for _ in range(width)] for _ in range(n_rows)]
    if body and draw(st.booleans()):  # a closed loop, for circularity
        body[-1] = body[0]
    if layout == "paper-compat":  # no year column
        rows = [",".join(fields) for fields in body]
    else:
        header = "year,Y_A,P_A,Y_B,P_B" if draw(often) else draw(
            st.sampled_from(["year,Y_A,P_A", "year,Y_A,P_B", "time,Y_A,P_A"])
        )
        rows = [header] + [
            ",".join([str(1900 + i), *fields]) for i, fields in enumerate(body)
        ]
    data = ("\n".join(rows) + "\n").encode()
    if not draw(often):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(junk) + data[at:]
    return data


config_lines = st.one_of(
    st.tuples(st.sampled_from(["lambda_A", "lambda_B", "delta", "R_c", "L_t",
                               "N0", "omega"]), tokens),
    st.tuples(st.sampled_from(["start_year", "end_year"]), years),
    st.tuples(st.just("normalize"),
              st.sampled_from(["true", "off", "maybe", ""])),
    st.tuples(st.just("rule"),
              st.sampled_from(["north", "middle", "south", "atlantis"])),
    st.tuples(st.sampled_from(["flux", "#", ""]), tokens),
)


@st.composite
def config_files(draw) -> bytes:
    lines = [f"{k} = {v}" for k, v in draw(st.lists(config_lines, max_size=5))]
    data = ("\n".join(lines) + "\n").encode()
    if not draw(often):
        data = draw(junk) + data
    return data


panel_commands = st.one_of(
    st.tuples(st.sampled_from(["growth", "average"]),
              st.sampled_from(["--method=laspeyres", "--method=paasche",
                               "--method=fisher", "--method=tornqvist",
                               "--method=bogus", "--geometric"])),
    st.tuples(st.just("circularity"),
              st.sampled_from(["--method=laspeyres", "--method=paasche",
                               "--method=fisher", "--method=tornqvist"])),
    st.tuples(st.just("path-integral"), st.just("--format=paper-compat")),
    st.tuples(st.just("gap"),
              st.integers(-1, 5).map(lambda step: f"--step={step}")),
    st.tuples(st.just("catchup"),
              st.sampled_from(["--rule=common-prices", "--rule=own-nominal"])),
)
layouts = st.sampled_from(["paper-compat", "general"])
start_years = st.sampled_from([[], ["--start-year", "2015"],
                               ["--start-year", "-3"],
                               ["--start-year", "10000000000000000000000"]])


@st.composite
def invocations(draw, workdir):
    """An argv over freshly written input files."""
    kind = draw(st.sampled_from(["panel", "config", "naive"]))
    if kind == "naive":
        values = draw(st.sampled_from([plain, tokens]))
        return ["catchup", "--naive", *(draw(values) for _ in range(4))]
    if kind == "config":
        (workdir / "island.cfg").write_bytes(draw(config_files()))
        return ["simulate", "--config", str(workdir / "island.cfg"),
                "--format", draw(layouts)]
    command, flag = draw(panel_commands)
    # The file's layout is usually the one the command is told to read.
    layout, n_rows = draw(layouts), draw(st.integers(0, 5))
    read_as = draw(st.sampled_from([layout, layout, layout, "general"]))
    (workdir / "small.csv").write_bytes(draw(panel_files(layout, n_rows)))
    files = ["--panel", str(workdir / "small.csv")]
    if command == "catchup":
        big_rows = draw(st.sampled_from([n_rows, n_rows, n_rows + 1]))
        (workdir / "big.csv").write_bytes(draw(panel_files(layout, big_rows)))
        files = ["--small", files[1], "--big", str(workdir / "big.csv")]
    return [command, *files, flag, "--format", read_as, *draw(start_years)]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_main_never_raises(tmp_path, data):
    argv = data.draw(invocations(tmp_path), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert (code == 0) == (err.getvalue() == "")
