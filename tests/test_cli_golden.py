"""Golden stdout, stderr and exit code of every ``gdppath`` subcommand.

Each file in ``tests/golden/cli/`` is one invocation: its argv, exit code
and stderr on three header lines, then its stdout verbatim.  The inputs are
written into a fresh working directory and named by relative paths, so no
output depends on where the test runs.  ``flags.txt`` lists every
subcommand's flags with their defaults.

To rewrite the files (only when an output changes on purpose), rewrite the
demo files first, because several cases read ``golden/demo/gdpnorth.csv`` as
their input; then run this module as a script, each with the wanted tree's
``src`` on ``PYTHONPATH``:

    PYTHONPATH=src python -m gdppath.cli demo --outdir tests/golden/demo
    PYTHONPATH=src python tests/test_cli_golden.py tests/golden/cli
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from gdppath import cli

HERE = Path(__file__).parent
GOLDEN_CLI = HERE / "golden" / "cli"
NORTH_CSV = (HERE / "golden" / "demo" / "gdpnorth.csv").read_text()


def _out_and_back(csv: str) -> str:
    # The panel's rows, then the same rows in reverse back to the first: a
    # closed loop, as ``{ cat f; tac f | tail -n +2; }`` makes it in shell.
    rows = csv.splitlines()
    return "\n".join(rows + rows[-2::-1]) + "\n"


def _drifting_small(horizon: int = 30) -> str:
    # Table-1-style small economy: service prices drift up 3% a year.
    rows, q_a, q_b, p_b = [], 2000.0, 300.0, 5.0
    for _ in range(horizon):
        rows.append(f"{q_a!r},1,{q_b!r},{p_b!r}")
        q_a, q_b, p_b = q_a * 1.06, q_b * 1.01, p_b * 1.03
    return "\n".join(rows) + "\n"


INPUTS = {
    "north.csv": NORTH_CSV,
    "north_loop.csv": _out_and_back(NORTH_CSV),
    "china.csv": "2000,1,300,5\n2120,1,303,5.15\n",
    "loop.csv": "1,1,1,1\n2,1,1,2\n1,1,1,1\n",
    "path.csv": "1,1,1,1\n2,1,1,2\n2,1,2,2\n",
    "general.csv": "year,Y_farm,P_farm,Y_mill,P_mill,Y_port,P_port\n"
                   "2001,10,1,5,2,3,4\n2002,11,1.1,5.5,2.1,2.9,4.2\n"
                   "2004,12,1.3,6.5,2,3.3,4.1\n",
    "small.csv": _drifting_small(),
    "big.csv": "2000,1,400,10\n" * 30,
    "island.cfg": "# a short southern island\nrule = south\n"
                  "end_year = 1910\nomega = 4\n",
    "infeasible.cfg": "N0 = 2.0\n",
    "bad.csv": "1,2,3\n",
    # Index faults: a zero quantity (outside Tornqvist's domain), output
    # that falls to zero and comes back, and prices that leap from 1e-300
    # to 1e300 (nominal growth that is not finite).
    "zeroq.csv": "1,1,1,1\n2,1,0,2\n3,1,1,2\n4,1,2,2\n",
    "collapse.csv": "1,1,1,1\n1,1,1,1\n0,1,0,1\n1,1,1,1\n",
    "price_leap.csv": "1,1e-300,1,1e-300\n1,1e300,1,1e300\n"
                      "2,1e300,1,1e300\n",
}

CASES = {
    "simulate_middle": "simulate",
    "simulate_constant": "simulate --scenario constant",
    "simulate_raw_general": "simulate --raw --format general",
    "simulate_config": "simulate --config island.cfg",
    "simulate_config_general": "simulate --config island.cfg --format general",
    "growth_laspeyres": "growth --panel north.csv --method laspeyres",
    "growth_paasche": "growth --panel north.csv --method paasche",
    "growth_fisher": "growth --panel north.csv --method FISHER",
    "growth_tornqvist": "growth --panel north.csv --method tornqvist",
    "growth_start_year": "growth --panel china.csv --start-year 2015",
    "growth_general": "growth --panel general.csv --format general",
    "average": "average --panel north.csv",
    "average_geometric": "average --panel north.csv --geometric "
                         "--method fisher",
    "circularity": "circularity --panel loop.csv",
    "circularity_fisher": "circularity --panel loop.csv --method fisher",
    "circularity_north_loop": "circularity --panel north_loop.csv "
                              "--method fisher",
    "path_integral": "path-integral --panel path.csv",
    "gap": "gap --panel china.csv --start-year 2015",
    "gap_step_method": "gap --panel north.csv --step 40 --method paasche",
    "gap_last_step_fisher": "gap --panel north.csv --step 97 "
                            "--method fisher",
    "gap_last_step_tornqvist": "gap --panel north.csv --step 97 "
                               "--method tornqvist",
    "catchup_naive": "catchup --naive 11 18 0.06 0.03",
    "catchup_common_prices": "catchup --small small.csv --big big.csv",
    "catchup_own_nominal": "catchup --small small.csv --big big.csv "
                           "--rule own-nominal --start-year 2000",
    "demo": "demo --outdir out",
    "usage_no_command": "",
    "usage_unknown_command": "frobnicate",
    "usage_missing_panel": "growth",
    "usage_bad_method": "growth --panel china.csv --method bogus",
    "usage_bad_choice": "simulate --scenario atlantis",
    "usage_bad_int": "gap --panel china.csv --step x",
    "usage_catchup_needs_input": "catchup --small small.csv",
    "data_missing_file": "growth --panel missing.csv",
    "data_bad_row": "growth --panel bad.csv",
    "data_step_out_of_range": "gap --panel china.csv --step 5",
    "infeasible_config": "simulate --config infeasible.cfg",
    "fault_tornqvist_domain": "growth --panel zeroq.csv --method tornqvist",
    "fault_tornqvist_healthy_step": "gap --panel zeroq.csv --step 2 "
                                    "--method tornqvist",
    "fault_inflation_undefined": "gap --panel collapse.csv --step 1",
    "fault_zero_base": "gap --panel collapse.csv --step 2",
    "fault_zero_base_series": "growth --panel collapse.csv --method fisher",
    "fault_nominal_not_finite": "gap --panel price_leap.csv --step 0",
}


def run_case(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    """``main(argv)`` in ``workdir`` with the inputs written there."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def render(argv: list[str], code: int, out: str, err: str) -> str:
    return (
        f"argv: {shlex.join(argv)}\nexit: {code}\n"
        f"stderr: {err.rstrip(chr(10))}\n{out}"
    )


def parser_flags(parser: argparse.ArgumentParser) -> str:
    """Each subcommand's flags with dest, default, type, choices, nargs and
    whether it is required, one flag a line, sorted."""
    lines = []
    for action in parser._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for name, sub in action.choices.items():
            for a in sub._actions:
                if not a.option_strings or a.dest == "help":
                    continue
                type_name = getattr(a.type, "__name__", a.type)
                lines.append(
                    f"{name} {'/'.join(a.option_strings)} dest={a.dest} "
                    f"default={a.default!r} type={type_name} "
                    f"choices={a.choices!r} nargs={a.nargs!r} "
                    f"required={a.required}"
                )
    return "\n".join(sorted(lines)) + "\n"


def write_golden(directory: Path, parser: argparse.ArgumentParser) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, line in CASES.items():
        argv = shlex.split(line)
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err = run_case(argv, Path(tmp))
        (directory / f"{name}.txt").write_text(render(argv, code, out, err))
    (directory / "flags.txt").write_text(parser_flags(parser))


def test_every_case_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN_CLI.glob("*.txt")) == sorted(
        list(CASES) + ["flags"]
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    argv = shlex.split(CASES[name])
    got = render(argv, *run_case(argv, tmp_path))
    assert got == (GOLDEN_CLI / f"{name}.txt").read_text()


def test_flags_and_defaults_match_golden():
    assert parser_flags(cli._build_parser()) == (
        GOLDEN_CLI / "flags.txt"
    ).read_text()


if __name__ == "__main__":
    build = getattr(cli, "_build_parser", None) or cli.build_parser
    write_golden(Path(sys.argv[1]), build())
