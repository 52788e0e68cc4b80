"""Command-line surface.

Subcommands: simulate, growth, average, circularity, path-integral, gap,
catchup, demo.  Exit codes: 0 success, 1 usage error, 2 data/validation
error, 3 model infeasibility.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

from .errors import (
    CalibrationError,
    DegenerateBaseError,
    InfeasibleAllocationError,
    ModelError,
    PanelFormatError,
)
from .gap import (
    REFERENCE_RULES,
    model_catchup,
    naive_catchup,
    perspective_report,
)
from .indexes import (
    IndexMethod,
    PricedPanel,
    circularity_residual,
    growth_series,
    path_integral_gdp,
)
from .panel_io import (
    PANEL_MODES,
    PAPER_COMPAT,
    read_panel,
    read_scenario_config,
    write_columns,
    write_panel,
)
from .scenarios import (
    ISLAND_RULES,
    START_YEAR,
    IslandScenario,
    calibrate_constant_growth,
    default_spec,
    generate_panel,
    island_scenario,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Take "-1e-3", "-inf" and "-nan" for values, not for flags.
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)

    # argparse exits with code 2 on bad flags; remap to the documented 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _method(name: str) -> IndexMethod:
    try:
        return IndexMethod(name.lower())
    except ValueError:
        raise UsageError(f"unknown index method {name!r}") from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise PanelFormatError(f"{path}: {exc}") from None


def _load_panel(args: argparse.Namespace, path: str) -> PricedPanel:
    return read_panel(_read_text(path), mode=args.format,
                      start_year=args.start_year)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use, once per process: main() reuses it.
    parser = _Parser(prog="gdppath")
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flags: the panel layout, and the first year of headerless files.
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=PANEL_MODES, default=PAPER_COMPAT)
    layout = _Parser(add_help=False, parents=[fmt])
    layout.add_argument("--start-year", type=int, default=START_YEAR,
                        dest="start_year",
                        help="first year for headerless paper-compat files")
    panel = _Parser(add_help=False)
    panel.add_argument("--panel", required=True, help="panel CSV file")

    p = sub.add_parser("simulate", parents=[fmt],
                       help="simulate a scenario panel")
    p.add_argument("--scenario", choices=ISLAND_RULES + ("constant",),
                   default="middle")
    p.add_argument("--config", help="key=value scenario config file")
    p.add_argument("--raw", action="store_true",
                   help="skip endpoint normalization of the schedule")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(run=_cmd_simulate)

    for name, avg in (("growth", False), ("average", True)):
        p = sub.add_parser(
            name,
            parents=[panel, layout],
            help="per-step growth rates"
            + (" with running average" if avg else ""),
        )
        p.add_argument("--method", default="laspeyres")
        if avg:
            p.add_argument("--geometric", action="store_true",
                           help="geometric instead of arithmetic running "
                                "average")
        p.add_argument("--out")
        p.set_defaults(run=_cmd_rates, with_average=avg, geometric=False)

    p = sub.add_parser("circularity", parents=[panel, layout],
                       help="log chained level over a loop")
    p.add_argument("--method", default="laspeyres")
    p.set_defaults(run=_cmd_circularity)

    p = sub.add_parser("path-integral", parents=[panel, layout],
                       help="line integral of sum_a P_a dY_a along the panel")
    p.set_defaults(run=_cmd_path_integral)

    p = sub.add_parser("gap", parents=[panel, layout],
                       help="national vs international decomposition")
    p.add_argument("--step", type=int, default=0)
    p.add_argument("--method", default="laspeyres")
    p.set_defaults(run=_cmd_gap)

    p = sub.add_parser("catchup", parents=[layout],
                       help="catch-up time estimates")
    p.add_argument("--naive", nargs=4, type=float,
                   metavar=("GDP_SMALL", "GDP_BIG", "G_SMALL", "G_BIG"))
    p.add_argument("--small", help="small economy panel CSV")
    p.add_argument("--big", help="big economy panel CSV")
    p.add_argument("--rule", choices=REFERENCE_RULES, default="common-prices")
    p.set_defaults(run=_cmd_catchup)

    p = sub.add_parser("demo",
                       help="regenerate island panels and figure data files")
    p.add_argument("--outdir", default=".")
    p.set_defaults(run=_cmd_demo)

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.config:
        scenario = read_scenario_config(_read_text(args.config))
    elif args.scenario == "constant":
        schedule, _rate = calibrate_constant_growth()
        scenario = IslandScenario("constant-calibrated", default_spec(),
                                  schedule)
    else:
        scenario = island_scenario(args.scenario, normalize=not args.raw)
    panel = generate_panel(scenario)
    _emit(write_panel(panel, mode=args.format), args.out)
    return EXIT_OK


def _cmd_rates(args: argparse.Namespace) -> int:
    panel = _load_panel(args, args.panel)
    series = growth_series(panel, _method(args.method),
                           geometric_average=args.geometric)
    averages = [series.running_average] if args.with_average else []
    if args.with_average:  # its running sum or chained level can overflow
        for label, average in zip(series.step_labels, series.running_average):
            if not math.isfinite(average):
                raise DegenerateBaseError(f"average overflows at {label}")
    _emit(write_columns(series.step_labels, series.rates, *averages), args.out)
    return EXIT_OK


def _cmd_circularity(args: argparse.Namespace) -> int:
    panel = _load_panel(args, args.panel)
    residual = circularity_residual(panel, _method(args.method))
    print(format(residual, ".17g"))
    return EXIT_OK


def _cmd_path_integral(args: argparse.Namespace) -> int:
    panel = _load_panel(args, args.panel)
    print(format(path_integral_gdp(panel), ".17g"))
    return EXIT_OK


def _cmd_gap(args: argparse.Namespace) -> int:
    panel = _load_panel(args, args.panel)
    report = perspective_report(panel, args.step, _method(args.method))
    print(f"national_real_growth = {report.national_real_growth:.17g}")
    print(f"national_inflation = {report.national_inflation:.17g}")
    print(f"international_growth = {report.international_growth:.17g}")
    print(f"method = {report.method.value}")
    return EXIT_OK


def _cmd_catchup(args: argparse.Namespace) -> int:
    if args.naive is not None:
        gdp_small, gdp_big, g_small, g_big = args.naive
        print(format(naive_catchup(gdp_small, gdp_big, g_small, g_big), ".6g"))
        return EXIT_OK
    if not (args.small and args.big):
        raise UsageError("catchup needs either --naive or --small/--big")
    small = _load_panel(args, args.small)
    big = _load_panel(args, args.big)
    result = model_catchup(small, big, reference_rule=args.rule)
    print(f"rule = {result.rule}")
    print(f"crossing_year = {result.crossing_year}")
    print(f"fractional_year = {result.fractional_year}")
    print(f"naive_years = {result.naive_years}")
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for rule in ISLAND_RULES:
        panel = generate_panel(island_scenario(rule))
        series = growth_series(panel, IndexMethod.LASPEYRES)
        (outdir / f"gdp{rule}.csv").write_text(write_panel(panel))
        (outdir / f"fig1a_{rule}.csv").write_text(
            write_columns(series.step_labels, series.rates))
        (outdir / f"fig1b_{rule}.csv").write_text(
            write_columns(series.step_labels, series.running_average))
        if rule == "north":  # fig. 2 sets Laspeyres against Paasche
            paasche = growth_series(panel, IndexMethod.PAASCHE)
            (outdir / "fig2_north.csv").write_text(
                write_columns(series.step_labels, series.rates, paasche.rates))
    print(f"wrote demo files to {outdir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleAllocationError, CalibrationError) as exc:
        print(f"model infeasibility: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ModelError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
