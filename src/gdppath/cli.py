"""Command-line surface.

Subcommands: simulate, growth, average, circularity, path-integral, gap,
catchup, demo.  Exit codes: 0 success, 1 usage error, 2 data/validation
error, 3 model infeasibility.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    CalibrationError,
    InfeasibleAllocationError,
    ModelError,
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
    write_growth_series,
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
    # argparse exits with code 2 on bad flags; remap to the documented 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _method(name: str) -> IndexMethod:
    try:
        return IndexMethod(name.lower())
    except ValueError:
        raise UsageError(f"unknown index method {name!r}") from None


def _load_panel(args: argparse.Namespace) -> PricedPanel:
    text = Path(args.panel).read_text()
    return read_panel(text, mode=args.format, start_year=args.start_year)


def _load_scenario(args: argparse.Namespace) -> IslandScenario:
    if getattr(args, "config", None):
        return read_scenario_config(Path(args.config).read_text())
    return island_scenario(args.scenario, normalize=not args.raw)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_panel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--panel", required=True, help="panel CSV file")
    p.add_argument("--format", choices=PANEL_MODES, default=PAPER_COMPAT)
    p.add_argument("--start-year", type=int, default=START_YEAR,
                   dest="start_year",
                   help="first year for headerless paper-compat files")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gdppath")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[], help="simulate a scenario panel")
    p.add_argument("--scenario", choices=ISLAND_RULES + ("constant",),
                   default="middle")
    p.add_argument("--config", help="key=value scenario config file")
    p.add_argument("--raw", action="store_true",
                   help="skip endpoint normalization of the schedule")
    p.add_argument("--format", choices=PANEL_MODES, default=PAPER_COMPAT)
    p.add_argument("--out", help="output file (default stdout)")

    for name, avg in (("growth", False), ("average", True)):
        p = sub.add_parser(
            name,
            help="per-step growth rates"
            + (" with running average" if avg else ""),
        )
        _add_panel_args(p)
        p.add_argument("--method", default="laspeyres")
        p.add_argument("--geometric", action="store_true",
                       help="geometric instead of arithmetic running average")
        p.add_argument("--out")

    p = sub.add_parser("circularity", help="log chained level over a loop")
    _add_panel_args(p)
    p.add_argument("--method", default="laspeyres")

    p = sub.add_parser("path-integral",
                       help="line integral of sum_a P_a dY_a along the panel")
    _add_panel_args(p)

    p = sub.add_parser("gap", help="national vs international decomposition")
    _add_panel_args(p)
    p.add_argument("--step", type=int, default=0)
    p.add_argument("--method", default="laspeyres")

    p = sub.add_parser("catchup", help="catch-up time estimates")
    p.add_argument("--naive", nargs=4, type=float,
                   metavar=("GDP_SMALL", "GDP_BIG", "G_SMALL", "G_BIG"))
    p.add_argument("--small", help="small economy panel CSV")
    p.add_argument("--big", help="big economy panel CSV")
    p.add_argument("--rule", choices=REFERENCE_RULES, default="common-prices")
    p.add_argument("--format", choices=PANEL_MODES, default=PAPER_COMPAT)
    p.add_argument("--start-year", type=int, default=START_YEAR,
                   dest="start_year")

    p = sub.add_parser("demo",
                       help="regenerate island panels and figure data files")
    p.add_argument("--outdir", default=".")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.scenario == "constant" and not args.config:
        schedule, _rate = calibrate_constant_growth()
        scenario = IslandScenario("constant-calibrated", default_spec(),
                                  schedule)
    else:
        scenario = _load_scenario(args)
    panel = generate_panel(scenario)
    _emit(write_panel(panel, mode=args.format), args.out)
    return EXIT_OK


def _cmd_rates(args: argparse.Namespace, with_average: bool) -> int:
    panel = _load_panel(args)
    series = growth_series(panel, _method(args.method),
                           geometric_average=args.geometric)
    _emit(write_growth_series(series, with_average=with_average), args.out)
    return EXIT_OK


def _cmd_circularity(args: argparse.Namespace) -> int:
    panel = _load_panel(args)
    residual = circularity_residual(panel, _method(args.method))
    print(format(residual, ".17g"))
    return EXIT_OK


def _cmd_path_integral(args: argparse.Namespace) -> int:
    panel = _load_panel(args)
    print(format(path_integral_gdp(panel), ".17g"))
    return EXIT_OK


def _cmd_gap(args: argparse.Namespace) -> int:
    panel = _load_panel(args)
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
    small = read_panel(Path(args.small).read_text(), mode=args.format,
                       start_year=args.start_year)
    big = read_panel(Path(args.big).read_text(), mode=args.format,
                     start_year=args.start_year)
    result = model_catchup(small, big, reference_rule=args.rule)
    print(f"rule = {result.rule}")
    print(f"crossing_year = {result.crossing_year}")
    print(f"fractional_year = {result.fractional_year}")
    print(f"naive_years = {result.naive_years}")
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    panels, laspeyres = {}, {}
    for rule in ISLAND_RULES:
        panel = generate_panel(island_scenario(rule))
        panels[rule] = panel
        (outdir / f"gdp{rule}.csv").write_text(write_panel(panel))
    for rule, panel in panels.items():
        series = laspeyres[rule] = growth_series(panel, IndexMethod.LASPEYRES)
        (outdir / f"fig1a_{rule}.csv").write_text(write_growth_series(series))
        avg_lines = [
            f"{label},{avg:.17g}"
            for label, avg in zip(series.step_labels, series.running_average)
        ]
        (outdir / f"fig1b_{rule}.csv").write_text("\n".join(avg_lines) + "\n")
    north = laspeyres["north"]
    paasche = growth_series(panels["north"], IndexMethod.PAASCHE)
    fig2 = [
        f"{label},{gl:.17g},{gp:.17g}"
        for label, gl, gp in zip(north.step_labels, north.rates, paasche.rates)
    ]
    (outdir / "fig2_north.csv").write_text("\n".join(fig2) + "\n")
    print(f"wrote demo files to {outdir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "growth":
            return _cmd_rates(args, with_average=False)
        if args.command == "average":
            return _cmd_rates(args, with_average=True)
        if args.command == "circularity":
            return _cmd_circularity(args)
        if args.command == "path-integral":
            return _cmd_path_integral(args)
        if args.command == "gap":
            return _cmd_gap(args)
        if args.command == "catchup":
            return _cmd_catchup(args)
        if args.command == "demo":
            return _cmd_demo(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleAllocationError, CalibrationError) as exc:
        print(f"model infeasibility: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ModelError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
