"""CSV serialization for priced panels and the key=value scenario config.

Two panel layouts:

* ``paper-compat`` -- headerless rows of four decimals per year
  (Y_A, P_A, Y_B, P_B); no year column, so the caller supplies the start
  year on read.  Two-sector panels only.
* ``general`` -- ``year,Y_<name>,P_<name>,...`` header, one row per period,
  any number of sectors.

Writers emit 17 significant digits so a write/read cycle reproduces the
panel bit for bit.
"""

from __future__ import annotations

import math

from .equilibrium import EconomySpec, SectorParams
from .errors import PanelFormatError, ValidationError
from .indexes import GrowthSeries, PricedPanel
from .scenarios import (
    END_YEAR,
    START_YEAR,
    IslandScenario,
    build_schedule,
)

PAPER_COMPAT = "paper-compat"
GENERAL = "general"
PANEL_MODES = (PAPER_COMPAT, GENERAL)

_CONFIG_KEYS = (
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


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_panel(panel: PricedPanel, mode: str = PAPER_COMPAT) -> str:
    """Serialize a panel to CSV text in the chosen layout."""
    if mode == PAPER_COMPAT:
        if len(panel.sector_names) != 2:
            raise ValidationError(
                "paper-compat layout requires exactly two sectors"
            )
        lines = [
            ",".join(_fmt(v) for pair in period for v in pair)
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
                row += [_fmt(qty), _fmt(price)]
            lines.append(",".join(row))
    else:
        raise ValidationError(f"unknown panel mode {mode!r}")
    return "\n".join(lines) + "\n"


def _parse_float(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise PanelFormatError(
            f"line {line_no}: non-numeric field {token!r}"
        ) from None


def read_panel(
    text: str,
    mode: str = PAPER_COMPAT,
    start_year: int = START_YEAR,
    sector_names: tuple[str, ...] = ("A", "B"),
) -> PricedPanel:
    """Parse CSV text back into a validated panel.

    Malformed rows, non-finite entries, negative quantities, and
    non-positive prices are reported with their line number.
    """
    lines = [ln for ln in text.splitlines()]
    if mode == PAPER_COMPAT:
        periods = []
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise PanelFormatError(
                    f"line {line_no}: expected 4 fields, got {len(fields)}"
                )
            vals = [_parse_float(f, line_no) for f in fields]
            _check_pair(vals[0], vals[1], sector_names[0], line_no)
            _check_pair(vals[2], vals[3], sector_names[1], line_no)
            periods.append(((vals[0], vals[1]), (vals[2], vals[3])))
        if not periods:
            raise PanelFormatError("empty panel stream")
        return PricedPanel(
            sector_names=tuple(sector_names[:2]),
            periods=tuple(periods),
            period_labels=tuple(range(start_year, start_year + len(periods))),
        )
    if mode == GENERAL:
        body = [
            (no, ln) for no, ln in enumerate(lines, start=1) if ln.strip()
        ]
        if not body:
            raise PanelFormatError("empty panel stream")
        header_no, header = body[0]
        cols = header.split(",")
        if len(cols) < 3 or cols[0] != "year" or (len(cols) - 1) % 2 != 0:
            raise PanelFormatError(
                f"line {header_no}: malformed header {header!r}"
            )
        names = []
        for i in range(1, len(cols), 2):
            if not (cols[i].startswith("Y_") and cols[i + 1].startswith("P_")):
                raise PanelFormatError(
                    f"line {header_no}: malformed column pair "
                    f"{cols[i]!r},{cols[i + 1]!r}"
                )
            if cols[i][2:] != cols[i + 1][2:]:
                raise PanelFormatError(
                    f"line {header_no}: mismatched sector names in "
                    f"{cols[i]!r},{cols[i + 1]!r}"
                )
            names.append(cols[i][2:])
        periods, labels = [], []
        for line_no, line in body[1:]:
            fields = line.split(",")
            if len(fields) != len(cols):
                raise PanelFormatError(
                    f"line {line_no}: expected {len(cols)} fields, "
                    f"got {len(fields)}"
                )
            try:
                labels.append(int(fields[0]))
            except ValueError:
                raise PanelFormatError(
                    f"line {line_no}: bad year {fields[0]!r}"
                ) from None
            period = []
            for i, name in enumerate(names):
                qty = _parse_float(fields[1 + 2 * i], line_no)
                price = _parse_float(fields[2 + 2 * i], line_no)
                _check_pair(qty, price, name, line_no)
                period.append((qty, price))
            periods.append(tuple(period))
        if not periods:
            raise PanelFormatError("panel stream has a header but no rows")
        return PricedPanel(
            sector_names=tuple(names),
            periods=tuple(periods),
            period_labels=tuple(labels),
        )
    raise ValidationError(f"unknown panel mode {mode!r}")


def _check_pair(qty: float, price: float, name: str, line_no: int) -> None:
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


def write_growth_series(series: GrowthSeries, with_average: bool = False) -> str:
    """Plot-ready CSV of per-step rates (and optionally running averages)."""
    lines = []
    for i, (label, rate) in enumerate(zip(series.step_labels, series.rates)):
        row = [str(label), _fmt(rate)]
        if with_average:
            row.append(_fmt(series.running_average[i]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def read_scenario_config(text: str) -> IslandScenario:
    """Parse a flat key=value config into a scenario, with the baseline
    economy's parameters as defaults and the middle island as default rule."""
    values: dict[str, str] = {}
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
        if key not in _CONFIG_KEYS:
            raise PanelFormatError(f"line {line_no}: unknown key {key!r}")
        values[key] = raw.strip()

    def get_float(key: str, default: float) -> float:
        if key not in values:
            return default
        try:
            return float(values[key])
        except ValueError:
            raise PanelFormatError(
                f"key {key}: unparsable value {values[key]!r}"
            ) from None

    def get_int(key: str, default: int) -> int:
        if key not in values:
            return default
        try:
            return int(values[key])
        except ValueError:
            raise PanelFormatError(
                f"key {key}: unparsable value {values[key]!r}"
            ) from None

    def get_bool(key: str, default: bool) -> bool:
        if key not in values:
            return default
        token = values[key].lower()
        if token in ("true", "yes", "1", "on"):
            return True
        if token in ("false", "no", "0", "off"):
            return False
        raise PanelFormatError(f"key {key}: unparsable value {values[key]!r}")

    rule = values.get("rule", "middle")
    spec = EconomySpec(
        sectors=(
            SectorParams("A", get_float("lambda_A", 2.0 / 3.0),
                         get_float("delta", 0.055)),
            SectorParams("B", get_float("lambda_B", 2.0 / 3.0),
                         get_float("delta", 0.055)),
        ),
        total_labor=get_float("L_t", 100_000.0),
        rate_of_return=get_float("R_c", 0.055),
        subsistence=get_float("N0", 1.6711),
        omega=get_float("omega", 5.0),
    )
    schedule = build_schedule(
        rule,
        start=get_int("start_year", START_YEAR),
        end=get_int("end_year", END_YEAR),
        normalize=get_bool("normalize", True),
    )
    return IslandScenario(name=rule, spec=spec, schedule=schedule)
