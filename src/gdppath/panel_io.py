"""CSV serialization for priced panels.

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

from .errors import PanelFormatError, ValidationError
from .indexes import PricedPanel, _entry_problem
from .scenarios import START_YEAR

PAPER_COMPAT = "paper-compat"
GENERAL = "general"
PANEL_MODES = (PAPER_COMPAT, GENERAL)


def write_panel(panel: PricedPanel, mode: str = PAPER_COMPAT) -> str:
    """Serialize a panel to CSV text in the chosen layout."""
    if mode not in PANEL_MODES:
        raise ValidationError(f"unknown panel mode {mode!r}")
    if mode == PAPER_COMPAT and len(panel.sector_names) != 2:
        raise ValidationError(
            "paper-compat layout requires exactly two sectors"
        )
    lines = [
        ",".join([f"{v:.17g}" for pair in period for v in pair])
        for period in panel.periods
    ]
    if mode == GENERAL:
        columns = [f"{c}_{name}" for name in panel.sector_names for c in "YP"]
        lines = [",".join(["year", *columns])] + [
            f"{label},{line}"
            for label, line in zip(panel.period_labels, lines)
        ]
    return "\n".join(lines) + "\n"


def write_columns(labels: tuple[int, ...], *columns: tuple[float, ...]) -> str:
    """CSV rows of ``label,value,...``: one row per label, one column per
    sequence of floats, each float to 17 significant digits."""
    cells = [list(map(str, labels))]
    cells += [[f"{v:.17g}" for v in column] for column in columns]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _parse_float(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise PanelFormatError(
            f"line {line_no}: non-numeric field {token!r}"
        ) from None


def _parse_header(line_no: int, header: str) -> list[str]:
    """Sector names of a general-layout header ``year,Y_<a>,P_<a>,...``."""
    cols = header.split(",")
    if len(cols) < 3 or cols[0] != "year" or (len(cols) - 1) % 2 != 0:
        raise PanelFormatError(f"line {line_no}: malformed header {header!r}")
    names = []
    for y_col, p_col in zip(cols[1::2], cols[2::2]):
        if not (y_col.startswith("Y_") and p_col.startswith("P_")):
            raise PanelFormatError(
                f"line {line_no}: malformed column pair {y_col!r},{p_col!r}"
            )
        if y_col[2:] != p_col[2:]:
            raise PanelFormatError(
                f"line {line_no}: mismatched sector names in "
                f"{y_col!r},{p_col!r}"
            )
        names.append(y_col[2:])
    return names


def read_panel(
    text: str,
    mode: str = PAPER_COMPAT,
    start_year: int = START_YEAR,
) -> PricedPanel:
    """Parse CSV text back into a validated panel.

    A ``paper-compat`` panel is the general layout without header or year
    column: its sectors are A and B and its years count from
    ``start_year``.  Malformed rows, non-finite entries, negative
    quantities, and non-positive prices are reported with their line number.
    """
    if mode not in PANEL_MODES:
        raise ValidationError(f"unknown panel mode {mode!r}")
    lines = enumerate(text.splitlines(), start=1)
    rows = [(line_no, line) for line_no, line in lines if line.strip()]
    if not rows:
        raise PanelFormatError("empty panel stream")
    general = mode == GENERAL
    names = _parse_header(*rows.pop(0)) if general else ["A", "B"]
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
            qty = _parse_float(q_field, line_no)
            price = _parse_float(p_field, line_no)
            if not (0.0 <= qty < math.inf and 0.0 < price < math.inf):
                problem = _entry_problem(qty, price)
                raise PanelFormatError(
                    f"line {line_no}: sector {name}: {problem}")
            period.append((qty, price))
        periods.append(tuple(period))
    if not general:
        labels = range(start_year, start_year + len(periods))
    return PricedPanel(tuple(names), tuple(periods), tuple(labels))
