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
from itertools import chain, repeat

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
            "paper-compat layout requires exactly two sectors")
    if mode == PAPER_COMPAT:
        return _rows(chain.from_iterable(panel.periods), 4, False)
    cols = [f"{c}_{name}" for name in panel.sector_names for c in "YP"]
    rows = zip(panel.period_labels, panel.periods)
    cells = chain.from_iterable(((label,), *period) for label, period in rows)
    return ",".join(["year", *cols]) + "\n" + _rows(cells, len(cols), True)


def write_columns(labels: tuple[int, ...], *columns: tuple[float, ...]) -> str:
    """CSV rows of ``label,value,...``: one row per label, one column per
    sequence of floats; no rows give a lone newline."""
    return _rows(zip(labels, *columns), len(columns), True) or "\n"


def _rows(cells, n_floats: int, labelled: bool) -> str:
    """Rows of the flattened ``cells``: [label,] n_floats 17-digit floats."""
    flat = tuple(chain.from_iterable(cells))
    row = ",".join(["%s"] * labelled + ["%.17g"] * n_floats) + "\n"
    return row * (len(flat) // (labelled + n_floats)) % flat


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

    A text is read in one bulk pass over all its rows; any text that pass
    cannot vouch for is read row by row, which names its first fault.
    """
    if mode not in PANEL_MODES:
        raise ValidationError(f"unknown panel mode {mode!r}")
    lines = text.splitlines()
    general = mode == GENERAL
    read = _read_bulk(lines, general)
    if read is None:
        read = _read_rows(lines, general)
    names, periods, labels = read
    if not general:
        labels = range(start_year, start_year + len(periods))
    # Every entry is checked by either pass.
    return PricedPanel._from_checked(tuple(names), tuple(periods),
                                     tuple(labels))


def _read_bulk(lines, general: bool):
    """``(names, periods, labels)`` of a text with no blank line and rows
    of the header's width whose every field parses to a valid entry; None
    for any other text.  A header on the first line is parsed as the
    row-by-row pass would, faults and all.  A paper-compat text has no
    labels (None)."""
    if general:
        if not lines or not lines[0].strip():
            return None
        names = _parse_header(1, lines[0])
        lines = lines[1:]
    else:
        names = ["A", "B"]
    width = 2 * len(names) + general
    # A blank line has no comma, and every width is at least 3.
    if {*map(str.count, lines, repeat(","))} != {width - 1}:
        return None
    fields = ",".join(lines).split(",")
    try:
        if general:
            labels = list(map(int, fields[::width]))
            del fields[::width]
        else:
            labels = None
        values = list(map(float, fields))
    except ValueError:
        return None
    # NaN, an infinity or a sum that overflows fails the guard, and leaves
    # the entries to the row-by-row pass.
    if not (sum(values) < math.inf and min(values[::2]) >= 0.0
            and min(values[1::2]) > 0.0):
        return None
    pairs = iter(zip(values[::2], values[1::2]))
    return names, tuple(zip(*[pairs] * len(names))), labels


def _read_rows(lines, general: bool):
    """``(names, periods, labels)`` read row by row, raising on the first
    fault with its line number.  A paper-compat text has no labels (an
    empty list)."""
    rows = [(line_no, line) for line_no, line in enumerate(lines, start=1)
            if line.strip()]
    if not rows:
        raise PanelFormatError("empty panel stream")
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
        if general:
            year = fields[0]
            try:
                labels.append(int(year))
            except ValueError:
                raise PanelFormatError(
                    f"line {line_no}: bad year {year!r}"
                ) from None
        try:
            values = iter(list(map(float, fields[general:])))
        except ValueError:
            # Parse pair by pair, so that a sector's faulty entry is named
            # before an unparsable field further along the row.
            values = (_parse_float(field, line_no) for field in fields[general:])
        period = []
        for name, qty, price in zip(names, values, values):
            if not (0.0 <= qty < math.inf and 0.0 < price < math.inf):
                problem = _entry_problem(qty, price)
                raise PanelFormatError(
                    f"line {line_no}: sector {name}: {problem}")
            period.append((qty, price))
        periods.append(tuple(period))
    return names, periods, labels
