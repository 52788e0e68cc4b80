"""The reference kernel: the fixed unit of pure-Python work that ``ref`` counts.

On a shared VM, pure-Python speed drifts by up to 2x over seconds as other
tenants load the cores.  Code with a different mix of work slows by a
different amount, so the kernel mixes what the three workloads do:

* validated frozen dataclasses, keyword-argument calls and float powers
  (equilibrium, calibration);
* basket sums over zipped tuples (indexes, gap);
* formatting and parsing CSV floats (panel_io);
* argparse parsing, pure path joins and a redirected print (cli).

Measured against it, operations of all three workloads read within about 3%
of each other in fast and slow spells; against the numeric part alone the
demo and analyze operations drifted by 9-11%.

Nothing here may change once recorded: every ``ref`` figure in the README and
in a later comparison is in units of this exact function.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import PurePosixPath


@dataclass(frozen=True)
class _Point:
    t: float
    y: float
    p: float

    def __post_init__(self) -> None:
        _require_finite(t=self.t, y=self.y, p=self.p)


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(name)


def _point(t: float, lam: float, gr: float) -> _Point:
    k = t * ((1.0 - lam) / gr) ** (1.0 / lam)
    y = t**lam * k ** (1.0 - lam)
    return _Point(t, y, 1.0 / (lam * y))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("simulate")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--name")
    p.add_argument("--flag", action="store_true")
    return parser


_PARSER = _parser()


def ref_kernel() -> float:
    pts = [_point(1.0 + 0.02 * i, 0.6 + 0.001 * i, 0.11) for i in range(40)]
    rows = [(a.y, a.p, b.y, b.p) for a, b in zip(pts, pts[1:])]
    acc = 0.0
    for q0, p0, q1, p1 in rows:
        acc += sum(p * q for p, q in zip((p0, p1), (q0, q1))) / (p0 * q0 + p1 * q1)
    text = "\n".join(",".join(format(v, ".17g") for v in r) for r in rows)
    for line in text.splitlines():
        acc += sum(float(c) for c in line.split(","))
    for i in range(3):
        ns = _PARSER.parse_args(["simulate", "--n", str(i), "--name", f"x{i}",
                                 "--flag"])
        acc += ns.n + len(str(PurePosixPath("out") / ns.name / "fig.csv"))
    with contextlib.redirect_stdout(io.StringIO()):
        print("x" * 10)
    return acc
