"""Differential sweep: the same seeded cases on two trees of gdppath.

Usage:
    python3 tools/diffsweep.py OLD [NEW] [--seed N] [--cases N]

OLD and NEW name git revisions; each is extracted with ``git archive`` into
a temporary directory.  Without NEW the working tree's ``src/`` runs.  Each
case family runs once per tree, in a subprocess with that tree's ``src/``
alone on ``PYTHONPATH``.  The tool compares the ``repr`` of every outcome
(the value, or the error's type and message), and prints per family the
case count, the differences and the candidate paths the calibrations
solved, then the first differences.  It exits 1 when any outcome differs.

Families:
- ``calibrations``: ``calibrate_constant_growth`` at the CLI default; on
  the default economy over 8-12 years at 3-8% a year (the benchmark's
  shape); on economies drawn like the tests' ``two_sector_specs()``, whose
  sectors mostly differ; and on drawn economies whose sectors are
  identical.  The last two take a target (1 + g)^years, 1-60 years at
  0.1-30%.  Then ``huge``: the default economy with a labor force
  10^U(0, 308.2) and omega in {0, 5, 1e4, 1e5}, on targets up to 1e300
  over up to 1000 years, where paths overflow or turn NaN.  Paths are
  counted by wrapping ``_constant_growth_path``.
- ``panels``: ``generate_panel`` for every island rule, raw and
  normalized, at the rule's longest horizon and at a drawn shorter one.
  Economies are drawn like ``two_sector_specs()``, with labor forces up to
  1.7e308 (whose output overflows in year 0 or only in a late year), and
  with extreme elasticities, returns and subsistence (faults in year 0).

Standard library only.  A self-check: ``diffsweep.py HEAD HEAD`` reports 0
differences.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import time

FAMILIES = ("calibrations", "panels")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHOWN = 5  # differences printed
SAME = ("group", "case", "digest")  # what must match, case by case


# --- the worker: runs inside one tree -------------------------------------

def _outcome(fn):
    """The ``repr`` of a call's value, or of its error's type and message,
    and whether it raised."""
    try:
        return repr(fn()), False
    except Exception as exc:  # an unexpected error is an outcome too
        return repr((type(exc).__name__, str(exc))), True


def _spec(gdppath, lam_a, delta_a, lam_b, delta_b, labor, rate, n0, omega):
    return gdppath.EconomySpec(
        sectors=(gdppath.SectorParams("A", lam_a, delta_a),
                 gdppath.SectorParams("B", lam_b, delta_b)),
        total_labor=labor, rate_of_return=rate, subsistence=n0, omega=omega)


def _drawn_params(rng, identical=False, labor=None):
    """Parameters as ``two_sector_specs()`` draws them."""
    rate = rng.uniform(0.0, 0.2)
    lam_a, delta_a = rng.uniform(0.05, 0.95), rng.uniform(0.001, 0.2)
    lam_b, delta_b = ((lam_a, delta_a) if identical else
                      (rng.uniform(0.05, 0.95), rng.uniform(0.001, 0.2)))
    return (lam_a, delta_a, lam_b, delta_b,
            rng.uniform(1.0, 1e6) if labor is None else labor, rate,
            rng.uniform(0.0, 5.0), rng.uniform(0.0, 10.0))


def _target(rng):
    years = rng.randint(1, 60)
    return (1.0 + rng.uniform(0.001, 0.3)) ** years, years


def _huge_target(rng):
    """A target up to 1e300 over up to 1000 years: half of them drawn as
    (1 + g)^years with g from 0.1% to 30% (the guess then often lies in the
    first bracket), half as 10^U(0, 300) (often far above it)."""
    years = rng.randint(1, 1000)
    if rng.random() < 0.5:
        return min((1.0 + rng.uniform(0.001, 0.3)) ** years, 1e300), years
    return 10.0 ** rng.uniform(0.0, 300.0), years


def _huge_params(rng):
    """The default economy with a labor force 10^U(0, 308.2) and omega in
    {0, 5, 1e4, 1e5}: outputs, sector A's productivity or the quadratic
    overflow on some paths, and a NaN path ends the calibration."""
    return (2.0 / 3.0, 0.055, 2.0 / 3.0, 0.055,
            10.0 ** rng.uniform(0.0, 308.2), 0.055, 1.6711,
            rng.choice((0.0, 5.0, 1e4, 1e5)))


def _calibration_cases(rng, count):
    yield "default", (), None
    for _ in range(count):
        years = rng.randint(8, 12)
        yield "workload", ((1.0 + rng.uniform(0.03, 0.08)) ** years,
                           years), None
    for group, identical in (("drawn", False), ("identical", True)):
        for _ in range(count):
            yield group, _target(rng), _drawn_params(rng, identical)
    for _ in range(count):
        yield "huge", _huge_target(rng), _huge_params(rng)


def _panel_params(rng, kind):
    if kind == "drawn":
        return _drawn_params(rng)
    if kind == "huge-labor":  # year 0 or a late year overflows L*y
        return _drawn_params(rng, labor=10.0 ** rng.uniform(300.0, 308.23))
    # Faults in year 0: a zero output per labor, an overflowing price or
    # capital factor, infeasible subsistence.
    return (10.0 ** rng.uniform(-3.0, -0.001), rng.uniform(0.0, 0.2),
            10.0 ** rng.uniform(-3.0, -0.001), rng.uniform(0.0, 0.2),
            10.0 ** rng.uniform(0.0, 6.0), 10.0 ** rng.uniform(-3.0, 5.0),
            10.0 ** rng.uniform(-1.0, 3.0), rng.uniform(0.0, 10.0))


def _panel_cases(rng, count, limits):
    for _ in range(count):
        for kind in ("drawn", "huge-labor", "faults"):
            params = _panel_params(rng, kind)
            for rule, limit in limits.items():
                for years in (limit, rng.randint(1, min(limit, 98) - 1)):
                    for normalize in (False, True):
                        yield kind, (rule, years, normalize), params


def _worker(family: str, seed: int, count: int) -> None:
    import gdppath
    from gdppath import scenarios

    rng = random.Random(f"{family}/{seed}")
    paths = [0]
    path_function = scenarios._constant_growth_path

    def counted_path(*args):
        path = path_function(*args)

        def counted(rate):
            paths[0] += 1
            return path(rate)
        return counted

    scenarios._constant_growth_path = counted_path
    if family == "calibrations":
        cases = _calibration_cases(rng, count)
    else:
        limits = {rule: scenarios._ISLAND_STEPS[rule][0]
                  for rule in scenarios.ISLAND_RULES}
        cases = _panel_cases(rng, count, limits)
    for group, args, params in cases:
        paths[0] = 0
        if family == "calibrations":
            def run():
                if params is None:
                    return gdppath.calibrate_constant_growth(*args)
                return gdppath.calibrate_constant_growth(
                    *args, _spec(gdppath, *params))
        else:
            def run():
                rule, years, normalize = args
                return gdppath.generate_panel(gdppath.IslandScenario(
                    rule, _spec(gdppath, *params), gdppath.build_schedule(
                        rule, 1900, 1900 + years, normalize)))
        text, raised = _outcome(run)
        print(json.dumps({
            "group": group, "case": repr((args, params)),
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "head": text[:120], "paths": paths[0], "raised": raised}))


# --- the comparison: runs each tree's worker -----------------------------

def _extract(revision: str, into: str) -> str:
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", "--format=tar", revision, "src"],
        check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return os.path.join(into, "src")


def _run(src: str, family: str, seed: int, count: int) -> list:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", family,
         "--seed", str(seed), "--cases", str(count)],
        env=env, check=True, capture_output=True, text=True)
    return [json.loads(line) for line in result.stdout.splitlines()]


def _compare(old: list, new: list, family: str, differences: list) -> str:
    if len(old) != len(new):
        differences.append((family, "case count", len(old), len(new)))
    groups: dict[str, list[int]] = {}
    found = 0
    for index, (a, b) in enumerate(zip(old, new)):
        totals = groups.setdefault(a["group"], [0, 0, 0, 0])
        totals[0] += 1
        totals[1] += a["raised"]
        totals[2] += a["paths"]
        totals[3] += b["paths"]
        if [a[key] for key in SAME] != [b[key] for key in SAME]:
            found += 1
            differences.append((
                f"{family}/{a['group']} #{index} {a['case']}",
                a["head"], b["head"]))
    lines = [f"{family}: {len(old)} cases, {found} differences"]
    for group, (cases, raised, paths_a, paths_b) in groups.items():
        line = f"  {group}: {cases} cases, {raised} raised"
        if family == "calibrations":
            line += f", paths {paths_a} -> {paths_b}"
        lines.append(line)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare gdppath outcomes on two trees.")
    parser.add_argument("old", nargs="?", help="git revision of the old tree")
    parser.add_argument("new", nargs="?",
                        help="git revision of the new tree (default: the "
                             "working tree)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=300,
                        help="cases per drawn group")
    parser.add_argument("--worker", choices=FAMILIES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker, args.seed, args.cases)
        return 0
    if args.old is None:
        parser.error("name the old revision")
    start = time.perf_counter()
    differences: list = []
    with tempfile.TemporaryDirectory() as tmp:
        old_src = _extract(args.old, os.path.join(tmp, "old"))
        new_src = (os.path.join(REPO, "src") if args.new is None
                   else _extract(args.new, os.path.join(tmp, "new")))
        print(f"old {args.old}, new {args.new or 'working tree'}, "
              f"seed {args.seed}, {args.cases} cases per drawn group")
        for family in FAMILIES:
            old = _run(old_src, family, args.seed, args.cases)
            new = _run(new_src, family, args.seed, args.cases)
            print(_compare(old, new, family, differences))
    for difference in differences[:SHOWN]:
        print("differs:", *difference, sep="\n  ")
    print(f"{len(differences)} differences in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
