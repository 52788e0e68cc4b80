"""The three workloads: seeded inputs, one timed operation, and its checks.

A workload hands the runner rounds of items.  ``run(item)`` is the timed
operation and calls only public gdppath functions, looked up on their module
at call time so the tracer can wrap them.  ``check(item, outcome)`` runs
after the clock stops and raises ``oracle.CheckFailed`` on a wrong output.
Inputs of round ``r`` come from ``random.Random(f"{name}:{seed}:{r}")``, so
a seed fixes every input and no two rounds share one.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from oracle import require

from gdppath import cli, gap, indexes, panel_io, scenarios

METHODS = tuple(indexes.IndexMethod)
INVALID_CONFIG = "lambda_A = 0.001\n"
DEMO_FILES = tuple(
    [f"gdp{r}.csv" for r in oracle.ISLANDS]
    + [f"fig1a_{r}.csv" for r in oracle.ISLANDS]
    + [f"fig1b_{r}.csv" for r in oracle.ISLANDS]
    + ["fig2_north.csv"]
)


@dataclass
class Outcome:
    """What one timed operation returned: its invocations and results."""

    attempted: int
    failed: int
    value: object = None
    notes: list = field(default_factory=list)


class Calibrate:
    """One ``calibrate_constant_growth(target, years)`` plus ``generate_panel``
    of the calibrated schedule.  The work is 41 outer bisection steps times
    ``years`` inner bisections (2054 ``solve_equilibrium`` calls per year,
    whatever the target), so an operation's time is counted per calibrated
    year: horizons can then vary without moving the median.  Round 0 is the
    CLI default (18.93, 98).  Later rounds draw 8-12 years and a target that
    (1 + g)**years reaches for g in U(0.03, 0.08): short enough for a run to
    hold forty operations or more, and far from the 0.15 end of the rate
    bracket."""

    name = "calibrate"
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def build_round(self, r: int) -> list:
        if r == 0:
            return [(scenarios.T_END, scenarios.END_YEAR - scenarios.START_YEAR)]
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        years = rng.randint(8, 12)
        return [((1.0 + rng.uniform(0.03, 0.08)) ** years, years)]

    def warmup_round(self) -> list:
        return [(2.0, 10)]

    def run(self, item) -> Outcome:
        target, years = item
        try:
            schedule, rate = scenarios.calibrate_constant_growth(target, years)
            panel = scenarios.generate_panel(scenarios.IslandScenario(
                "constant-calibrated", scenarios.default_spec(), schedule))
        except Exception as exc:  # a failed operation, counted, not fatal
            return Outcome(1, 1, notes=[f"{type(exc).__name__}: {exc}"])
        return Outcome(1, 0, value=(schedule, rate, panel))

    def check(self, item, outcome: Outcome) -> None:
        target, years = item
        schedule, rate, panel = outcome.value
        qs = [[q for q, _ in period] for period in panel.periods]
        ps = [[p for _, p in period] for period in panel.periods]
        oracle.check_calibration(schedule.values_a, schedule.values_b, rate,
                                 qs, ps, target, years)

    def units(self, item) -> int:
        return item[1]

    def files_written(self, item) -> int:
        return 0

    def release(self, item) -> None:
        pass


class Demo:
    """One in-process ``gdppath demo`` into a fresh directory, three
    ``simulate --config`` runs of fresh seeded specs in the general layout to
    stdout, and one invalid config (``lambda_A = 0.001``) that must end in
    exit code 2 with a one-line message.  Each CLI invocation is one attempt."""

    name = "demo"
    trace_rounds = 3
    specs_per_op = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.invalid = workdir / "invalid.cfg"
        self.invalid.write_text(INVALID_CONFIG)

    def _spec(self, rng: random.Random) -> dict:
        econ = dict(oracle.DEFAULT_ECONOMY)
        econ["lambda_A"] = rng.uniform(0.55, 0.8)
        econ["lambda_B"] = rng.uniform(0.55, 0.8)
        econ["omega"] = rng.uniform(1.0, 8.0)
        # Keep subsistence below year-1 output per labor so L_A <= L_t.
        y_a = oracle.equilibrium_output_per_labor(
            1.0, econ["lambda_A"], econ["R_c"] + econ["delta"])
        econ["N0"] = rng.uniform(0.2, 0.9) * y_a
        start = rng.randint(1800, 1950)
        return {"econ": econ, "rule": rng.choice(oracle.ISLANDS),
                "start": start, "end": start + rng.randint(90, 98)}

    def _build(self, tag: str) -> dict:
        rng = random.Random(f"{self.name}:{self.seed}:{tag}")
        specs = [self._spec(rng) for _ in range(self.specs_per_op)]
        opdir = self.workdir / f"op-{tag}"
        opdir.mkdir()
        argvs = [["demo", "--outdir", str(opdir / "demo")]]
        for k, spec in enumerate(specs):
            econ = spec["econ"]
            cfg = opdir / f"spec{k}.cfg"
            cfg.write_text(
                f"rule = {spec['rule']}\nstart_year = {spec['start']}\n"
                f"end_year = {spec['end']}\n"
                + "".join(f"{key} = {econ[key]!r}\n"
                          for key in ("lambda_A", "lambda_B", "omega", "N0")))
            argvs.append(["simulate", "--config", str(cfg),
                          "--format", "general"])
        argvs.append(["simulate", "--config", str(self.invalid),
                      "--format", "general"])
        return {"dir": opdir, "argvs": argvs, "specs": specs}

    def build_round(self, r: int) -> list:
        return [self._build(str(r))]

    def warmup_round(self) -> list:
        return [self._build("warmup")]

    def run(self, item) -> Outcome:
        results = []
        for argv in item["argvs"]:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:  # escaped main: a failed invocation
                code = exc
            results.append((code, out.getvalue(), err.getvalue()))
        failed, notes = 0, []
        for k, (code, _, err) in enumerate(results):
            invalid = k == len(results) - 1
            ok = (code == 2 and len(err.splitlines()) == 1) if invalid \
                else code == 0
            if not ok:
                failed += 1
                notes.append(f"{' '.join(item['argvs'][k][:1])}: {code!r}")
        return Outcome(len(results), failed, value=results, notes=notes)

    def check(self, item, outcome: Outcome) -> None:
        results = outcome.value
        if results[0][0] == 0:
            self._check_demo(item["dir"] / "demo")
        for spec, (code, out, _) in zip(item["specs"], results[1:-1]):
            if code == 0:
                self._check_simulate(spec, out)

    def _check_demo(self, outdir: Path) -> None:
        names = {p.name for p in outdir.iterdir()}
        missing = [n for n in DEMO_FILES if n not in names]
        require(not missing, f"demo: missing files {missing}")
        islands = {}
        for rule in oracle.ISLANDS:
            rows = oracle.parse_rows((outdir / f"gdp{rule}.csv").read_text(), 4)
            require(len(rows) == 99, f"demo: gdp{rule}.csv has {len(rows)} rows")
            oracle.check_labor_identity(rows, oracle.DEFAULT_ECONOMY,
                                        f"demo gdp{rule}.csv")
            islands[rule] = rows
            qs = [[r[0], r[2]] for r in rows]
            ps = [[r[1], r[3]] for r in rows]
            fig1a = oracle.parse_rows(
                (outdir / f"fig1a_{rule}.csv").read_text(), 2)
            fig1b = oracle.parse_rows(
                (outdir / f"fig1b_{rule}.csv").read_text(), 2)
            labels = list(range(oracle.START_YEAR + 1, oracle.START_YEAR + 99))
            require([int(r[0]) for r in fig1a] == labels
                    and [int(r[0]) for r in fig1b] == labels,
                    f"demo: fig1 {rule} year column")
            rates = [r[1] for r in fig1a]
            oracle.check_rates(rates, qs, ps, "laspeyres", f"demo fig1a {rule}")
            oracle.check_running_average([r[1] for r in fig1b], rates,
                                         f"demo fig1b {rule}")
            if rule == "north":
                fig2 = oracle.parse_rows(
                    (outdir / "fig2_north.csv").read_text(), 3)
                oracle.check_rates([r[1] for r in fig2], qs, ps, "laspeyres",
                                   "demo fig2")
                oracle.check_rates([r[2] for r in fig2], qs, ps, "paasche",
                                   "demo fig2")
        oracle.check_islands(islands)

    def _check_simulate(self, spec: dict, out: str) -> None:
        require(out.startswith("year,Y_A,P_A,Y_B,P_B\n"),
                "simulate: general-layout header")
        rows = oracle.parse_rows(out, 5, header=True)
        years = [int(r[0]) for r in rows]
        require(years == list(range(spec["start"], spec["end"] + 1)),
                f"simulate: years {years[:1]}..{years[-1:]}, expected "
                f"{spec['start']}..{spec['end']}")
        oracle.check_labor_identity([r[1:] for r in rows], spec["econ"],
                                    "simulate")

    def units(self, item) -> int:
        return 1

    def files_written(self, item) -> int:
        demo_dir = item["dir"] / "demo"
        return len(list(demo_dir.iterdir())) if demo_dir.is_dir() else 0

    def release(self, item) -> None:
        shutil.rmtree(item["dir"], ignore_errors=True)


# Fixed panel shapes of one analyze round: (kind, sectors, periods).  The
# shapes never depend on the seed, so every round costs the same; values do.
ANALYZE_SHAPES = (
    ("island", 2, 99), ("island", 2, 99), ("island", 2, 99),
    ("perturbed", 2, 99), ("perturbed", 2, 99), ("perturbed", 2, 99),
    ("general", 2, 400), ("general", 3, 160), ("general", 4, 400),
    ("general", 5, 240), ("general", 6, 100), ("general", 8, 400),
)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def panel_text(qs, ps, names, labels, general: bool) -> str:
    """The benchmark's own CSV writer for the two gdppath layouts."""
    lines = []
    if general:
        lines.append(",".join(["year"] + [f"{c}_{n}" for n in names
                                          for c in ("Y", "P")]))
    for label, q_row, p_row in zip(labels, qs, ps):
        cells = [str(label)] if general else []
        for q, p in zip(q_row, p_row):
            cells += [_fmt(q), _fmt(p)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class Analyze:
    """Read one seeded panel CSV, then: ``growth_series`` under all four
    methods, ``inflation`` and ``perspective_report`` per step,
    ``path_integral_gdp`` forward and reversed, ``circularity_residual`` on
    the out-and-back loop, and ``model_catchup`` under both reference rules
    against a second economy.  A round is the twelve shapes above."""

    name = "analyze"
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def _island(self, rng, rule, perturb: bool):
        econ = dict(oracle.DEFAULT_ECONOMY)
        if not perturb:
            econ["lambda_A"] = rng.uniform(0.6, 0.75)
            econ["lambda_B"] = rng.uniform(0.6, 0.75)
            econ["omega"] = rng.uniform(3.0, 7.0)
            y_a = oracle.equilibrium_output_per_labor(
                1.0, econ["lambda_A"], econ["R_c"] + econ["delta"])
            econ["N0"] = rng.uniform(0.3, 0.9) * y_a
        values_a, values_b = oracle.island_schedule(rule, 98)
        qs, ps = oracle.simulate(values_a, values_b, econ)
        if perturb:
            qs = [[q * math.exp(rng.gauss(0.0, 0.01)) for q in row] for row in qs]
            ps = [[p * math.exp(rng.gauss(0.0, 0.01)) for p in row] for row in ps]
        return qs, ps

    def _general(self, rng, sectors: int, periods: int):
        qs = [[rng.uniform(50.0, 500.0) for _ in range(sectors)]]
        ps = [[rng.uniform(0.5, 5.0) for _ in range(sectors)]]
        trend = [rng.uniform(-0.01, 0.03) for _ in range(sectors)]
        for _ in range(periods - 1):
            qs.append([q * math.exp(g + rng.gauss(0.0, 0.01))
                       for q, g in zip(qs[-1], trend)])
            ps.append([p * math.exp(rng.gauss(0.005, 0.02)) for p in ps[-1]])
        return qs, ps

    def _item(self, rng, pos: int):
        kind, sectors, periods = ANALYZE_SHAPES[pos]
        if kind == "general":
            qs, ps = self._general(rng, sectors, periods)
            names = tuple(f"S{a}" for a in range(sectors))
            labels = tuple(range(oracle.START_YEAR, oracle.START_YEAR + periods))
        else:
            qs, ps = self._island(rng, oracle.ISLANDS[pos % 3],
                                  kind == "perturbed")
            names = ("A", "B")
            labels = tuple(range(oracle.START_YEAR, oracle.START_YEAR + periods))
        # The second economy starts 1.2-3x bigger and loses ground at a rate
        # that puts the crossing anywhere from mid-horizon to past its end.
        head = rng.uniform(1.2, 3.0)
        fade = rng.uniform(0.5, 2.0) * math.log(head) / periods
        big_qs = [[q * head * math.exp(-fade * t + rng.gauss(0.0, 0.005))
                   for q in row] for t, row in enumerate(qs)]
        big_ps = [[p * math.exp(rng.gauss(0.0, 0.01)) for p in row] for row in ps]
        general = kind == "general"
        return {
            "mode": panel_io.GENERAL if general else panel_io.PAPER_COMPAT,
            "text": panel_text(qs, ps, names, labels, general),
            "names": names, "labels": labels, "qs": qs, "ps": ps,
            "big_qs": big_qs, "big_ps": big_ps,
            "big": indexes.PricedPanel(
                names, tuple(tuple(zip(q, p)) for q, p in zip(big_qs, big_ps)),
                labels),
        }

    def build_round(self, r) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        return [self._item(rng, pos) for pos in range(len(ANALYZE_SHAPES))]

    def warmup_round(self) -> list:
        return self.build_round("warmup")

    def run(self, item) -> Outcome:
        ix = indexes
        try:
            panel = panel_io.read_panel(item["text"], mode=item["mode"])
            steps = range(panel.n_periods - 1)
            series = {m: ix.growth_series(panel, m) for m in METHODS}
            infl = [ix.inflation(panel, s, ix.IndexMethod.FISHER) for s in steps]
            reports = [gap.perspective_report(panel, s) for s in steps]
            forward = ix.path_integral_gdp(panel)
            backward = ix.path_integral_gdp(ix.PricedPanel(
                panel.sector_names, panel.periods[::-1], panel.period_labels))
            loop = ix.PricedPanel(panel.sector_names,
                                  panel.periods + panel.periods[-2::-1],
                                  tuple(range(2 * panel.n_periods - 1)))
            residuals = (ix.circularity_residual(loop, ix.IndexMethod.FISHER),
                         ix.circularity_residual(loop, ix.IndexMethod.LASPEYRES))
            catchups = [gap.model_catchup(panel, item["big"], rule)
                        for rule in gap.REFERENCE_RULES]
        except Exception as exc:  # a failed operation, counted, not fatal
            return Outcome(1, 1, notes=[f"{type(exc).__name__}: {exc}"])
        return Outcome(1, 0, value=(panel, series, infl, reports, forward,
                                    backward, residuals, catchups))

    def check(self, item, outcome: Outcome) -> None:
        panel, series, infl, reports, forward, backward, residuals, catchups = \
            outcome.value
        qs, ps, labels = item["qs"], item["ps"], item["labels"]
        oracle.check_panel_values(panel.periods, panel.period_labels, qs, ps,
                                  labels, "read_panel")
        require(tuple(panel.sector_names) == item["names"],
                "read_panel: sector names")
        again = panel_io.read_panel(
            panel_io.write_panel(panel, mode=item["mode"]), mode=item["mode"])
        require(again == panel, "write_panel/read_panel round trip is not exact")
        for method, s in series.items():
            what = f"growth_series {method.value}"
            oracle.check_rates(s.rates, qs, ps, method.value, what)
            oracle.check_chained_level(s.chained_level, s.rates, what)
            oracle.check_running_average(s.running_average, s.rates, what)
            require(tuple(s.step_labels) == labels[1:], f"{what}: step labels")
        for step, (inf, rep) in enumerate(zip(infl, reports)):
            nominal = oracle.nominal_rate(qs, ps, step)
            fisher = oracle.real_rate(qs, ps, step, "fisher")
            lasp = oracle.real_rate(qs, ps, step, "laspeyres")
            require(close1(inf, (1.0 + nominal) / (1.0 + fisher) - 1.0),
                    f"inflation step {step}: {inf!r}")
            require(close1(rep.national_real_growth, lasp)
                    and close1(rep.national_inflation,
                               (1.0 + nominal) / (1.0 + lasp) - 1.0)
                    and close1(rep.international_growth, nominal),
                    f"perspective_report step {step} disagrees with oracle")
        oracle.check_path_integral(forward, backward, qs, ps)
        oracle.check_loop_residuals(residuals[0], residuals[1], qs, ps)
        big_qs, big_ps = item["big_qs"], item["big_ps"]
        for rule, result in zip(gap.REFERENCE_RULES, catchups):
            if rule == "common-prices":
                ref = big_ps[0]
                v_small = [oracle.basket(ref, q) for q in qs]
                v_big = [oracle.basket(ref, q) for q in big_qs]
            else:
                v_small = [oracle.basket(p, q) for p, q in zip(ps, qs)]
                v_big = [oracle.basket(p, q) for p, q in zip(big_ps, big_qs)]
            oracle.check_catchup(result, v_small, v_big, labels, rule)

    def units(self, item) -> int:
        return 1

    def files_written(self, item) -> int:
        return 0

    def release(self, item) -> None:
        pass


def close1(got: float, want: float) -> bool:
    """Growth-like values agree to 1e-12 relative on 1 + x."""
    return oracle.close(1.0 + got, 1.0 + want, 1e-12)


WORKLOADS = {w.name: w for w in (Calibrate, Demo, Analyze)}
