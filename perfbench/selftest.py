"""Tests of the benchmark itself: every output check fails on a deliberately
wrong result, failed operations are counted exactly, and the runner refuses
to run without gdppath sources.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from unittest import mock

import run

workloads = run.import_package()
oracle = workloads.oracle
CheckFailed = oracle.CheckFailed

from gdppath import cli, indexes, panel_io  # noqa: E402

SCRATCH = run.RESULTS / "selftest"


def setUpModule():
    SCRATCH.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


class CalibrateChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.Calibrate(3, SCRATCH)
        cls.item = (3.0, 12)
        cls.outcome = cls.wl.run(cls.item)

    def test_correct_output_passes(self):
        self.assertEqual((self.outcome.attempted, self.outcome.failed), (1, 0))
        self.wl.check(self.item, self.outcome)

    def test_perturbed_rate_fails(self):
        schedule, rate, panel = self.outcome.value
        bad = replace(self.outcome, value=(schedule, rate + 1e-8, panel))
        with self.assertRaisesRegex(CheckFailed, "Laspeyres growth"):
            self.wl.check(self.item, bad)

    def test_missed_endpoint_fails(self):
        with self.assertRaisesRegex(CheckFailed, "sector A ends"):
            self.wl.check((3.0 * (1 + 1e-8), 12), self.outcome)

    def test_shifted_price_fails(self):
        schedule, rate, panel = self.outcome.value
        periods = list(panel.periods)
        (q, p), b = periods[5]
        periods[5] = ((q, p * (1 + 1e-9)), b)
        shifted = replace(panel, periods=tuple(periods))
        bad = replace(self.outcome, value=(schedule, rate, shifted))
        with self.assertRaisesRegex(CheckFailed, "closed form"):
            self.wl.check(self.item, bad)


class AnalyzeChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.Analyze(5, SCRATCH)
        rounds = cls.wl.build_round(0)
        # One paper-layout island and one general-layout panel.
        cls.items = [rounds[0], rounds[7]]

    def test_correct_output_passes(self):
        for item in self.items:
            self.wl.check(item, self.wl.run(item))

    def test_shifted_price_fails(self):
        for item in self.items:
            ps = [list(row) for row in item["ps"]]
            ps[3][1] *= 1.001
            text = workloads.panel_text(item["qs"], ps, item["names"],
                                        item["labels"],
                                        item["mode"] == panel_io.GENERAL)
            with self.assertRaisesRegex(CheckFailed, "not bit-exact"):
                self.wl.check(item, self.wl.run(dict(item, text=text)))

    def test_wrong_growth_rate_fails(self):
        item = self.items[1]
        outcome = self.wl.run(item)
        panel, series, *rest = outcome.value
        lasp = indexes.IndexMethod.LASPEYRES
        rates = list(series[lasp].rates)
        rates[10] += 1e-9
        series = dict(series)
        series[lasp] = replace(series[lasp], rates=tuple(rates))
        with self.assertRaisesRegex(CheckFailed, "laspeyres step 10"):
            self.wl.check(item, replace(outcome, value=(panel, series, *rest)))

    def test_dropped_row_fails(self):
        for item in self.items:
            lines = item["text"].splitlines(keepends=True)
            short = panel_io.read_panel("".join(lines[:20] + lines[21:]),
                                        mode=item["mode"])
            outcome = self.wl.run(item)
            bad = replace(outcome, value=(short,) + outcome.value[1:])
            with self.assertRaisesRegex(CheckFailed, "periods|labels"):
                self.wl.check(item, bad)

    def test_lossy_write_fails(self):
        item = self.items[0]
        outcome = self.wl.run(item)
        def lossy(panel, mode):
            return "".join(",".join(format(v, ".12g") for pair in period
                                    for v in pair) + "\n"
                           for period in panel.periods)

        with mock.patch.object(panel_io, "write_panel", lossy):
            with self.assertRaisesRegex(CheckFailed, "round trip"):
                self.wl.check(item, outcome)

    def tampered(self, index, value):
        item = self.items[1]
        outcome = self.wl.run(item)
        values = list(outcome.value)
        values[index] = value(values[index])
        return item, replace(outcome, value=tuple(values))

    def test_path_integral_not_antisymmetric_fails(self):
        item, bad = self.tampered(5, lambda backward: backward * (1 + 1e-9))
        with self.assertRaisesRegex(CheckFailed, "antisymmetric"):
            self.wl.check(item, bad)

    def test_fisher_loop_not_closing_fails(self):
        item, bad = self.tampered(6, lambda res: (res[0] + 1e-8, res[1]))
        with self.assertRaisesRegex(CheckFailed, "Fisher residual"):
            self.wl.check(item, bad)

    def test_wrong_crossing_year_fails(self):
        def shift(catchups):
            first = catchups[0]
            year = (first.crossing_year or 1900) + 1
            return [replace(first, crossing_year=year)] + catchups[1:]
        item, bad = self.tampered(7, shift)
        with self.assertRaisesRegex(CheckFailed, "catch-up"):
            self.wl.check(item, bad)


class DemoCounting(unittest.TestCase):
    def setUp(self):
        self.dir = SCRATCH / "demo"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.wl = workloads.Demo(7, self.dir)
        self.item = self.wl.build_round(0)[0]

    def tearDown(self):
        self.wl.release(self.item)

    def test_only_the_invalid_config_fails(self):
        outcome = self.wl.run(self.item)
        self.wl.check(self.item, outcome)
        codes = [code for code, _, _ in outcome.value]
        self.assertEqual(outcome.attempted, 5)
        self.assertEqual(codes[:4], [0, 0, 0, 0])
        # Today lambda_A = 0.001 escapes cli.main as a bare OverflowError.
        self.assertIsInstance(codes[4], OverflowError)
        self.assertEqual(outcome.failed, 1)
        self.assertEqual(self.wl.files_written(self.item), 10)

    def test_mended_invalid_config_counts_as_success(self):
        real_main = cli.main

        def mended(argv):
            if argv[2] == str(self.wl.invalid):
                print("data error: lambda_A too small", file=sys.stderr)
                return 2
            return real_main(argv)

        with mock.patch.object(cli, "main", mended):
            outcome = self.wl.run(self.item)
        self.assertEqual((outcome.attempted, outcome.failed), (5, 0))

    def test_two_line_message_counts_as_failure(self):
        def noisy(argv):
            print("data error\ntraceback", file=sys.stderr)
            return 2

        with mock.patch.object(cli, "main", noisy):
            outcome = self.wl.run(self.item)
        self.assertEqual(outcome.failed, 5)

    def test_wrong_outputs_fail(self):
        outcome = self.wl.run(self.item)
        out = outcome.value[1][1]
        lines = out.splitlines()
        cells = lines[5].split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-9))
        lines[5] = ",".join(cells)
        bad = list(outcome.value)
        bad[1] = (0, "\n".join(lines) + "\n", "")
        with self.assertRaisesRegex(CheckFailed, "sum lam"):
            self.wl.check(self.item, replace(outcome, value=bad))
        fig1b = self.item["dir"] / "demo" / "fig1b_south.csv"
        rows = fig1b.read_text().splitlines()
        year, avg = rows[-1].split(",")
        rows[-1] = f"{year},{float(avg) + 1e-6!r}"
        fig1b.write_text("\n".join(rows) + "\n")
        with self.assertRaisesRegex(CheckFailed, "fig1b south"):
            self.wl.check(self.item, outcome)

    def test_island_band_and_endpoints(self):
        self.wl.run(self.item)
        rows = {r: oracle.parse_rows(
            (self.item["dir"] / "demo" / f"gdp{r}.csv").read_text(), 4)
            for r in oracle.ISLANDS}
        oracle.check_islands(rows)
        swapped = dict(rows, north=rows["south"], south=rows["north"])
        with self.assertRaisesRegex(CheckFailed, "outside"):
            oracle.check_islands(swapped)
        moved = dict(rows, middle=rows["middle"][:-1] + [
            [v * 1.01 for v in rows["middle"][-1]]])
        with self.assertRaisesRegex(CheckFailed, "endpoints"):
            oracle.check_islands(moved)


class Runner(unittest.TestCase):
    def test_tail_needs_forty_samples(self):
        self.assertEqual(run.tail(list(range(39))), (None, None))
        value, pct = run.tail([float(i) for i in range(100)])
        self.assertEqual(pct, 90)
        self.assertEqual(sum(1 for i in range(100) if i > value), 10)

    def test_refuses_to_run_without_sources(self):
        root = SCRATCH / "bare"
        shutil.copytree(run.HERE, root / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "demo",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_trace_counts_repeat_and_wrappers_come_off(self):
        import tracer

        original = panel_io.read_panel
        wl = workloads.Analyze(9, SCRATCH)
        item = wl.build_round(0)[6]
        counts = []
        for _ in range(2):
            tr = tracer.Tracer()
            tr.install()
            try:
                tr.active = True
                wl.run(item)
                tr.active = False
            finally:
                tr.uninstall()
            tr.fold()
            counts.append(({k: v["calls"] for k, v in tr.totals.items()},
                           tr.bytes_read, tr.rows_read))
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0][2], 400)
        self.assertGreater(counts[0][0]["indexes.real_growth"], 0)
        self.assertIs(panel_io.read_panel, original)


if __name__ == "__main__":
    unittest.main()
