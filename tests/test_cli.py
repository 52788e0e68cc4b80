import operator
import tracemalloc
from itertools import accumulate
from pathlib import Path

import pytest

from gdppath.cli import main

GOLDEN_DEMO = Path(__file__).parent / "golden" / "demo"

CHINA_CSV = "2000,1,300,5\n2120,1,303,5.15\n"
LOOP_CSV = "1,1,1,1\n2,1,1,2\n1,1,1,1\n"
ZERO_LEVEL_LOOP = "1,1,0,1\n1e-300,1,0,1\n1,1,0,1\n"
# Sector A's basket value p·q is 1e310 or 2e308: finite entries whose sums
# overflow.
OVERFLOW_SAME = "1e300,1e10,1,1\n1e300,1e10,1,1\n"
OVERFLOW_FALL = "1e298,2e10,1,1\n0.85e298,2e10,1,1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_middle_island_csv(self, tmp_path, capsys):
        out = tmp_path / "gdpmiddle.csv"
        code, _, _ = run(capsys, "simulate", "--scenario", "middle",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 99
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "simulate", "--scenario", "north", "--out", str(a))
        run(capsys, "simulate", "--scenario", "north", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "island.cfg"
        cfg.write_text("rule = south\nend_year = 1910\n")
        out = tmp_path / "south.csv"
        code, _, _ = run(capsys, "simulate", "--config", str(cfg),
                         "--out", str(out))
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 11

    def test_infeasible_config_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("N0 = 2.0\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 3
        assert "infeasib" in err

    def test_overflowing_elasticity_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "tiny_lambda.cfg"
        cfg.write_text("lambda_A = 0.001\n")
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("data error: sector A:")


class TestGrowthCommands:
    def test_growth_china(self, tmp_path, capsys):
        panel = tmp_path / "china.csv"
        panel.write_text(CHINA_CSV)
        code, out, _ = run(capsys, "growth", "--panel", str(panel),
                           "--method", "laspeyres", "--start-year", "2015")
        assert code == 0
        year, rate = out.strip().split(",")
        assert year == "2016"
        assert float(rate) == pytest.approx(0.03857, abs=5e-6)

    def test_average_has_third_column(self, tmp_path, capsys):
        panel = tmp_path / "china.csv"
        panel.write_text(CHINA_CSV)
        code, out, _ = run(capsys, "average", "--panel", str(panel))
        assert code == 0
        assert len(out.strip().split(",")) == 3

    def test_pipeline_closure(self, tmp_path, capsys):
        # demo panels fed back through growth reproduce the same rates
        code, _, _ = run(capsys, "demo", "--outdir", str(tmp_path))
        assert code == 0
        code, out, _ = run(capsys, "growth", "--panel",
                           str(tmp_path / "gdpnorth.csv"))
        assert code == 0
        rates = [float(line.split(",")[1]) for line in out.strip().split("\n")]
        fig1a = [
            float(line.split(",")[1])
            for line in (tmp_path / "fig1a_north.csv").read_text()
            .strip().split("\n")
        ]
        assert rates == pytest.approx(fig1a, rel=1e-9)


class TestScalarCommands:
    def test_circularity(self, tmp_path, capsys):
        panel = tmp_path / "loop.csv"
        panel.write_text(LOOP_CSV)
        code, out, _ = run(capsys, "circularity", "--panel", str(panel))
        assert code == 0
        import math

        assert float(out.strip()) == pytest.approx(math.log(1.125), rel=1e-12)

    def test_path_integral(self, tmp_path, capsys):
        panel = tmp_path / "path.csv"
        panel.write_text("1,1,1,1\n2,1,1,2\n2,1,2,2\n")
        code, out, _ = run(capsys, "path-integral", "--panel", str(panel))
        assert code == 0
        assert float(out.strip()) == pytest.approx(3.0)

    def test_gap_report(self, tmp_path, capsys):
        panel = tmp_path / "china.csv"
        panel.write_text(CHINA_CSV)
        code, out, _ = run(capsys, "gap", "--panel", str(panel),
                           "--start-year", "2015")
        assert code == 0
        values = dict(
            line.split(" = ") for line in out.strip().split("\n")
        )
        assert float(values["national_real_growth"]) == pytest.approx(
            0.03857, abs=5e-6
        )
        assert float(values["national_inflation"]) == pytest.approx(
            0.01250, abs=5e-6
        )
        assert float(values["international_growth"]) == pytest.approx(
            0.05156, abs=5e-6
        )

    def test_naive_catchup(self, capsys):
        code, out, _ = run(capsys, "catchup", "--naive",
                           "11", "18", "0.06", "0.03")
        assert code == 0
        assert float(out.strip()) == pytest.approx(17.15, abs=0.01)

    def test_naive_catchup_scientific_negative(self, capsys):
        # "-1e-3" is a value, not an option flag.
        code, out, err = run(capsys, "catchup", "--naive",
                             "11", "18", "-1e-3", "0.03")
        assert (code, err) == (0, "")
        assert out == "-16.1154\n"
        assert run(capsys, "catchup", "--naive",
                   "11", "18", "-0.001", "0.03") == (code, out, err)

    def test_naive_catchup_negative_infinity_exit_2(self, capsys):
        code, out, err = run(capsys, "catchup", "--naive",
                             "11", "18", "-inf", "0.03")
        assert code == 2
        assert out == ""
        assert err == "data error: growth rates must be finite\n"


class TestDemo:
    def test_writes_all_files(self, tmp_path, capsys):
        code, _, _ = run(capsys, "demo", "--outdir", str(tmp_path))
        assert code == 0
        for name in ("gdpnorth.csv", "gdpmiddle.csv", "gdpsouth.csv",
                     "fig1a_north.csv", "fig1a_middle.csv", "fig1a_south.csv",
                     "fig1b_north.csv", "fig1b_middle.csv", "fig1b_south.csv",
                     "fig2_north.csv"):
            assert (tmp_path / name).exists(), name

    def test_fig2_proximity(self, tmp_path, capsys):
        run(capsys, "demo", "--outdir", str(tmp_path))
        rows = (tmp_path / "fig2_north.csv").read_text().strip().split("\n")
        for row in rows:
            _, g_l, g_p = row.split(",")
            assert abs(float(g_l) - float(g_p)) < 0.005

    def test_fig1a_middle_band(self, tmp_path, capsys):
        run(capsys, "demo", "--outdir", str(tmp_path))
        rows = (tmp_path / "fig1a_middle.csv").read_text().strip().split("\n")
        for row in rows:
            assert abs(float(row.split(",")[1]) - 0.030) < 0.005

    def test_matches_golden_files(self, tmp_path, capsys):
        # tests/golden/demo was written by `gdppath demo` before the one-pass
        # index kernel; the ten files must stay the same byte for byte.
        code, _, _ = run(capsys, "demo", "--outdir", str(tmp_path))
        assert code == 0
        golden = sorted(p.name for p in GOLDEN_DEMO.iterdir())
        assert len(golden) == 10
        assert sorted(p.name for p in tmp_path.iterdir()) == golden
        for name in golden:
            assert (tmp_path / name).read_bytes() == (
                GOLDEN_DEMO / name
            ).read_bytes(), name

    def test_input_files_not_mutated(self, tmp_path, capsys):
        panel = tmp_path / "china.csv"
        panel.write_text(CHINA_CSV)
        before = panel.read_bytes()
        run(capsys, "growth", "--panel", str(panel))
        assert panel.read_bytes() == before


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "growth")
        assert code == 1

    def test_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n")
        code, _, err = run(capsys, "growth", "--panel", str(bad))
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_entry(self, tmp_path, capsys, token):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1,1,1,1\n1,1,{token},1\n")
        code, out, err = run(capsys, "growth", "--panel", str(bad))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "line 2: sector B: non-finite quantity" in err

    @pytest.mark.parametrize("argv, text", [
        # real growth of -100%: inflation divides by zero real output
        (["gap"], "1,1,1,1\n0,1,0,1\n"),
        # q1/q0 underflows to 0.0 and math.log would fail on it
        (["growth", "--method", "tornqvist"], "2,1,1,1\n5e-324,1,1,1\n"),
        # positive quantities whose period value rounds to zero
        (["growth", "--method", "tornqvist"], "5e-324,0.1,5e-324,0.1\n"
                                              "1,1,1,1\n"),
    ])
    def test_degenerate_step_exit_2(self, tmp_path, capsys, argv, text):
        panel = tmp_path / "panel.csv"
        panel.write_text(text)
        code, out, err = run(capsys, *argv, "--panel", str(panel))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        *(["growth", "--method", m, "--panel", "{panel}"]
          for m in ("laspeyres", "paasche", "fisher", "tornqvist")),
        ["average", "--geometric", "--panel", "{panel}"],
        ["gap", "--panel", "{panel}"],
        ["catchup", "--small", "{panel}", "--big", "{panel}"],
    ])
    def test_subnormal_base_exit_2(self, tmp_path, capsys, argv):
        # A positive base value of 1e-323 makes the growth ratio overflow.
        panel = tmp_path / "panel.csv"
        panel.write_text("5e-324,1,5e-324,1\n1,1,1,1\n")
        code, out, err = run(capsys, *(a.format(panel=panel) for a in argv))
        assert code == 2
        assert out == ""
        assert err == "data error: growth from period 0 to 1 is not finite\n"

    @pytest.mark.parametrize("method, text", [
        # the first rate rounds to exactly -1, so the chained level is 0.0
        ("laspeyres", ZERO_LEVEL_LOOP),
        ("paasche", ZERO_LEVEL_LOOP),
        # the second step's (1 + g_L)(1 + g_P) overflows; its root does not
        ("fisher", ZERO_LEVEL_LOOP),
        ("tornqvist", "1,1,1,1\n1e-300,1,1,1\n1,1,1,1\n"),
    ], ids=["laspeyres", "paasche", "fisher", "tornqvist"])
    def test_zero_loop_level_exit_2(self, tmp_path, capsys, method, text):
        panel = tmp_path / "loop.csv"
        panel.write_text(text)
        code, out, err = run(capsys, "circularity", "--method", method,
                             "--panel", str(panel))
        assert code == 2
        assert out == ""
        assert err == ("data error: chained level over the loop is 0.0: "
                       "no finite log\n")

    def test_fisher_product_overflow(self, tmp_path, capsys):
        # Laspeyres and Paasche growth are both 5.6e260, so the product of
        # their factors overflows although the Fisher index does not.
        panel = tmp_path / "one_sector.csv"
        panel.write_text("year,Y_A,P_A\n2000,1.78e-261,1\n2001,1,1\n")
        code, out, err = run(capsys, "growth", "--method", "fisher",
                             "--format", "general", "--panel", str(panel))
        assert (code, err) == (0, "")
        year, rate = out.strip().split(",")
        assert year == "2001"
        assert float(rate) == pytest.approx(1 / 1.78e-261, rel=1e-15)

    @pytest.mark.parametrize("flags, quantities, year, rates", [
        # 1e308 - 1 + 1e308: the running sum overflows at the third step
        ([], [1e-300, 1e8] * 2, 1903, ["1e+308", "-1", "1e+308"]),
        # the chained level of 62 steps of 1e10 overflows
        (["--geometric"], list(accumulate([1e10] * 62, operator.mul,
                                          initial=5e-324)),
         1931, ["9999999999"] * 62),
    ], ids=["arithmetic", "geometric"])
    def test_running_average_overflow_exit_2(self, tmp_path, capsys, flags,
                                             quantities, year, rates):
        panel = tmp_path / "panel.csv"
        panel.write_text("".join(f"{q!r},1,{q!r},1\n" for q in quantities))
        code, out, err = run(capsys, "average", *flags, "--panel", str(panel))
        assert code == 2
        assert out == ""
        assert err == f"data error: average overflows at {year}\n"
        # `growth` prints only the rates, which are all finite.
        code, out, err = run(capsys, "growth", "--panel", str(panel))
        assert (code, err) == (0, "")
        assert out == "".join(f"{1901 + i},{rate}\n"
                              for i, rate in enumerate(rates))

    @pytest.mark.parametrize("method", ["laspeyres", "paasche", "fisher",
                                        "tornqvist"])
    @pytest.mark.parametrize("text, rate", [
        (OVERFLOW_SAME, "0"),
        # the true growth is -15%; unscaled, 1.7e308 / inf read -100%
        (OVERFLOW_FALL, "-0.15000000000000002"),
    ], ids=["same", "fall"])
    def test_overflowing_basket_is_rescaled(self, tmp_path, capsys, method,
                                            text, rate):
        panel = tmp_path / "panel.csv"
        panel.write_text(text)
        code, out, err = run(capsys, "growth", "--method", method,
                             "--panel", str(panel))
        assert (code, out, err) == (0, f"1901,{rate}\n", "")
        code, out, err = run(capsys, "gap", "--method", method,
                             "--panel", str(panel))
        assert (code, err) == (0, "")
        assert out.splitlines()[:3] == [
            f"national_real_growth = {rate}",
            "national_inflation = 0",
            f"international_growth = {rate}",
        ]

    def test_path_integral_overflow_exit_2(self, tmp_path, capsys):
        # The first leg's term is -inf and the second's +inf: the sum is nan.
        panel = tmp_path / "path.csv"
        panel.write_text("1e300,1e10,1,1\n1e-300,1,1,1\n1e300,1e10,1,1\n")
        code, out, err = run(capsys, "path-integral", "--panel", str(panel))
        assert (code, out) == (2, "")
        assert err == ("data error: path integral overflows from period 0 "
                       "to 1\n")

    def test_horizon_cap_before_allocation(self, tmp_path, capsys):
        cfg = tmp_path / "long.cfg"
        cfg.write_text("end_year = 3000000\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "simulate", "--config", str(cfg))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "exceeds the maximum" in err
        assert peak < 1_000_000

    @pytest.mark.parametrize("argv", [
        ["growth", "--panel", "{bad}"],
        ["catchup", "--small", "{bad}", "--big", "{good}"],
        ["catchup", "--small", "{good}", "--big", "{bad}"],
        ["simulate", "--config", "{bad}"],
    ])
    def test_non_utf8_input_exit_2(self, tmp_path, capsys, argv):
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_bytes(b"\xff1,1,1,1\n")
        good.write_text(CHINA_CSV)
        argv = [a.format(bad=bad, good=good) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"data error: {bad}: ")

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "growth", "--panel", "/nonexistent.csv")
        assert code == 2

    def test_bad_method(self, tmp_path, capsys):
        panel = tmp_path / "china.csv"
        panel.write_text(CHINA_CSV)
        code, _, _ = run(capsys, "growth", "--panel", str(panel),
                         "--method", "bogus")
        assert code == 1
