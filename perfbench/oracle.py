"""The benchmark's own arithmetic, written apart from gdppath, and the output
checks built on it.

Every check raises ``CheckFailed`` with a one-line reason.  Panels here are
plain ``(qs, ps)`` pairs of per-period lists, never gdppath objects, so a
fault in the package cannot hide in the oracle.
"""

from __future__ import annotations

import math

START_YEAR = 1900
T_END = 18.93
ISLANDS = ("north", "middle", "south")
# Published century-average Laspeyres growth of the three islands, +- 0.3 pp.
ISLAND_BANDS = {"north": 0.035, "middle": 0.030, "south": 0.021}
ISLAND_BAND_HALF_WIDTH = 0.003
DEFAULT_ECONOMY = {
    "lambda_A": 2.0 / 3.0,
    "lambda_B": 2.0 / 3.0,
    "delta": 0.055,
    "R_c": 0.055,
    "L_t": 100_000.0,
    "N0": 1.6711,
    "omega": 5.0,
}


class CheckFailed(Exception):
    """A program output disagrees with the oracle."""


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- model ------------------------------------------------------------------

def equilibrium_output_per_labor(t: float, lam: float, gr: float) -> float:
    k = t * ((1.0 - lam) / gr) ** (1.0 / lam)
    return t**lam * k ** (1.0 - lam)


def equilibrium_row(t_a: float, t_b: float, econ: dict) -> tuple[float, ...]:
    """(Y_A, P_A, Y_B, P_B) of one year: P = W/(lam y) with W = 1, and the
    utility-maximising labor split with a subsistence floor."""
    gr = econ["R_c"] + econ["delta"]
    lam_a, lam_b = econ["lambda_A"], econ["lambda_B"]
    y_a = equilibrium_output_per_labor(t_a, lam_a, gr)
    y_b = equilibrium_output_per_labor(t_b, lam_b, gr)
    omega = econ["omega"]
    share = (lam_a + omega * lam_b * econ["N0"] / y_a) / (lam_a + omega * lam_b)
    l_a = econ["L_t"] * share
    l_b = econ["L_t"] - l_a
    return (l_a * y_a, 1.0 / (lam_a * y_a), l_b * y_b, 1.0 / (lam_b * y_b))


def island_schedule(rule: str, steps: int, target: float = T_END):
    """Both sectors' productivity paths of an island, normalised to end on
    ``target``: north pushes good A early, south mirrors it, middle is flat."""
    a, b = [1.0], [1.0]
    for i in range(1, steps + 1):
        early, late = 1.0 + 0.06 * (100 - i) / 99.0, 1.0 + 0.06 * (i + 1) / 99.0
        ma, mb = {"north": (early, late), "south": (late, early),
                  "middle": (1.0305, 1.0305)}[rule]
        a.append(a[-1] * ma)
        b.append(b[-1] * mb)
    return _normalize(a, target), _normalize(b, target)


def _normalize(series: list[float], target: float) -> list[float]:
    n = len(series) - 1
    ratio = target / series[-1]
    return [t * ratio ** (i / n) for i, t in enumerate(series)]


def simulate(values_a, values_b, econ: dict):
    """Closed-form panel of a productivity schedule as (qs, ps)."""
    qs, ps = [], []
    for t_a, t_b in zip(values_a, values_b):
        y_a, p_a, y_b, p_b = equilibrium_row(t_a, t_b, econ)
        qs.append([y_a, y_b])
        ps.append([p_a, p_b])
    return qs, ps


# --- indexes ----------------------------------------------------------------

def basket(prices, quantities) -> float:
    return sum(p * q for p, q in zip(prices, quantities))


def real_rate(qs, ps, step: int, method: str) -> float:
    q0, q1, p0, p1 = qs[step], qs[step + 1], ps[step], ps[step + 1]
    if method == "laspeyres":
        return basket(p0, q1) / basket(p0, q0) - 1.0
    if method == "paasche":
        return basket(p1, q1) / basket(p1, q0) - 1.0
    if method == "fisher":
        lasp = basket(p0, q1) / basket(p0, q0)
        paas = basket(p1, q1) / basket(p1, q0)
        return math.sqrt(lasp * paas) - 1.0
    if method == "tornqvist":
        v0, v1 = basket(p0, q0), basket(p1, q1)
        log_index = sum(
            0.5 * (p0[a] * q0[a] / v0 + p1[a] * q1[a] / v1)
            * math.log(q1[a] / q0[a])
            for a in range(len(q0))
        )
        return math.exp(log_index) - 1.0
    raise ValueError(f"unknown method {method!r}")


def nominal_rate(qs, ps, step: int) -> float:
    return basket(ps[step + 1], qs[step + 1]) / basket(ps[step], qs[step]) - 1.0


def rates(qs, ps, method: str) -> list[float]:
    return [real_rate(qs, ps, s, method) for s in range(len(qs) - 1)]


def running_averages(values: list[float]) -> list[float]:
    out, total = [], 0.0
    for j, v in enumerate(values):
        total += v
        out.append(total / (j + 1))
    return out


def path_integral_terms(qs, ps) -> list[float]:
    return [
        0.5 * (ps[s][a] + ps[s + 1][a]) * (qs[s + 1][a] - qs[s][a])
        for s in range(len(qs) - 1)
        for a in range(len(qs[0]))
    ]


def crossing(v_small, v_big, labels):
    """First label where the small valuation reaches the big one, and the
    linearly interpolated fractional year; (None, None) without a crossing."""
    for i, (vs, vb) in enumerate(zip(v_small, v_big)):
        if vs >= vb:
            if i == 0:
                return labels[0], float(labels[0])
            gap_prev, gap_now = v_big[i - 1] - v_small[i - 1], vb - vs
            frac = gap_prev / (gap_prev - gap_now)
            return labels[i], labels[i - 1] + frac * (labels[i] - labels[i - 1])
    return None, None


# --- checks -----------------------------------------------------------------

def check_rates(got, qs, ps, method: str, what: str) -> None:
    """Per-step rates match the oracle to 1e-12 relative on the index 1+g."""
    want = rates(qs, ps, method)
    require(len(got) == len(want),
            f"{what}: {len(got)} {method} rates, expected {len(want)}")
    for s, (g, w) in enumerate(zip(got, want)):
        require(close(1.0 + g, 1.0 + w, 1e-12),
                f"{what}: {method} step {s} is {g!r}, oracle {w!r}")


def check_running_average(got, rates_, what: str) -> None:
    require(len(got) == len(rates_), f"{what}: {len(got)} running averages")
    for j, (g, w) in enumerate(zip(got, running_averages(list(rates_)))):
        require(close(g, w, 1e-12, 1e-15),
                f"{what}: running average {j} is {g!r}, oracle {w!r}")


def check_chained_level(got, rates_, what: str) -> None:
    require(len(got) == len(rates_), f"{what}: {len(got)} chained levels")
    level = 1.0
    for j, rate in enumerate(rates_):
        level *= 1.0 + rate
        require(close(got[j], level, 1e-12),
                f"{what}: chained level {j} is {got[j]!r}, oracle {level!r}")


def check_panel_values(periods, labels, qs, ps, want_labels, what: str) -> None:
    """A parsed panel holds exactly, bit for bit, the generated values."""
    require(tuple(labels) == tuple(want_labels), f"{what}: period labels differ")
    require(len(periods) == len(qs),
            f"{what}: {len(periods)} periods, expected {len(qs)}")
    for i, period in enumerate(periods):
        want = tuple(zip(qs[i], ps[i]))
        require(tuple(period) == want, f"{what}: period {i} is not bit-exact")


def check_calibration(values_a, values_b, rate, qs, ps, target, years) -> None:
    """The calibrated schedule lands on the target and the simulated panel
    grows at exactly the returned Laspeyres rate every year."""
    require(len(values_a) == years + 1 and len(values_b) == years + 1,
            f"calibration: schedule is not {years + 1} years long")
    require(close(values_a[-1], target, 1e-9),
            f"calibration: sector A ends at {values_a[-1]!r}, target {target!r}")
    require(close(values_b[-1], target, 1e-9),
            f"calibration: sector B ends at {values_b[-1]!r}, target {target!r}")
    want_qs, want_ps = simulate(values_a, values_b, DEFAULT_ECONOMY)
    for i in range(len(qs)):
        for a in range(2):
            require(close(qs[i][a], want_qs[i][a], 1e-12)
                    and close(ps[i][a], want_ps[i][a], 1e-12),
                    f"calibration: panel year {i} sector {a} off the closed form")
    for s, g in enumerate(rates(qs, ps, "laspeyres")):
        require(abs(g - rate) <= 1e-10,
                f"calibration: year {s} Laspeyres growth {g!r} != rate {rate!r}")


def check_labor_identity(rows, econ: dict, what: str) -> None:
    """sum_a lam_a P_a Y_a = L_t every year: labor's share under W = 1."""
    lam_a, lam_b, l_t = econ["lambda_A"], econ["lambda_B"], econ["L_t"]
    for i, (y_a, p_a, y_b, p_b) in enumerate(rows):
        total = lam_a * p_a * y_a + lam_b * p_b * y_b
        require(close(total, l_t, 1e-12),
                f"{what}: year {i} sum lam*P*Y = {total!r}, L_t = {l_t!r}")


def check_islands(island_rows: dict) -> None:
    """The three demo islands share both endpoints, and their final
    Laspeyres running averages lie in the published bands."""
    first = island_rows["north"][0]
    last = island_rows["north"][-1]
    for rule in ISLANDS:
        rows = island_rows[rule]
        for a, b in ((rows[0], first), (rows[-1], last)):
            require(all(close(x, y, 1e-12) for x, y in zip(a, b)),
                    f"islands: {rule} endpoints differ from north")
        qs = [[r[0], r[2]] for r in rows]
        ps = [[r[1], r[3]] for r in rows]
        avg = running_averages(rates(qs, ps, "laspeyres"))[-1]
        require(abs(avg - ISLAND_BANDS[rule]) <= ISLAND_BAND_HALF_WIDTH,
                f"islands: {rule} average {avg:.4f} outside "
                f"{ISLAND_BANDS[rule]} +- {ISLAND_BAND_HALF_WIDTH}")


def check_loop_residuals(fisher_residual, laspeyres_residual, qs, ps) -> None:
    """Chained Fisher over a path and its exact reversal returns to 1;
    Laspeyres over the same loop matches the oracle's chained log level."""
    require(abs(fisher_residual) <= 1e-10,
            f"loop: Fisher residual {fisher_residual!r} is not 0")
    loop_qs, loop_ps = qs + qs[-2::-1], ps + ps[-2::-1]
    level = 1.0
    for g in rates(loop_qs, loop_ps, "laspeyres"):
        level *= 1.0 + g
    want = math.log(level)
    require(close(laspeyres_residual, want, 1e-12, 1e-12),
            f"loop: Laspeyres residual {laspeyres_residual!r}, oracle {want!r}")


def check_path_integral(forward, backward, qs, ps) -> None:
    terms = path_integral_terms(qs, ps)
    scale = sum(abs(t) for t in terms)
    require(abs(forward - sum(terms)) <= 1e-12 * scale,
            f"path integral {forward!r}, oracle {sum(terms)!r}")
    require(abs(forward + backward) <= 1e-12 * scale,
            f"path integral not antisymmetric: {forward!r} vs {backward!r}")


def check_catchup(result, v_small, v_big, labels, rule: str) -> None:
    year, frac = crossing(v_small, v_big, labels)
    require(result.crossing_year == year,
            f"catch-up ({rule}): crossing {result.crossing_year}, oracle {year}")
    if frac is not None:
        require(close(result.fractional_year, frac, 1e-12),
                f"catch-up ({rule}): fractional year "
                f"{result.fractional_year!r}, oracle {frac!r}")


def parse_rows(text: str, fields: int, header: bool = False) -> list[list[float]]:
    """Numeric rows of a CSV text, each with ``fields`` cells, after an
    optional header line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if header:
        lines = lines[1:]
    rows = []
    for ln in lines:
        cells = ln.split(",")
        require(len(cells) == fields, f"csv: row {ln[:40]!r} has {len(cells)} fields")
        rows.append([float(c) for c in cells])
    return rows
