import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gdppath import (
    EconomySpec,
    ModelError,
    PricedPanel,
    SectorParams,
    default_spec,
)

# For a suite run under ``python -m trace``, which slows every example
# several times over: ``--hypothesis-profile=traced`` drops the per-example
# deadline and keeps every example count and strategy.
settings.register_profile("traced", deadline=None)


@pytest.fixture
def spec():
    return default_spec()


@pytest.fixture
def china_panel():
    # Hypothetical two-year China economy: good A and service B.
    return PricedPanel(
        sector_names=("A", "B"),
        periods=(((2000.0, 1.0), (300.0, 5.0)),
                 ((2120.0, 1.0), (303.0, 5.15))),
        period_labels=(2015, 2016),
    )


@pytest.fixture
def us_panel():
    return PricedPanel(
        sector_names=("A", "B"),
        periods=(((2000.0, 1.0), (200.0, 10.0)),
                 ((2000.0, 1.0), (200.0, 10.0))),
        period_labels=(2015, 2016),
    )


@pytest.fixture
def hand_loop():
    # Quantities double in A then prices shift; ends exactly where it began.
    return PricedPanel(
        sector_names=("A", "B"),
        periods=(((1.0, 1.0), (1.0, 1.0)),
                 ((2.0, 1.0), (1.0, 2.0)),
                 ((1.0, 1.0), (1.0, 1.0))),
        period_labels=(0, 1, 2),
    )


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of the ``ModelError``
    it raised; any other error fails the test.  A differential test compares
    the ``repr`` of two outcomes, which tells floats apart bit for bit."""
    try:
        return fn(*args, **kwargs)
    except ModelError as exc:
        return type(exc), str(exc)


@st.composite
def two_sector_specs(draw):
    """Valid two-sector economies; kappa, the capital per labor at T = 1,
    stays below about 4e59."""
    rate = draw(st.floats(0.0, 0.2))
    sectors = tuple(
        SectorParams(name, draw(st.floats(0.05, 0.95)),
                     draw(st.floats(0.001, 0.2)))
        for name in ("A", "B")
    )
    return EconomySpec(
        sectors=sectors,
        total_labor=draw(st.floats(1.0, 1e6)),
        rate_of_return=rate,
        subsistence=draw(st.floats(0.0, 5.0)),
        omega=draw(st.floats(0.0, 10.0)),
    )


def bisect_root(f, lo, hi, tol=1e-12, max_iter=500):
    """Plain bisection; the independent root-finding oracle for closed forms."""
    f_lo, f_hi = f(lo), f(hi)
    assert f_lo * f_hi <= 0, "oracle bracket does not straddle a root"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol * max(1.0, abs(mid)):
            return mid
        if f(mid) * f_lo <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f(mid)
    return 0.5 * (lo + hi)


def golden_section_max(f, lo, hi, tol=1e-10, max_iter=500):
    """Golden-section maximization; the independent utility-max oracle."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
