"""The contract of the tuple records ``EquilibriumPoint`` and ``GapReport``:
what they kept from the frozen dataclasses they were, and that the package
still starts without ``typing``."""

import collections
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gdppath import (
    EquilibriumPoint,
    GapReport,
    IndexMethod,
    allocate_labor,
    default_spec,
    generate_panel,
    inflation,
    island_scenario,
    nominal_growth,
    perspective_report,
    real_growth,
    solve_equilibrium,
)

POINT = EquilibriumPoint(
    sector_names=("A", "B"),
    capital_per_labor=(1.0, 2.0),
    output_per_labor=(0.5, 0.25),
    prices=(3.0, 4.0),
    labor=(10.0, 20.0),
    outputs=(5.0, 5.0),
)
REPORT = GapReport(
    national_real_growth=0.1,
    national_inflation=-0.02,
    international_growth=0.08,
    method=IndexMethod.FISHER,
)
RECORDS = pytest.mark.parametrize("record", [POINT, REPORT],
                                  ids=["EquilibriumPoint", "GapReport"])


class Anything:
    """Equal to every object, from either side of ``==``."""

    def __eq__(self, other):
        return True


class TestRecordContract:
    def test_repr(self):
        assert repr(POINT) == (
            "EquilibriumPoint(sector_names=('A', 'B'), "
            "capital_per_labor=(1.0, 2.0), output_per_labor=(0.5, 0.25), "
            "prices=(3.0, 4.0), labor=(10.0, 20.0), outputs=(5.0, 5.0))")
        assert repr(REPORT) == (
            "GapReport(national_real_growth=0.1, national_inflation=-0.02, "
            "international_growth=0.08, "
            "method=<IndexMethod.FISHER: 'fisher'>)")

    @RECORDS
    def test_hash_is_that_of_the_field_tuple(self, record):
        assert hash(record) == hash(tuple(record))
        assert {record: 1}[type(record)(*record)] == 1

    @RECORDS
    def test_equal_only_to_its_own_class(self, record):
        same = type(record)(*record)
        assert record == same and not record != same
        assert record != tuple(record) and not record == tuple(record)
        assert tuple(record) != record and not tuple(record) == record
        lookalike = collections.namedtuple(type(record).__name__,
                                           record._fields)(*record)
        assert record != lookalike and not record == lookalike
        assert record != 1 and not record == 1
        # Any other class answers for itself, as with a dataclass.
        assert record == Anything() and not record != Anything()

    def test_records_of_the_two_types_differ(self):
        assert POINT != REPORT and not POINT == REPORT
        assert REPORT != POINT and not REPORT == POINT

    @RECORDS
    def test_fields_cannot_be_assigned(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0.0)
        with pytest.raises(AttributeError):
            record.extra = 0.0

    @RECORDS
    def test_keyword_construction_and_pickle(self, record):
        assert type(record)(**record._asdict()) == record
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)

    def test_tuple_behaviour(self):
        real, infl, nominal, method = REPORT
        assert (real, infl, nominal, method) == (0.1, -0.02, 0.08,
                                                 IndexMethod.FISHER)
        assert len(POINT) == 6 and POINT[3] is POINT.prices
        assert REPORT._replace(national_inflation=0.0).national_inflation \
            == 0.0


class TestBuiltRecords:
    def test_solve_equilibrium(self):
        spec = default_spec()
        t = (1.5, 2.5)
        lams = [sector.elasticity for sector in spec.sectors]
        kappas, ys = [], []
        for sector, lam, t_a in zip(spec.sectors, lams, t):
            gr = spec.rate_of_return + sector.depreciation
            kappa = ((1.0 - lam) / gr) ** (1.0 / lam)
            kappas.append(kappa)
            ys.append(kappa ** (1.0 - lam) * t_a)
        labor = allocate_labor(spec, t[0])
        expected = EquilibriumPoint(
            sector_names=("A", "B"),
            capital_per_labor=tuple(t_a * k for t_a, k in zip(t, kappas)),
            output_per_labor=tuple(ys),
            prices=tuple(1.0 / (lam * y) for lam, y in zip(lams, ys)),
            labor=labor,
            outputs=tuple(la * y for la, y in zip(labor, ys)),
        )
        assert solve_equilibrium(spec, t) == expected

    @pytest.mark.parametrize("method", list(IndexMethod))
    def test_perspective_report(self, method):
        panel = generate_panel(island_scenario("north"))
        for step in (0, 40, panel.n_periods - 2):
            assert perspective_report(panel, step, method) == GapReport(
                national_real_growth=real_growth(panel, step, method),
                national_inflation=inflation(panel, step, method),
                international_growth=nominal_growth(panel, step),
                method=method,
            )


def test_cli_import_does_not_load_typing():
    """No module of the package imports ``typing``, and a bare start-up of
    the CLI module does not load it.  On a runtime whose ``inspect`` imports
    ``typing`` (later 3.13 releases), ``dataclasses`` loads it before any
    module of the package runs, so there the sources are the check."""
    src = Path(__file__).resolve().parents[1] / "src"
    importers = [path.name for path in (src / "gdppath").glob("*.py")
                 if re.search(r"^\s*(import|from)\s+typing\b",
                              path.read_text(), re.MULTILINE)]
    assert importers == []
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import dataclasses; runtime = 'typing' in sys.modules; "
            "import gdppath.cli; print(runtime, 'typing' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out in ("False False\n", "True True\n")
