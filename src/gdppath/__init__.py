"""Two-sector growth-economy simulator and chained index-number engine."""

from .equilibrium import (
    EconomySpec,
    EquilibriumPoint,
    SectorParams,
    allocate_labor,
    solve_capital_per_labor,
    solve_equilibrium,
    utility,
)
from .errors import (
    CalibrationError,
    DegenerateBaseError,
    DegenerateSectorError,
    InfeasibleAllocationError,
    InsufficientDataError,
    MethodDomainError,
    ModelError,
    NoSolutionError,
    NotALoopError,
    PanelFormatError,
    ValidationError,
)
from .gap import (
    CatchupResult,
    GapReport,
    common_price_growth,
    model_catchup,
    naive_catchup,
    perspective_report,
)
from .indexes import (
    GrowthSeries,
    IndexMethod,
    PricedPanel,
    circularity_residual,
    growth_series,
    inflation,
    nominal_gdp,
    nominal_growth,
    path_integral_gdp,
    real_growth,
)
from .panel_io import read_panel, read_scenario_config, write_panel
from .scenarios import (
    IslandScenario,
    ProductivitySchedule,
    build_schedule,
    calibrate_constant_growth,
    default_spec,
    generate_panel,
    island_scenario,
)

__version__ = "0.1.0"
