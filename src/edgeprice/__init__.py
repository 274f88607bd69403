"""Dynamic-pricing edge-offloading model with near-optimal allocation search."""

from types import ModuleType as _ModuleType

from .scenario import (
    ChannelSpec,
    Scenario,
    ScenarioError,
    checked,
    default_scenario,
    load_scenario,
    validate,
)
from .offload import (
    Allocation,
    EnergyBreakdown,
    TimeBreakdown,
    link_rates,
    local_exec_time,
    time_breakdown,
)
from .pricing import (
    CurvatureReport,
    Diagnostics,
    PriceCoefficients,
    QuadraticGapEstimate,
    UtilitySummary,
    chi,
    coupling_ratio,
    critical_point,
    curvature_report,
    data_revenue,
    derive_coefficients,
    diagnostics,
    dynamic_price,
    dynamic_user_utility_value,
    dynamic_utility_objective,
    linear_price,
    linear_user_utility_value,
    quadratic_gap,
    server_utility,
    upsilon,
    user_utility,
    user_utility_gradient,
)
from .optimizers import (
    OptimizerError,
    RunResult,
    SwarmConfig,
    TrialStats,
    baseline_de,
    baseline_ga,
    baseline_pso,
    disc_pso,
    replicate,
)
from .harness import (
    ComparisonReport,
    SurfaceGrid,
    SweepRow,
    SweepSpec,
    box_maximum_utility,
    compare_optimizers,
    corner_allocation,
    emit_comparison_csv,
    emit_csv,
    emit_positions_plot,
    emit_surface_plot,
    emit_sweep_plot,
    run_sweep,
    surface_grid,
)

# the submodules bind their own names here; a star import takes the API, not them
__all__ = [
    name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "0.1.0"
