"""Average age-of-information toolkit.

Layers: a generic solver for Markov chains carrying linearly-reset age
vectors (:mod:`aoi_shs.shs_core`), the nine-state two-sensor blocking model
with its closed forms (:mod:`aoi_shs.two_sensor`), event-driven simulators
(:mod:`aoi_shs.des_sim`), and a CLI (:mod:`aoi_shs.cli`).
"""

from .shs_core import (
    CorrelationVectors,
    IllConditionedSystemError,
    ShsModel,
    StationaryDistribution,
    TransitionSpec,
    average_age,
    build_model,
    model_from_json,
    model_to_json,
    solve_correlation,
    solve_stationary,
)
from .two_sensor import (
    AoiBreakdown,
    TwoSensorParams,
    average_aoi_equal_service,
    average_aoi_general,
    average_aoi_grid,
    average_aoi_symmetric,
    build_two_sensor_chain,
    stationary_closed_form,
    zero_wait_limit,
)
from .des_sim import (
    MonitorState,
    SimConfig,
    SimResult,
    simulate_mm11,
    simulate_mm2_preemptive,
    simulate_two_sensor,
    time_average_age,
)

__version__ = "0.1.0"

__all__ = [
    "AoiBreakdown",
    "CorrelationVectors",
    "IllConditionedSystemError",
    "MonitorState",
    "ShsModel",
    "SimConfig",
    "SimResult",
    "StationaryDistribution",
    "TransitionSpec",
    "TwoSensorParams",
    "average_age",
    "average_aoi_equal_service",
    "average_aoi_general",
    "average_aoi_grid",
    "average_aoi_symmetric",
    "build_model",
    "build_two_sensor_chain",
    "model_from_json",
    "model_to_json",
    "simulate_mm11",
    "simulate_mm2_preemptive",
    "simulate_two_sensor",
    "solve_correlation",
    "solve_stationary",
    "stationary_closed_form",
    "time_average_age",
    "zero_wait_limit",
]
