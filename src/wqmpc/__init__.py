"""Chlorine transport modeling and booster-injection control for water
distribution networks."""

from .errors import (
    HydraulicsError,
    InfeasibleProblem,
    ModelError,
    NetworkError,
    SolverError,
    WqmpcError,
)
from .network import BoosterLayout, WaterNetwork, parse_network
from .hydraulics import HydraulicProfile, load_hydraulics
from .dynamics import (
    StateIndexMap,
    StateSpaceSystem,
    Trajectory,
    assemble_system,
    build_schedule,
    compute_time_step,
    export_system,
    initial_state,
    lw_coefficients,
    nominal_pipe_rates,
    pipe_reaction_constant,
    simulate,
    step,
)
from .mpc import (
    AnalyticalLaw,
    AugmentedSystem,
    ControlConfig,
    PredictionOperator,
    RecedingHorizonController,
    build_augmented,
    build_law,
    count_variables,
    solve_constrained,
)
from .scenario import (
    DisturbanceEvent,
    Rule,
    RuleTable,
    ScenarioConfig,
    ScenarioReport,
    UncertaintySpec,
    apply_uncertainty,
    export_report,
    load_scenario,
    rbc_control,
    run_closed_loop,
)

__version__ = "0.1.0"

_SYNTH = ("SynthSpec", "synth_case", "synth_network")


def __getattr__(name: str):
    # The test-case generator loads on first use: no command needs it.
    if name in _SYNTH:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
