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
from .network import (
    BoosterLayout,
    Junction,
    Pipe,
    Pump,
    Reservoir,
    Tank,
    Valve,
    WaterNetwork,
    build_booster_matrix,
    parse_network,
    serialize_network,
)
from .hydraulics import HydraulicPeriod, HydraulicProfile, load_hydraulics
from .dynamics import (
    Discretization,
    ReactionModel,
    StateIndexMap,
    StateSpaceSystem,
    Trajectory,
    assemble_system,
    build_schedule,
    compute_time_step,
    export_system,
    initial_state,
    lw_coefficients,
    pipe_reaction_constant,
    simulate,
    step,
)
from .mpc import (
    AnalyticalLaw,
    AugmentedSystem,
    BoundSet,
    ControlConfig,
    CostWeights,
    PredictionOperator,
    RecedingHorizonController,
    build_augmented,
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
from .synth import SynthSpec, synth_case, synth_network

__version__ = "0.1.0"
