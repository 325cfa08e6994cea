"""Feedback optimal power flow with state estimation in the loop for radial
distribution networks: plant, linear models, measurement simulation, WLS
estimation, the primal-dual controller, and the closed-loop harness."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .controller import (
    ControllerConfig,
    ControllerState,
    CostParams,
    StepSizeCertificate,
    certify_step_size,
    dual_step,
    initial_state,
    primal_grad,
    primal_step,
)
from .estimator import WlsEstimator, estimate_voltages
from .feeders import resolve_network, synthetic_feeder
from .harness import (
    BoundReport,
    ScenarioConfig,
    SimulationTrace,
    prepare,
    run_baseline_comparison,
    run_closed_loop,
    run_trials,
    saddle_oracle,
    scenario_certificate,
    tightened_bound_experiment,
    verify_error_bound,
)
from .linearizer import (
    LinearFlowModel,
    eval_linear,
    jacobian_linearize,
    lindistflow,
    linearize,
)
from .netmodel import NetworkError, NetworkModel, load_network
from .plant import PowerFlowSolution, solve_power_flow
from .sensing import (
    MeasurementPlan,
    make_plan,
    place_sensors,
    sample_measurements,
)

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
