"""Budget-constrained item allocation with learned preferences.

Simulates customer arrival streams (stationary or time-varying Poisson),
learns purchase preferences with a confidence-bound bandit, and prices item
budgets through online projected gradient descent on an entropy-regularized
dual. Includes an offline benchmark solver, horizon segmentation for
time-varying rates, a greedy baseline, and a CSV experiment harness.
"""

from ._kernels import BACKEND, HAS_NUMBA, available_backends
from .arrivals import (
    ArrivalSequence,
    rate_extrema,
    sample_nonstationary_stream,
    sample_stationary_stream,
    sample_stream,
    type_probability_matrix,
)
from .dual import (
    OfflineSolution,
    WeightedDualSpec,
    dual_gradient,
    dual_objective,
    recover_primal,
    solve_offline,
    step_sizes,
)
from .errors import *  # noqa: F401,F403 -- the module defines a tight __all__
from .harness import (
    MetricsReport,
    compute_regret,
    compute_revenue,
    emit_report,
    greedy_baseline,
    run_experiment,
    write_checkpoint_csv,
)
from .integrated import (
    UNVISITED_PRIOR,
    CheckpointLog,
    LoopState,
    Trace,
    run_integrated,
)
from .model import (
    AlgoParams,
    NonstationaryArrivals,
    ProblemInstance,
    RateFunction,
    RatePiece,
    SimConfig,
    StationaryArrivals,
    config_document,
    config_from_document,
    config_hash,
    default_ucb_rounds,
    save_config,
    scenario_nonstationary,
    scenario_stationary,
    substream,
    validate_instance,
)
from .segmentation import (
    Segment,
    SegmentPlan,
    bound_type_probability,
    certify_plan,
    run_nonstationary,
    segment_time_span,
    segment_weights,
    solve_v_threshold,
)

__version__ = "0.1.0"
