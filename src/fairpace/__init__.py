"""Online fair-division pacing dynamics, equilibrium benchmark, and harness."""

from .dynamics import (
    Constrained,
    OneStepGreedy,
    PaceState,
    Proportional,
    RunTrace,
    Seeded,
    SetAside,
    StepOutcome,
    Unconstrained,
    Variant,
    new_state,
    pace_bid,
    pace_step,
    run,
)
from .eg import (
    ConvergenceError,
    MarketEquilibrium,
    UnderlyingMarket,
    hindsight_prefix,
    solve_eg,
    solve_underlying,
)
from .harness import ExperimentConfig, run_experiment
from .inputs import (
    Block,
    Corrupted,
    Ergodic,
    FiniteDistribution,
    IID,
    InputModelSpec,
    Periodic,
    adv_constrained_failure,
    adv_cr_killer,
    adv_envy_worstcase,
    empirical_tv_delta,
    gen,
)
from .metrics import (
    MetricsReport,
    additive_envy,
    build_report,
    competitive_ratio,
    multiplicative_envy,
    nash_welfare,
    regret,
    relative_regret_trajectory,
    seeded_utility_ratio,
    utility_ratio,
)
from .model import (
    AgentWeights,
    InstanceError,
    ValidationReport,
    ValueSequence,
    extremity,
    load_csv,
    normalize_values,
    save_csv,
    validate_instance,
)

__version__ = "0.1.0"
