"""Event-driven closed testing of paired survival endpoints.

Simulation of illness-death cohorts, calendar-time log-rank statistics with
a joint covariance estimate across endpoints and analyses, level-inflation
solvers over multivariate normal orthants, and a Monte Carlo harness for
error rates, power, and event-number planning.
"""

from .errors import (
    ConfigError,
    CutoffOrder,
    DegenerateVariance,
    DuosurvError,
    InconsistentSnapshots,
    InsufficientEvents,
    InvalidCorrelation,
    InvalidModel,
    NoSolution,
    WorkerCrash,
)
from .harness import (
    CSV_COLUMNS,
    DROPOUT_RATE,
    ExperimentResult,
    MetricsRow,
    PlanResult,
    Scenario,
    analyze_cohort,
    default_designs,
    metrics_csv_text,
    null_scenario,
    plan_events,
    power_scenario,
    run_experiment,
    simulate_replication,
    table_intensities,
)
from .logrank import (
    CovarianceEstimate,
    LogrankResult,
    covariance_matrix,
    cross_covariance,
    logrank,
)
from .multistate import (
    ArmModel,
    Cohort,
    DropoutSpec,
    FrailtySpec,
    RecruitmentSpec,
    TransitionIntensities,
    effective_intensities,
    simulate_cohort,
)
from .mvnorm import (
    InflationProblem,
    OrthantQuery,
    mvn_upper_orthant,
    solve_inflation,
)
from .spending import SPENDING_KINDS, SpendingFunction
from .testing import (
    PROCEDURES,
    AnalysisInputs,
    DesignSpec,
    TrialOutcome,
    check_consonance,
    run_procedure,
)
from .trialdata import (
    OS,
    PFS,
    CutoffTargets,
    Snapshot,
    event_cutoff,
    information_fraction,
    snapshot,
)

__version__ = "0.1.0"
