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
    table_intensities,
)
from .logrank import (
    CovarianceEstimate,
    LogrankResult,
)
from .multistate import (
    Cohort,
    CohortModel,
    FrailtySpec,
    TransitionIntensities,
    simulate_cohorts,
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
    Outcomes,
    run_procedure,
)
from .trialdata import (
    OS,
    PFS,
    CutoffTargets,
)

__version__ = "0.1.0"
