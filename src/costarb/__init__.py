"""Budget-constrained minimum spanning arborescences on random digraphs."""

from .arborescence import (
    Arborescence,
    Decomposition,
    PipelineResult,
    decompose,
    edmonds,
    exact_arborescence_oracle,
    exact_mapping_oracle,
    repair,
    solve_constrained_arborescence,
    uniform_mapping,
    validate,
)
from .asymptotics import (
    Prediction,
    beta_star,
    c_s,
    expected_min,
    f_eval,
    f_prime,
    g_eval,
    g_prime,
    gamma_fn,
    lambda_hint,
    predict,
)
from .dual import (
    DualEvaluation,
    DualOptimum,
    Mapping,
    MappingSolution,
    empirical_concentration,
    make_mapping,
    maximize_dual,
    min_cost_sum,
    phi,
    solve_mapping,
)
from .errors import (
    AmbiguousRegimeError,
    CostarbError,
    InfeasibleBudgetError,
    InstanceFormatError,
    LambdaRangeError,
    SizeLimitError,
)
from .harness import (
    BudgetSpec,
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
    run_expectation_check,
    run_oracle_suite,
)
from .instance import (
    Instance,
    export_csv,
    from_arrays,
    generate,
    load,
    save,
)

__version__ = "0.1.0"
