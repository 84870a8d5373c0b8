"""Knapsack-constrained monotone submodular maximization.

Offline, multi-pass streaming, and simulated-distributed solvers with
query, pass, round, and message accounting, plus exact verification tools
at small scale.
"""

from .core import (
    AlgoReport,
    Element,
    GreedyTrace,
    Instance,
    QueryLedger,
    Solution,
    SubmodularOracle,
    TraceStep,
    brute_force_opt,
    normalize,
    upper_bound_opt,
)
from .distributed import (
    DistributedResult,
    MpcConfig,
    RoundLog,
    RoundRecord,
    distributed_sieve_plus_max,
    simulate_round,
)
from .errors import (
    BudgetExceeded,
    EmptyData,
    EmptyInstanceWarning,
    InfeasibleQuery,
    InvalidLambda,
    KnapsubError,
    MemoryCapExceeded,
    NonFiniteValue,
    ParseError,
    TooLarge,
)
from .objectives import (
    CoverageObjective,
    HiddenPairObjective,
    ModularObjective,
    MovieObjective,
    coverage_costs,
    movie_costs,
)
from .offline import (
    OfflineResult,
    greedy,
    greedy_or_max,
    greedy_order,
    greedy_plus_max,
    partial_enum_greedy,
)
from .streaming import (
    OptEstimate,
    StreamSource,
    estimate_lambda,
    sieve,
    sieve_or_max,
    sieve_plus_max,
    threshold_levels,
)

__version__ = "0.1.0"

__all__ = [
    "AlgoReport",
    "BudgetExceeded",
    "CoverageObjective",
    "DistributedResult",
    "Element",
    "EmptyData",
    "EmptyInstanceWarning",
    "GreedyTrace",
    "HiddenPairObjective",
    "InfeasibleQuery",
    "Instance",
    "InvalidLambda",
    "KnapsubError",
    "MemoryCapExceeded",
    "ModularObjective",
    "MovieObjective",
    "MpcConfig",
    "NonFiniteValue",
    "OfflineResult",
    "OptEstimate",
    "ParseError",
    "QueryLedger",
    "RoundLog",
    "RoundRecord",
    "Solution",
    "StreamSource",
    "SubmodularOracle",
    "TooLarge",
    "TraceStep",
    "brute_force_opt",
    "coverage_costs",
    "distributed_sieve_plus_max",
    "estimate_lambda",
    "greedy",
    "greedy_or_max",
    "greedy_plus_max",
    "greedy_order",
    "movie_costs",
    "normalize",
    "partial_enum_greedy",
    "sieve",
    "sieve_or_max",
    "sieve_plus_max",
    "simulate_round",
    "threshold_levels",
    "upper_bound_opt",
]
