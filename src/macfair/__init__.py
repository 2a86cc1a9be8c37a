"""Min-max fair power scheduling for Gaussian multiple-access uplinks.

The feasible power region of a multi-access channel at fixed rates is a
contra-polymatroid; its fairest (min-max optimal) point is the base closest
to the equal-allocation point and is realized by time sharing successive
decoding orders.  This package computes such schedules, compares them with
minimum-cost and TDMA baselines, and measures the resulting sensor-network
lifetime by Monte Carlo simulation.
"""

from .polymatroid import (
    InvalidSubsetError,
    NoiseModel,
    NotABaseError,
    NotAMemberError,
    chain_received,
    greedy_linear_min,
    is_lex_optimal_base,
    is_lex_optimal_rate_base,
    power_rank,
    sum_power,
    vertex,
)
from .minmax import (
    CaseLabel,
    MinMaxSolution,
    SolverFailureError,
    equal_allocation,
    max_min_rates,
    solve,
)
from .scheduling import (
    Backlog,
    EnergyReport,
    Epoch,
    STRATEGIES,
    Schedule,
    build_schedule,
    energy_report,
)
from .lifetime import (
    ComparisonTable,
    SimConfig,
    StrategyStats,
    compare_sweep,
)

__version__ = "0.1.0"
