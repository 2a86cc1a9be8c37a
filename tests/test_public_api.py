"""The package exports the names that its command line, demos and
acceptance criteria use, and no helper that only its own tests call."""

import types

import macfair

PUBLIC = {
    # polymatroid
    "InvalidSubsetError", "NoiseModel", "NotABaseError", "NotAMemberError",
    "chain_received", "greedy_linear_min", "is_lex_optimal_base",
    "is_lex_optimal_rate_base", "power_rank", "sum_power", "vertex",
    # minmax
    "CaseLabel", "MinMaxSolution", "SolverFailureError", "equal_allocation",
    "max_min_rates", "solve",
    # scheduling
    "Backlog", "EnergyReport", "Epoch", "STRATEGIES", "Schedule",
    "build_schedule", "energy_report",
    # lifetime
    "ComparisonTable", "SimConfig", "StrategyStats", "compare_sweep",
}


def test_exported_names():
    exported = {name for name, value in vars(macfair).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == 28
    assert exported == PUBLIC
