"""Monte Carlo lifetime simulation of a periodic data-gathering network.

Each run draws an independent backlog for every node in every collecting
period, schedules the period with the chosen strategy, and subtracts the
per-node energies from the batteries.  The network dies in the first period
some node cannot afford; the lifetime is the number of completed periods
(the failed period is not partially executed).

Backlogs are produced by a counter-based generator keyed on
``(seed, run, period, node)``, so a draw depends only on its key: runs can
execute in any order or in parallel with identical results, and different
strategies compared under one seed see exactly the same backlog sequences
(common random numbers), which makes the strategy comparisons hold per run
and not just in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .polymatroid import NoiseModel
from .scheduling import Backlog, EnergyReport, STRATEGIES, build_schedule, energy_report

DEFAULT_PERIOD_CAP = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters: network size, batteries, period, packets,
    channel, backlog bound, strategy, and the Monte Carlo plan."""

    n_nodes: int
    initial_energy: float
    period: float
    packet_bits: float
    noise: NoiseModel
    lam: float
    strategy: str = "minmax"
    runs: int = 1
    seed: int = 0
    period_cap: int = DEFAULT_PERIOD_CAP

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        if not self.initial_energy >= 0:
            raise ValueError("initial_energy must be non-negative")
        if not self.period > 0:
            raise ValueError("period must be positive")
        if not self.packet_bits > 0:
            raise ValueError("packet_bits must be positive")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run: completed periods, leftover batteries, and the
    period-normalized peak power of every completed period."""

    lifetime_periods: int
    residual_energy: np.ndarray
    per_period_max_power: tuple[float, ...]
    censored: bool = False

    def __post_init__(self):
        v = np.asarray(self.residual_energy, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "residual_energy", v)
        object.__setattr__(self, "per_period_max_power",
                           tuple(self.per_period_max_power))


@dataclass(frozen=True)
class StrategyStats:
    """Per-strategy aggregates over the runs (means and sample st. devs)."""

    runs: int
    mean_lifetime: float
    std_lifetime: float
    mean_max_power: float
    mean_sum_energy: float


@dataclass(frozen=True)
class ComparisonTable:
    """Side-by-side strategy statistics computed on shared backlog draws."""

    stats: dict[str, StrategyStats]
    lifetimes: dict[str, np.ndarray] = field(default_factory=dict)
    seed: int = 0
    runs: int = 0


def _blocks_per_period(n_nodes: int) -> int:
    """Philox counter blocks one period's draws span: each gives 4 doubles.
    Periods start this many blocks apart, so no two share a block."""
    return -(-n_nodes // 4)


def _period_rng(seed: int, run: int, period: int,
                n_nodes: int) -> np.random.Generator:
    """Generator whose first ``n_nodes`` draws depend only on
    (seed, run, period)."""
    key = np.array([seed, run], dtype=np.uint64)
    counter = np.array([period * _blocks_per_period(n_nodes), 0, 0, 0],
                       dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


class _KeyedUniform:
    """Counter-keyed uniform draws reusing one generator object.

    Bit-identical to :func:`_period_rng` but an order of magnitude cheaper
    to rekey.  Not shared between simulations: each gets its own instance,
    so concurrent simulations never touch common state.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state

    def draws(self, run: int, period: int, n: int) -> np.ndarray:
        st = self._state
        st["state"]["counter"][:] = (period * _blocks_per_period(n), 0, 0, 0)
        st["state"]["key"][:] = (self._seed, run)
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bg.state = st
        return self._gen.random(n)


def draw_backlogs(lam: float, n_nodes: int, packet_bits: float,
                  rng: np.random.Generator) -> Backlog:
    """Independent per-node backlogs, uniform on the half-open interval
    (0, lam] (never exactly zero)."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    packets = lam * (1.0 - rng.random(n_nodes))
    return Backlog(packets=packets, packet_bits=packet_bits)


def period_backlog(config: SimConfig, run: int, period: int) -> Backlog:
    """The backlog of a given (run, period), independent of strategy and of
    the order in which periods are simulated."""
    rng = _period_rng(config.seed, run, period, config.n_nodes)
    return draw_backlogs(config.lam, config.n_nodes, config.packet_bits, rng)


def run_period(backlog: Backlog, strategy: str, config: SimConfig,
               energies: np.ndarray
               ) -> tuple[np.ndarray, bool, EnergyReport]:
    """Attempt one collecting period.

    Builds the strategy's schedule for the backlog; if every node can pay its
    share the energies are decremented and the period succeeds, otherwise the
    batteries are returned untouched (the failed period is not executed).
    """
    energies = np.asarray(energies, dtype=float)
    if np.any(energies < 0):
        raise ValueError("residual energies must be non-negative")
    schedule = build_schedule(strategy, backlog, config.period, config.noise,
                              check=False)
    report = energy_report(schedule)
    if np.all(report.per_node_energy <= energies):
        return energies - report.per_node_energy, True, report
    return energies.copy(), False, report


def _simulate_one(config: SimConfig, run: int,
                  keyed: _KeyedUniform | None = None) -> RunResult:
    if keyed is None:
        keyed = _KeyedUniform(config.seed)
    energies = np.full(config.n_nodes, float(config.initial_energy))
    peaks: list[float] = []
    period = 0
    while period < config.period_cap:
        packets = config.lam * (1.0 - keyed.draws(run, period, config.n_nodes))
        backlog = Backlog(packets=packets, packet_bits=config.packet_bits)
        energies, ok, report = run_period(backlog, config.strategy, config,
                                          energies)
        if not ok:
            return RunResult(lifetime_periods=period, residual_energy=energies,
                             per_period_max_power=tuple(peaks))
        peaks.append(report.max_power)
        period += 1
    return RunResult(lifetime_periods=period, residual_energy=energies,
                     per_period_max_power=tuple(peaks), censored=True)


def simulate_lifetime(config: SimConfig) -> list[RunResult]:
    """Simulate all runs of the configured strategy.

    Runs are independent given their (seed, run) keys; executing them in any
    order, or concurrently, yields identical results.
    """
    keyed = _KeyedUniform(config.seed)
    return [_simulate_one(config, run, keyed) for run in range(config.runs)]


def compare_strategies(config: SimConfig) -> ComparisonTable:
    """Run every strategy on the same backlog sequences and tabulate.

    The counter-based draws guarantee all strategies see identical backlogs
    in every (run, period), so per-run comparisons are meaningful.
    """
    stats: dict[str, StrategyStats] = {}
    lifetimes: dict[str, np.ndarray] = {}
    for strategy in STRATEGIES:
        results = simulate_lifetime(replace(config, strategy=strategy))
        lifetimes[strategy] = np.array(
            [r.lifetime_periods for r in results], dtype=int)
        life = lifetimes[strategy].astype(float)
        peak_means = [float(np.mean(r.per_period_max_power))
                      for r in results if r.per_period_max_power]
        sum_means = []
        for r in results:
            if r.lifetime_periods == 0:
                continue
            spent = config.n_nodes * config.initial_energy - float(
                r.residual_energy.sum())
            sum_means.append(spent / r.lifetime_periods)
        stats[strategy] = StrategyStats(
            runs=config.runs,
            mean_lifetime=float(life.mean()),
            std_lifetime=float(life.std(ddof=1)) if config.runs > 1 else 0.0,
            mean_max_power=float(np.mean(peak_means)) if peak_means else float("nan"),
            mean_sum_energy=float(np.mean(sum_means)) if sum_means else float("nan"),
        )
    return ComparisonTable(stats=stats, lifetimes=lifetimes, seed=config.seed,
                           runs=config.runs)
