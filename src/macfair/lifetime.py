"""Monte Carlo lifetime simulation of a periodic data-gathering network.

Each run draws an independent backlog for every node in every collecting
period and charges every strategy's per-node energies for it to that
strategy's batteries.  A strategy's network dies in the first period some
node cannot afford; its lifetime is the number of completed periods (the
failed period is not partially executed).  Only energies are computed here:
schedules are built by :func:`macfair.scheduling.build_schedule` when one
is asked for.

Backlogs are produced by a counter-based generator keyed on
``(seed, run, period, node)``, so a draw depends only on its key: runs can
execute in any order or in parallel with identical results.  Each
(run, period) is drawn once and shared by the three strategies (common
random numbers), which makes the strategy comparisons hold per run and not
just in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polymatroid import NoiseModel
from .scheduling import Backlog, STRATEGIES, period_energies

DEFAULT_PERIOD_CAP = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters: network size, batteries, period, packets,
    channel, backlog bound, and the Monte Carlo plan."""

    n_nodes: int
    initial_energy: float
    period: float
    packet_bits: float
    noise: NoiseModel
    lam: float
    runs: int = 1
    seed: int = 0
    period_cap: int = DEFAULT_PERIOD_CAP

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        if not 0 <= self.initial_energy < np.inf:
            raise ValueError("initial_energy must be non-negative and finite")
        if not 0 < self.period < np.inf:
            raise ValueError("period must be positive and finite")
        if not 0 < self.packet_bits < np.inf:
            raise ValueError("packet_bits must be positive and finite")
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.period_cap < 1:
            raise ValueError("period_cap must be at least 1")
        self.noise.gains_for(self.n_nodes)  # raises on a gain count != n_nodes


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


def _run_backlogs(config: SimConfig, run: int):
    """The backlogs of one run, period after period, without end.

    One Philox stream keyed on ``(seed, run)`` from counter 0; each period
    takes the next ``4 * _blocks_per_period(n)`` doubles and keeps the
    first ``n``.  So period ``p`` starts at the block where
    :func:`_period_rng` puts it, and every backlog is bit-identical to
    :func:`period_backlog`.
    """
    n = config.n_nodes
    width = 4 * _blocks_per_period(n)
    key = np.array([config.seed, run], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    while True:
        packets = config.lam * (1.0 - gen.random(width)[:n])
        yield Backlog(packets=packets, packet_bits=config.packet_bits)


def _simulate_run(config: SimConfig, run: int) -> dict[str, RunResult]:
    """Every strategy's outcome of one run, on the run's shared backlogs.

    Each strategy keeps its own batteries and stops at the first period
    some node cannot pay for, or at the period cap (censored).
    """
    batteries = {s: np.full(config.n_nodes, float(config.initial_energy))
                 for s in STRATEGIES}
    peaks: dict[str, list[float]] = {s: [] for s in STRATEGIES}
    died: dict[str, int] = {}
    backlogs = _run_backlogs(config, run)
    period = 0
    while len(died) < len(STRATEGIES) and period < config.period_cap:
        spent = period_energies(next(backlogs), config.period, config.noise)
        for s, e in spent.items():
            if s in died:
                continue
            if np.all(e <= batteries[s]):
                batteries[s] = batteries[s] - e
                peaks[s].append(float(e.max()) / config.period)
            else:
                died[s] = period
        period += 1
    return {s: RunResult(lifetime_periods=died.get(s, period),
                         residual_energy=batteries[s],
                         per_period_max_power=peaks[s],
                         censored=s not in died)
            for s in STRATEGIES}


def simulate_lifetime(config: SimConfig) -> dict[str, list[RunResult]]:
    """Simulate all runs of every strategy, keyed by strategy name.

    Runs are independent given their (seed, run) keys; executing them in any
    order, or concurrently, yields identical results.
    """
    runs = [_simulate_run(config, run) for run in range(config.runs)]
    return {s: [r[s] for r in runs] for s in STRATEGIES}


def compare_strategies(config: SimConfig) -> ComparisonTable:
    """Simulate every strategy on the same backlog sequences and tabulate.

    All strategies see identical backlogs in every (run, period), so
    per-run comparisons are meaningful.
    """
    stats: dict[str, StrategyStats] = {}
    lifetimes: dict[str, np.ndarray] = {}
    for strategy, results in simulate_lifetime(config).items():
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
