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

The engine's unit of work is one ``(lambda, run)`` pair: a run of the
config at one backlog bound, with its own stream, batteries and chunk
sizes.  A whole lambda sweep is one pass over all its units, and a single
simulation is the sweep of one lambda.  A period's energies depend only on
its backlog, never on the batteries, so the engine works in chunks of
periods.  Each step reads the next periods of every live unit from its
stream and prices them as one array per strategy, over the units in which
that strategy still lives, whatever their lambda (the pricing depends only
on the packet size, the period and the channel, which the lambdas share).
Then it replays each unit's ledger: the battery after period ``j`` of a
chunk is ``np.subtract.accumulate`` over the battery and the chunk's
energies, which is the sequential ``battery - e`` fold, and the strategy
dies at the first period some node cannot pay.  Results are bit for bit
those of a loop over single periods, one lambda at a time.  The first
chunk of a unit has ``FIRST_CHUNK`` periods; a later one lasts until the
first live strategy is expected to die at the spend rate seen so far, with
a margin.  A step prices at most ``MAX_CELLS // n_nodes`` periods, so
memory does not grow with the number of runs or lambdas.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .minmax import _check_sum_rate
from .polymatroid import NoiseModel
from .scheduling import Backlog, STRATEGIES, _ENERGY

DEFAULT_PERIOD_CAP = 1_000_000

# Periods in the first chunk of a run.
FIRST_CHUNK = 16

# A later chunk covers this multiple of the periods the first of the run's
# live strategies is expected to last at the spend rate seen so far, plus
# FIRST_CHUNK: an overshoot costs rows in a shared array, a shortfall a
# whole step.  Sizing for the first death, not the last, keeps the rows a
# strategy is priced on after its death few, which matters where one
# strategy's pricing is a loop over rows (min-max with unequal gains).
CHUNK_MARGIN = 1.25

# Cells in one step's backlog array (rows times n_nodes), so that memory
# does not grow with the number of runs.
MAX_CELLS = 1 << 16


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
        # The largest sum rate a period can draw: every node at lam, summed
        # as the pricing sums a row, whose every other row sums to less.
        rate = self.lam * self.packet_bits / self.period
        try:
            _check_sum_rate(np.cumsum(np.full(self.n_nodes, rate))[-1],
                            self.noise.sigma_sq)
        except ValueError as exc:
            raise ValueError(f"lam = {self.lam:g} is too large: {exc}") from None


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
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    packets = lam * (1.0 - rng.random(n_nodes))
    return Backlog(packets=packets, packet_bits=packet_bits)


def period_backlog(config: SimConfig, run: int, period: int) -> Backlog:
    """The backlog of a given (run, period), independent of strategy and of
    the order in which periods are simulated."""
    rng = _period_rng(config.seed, run, period, config.n_nodes)
    return draw_backlogs(config.lam, config.n_nodes, config.packet_bits, rng)


def _run_stream(config: SimConfig, run: int) -> np.random.Generator:
    """One Philox stream keyed on ``(seed, run)`` from counter 0: the draws
    of all the run's periods, in order."""
    key = np.array([config.seed, run], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw(config: SimConfig, stream: np.random.Generator,
          periods: int) -> np.ndarray:
    """Packets of the next ``periods`` periods of a run's stream, one row
    each.  A period takes the next ``4 * _blocks_per_period(n)`` doubles and
    keeps the first ``n``, so it starts at the block where
    :func:`_period_rng` puts it, and every row is bit-identical to
    :func:`period_backlog`."""
    n = config.n_nodes
    width = 4 * _blocks_per_period(n)
    u = stream.random(periods * width).reshape(periods, width)[:, :n]
    return config.lam * (1.0 - u)


class _Run:
    """One run in progress: its stream, its completed periods, and every
    strategy's batteries, peaks and period of death."""

    def __init__(self, config: SimConfig, run: int):
        self.config = config
        self.stream = _run_stream(config, run)
        self.period = 0
        self.battery = np.full((len(STRATEGIES), config.n_nodes),
                               float(config.initial_energy))
        self.peaks: list[list[float]] = [[] for _ in STRATEGIES]
        self.died: dict[int, int] = {}

    @property
    def done(self) -> bool:
        return (len(self.died) == len(STRATEGIES)
                or self.period == self.config.period_cap)

    def chunk(self, max_rows: int) -> int:
        """Periods to draw next: for a later chunk, enough for the first
        live strategy to die at the spend rate seen so far, with a
        margin."""
        want = FIRST_CHUNK
        if self.period:
            live = [i for i in range(len(STRATEGIES)) if i not in self.died]
            left = self.battery[live]
            spent = self.config.initial_energy - left
            with np.errstate(divide="ignore", invalid="ignore"):
                lasts = float((left / spent).min()) * self.period
            if lasts < max_rows:
                want += int(CHUNK_MARGIN * lasts)
            else:
                want = max_rows
        return min(want, max_rows, self.config.period_cap - self.period)

    def pay(self, spent: np.ndarray) -> None:
        """Charge a chunk, ``spent[strategy, period, node]``, to the live
        strategies' batteries, up to each one's first unaffordable
        period."""
        periods = spent.shape[1]
        ledger = np.subtract.accumulate(
            np.concatenate((self.battery[:, None, :], spent), axis=1), axis=1)
        paid = np.all(spent <= ledger[:, :-1], axis=2)
        peaks = spent.max(axis=2) / self.config.period
        for i in range(len(STRATEGIES)):
            if i in self.died:
                continue
            fails = np.flatnonzero(~paid[i])
            last = int(fails[0]) if fails.size else periods
            if fails.size:
                self.died[i] = self.period + last
            self.battery[i] = ledger[i, last]
            self.peaks[i].extend(peaks[i, :last].tolist())
        self.period += periods

    def result(self, i: int) -> RunResult:
        return RunResult(lifetime_periods=self.died.get(i, self.period),
                         residual_energy=self.battery[i].copy(),
                         per_period_max_power=self.peaks[i],
                         censored=i not in self.died)


def _simulate(config: SimConfig, lams: list[float]) -> list[list[_Run]]:
    """Every run of ``config`` at each backlog bound in ``lams``: one list of
    finished runs per bound, in the order of ``lams``.

    Units are independent given their (seed, run) keys and bounds; which
    units share a step changes no result.
    """
    sweep = [[_Run(unit_config, run) for run in range(config.runs)]
             for unit_config in (replace(config, lam=lam) for lam in lams)]
    max_rows = max(1, MAX_CELLS // config.n_nodes)
    live = [run for runs in sweep for run in runs]
    while live:
        batch: list[tuple[_Run, int]] = []
        size = 0
        for run in live:
            periods = run.chunk(max_rows)
            if batch and size + periods > max_rows:
                break
            batch.append((run, periods))
            size += periods
        packets = np.concatenate([_draw(run.config, run.stream, periods)
                                  for run, periods in batch])
        spent = np.zeros((len(STRATEGIES),) + packets.shape)
        for i, s in enumerate(STRATEGIES):
            # Only the rows of units in which the strategy still lives.
            rows = np.repeat([i not in run.died for run, _ in batch],
                             [periods for _, periods in batch])
            if rows.any():
                spent[i, rows] = _ENERGY[s](packets[rows], config.packet_bits,
                                            config.period, config.noise)
        start = 0
        for run, periods in batch:
            run.pay(spent[:, start:start + periods])
            start += periods
        live = [run for run in live if not run.done]
    return sweep


def _results(runs: list[_Run]) -> dict[str, list[RunResult]]:
    return {s: [run.result(i) for run in runs]
            for i, s in enumerate(STRATEGIES)}


def simulate_lifetime(config: SimConfig) -> dict[str, list[RunResult]]:
    """Simulate all runs of every strategy, keyed by strategy name.

    Runs are independent given their (seed, run) keys; executing them in any
    order, or concurrently, yields identical results.
    """
    return _results(_simulate(config, [config.lam])[0])


def _tabulate(config: SimConfig,
              simulated: dict[str, list[RunResult]]) -> ComparisonTable:
    """Per-strategy statistics of the runs of one backlog bound."""
    stats: dict[str, StrategyStats] = {}
    lifetimes: dict[str, np.ndarray] = {}
    for strategy, results in simulated.items():
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


def compare_strategies(config: SimConfig) -> ComparisonTable:
    """Simulate every strategy on the same backlog sequences and tabulate.

    All strategies see identical backlogs in every (run, period), so
    per-run comparisons are meaningful.
    """
    return _tabulate(config, simulate_lifetime(config))


def compare_sweep(config: SimConfig,
                  lams: Iterable[float]) -> dict[float, ComparisonTable]:
    """:func:`compare_strategies` of ``config`` at every backlog bound in
    ``lams`` (each bound once), keyed by bound, from one engine pass.

    Every table equals ``compare_strategies(replace(config, lam=lam))``; the
    bound of ``config`` itself is simulated only if it is in ``lams``.
    """
    bounds = list(dict.fromkeys(float(lam) for lam in lams))
    return {lam: _tabulate(config, _results(runs))
            for lam, runs in zip(bounds, _simulate(config, bounds))}
