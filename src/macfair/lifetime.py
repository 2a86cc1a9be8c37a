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
config at one backlog bound.  A whole lambda sweep is one pass over all its
units, and a single simulation is the sweep of one lambda.  The state of a
pass is arrays, not per-run objects: batteries ``[strategy, unit, node]``,
completed periods ``[unit]``, the period of death ``[strategy, unit]``, and
the peak power of every completed period in float64 arrays.  A period's
energies depend only on its backlog, never on the batteries, so the engine
works in chunks of periods.  Each step sizes the next chunk of every live
unit at once, reads each unit's periods from its own Philox stream, and
prices them as one array per strategy, over the units in which that
strategy still lives, whatever their lambda (the pricing depends only on
the packet size, the period and the channel, which the lambdas share).
Then it replays the ledgers of the step's units together, in groups whose
chunk lengths are within a factor of two: each group's energies are padded
with zeros to its longest chunk, and ``np.subtract.accumulate`` along the
periods is the sequential ``battery - e`` fold (subtracting a zero changes
no battery).  A strategy dies at the first period some node cannot pay.
Results are bit for bit those of a loop over single periods, one lambda at
a time.  The first chunk of a unit has ``FIRST_CHUNK`` periods; a later one
lasts until the first live strategy is expected to die at the spend rate
seen so far, with a margin.  A step prices at most ``MAX_CELLS // n_nodes``
periods, so its arrays do not grow with the number of runs or lambdas.  The
statistics are reductions over these arrays; :class:`RunResult` objects are
built only by :func:`simulate_lifetime`.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

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


def _draw(config: SimConfig, bits: np.random.Philox, lams: np.ndarray,
          runs: np.ndarray, first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Packets of ``sizes[i]`` periods of run ``runs[i]`` at bound
    ``lams[i]`` from period ``first[i]`` on, for every ``i``, one row per
    period.  Each unit reads the Philox stream keyed on ``(seed, run)`` from
    the block where :func:`_period_rng` puts its first period, with ``bits``
    re-keyed for it; a period takes the next ``4 * _blocks_per_period(n)``
    doubles and keeps the first ``n``, so every row is bit-identical to
    :func:`period_backlog`."""
    n = config.n_nodes
    blocks = _blocks_per_period(n)
    u = np.empty((int(sizes.sum()), 4 * blocks))
    key = np.array([config.seed, 0], dtype=np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    # An empty buffer (buffer_pos 4), so that a re-keyed stream's first
    # double comes from the block its counter names.
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    uniform = np.random.Generator(bits).random
    end = 0
    for run, period, k in zip(runs.tolist(), first.tolist(), sizes.tolist()):
        key[1], counter[0] = run, period * blocks
        bits.state = state
        uniform(out=u[end:end + k].reshape(-1))
        end += k
    return np.repeat(lams, sizes)[:, None] * (1.0 - u[:, :n])


def _chunks(config: SimConfig, battery: np.ndarray, alive: np.ndarray,
            period: np.ndarray, max_rows: int) -> np.ndarray:
    """Periods each unit draws next, from its batteries
    ``[strategy, unit, node]``, which strategies still live in it
    ``[strategy, unit]`` and its completed periods ``[unit]``.  A first chunk
    has ``FIRST_CHUNK`` periods; a later one lasts until the first live
    strategy is expected to die at the spend rate seen so far, with a
    margin."""
    # A unit with no completed period gives inf * 0 here, and one whose
    # batteries started empty 0 / 0; neither value is used.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = battery / (config.initial_energy - battery)
        lasts = np.where(alive[..., None], ratio, np.inf).min(axis=(0, 2)) * period
    short = lasts < max_rows
    want = np.full(period.shape, max_rows)
    want[short] = FIRST_CHUNK + (CHUNK_MARGIN * lasts[short]).astype(np.int64)
    want[period == 0] = FIRST_CHUNK
    return np.minimum(np.minimum(want, max_rows), config.period_cap - period)


def _replay(battery: np.ndarray, spent: np.ndarray, lengths: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Charge chunks to batteries ``[strategy, unit, node]``, up to each
    ledger's first unaffordable period.  ``spent[strategy, row, node]``
    holds the units' chunks one after another, ``lengths`` their periods.

    Returns, for every (strategy, unit), the periods paid, whether one was
    not, the batteries after the paid ones, and every period's largest
    energy ``[strategy, unit, period]``.  A strategy charged zeros keeps
    its battery.
    """
    strategies, units, n = battery.shape
    length = int(lengths.max())
    # charges[strategy, unit, node] is the battery, then the unit's energies
    # period by period, then zeros; subtracting a zero leaves a battery as
    # it is, so np.subtract.accumulate stays the sequential battery - e fold.
    charges = np.zeros((strategies, units, n, length + 1))
    charges[..., 0] = battery
    charges[..., 1:].transpose(0, 1, 3, 2)[
        :, np.arange(length) < lengths[:, None]] = spent
    ledger = np.subtract.accumulate(charges, axis=3)
    # A paid period leaves no battery negative, so the padding after it is
    # paid too.
    unpaid = ~np.all(charges[..., 1:] <= ledger[..., :-1], axis=2)
    fails = unpaid.any(axis=2)
    paid = np.where(fails, unpaid.argmax(axis=2), lengths)
    left = ledger[np.arange(strategies)[:, None], np.arange(units), :, paid]
    return paid, fails, left, charges[..., 1:].max(axis=2)


@dataclass(frozen=True)
class _Sweep:
    """The outcome of every ``(lambda, run)`` unit of a pass, by strategy:
    completed periods and whether the period cap ended them
    ``[strategy, lambda, run]``, the batteries left
    ``[strategy, lambda, run, node]``, and the peak power of every completed
    period in one array, run after run in the order of ``lifetimes``
    (``starts`` has each run's first index, then the end)."""

    lifetimes: np.ndarray
    censored: np.ndarray
    residual: np.ndarray
    peaks: np.ndarray
    starts: np.ndarray

    def peaks_of(self, i: int, lam: int, run: int) -> np.ndarray:
        at = np.ravel_multi_index((i, lam, run), self.lifetimes.shape)
        return self.peaks[self.starts[at]:self.starts[at + 1]]


def _simulate(config: SimConfig, lams: list[float]) -> _Sweep:
    """Every run of ``config`` at each backlog bound in ``lams``.

    Unit ``u`` is run ``u % runs`` at bound ``lams[u // runs]``.  Units are
    independent given their (seed, run) keys and bounds; which units share
    a step, and which share a replay, changes no result.
    """
    n, runs, strategies = config.n_nodes, config.runs, len(STRATEGIES)
    n_units = len(lams) * runs
    unit_lam = np.repeat(np.asarray(lams, dtype=float), runs)
    unit_run = np.tile(np.arange(runs), len(lams))
    battery = np.full((strategies, n_units, n), float(config.initial_energy))
    period = np.zeros(n_units, dtype=np.int64)
    died = np.full((strategies, n_units), -1, dtype=np.int64)
    bits = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    # Per replay: each (strategy, unit)'s index in the sweep, its first
    # period and its paid periods, and their peaks, in that order.
    replays: list[tuple[np.ndarray, ...]] = []
    max_rows = max(1, MAX_CELLS // n)
    live = np.arange(n_units)
    while live.size:
        sizes = _chunks(config, battery[:, live], died[:, live] < 0,
                        period[live], max_rows)
        take = max(1, int(np.searchsorted(np.cumsum(sizes), max_rows,
                                          side="right")))
        # Chunks whose lengths are within a factor of two of each other are
        # replayed together, so that the zero padding of the shorter ones
        # stays small; each such group is drawn as one block of rows.
        octave = np.frexp(sizes[:take])[1]
        order = np.argsort(octave, kind="stable")
        batch, sizes, octave = live[order], sizes[order], octave[order]
        packets = _draw(config, bits, unit_lam[batch], unit_run[batch],
                        period[batch], sizes)
        alive = died[:, batch] < 0
        spent = np.zeros((strategies,) + packets.shape)
        for i, s in enumerate(STRATEGIES):
            # Only the rows of units in which the strategy still lives.
            if alive[i].all():
                spent[i] = _ENERGY[s](packets, config.packet_bits,
                                      config.period, config.noise)
            elif alive[i].any():
                rows = np.repeat(alive[i], sizes)
                spent[i, rows] = _ENERGY[s](packets[rows], config.packet_bits,
                                            config.period, config.noise)
        cuts = [0, *(np.flatnonzero(np.diff(octave)) + 1).tolist(), take]
        first_row = [0, *np.cumsum(sizes).tolist()]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            units = batch[lo:hi]
            paid, fails, battery[:, units], peaks = _replay(
                battery[:, units], spent[:, first_row[lo]:first_row[hi]],
                sizes[lo:hi])
            live_here = alive[:, lo:hi]
            died[:, units] = np.where(live_here & fails, period[units] + paid,
                                      died[:, units])
            paid[~live_here] = 0
            replays.append((
                (np.arange(strategies)[:, None] * n_units + units).ravel(),
                np.tile(period[units], strategies),
                paid.ravel(),
                peaks[np.arange(peaks.shape[-1]) < paid[..., None]]
                / config.period))
        period[batch] += sizes
        done = ((died[:, live] >= 0).all(axis=0)
                | (period[live] == config.period_cap))
        live = live[~done]
    lifetimes = np.where(died >= 0, died, period)
    starts = np.zeros(lifetimes.size + 1, dtype=np.int64)
    np.cumsum(lifetimes, out=starts[1:])
    peaks = np.empty(starts[-1])
    index, first, paid, values = (np.concatenate(column)
                                  for column in zip(*replays))
    skip = np.cumsum(paid) - paid
    peaks[np.arange(values.size)
          + np.repeat(starts[index] + first - skip, paid)] = values
    shape = (strategies, len(lams), runs)
    return _Sweep(lifetimes=lifetimes.reshape(shape),
                  censored=(died < 0).reshape(shape),
                  residual=battery.reshape(shape + (n,)),
                  peaks=peaks, starts=starts)


def _results(sweep: _Sweep, lam: int) -> dict[str, list[RunResult]]:
    """The runs of the ``lam``-th bound of a pass, as :class:`RunResult`s."""
    runs = sweep.lifetimes.shape[2]
    return {s: [RunResult(lifetime_periods=int(sweep.lifetimes[i, lam, run]),
                          residual_energy=sweep.residual[i, lam, run].copy(),
                          per_period_max_power=sweep.peaks_of(
                              i, lam, run).tolist(),
                          censored=bool(sweep.censored[i, lam, run]))
                for run in range(runs)]
            for i, s in enumerate(STRATEGIES)}


def simulate_lifetime(config: SimConfig) -> dict[str, list[RunResult]]:
    """Simulate all runs of every strategy, keyed by strategy name.

    Runs are independent given their (seed, run) keys; executing them in any
    order, or concurrently, yields identical results.
    """
    return _results(_simulate(config, [config.lam]), 0)


def _tabulate(config: SimConfig, sweep: _Sweep) -> list[ComparisonTable]:
    """Per-strategy statistics of every bound of a pass, in its order.

    Every mean is the reduction that ``np.mean`` makes over one contiguous
    row, so it equals ``np.mean`` over the same values one run or one bound
    at a time: a run's peak mean over its peaks, a bound's means over its
    runs.  Runs that completed no period have no peak or sum-energy mean.
    """
    life = sweep.lifetimes.astype(float)
    ran = sweep.lifetimes > 0
    peaks, bounds = sweep.peaks, sweep.starts.tolist()
    peak_means = np.zeros(life.shape)
    peak_means[ran] = [float(np.add.reduce(peaks[bounds[at]:bounds[at + 1]]))
                       for at in np.flatnonzero(ran).tolist()]
    spent = (config.n_nodes * config.initial_energy
             - sweep.residual.sum(axis=-1))
    sum_means = np.zeros(life.shape)
    np.divide(peak_means, life, out=peak_means, where=ran)
    np.divide(spent, life, out=sum_means, where=ran)
    means = np.stack((life.mean(axis=-1),
                      (life.std(axis=-1, ddof=1) if config.runs > 1
                       else np.zeros(ran.shape[:-1])),
                      peak_means.mean(axis=-1), sum_means.mean(axis=-1)),
                     axis=-1)
    # A bound at which some runs completed no period averages the others.
    for i, lam in zip(*np.nonzero(~ran.all(axis=-1))):
        some = ran[i, lam]
        means[i, lam, 2:] = np.nan
        if some.any():
            means[i, lam, 2:] = (peak_means[i, lam, some].mean(),
                                 sum_means[i, lam, some].mean())
    tables = []
    for lam in range(ran.shape[1]):
        stats = {s: StrategyStats(config.runs, *means[i, lam].tolist())
                 for i, s in enumerate(STRATEGIES)}
        lifetimes = {s: sweep.lifetimes[i, lam].copy()
                     for i, s in enumerate(STRATEGIES)}
        tables.append(ComparisonTable(stats=stats, lifetimes=lifetimes,
                                      seed=config.seed, runs=config.runs))
    return tables


def compare_strategies(config: SimConfig) -> ComparisonTable:
    """Simulate every strategy on the same backlog sequences and tabulate.

    All strategies see identical backlogs in every (run, period), so
    per-run comparisons are meaningful.
    """
    return _tabulate(config, _simulate(config, [config.lam]))[0]


def compare_sweep(config: SimConfig,
                  lams: Iterable[float]) -> dict[float, ComparisonTable]:
    """:func:`compare_strategies` of ``config`` at every backlog bound in
    ``lams`` (each bound once), keyed by bound, from one engine pass.

    Every table equals ``compare_strategies(replace(config, lam=lam))``; the
    bound of ``config`` itself is simulated only if it is in ``lams``.
    """
    bounds = list(dict.fromkeys(float(lam) for lam in lams))
    return dict(zip(bounds, _tabulate(config, _simulate(config, bounds))))
