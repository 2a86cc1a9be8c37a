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
the period of death ``[strategy, unit]``, and the sum of the peak powers
of the completed periods ``[strategy, unit]``, added in period order:
none of them grows with the periods simulated.  A period's energies depend
only on its backlog, never on the batteries, so the engine works in steps
of many periods, and every live unit has completed the same number of
periods.  The first step covers ``FIRST_CHUNK`` periods and each later
one twice the periods done, so the horizon triples (16, 48, 144, ...); a
step covers at most ``MAX_CELLS // n_nodes`` periods and ends at the
period cap.  A step takes the live units in slices of at most
``MAX_CELLS // n_nodes`` rows, so its arrays do not grow with the number of
runs or lambdas.  Units are ordered run by run, so a slice holds the
bounds of a run together: it draws each of its runs once at bound 1, from
the run's own Philox stream, and each unit scales its run's rows by its
own bound.  A ledger is a live ``(strategy, unit)`` pair; a strategy is
neither priced nor replayed in a unit after the step in which it dies
there.  Each strategy prices the rows of its live units as one array,
whatever their lambda (the pricing depends only on the packet size, the
period and the channel, which the lambdas share), into its block of the
slice's ``spent[ledger, period, node]``.  One replay charges every ledger:
``np.subtract.accumulate`` along the periods is the sequential
``battery - e`` fold, a ledger dies at the first period some node cannot
pay, and ``np.cumsum`` adds the paid periods' peaks to its sum.  Results
are bit for bit those of a loop over single periods, one lambda at a
time.  The statistics are reductions over these arrays.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .polymatroid import NoiseModel, _check_sum_rate
from .scheduling import STRATEGIES, _TABLE

DEFAULT_PERIOD_CAP = 1_000_000

# Periods in the first step of a pass; a later step covers twice the
# periods done.
FIRST_CHUNK = 16

# Cells in one slice's backlog array (rows times n_nodes), so that memory
# does not grow with the number of runs.
MAX_CELLS = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters: network size, batteries, period, packets,
    channel and the Monte Carlo plan.  The backlog bounds are the
    arguments of :func:`compare_sweep`."""

    n_nodes: int
    initial_energy: float
    period: float
    packet_bits: float
    noise: NoiseModel
    runs: int = 1
    seed: int = 0
    period_cap: int = DEFAULT_PERIOD_CAP

    def __post_init__(self):
        # numpy integers pass; 1.5 would be truncated or fail inside numpy.
        for name in ("n_nodes", "runs", "seed", "period_cap"):
            try:
                object.__setattr__(self, name,
                                   operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        if not 0 <= self.initial_energy < np.inf:
            raise ValueError("initial_energy must be non-negative and finite")
        if not 0 < self.period < np.inf:
            raise ValueError("period must be positive and finite")
        if not 0 < self.packet_bits < np.inf:
            raise ValueError("packet_bits must be positive and finite")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.period_cap < 1:
            raise ValueError("period_cap must be at least 1")
        self.noise.gains_for(self.n_nodes)  # raises on a gain count != n_nodes

    def _check_lam(self, lam: float) -> None:
        """Raise ``ValueError`` unless ``lam`` is a backlog bound this
        config can simulate: positive, finite, and small enough that the
        sum power of a period stays finite."""
        if not 0 < lam < np.inf:
            raise ValueError("lam must be positive and finite")
        # The largest sum rate a period can draw: every node at lam, summed
        # as the pricing sums a row, whose every other row sums to less.
        rate = lam * self.packet_bits / self.period
        try:
            _check_sum_rate(np.cumsum(np.full(self.n_nodes, rate))[-1],
                            self.noise.sigma_sq)
        except ValueError as exc:
            raise ValueError(f"lam = {lam:g} is too large: {exc}") from None


@dataclass(frozen=True)
class StrategyStats:
    """Per-strategy aggregates over the runs (means and sample st. devs)."""

    mean_lifetime: float
    std_lifetime: float
    mean_max_power: float
    mean_sum_energy: float


@dataclass(frozen=True)
class ComparisonTable:
    """Side-by-side strategy statistics computed on shared backlog draws."""

    stats: dict[str, StrategyStats]
    lifetimes: dict[str, np.ndarray]


def _blocks_per_period(n_nodes: int) -> int:
    """Philox counter blocks one period's draws span: each gives 4 doubles.
    Periods start this many blocks apart, so no two share a block."""
    return -(-n_nodes // 4)


def _draw(config: SimConfig, bits: np.random.Philox, runs: np.ndarray,
          first: int, size: int) -> np.ndarray:
    """Packets of periods ``first`` to ``first + size - 1`` of every run in
    ``runs`` at bound 1, as ``[run, period, node]``: ``lam`` times a row is
    the backlog at bound ``lam``, uniform on ``(0, lam]``.  Each run reads
    the Philox stream keyed on ``(seed, run)`` from block ``first *
    _blocks_per_period(n)``, with ``bits`` re-keyed for it; a period takes
    the next ``4 * _blocks_per_period(n)`` doubles and keeps the first
    ``n``, so every scaled row is bit-identical to the one-period reference
    draw, ``oracles.period_backlog`` in the tests."""
    n = config.n_nodes
    blocks = _blocks_per_period(n)
    u = np.empty((runs.size, size, 4 * blocks))
    key = np.array([config.seed, 0], dtype=np.uint64)
    counter = np.array([first * blocks, 0, 0, 0], dtype=np.uint64)
    # An empty buffer (buffer_pos 4), so that a re-keyed stream's first
    # double comes from the block its counter names.
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    uniform = np.random.Generator(bits).random
    for row, run in enumerate(runs.tolist()):
        key[1] = run
        bits.state = state
        uniform(out=u[row].reshape(-1))
    return 1.0 - u[..., :n]


def _replay(battery: np.ndarray, spent: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Charge ledgers ``spent[row, period, slot]`` to batteries
    ``[row, slot]``, each up to its first unaffordable period.

    Returns, for every row, the periods paid (all ``spent.shape[1]`` of
    them exactly when none fails), the batteries after the paid ones, and
    every period's largest energy ``[row, period]``.
    """
    rows, size, slots = spent.shape
    # charges[row, slot] is the battery, then the energies period by
    # period: np.subtract.accumulate is the sequential battery - e fold.
    # Periods go last, so that the reductions over a few slots are
    # elementwise over long rows.
    charges = np.empty((rows, slots, size + 1))
    charges[..., 0] = battery
    charges[..., 1:] = spent.transpose(0, 2, 1)
    ledger = np.subtract.accumulate(charges, axis=2)
    unpaid = ~np.all(charges[..., 1:] <= ledger[..., :-1], axis=1)
    paid = np.where(unpaid.any(axis=1), unpaid.argmax(axis=1), size)
    left = ledger[np.arange(rows), :, paid]
    return paid, left, charges[..., 1:].max(axis=1)


@dataclass(frozen=True)
class _Sweep:
    """The outcome of every ``(lambda, run)`` unit of a pass, by strategy,
    each as ``[strategy, lambda, run, ...]``: completed periods (a death
    comes before the period cap, so exactly the units alive at the cap read
    ``period_cap``), the batteries left ``[..., node]``, and the sum of the
    peak powers of the completed periods, added in period order."""

    lifetimes: np.ndarray
    residual: np.ndarray
    peak_sums: np.ndarray


def _simulate(config: SimConfig, lams: list[float]) -> _Sweep:
    """Every run of ``config`` at each backlog bound in ``lams``.

    Unit ``u`` is run ``u // len(lams)`` at bound ``lams[u % len(lams)]``.
    Units are independent given their (seed, run) keys and bounds; which
    units share a step or a slice changes no result.
    """
    n, runs, strategies = config.n_nodes, config.runs, len(STRATEGIES)
    n_units = len(lams) * runs
    unit_lam = np.tile(np.asarray(lams, dtype=float), runs)
    battery = np.full((strategies, n_units, n), float(config.initial_energy))
    died = np.full((strategies, n_units), -1, dtype=np.int64)
    peak_sums = np.zeros((strategies, n_units))
    bits = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    max_rows = max(1, MAX_CELLS // n)
    period = 0
    live = np.arange(n_units)
    while live.size and period < config.period_cap:
        size = min(max(FIRST_CHUNK, 2 * period), max_rows,
                   config.period_cap - period)
        width = max(1, max_rows // size)
        for start in range(0, live.size, width):
            units = live[start:start + width]
            # Units are run-major, so a slice draws each of its runs once
            # and every bound of the run scales the same rows.
            draw_runs, of_run = np.unique(units // len(lams),
                                          return_inverse=True)
            packets = (unit_lam[units, None, None]
                       * _draw(config, bits, draw_runs, period, size)[of_run])
            # Ledger row k is the live pair (strategy[k], unit[k]); nonzero
            # goes strategy by strategy, so each prices one block of rows.
            strategy, slot = np.nonzero(died[:, units] < 0)
            unit = units[slot]
            spent = np.empty((unit.size, size, n))
            ends = np.searchsorted(strategy, np.arange(strategies), "right")
            for (_, energy), lo, hi in zip(_TABLE.values(), [0, *ends], ends):
                if lo < hi:
                    priced = packets[slot[lo:hi]]
                    spent[lo:hi] = energy(
                        priced.reshape(-1, n), config.packet_bits,
                        config.period, config.noise).reshape(priced.shape)
            paid, battery[strategy, unit], peaks = _replay(
                battery[strategy, unit], spent)
            dead = paid < size
            died[strategy[dead], unit[dead]] = period + paid[dead]
            # Each row's sum so far, then its peaks, added left to right:
            # the sum after its paid periods is at index paid.
            sums = np.empty((unit.size, size + 1))
            sums[:, 0] = peak_sums[strategy, unit]
            np.divide(peaks, config.period, out=sums[:, 1:])
            np.cumsum(sums, axis=1, out=sums)
            peak_sums[strategy, unit] = sums[np.arange(unit.size), paid]
        period += size
        live = live[(died[:, live] < 0).any(axis=0)]

    def by_bound(a: np.ndarray) -> np.ndarray:
        """``a[strategy, unit, ...]`` as ``[strategy, lambda, run, ...]``."""
        a = a.reshape((strategies, runs, len(lams)) + a.shape[2:])
        return np.ascontiguousarray(a.swapaxes(1, 2))

    return _Sweep(lifetimes=by_bound(np.where(died >= 0, died, period)),
                  residual=by_bound(battery), peak_sums=by_bound(peak_sums))


def _tabulate(config: SimConfig, sweep: _Sweep) -> list[ComparisonTable]:
    """Per-strategy statistics of every bound of a pass, in its order.

    A run's peak mean is its peak sum over its lifetime.  Every mean over
    runs is the reduction that ``np.mean`` makes over one contiguous row,
    so it equals ``np.mean`` over the same values one bound at a time.
    Runs that completed no period have no peak or sum-energy mean.
    """
    life = sweep.lifetimes.astype(float)
    ran = sweep.lifetimes > 0
    spent = (config.n_nodes * config.initial_energy
             - sweep.residual.sum(axis=-1))
    peak_means = np.zeros(life.shape)
    sum_means = np.zeros(life.shape)
    np.divide(sweep.peak_sums, life, out=peak_means, where=ran)
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
        stats = {s: StrategyStats(*means[i, lam].tolist())
                 for i, s in enumerate(STRATEGIES)}
        lifetimes = {s: sweep.lifetimes[i, lam].copy()
                     for i, s in enumerate(STRATEGIES)}
        tables.append(ComparisonTable(stats=stats, lifetimes=lifetimes))
    return tables


def compare_sweep(config: SimConfig,
                  lams: Iterable[float]) -> dict[float, ComparisonTable]:
    """Simulate every strategy of ``config`` at every backlog bound in
    ``lams`` (each bound once) and tabulate, keyed by bound, from one
    engine pass.

    All strategies see identical backlogs in every (run, period), so
    per-run comparisons are meaningful.  Every bound is checked before
    anything is simulated: it is positive and finite, and small enough
    that the sum power of a period stays finite.  No bounds give no tables.
    """
    bounds = list(dict.fromkeys(float(lam) for lam in lams))
    for lam in bounds:
        config._check_lam(lam)
    if not bounds:
        return {}
    return dict(zip(bounds, _tabulate(config, _simulate(config, bounds))))
