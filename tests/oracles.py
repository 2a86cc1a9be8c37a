"""Independent brute-force oracles used by the test suite.

Everything here recomputes expected results from first principles (direct
formulas, exhaustive enumeration, fine grid searches) without going through
the solver code paths it is used to check.
"""

import itertools

import numpy as np

from macfair import (
    STRATEGIES,
    Backlog,
    ComparisonTable,
    RunResult,
    StrategyStats,
    build_schedule,
    energy_report,
    period_backlog,
    period_energies,
)
from macfair.lifetime import CHUNK_MARGIN, FIRST_CHUNK, _blocks_per_period


def rank_of(rate_sum, sigma_sq=1.0):
    """Subset power rank computed the naive way: sigma^2 * (2**(2R) - 1)."""
    return sigma_sq * (2.0 ** (2.0 * rate_sum) - 1.0)


def naive_vertex(rates, sigma_sq, order):
    """Received-power vertex via successive rank differences, scalar math."""
    rates = np.asarray(rates, dtype=float)
    out = np.zeros(rates.size)
    cum = 0.0
    prev = 0.0
    for i in order:
        cum += rates[i]
        cur = rank_of(cum, sigma_sq)
        out[i] = cur - prev
        prev = cur
    return out


def all_received_vertices(rates, sigma_sq):
    """All n! received-power vertices by explicit enumeration."""
    n = len(rates)
    orders = list(itertools.permutations(range(n)))
    return orders, np.stack([naive_vertex(rates, sigma_sq, o) for o in orders])


def brute_linear_min(theta, rates, sigma_sq):
    """Exhaustive minimum of theta . Q over all decoding-order vertices."""
    _, vertices = all_received_vertices(rates, sigma_sq)
    return float(np.min(vertices @ np.asarray(theta, dtype=float)))


def grid_minmax_n2(rates, sigma_sq, weights=(1.0, 1.0), level=None,
                   npts=1_000_000):
    """Fine grid search for the weighted nearest base on the n=2 segment.

    The dominant face is the received-power segment between the two chain
    vertices; returns the grid argmin of ``sum_i w_i (Q_i - level)^2``.
    """
    r1, r2 = rates
    total = rank_of(r1 + r2, sigma_sq)
    lo = rank_of(r1, sigma_sq)
    hi = total - rank_of(r2, sigma_sq)
    w1, w2 = weights
    if level is None:
        level = total / (w1 + w2)
    x = np.linspace(lo, hi, npts)
    y = total - x
    d = w1 * (x - level) ** 2 + w2 * (y - level) ** 2
    k = int(np.argmin(d))
    return np.array([x[k], y[k]]), float(d[k])


def capacity_of(received_sum, sigma_sq):
    return 0.5 * np.log2(1.0 + received_sum / sigma_sq)


def grid_maxmin_rates_n2(powers, sigma_sq, npts=1_000_000):
    """Grid search for the rate base nearest the equal split, n=2."""
    p1, p2 = powers
    total = capacity_of(p1 + p2, sigma_sq)
    c1 = capacity_of(p1, sigma_sq)
    c2 = capacity_of(p2, sigma_sq)
    lo, hi = max(0.0, total - c2), min(c1, total)
    x = np.linspace(lo, hi, npts)
    y = total - x
    t = total / 2.0
    d = (x - t) ** 2 + (y - t) ** 2
    k = int(np.argmin(d))
    return np.array([x[k], y[k]]), float(d[k])


def grid_maxmin_rates_n3(powers, sigma_sq, coarse=481, zooms=3):
    """Zooming grid search for the rate base nearest the equal split, n=3.

    Grids (R1, R2) over the feasible polygon (R3 is implied by the sum
    constraint) and refines around the argmin.  Both axes share one step so
    the lattice aligns with the slope -1 constraint lines of this chart;
    with unequal steps the nearest-to-boundary staircase point can slide far
    along a binding line and the refinement stalls off-center.
    """
    p = np.asarray(powers, dtype=float)
    caps = {}
    for mask in range(1, 8):
        members = [i for i in range(3) if (mask >> i) & 1]
        caps[mask] = capacity_of(p[members].sum(), sigma_sq)
    total = caps[0b111]
    t = total / 3.0

    def feasible(r1, r2):
        r3 = total - r1 - r2
        ok = (r1 >= 0) & (r2 >= 0) & (r3 >= 0)
        ok &= (r1 <= caps[0b001]) & (r2 <= caps[0b010]) & (r3 <= caps[0b100])
        ok &= (r1 + r2 <= caps[0b011]) & (r1 + r3 <= caps[0b101])
        ok &= (r2 + r3 <= caps[0b110])
        return ok

    width = max(caps[0b001], caps[0b010])
    center1 = caps[0b001] / 2.0
    center2 = caps[0b010] / 2.0
    best = None
    for _ in range(zooms + 1):
        g1 = np.linspace(center1 - width / 2.0, center1 + width / 2.0, coarse)
        g2 = np.linspace(center2 - width / 2.0, center2 + width / 2.0, coarse)
        r1, r2 = np.meshgrid(g1, g2, indexing="ij")
        mask = feasible(r1, r2)
        if not mask.any():
            break
        r3 = total - r1 - r2
        d = (r1 - t) ** 2 + (r2 - t) ** 2 + (r3 - t) ** 2
        d[~mask] = np.inf
        k = np.unravel_index(int(np.argmin(d)), d.shape)
        cand = (float(r1[k]), float(r2[k]), float(d[k]))
        if best is None or cand[2] <= best[2]:
            best = cand
        step = width / (coarse - 1)
        center1, center2 = cand[0], cand[1]
        width = 8.0 * step
    r1, r2, d = best
    return np.array([r1, r2, total - r1 - r2]), float(d)


def tdma_grid_best_sum_energy(packets, packet_bits, period, sigma_sq,
                              npts=2000):
    """Exhaustive search over time-division splits for the minimum sum energy.

    Used to confirm that backlog-proportional slot shares are optimal for
    n in {2, 3}.
    """
    b = np.asarray(packets, dtype=float)
    bits = b * packet_bits

    def sum_energy(alphas):
        alphas = np.asarray(alphas)
        rates = bits / (alphas * period)
        with np.errstate(over="ignore"):
            powers = sigma_sq * (2.0 ** (2.0 * rates) - 1.0)
            return float((alphas * period * powers).sum())

    if b.size == 2:
        a = np.linspace(1e-4, 1 - 1e-4, npts)
        values = [sum_energy([x, 1 - x]) for x in a]
        return float(np.min(values))
    if b.size == 3:
        grid = np.linspace(1e-3, 1 - 2e-3, 150)
        best = np.inf
        for a1 in grid:
            for a2 in grid:
                a3 = 1.0 - a1 - a2
                if a3 <= 1e-3:
                    continue
                best = min(best, sum_energy([a1, a2, a3]))
        return best
    raise ValueError("oracle supports n in {2, 3}")


def first_order_gap(received, rates, sigma_sq, gains=None):
    """Brute-force first-order optimality certificate of a claimed fair base.

    With ``grad = g * (u - c)``, the gradient of ``0.5 * sum_i g_i (u_i - c)^2``
    at the received powers ``u`` (``c`` = sum power over the gain sum),
    returns ``grad . u - min over all n! vertices v of grad . v``.  It is zero
    exactly at the optimum over the base polytope, and positive anywhere
    else on it.
    """
    u = np.asarray(received, dtype=float)
    g = np.ones(u.size) if gains is None else np.asarray(gains, dtype=float)
    level = rank_of(float(np.sum(rates)), sigma_sq) / float(g.sum())
    grad = g * (u - level)
    _, vertices = all_received_vertices(rates, sigma_sq)
    return float(grad @ u) - float(np.min(vertices @ grad))


def simulate_with_schedules(config, strategy):
    """Lifetime runs of one strategy, one full schedule per period.

    The reference loop for the energies-only engine: every period draws its
    backlog on its own key with ``period_backlog``, builds and validates the
    strategy's schedule, sums the epochs into per-node energies with
    ``energy_report``, and pays them only if every node can.
    """
    results = []
    for run in range(config.runs):
        energies = np.full(config.n_nodes, float(config.initial_energy))
        peaks = []
        period = 0
        censored = True
        while period < config.period_cap:
            backlog = period_backlog(config, run, period)
            report = energy_report(build_schedule(
                strategy, backlog, config.period, config.noise))
            if not np.all(report.per_node_energy <= energies):
                censored = False
                break
            energies = energies - report.per_node_energy
            peaks.append(report.max_power)
            period += 1
        results.append(RunResult(lifetime_periods=period,
                                 residual_energy=energies,
                                 per_period_max_power=peaks,
                                 censored=censored))
    return results


def _run_backlogs(config, run):
    """The backlogs of one run, period after period, without end.

    One Philox stream keyed on ``(seed, run)`` from counter 0; each period
    takes the next ``4 * _blocks_per_period(n)`` doubles and keeps the
    first ``n``, one period per call of the generator.
    """
    n = config.n_nodes
    width = 4 * _blocks_per_period(n)
    key = np.array([config.seed, run], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    while True:
        packets = config.lam * (1.0 - gen.random(width)[:n])
        yield Backlog(packets=packets, packet_bits=config.packet_bits)


def _simulate_run(config, run):
    """Every strategy's outcome of one run, one period at a time.

    The reference loop for the chunked engine: each period's backlog is
    priced with ``period_energies`` and charged to each live strategy's
    batteries only if every node can pay; a strategy stops at its first
    unaffordable period, the run at the period cap (censored).
    """
    batteries = {s: np.full(config.n_nodes, float(config.initial_energy))
                 for s in STRATEGIES}
    peaks = {s: [] for s in STRATEGIES}
    died = {}
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


def chunk(config, battery, alive, period, max_rows):
    """Periods one unit draws next, the unit on its own: its batteries
    ``[strategy, node]``, which strategies live in it, its completed
    periods.  A first chunk has ``FIRST_CHUNK`` periods; a later one lasts
    until the first live strategy is expected to die at the spend rate seen
    so far, with a margin."""
    want = FIRST_CHUNK
    if period:
        left = battery[alive]
        spent = config.initial_energy - left
        with np.errstate(divide="ignore", invalid="ignore"):
            lasts = float((left / spent).min()) * period
        if lasts < max_rows:
            want += int(CHUNK_MARGIN * lasts)
        else:
            want = max_rows
    return min(want, max_rows, config.period_cap - period)


def tabulate(config, simulated):
    """Per-strategy statistics of one bound's runs, ``{strategy:
    [RunResult, ...]}``, one run at a time: means and sample standard
    deviations with ``np.mean`` and ``np.std`` over Python lists and the
    runs' peak tuples.  Runs that completed no period have no peak or
    sum-energy mean."""
    stats = {}
    lifetimes = {}
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
