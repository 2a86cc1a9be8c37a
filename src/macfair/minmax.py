"""Min-max fair base of the multi-access power region.

The min-max fair (lexicographically optimal) power allocation at fixed rates
is the base of the dominant face closest to the equal-allocation point.  One
pipeline computes it for every input:

1. Exact levels, block by block along a chain.  Unit gains: the rank
   ``sigma^2 * (2^(2*R(A)) - 1)`` depends on a subset only through its rate
   sum, so the base is the slope sequence of the least concave majorant of
   the prefix ranks of the rates sorted in descending order, Fujishige's
   lexicographically optimal base (Math. OR 5(3), 1980); each hull segment
   is a block at one level.  Unequal gains: the objective is the
   gain-weighted squared distance ``sum_i g_i * (Q_i - c)^2`` to the level
   ``c = sum_power / sum(gains)``; it is separable convex, so its blocks are
   successive max-ratio sets of the contracted rank, each found by
   Dinkelbach's iteration (Management Sci. 13(7), 1967) over prefixes of
   one sort.
2. Time sharing.  Each block's point is decomposed over the block's greedy
   chains with Wolfe's minimum-norm-point method (the block is a region of
   the same form, contracted by the blocks before it), and a
   north-west-corner coupling of the blocks gives at most ``n`` epochs.

Levels are computed in units of the noise power and Wolfe's method runs on
vertices relative to them, so every output power is exactly linear in the
noise power.

The dual problem, max-min fair rate allocation in the capacity region, is
solved by :func:`max_min_rates` the same way, with the levels from the
greatest convex minorant of the prefix capacities over the received powers
sorted in ascending order.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .polymatroid import (
    LEX_CHECK_MAX_N,
    LN2,
    NoiseModel,
    _as_vector,
    _chain_received_trusted,
    capacity_chain,
    is_lex_optimal_base,
    sum_power,
)

# Diagnostic tolerance for the case classification, in units of the sum
# power; loose enough to recognize equal points specified with a handful of
# decimals.
CASE_TOL = 1e-5

# Time-sharing weights below this are rounding residue of the coupling;
# they are dropped and the rest renormalized.
WEIGHT_PRUNE = 1e-14

# Wolfe's method stops when the greedy vertex is already in the corral, or
# when the duality gap falls below this fraction of the largest squared
# vertex norm seen: rounding hides any progress below that level.
_GAP_FLOOR = 1e-13

# Major cycles of Wolfe's method before a solve is declared failed.
MAX_CYCLES = 10_000

# Largest sum power whose square, the scale of distances and gaps, is finite.
_MAX_SUM_POWER = math.sqrt(np.finfo(float).max)


class CaseLabel(enum.Enum):
    """Geometric relation between the equal-allocation point and the face."""

    VERTEX_COINCIDENT = "VertexCoincident"
    INTERIOR_FEASIBLE = "InteriorFeasible"
    INFEASIBLE = "Infeasible"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class SolverFailureError(RuntimeError):
    """The solver did not converge."""

    def __init__(self, message: str, gap: float = float("nan"),
                 iterations: int = 0):
        super().__init__(message)
        self.gap = gap
        self.iterations = iterations


@dataclass(frozen=True)
class MinMaxSolution:
    """Result of a min-max fair power solve.

    ``received`` is the optimal base in received-power coordinates (the
    space all subset constraints live in); ``transmit`` divides out the
    channel gains.  The two coincide in the symmetric channel.
    ``coefficients`` are ``(decoding order, weight)`` pairs forming a convex
    combination of vertices that reconstructs the base; the optimal base is
    unique but the weights need not be.  ``distance`` is the (gain-weighted)
    squared distance to the equal-allocation target and ``gap`` the duality
    gap of the returned base against the greedy vertex, both in physical
    units.  ``iterations`` counts the major cycles of Wolfe's method.
    """

    received: np.ndarray
    transmit: np.ndarray
    coefficients: tuple[tuple[tuple[int, ...], float], ...]
    case: CaseLabel
    distance: float
    iterations: int
    gap: float

    def __post_init__(self):
        self.received.flags.writeable = False
        self.transmit.flags.writeable = False


def equal_allocation(rates, noise: NoiseModel) -> np.ndarray:
    """Transmit powers of the equal-allocation point.

    Every node receives ``sum_power / n`` watts at the sink, so node ``i``
    transmits ``sum_power / n / gain_i``.
    """
    r = _as_vector(rates, "rates")
    level = sum_power(r, noise) / r.size
    return level / noise.gains_for(r.size)


def _check_sum_rate(total: float, sigma_sq: float) -> None:
    """Raise ``ValueError`` when the sum power of a rate sum leaves the range
    in which it, and the squared distances built from it, are finite."""
    limit = math.log1p(_MAX_SUM_POWER / sigma_sq) / (2.0 * LN2)
    if not total < limit:
        raise ValueError(
            f"the rates sum to {total:g} bits per channel use; above "
            f"about {limit:.4g} the sum power overflows at this noise power")


def _prefix_ranks(rates: np.ndarray, sigma_sq: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Descending rate order and its prefix ranks, empty set first, in units
    of the noise power (range checked by :func:`_check_sum_rate`)."""
    order = np.argsort(-rates, kind="stable")
    prefix = np.zeros(rates.size + 1)
    np.cumsum(rates[order], out=prefix[1:])
    _check_sum_rate(prefix[-1], sigma_sq)
    return order, np.expm1((2.0 * LN2) * prefix)


def _majorant_levels(ranks: np.ndarray) -> np.ndarray:
    """Slope of the least concave majorant of the points ``(k, F_k)`` on
    every unit step ``[k, k + 1]``, for every row ``F`` of ``ranks``.

    The slope on step ``k`` is ``min_{a <= k} max_{b > k} (F_b - F_a) /
    (b - a)``, the max-min formula of isotonic regression (Robertson, Wright
    and Dykstra, *Order Restricted Statistical Inference*, 1988).  Each
    slope is one quotient ``(F_b - F_a) / (b - a)``, the expression that
    :func:`_fair_base` evaluates on the hull's segments.
    """
    n = ranks.shape[-1] - 1
    # Point k of every row along the contiguous axis, so that each step
    # below works on whole rows of points.
    points = ranks.reshape(-1, n + 1).T.copy()
    steps = np.arange(1.0, n + 1)[:, None]
    levels = np.full((n, points.shape[1]), np.inf)
    for a in range(n):
        slopes = (points[a + 1:] - points[a]) / steps[:n - a]
        # The steepest slope from a to any b > k, for every step k >= a.
        steepest = np.maximum.accumulate(slopes[::-1], axis=0)[::-1]
        np.minimum(levels[a:], steepest, out=levels[a:])
    return levels.T.reshape(ranks.shape[:-1] + (n,))


def _case_label(shares: np.ndarray, level: float) -> CaseLabel:
    """Where the equal-level point sits relative to the face.

    ``shares`` are the prefix ranks of the descending rates over the sum
    power, empty set first.  The point violates the top-k constraint when a
    share exceeds ``k * level``, and it is the vertex of the descending chain
    when every share equals ``k * level``.
    """
    excess = shares[1:] - level * np.arange(1, shares.size)
    if excess.max() > CASE_TOL:
        return CaseLabel.INFEASIBLE
    if np.abs(excess).max() <= CASE_TOL:
        return CaseLabel.VERTEX_COINCIDENT
    return CaseLabel.INTERIOR_FEASIBLE


def classify_case(rates, noise: NoiseModel) -> CaseLabel:
    """Diagnose where the equal-allocation target sits relative to the face.

    ``VertexCoincident``: a single decoding order realizes it (within
    ``CASE_TOL``); ``InteriorFeasible``: realizable only by time sharing;
    ``Infeasible``: outside the region, so the optimum is a strict
    projection.  Purely diagnostic: the label never changes the solution.
    """
    r = _as_vector(rates, "rates")
    gains = noise.gains_for(r.size)
    _, ranks = _prefix_ranks(r, noise.sigma_sq)
    if ranks[-1] == 0.0:
        return CaseLabel.VERTEX_COINCIDENT
    return _case_label(ranks / ranks[-1], 1.0 / float(gains.sum()))


def _hull_ends(values: list[float]) -> list[int]:
    """Breakpoints ``0 = k_0 < ... < k_p = n`` of the least concave majorant
    of the points ``(k, values[k])``.  A point exactly on the majorant stays
    a breakpoint: its prefix is tight, so splitting there is exact, and runs
    of zero rates or powers become single-node blocks."""
    ends = [0]
    for k in range(1, len(values)):
        yk = values[k]
        while len(ends) > 1:
            a, b = ends[-2], ends[-1]
            if (values[b] - values[a]) * (k - a) >= (yk - values[a]) * (b - a):
                break
            ends.pop()
        ends.append(k)
    return ends


def _affine_min_coeffs(points: np.ndarray) -> np.ndarray:
    """Coefficients of the min-norm point of the affine hull of the rows."""
    m = points.shape[0]
    if m == 2:
        diff = points[0] - points[1]
        denom = float(diff @ diff)
        if denom <= 0.0:
            return np.array([1.0, 0.0])
        t = float(points[0] @ diff) / denom
        return np.array([1.0 - t, t])
    system = np.zeros((m + 1, m + 1))
    system[0, 1:] = 1.0
    system[1:, 0] = 1.0
    system[1:, 1:] = points @ points.T
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return sol[1:]


def _wolfe_min_norm(chain, lmo, m: int):
    """Wolfe's minimum-norm point of the convex hull of the chain vertices.

    ``chain`` maps an order of ``0..m-1`` to its vertex, already shifted so
    the target is the origin and scaled to the problem's metric; ``lmo``
    maps a point ``x`` to the order whose vertex minimizes ``x . v`` (the
    greedy rule), so the vertex set is never materialized.  The search
    starts at the vertex of the identity order.  Returns the corral orders,
    their coefficients and the major cycles spent.
    """
    orders = [tuple(range(m))]
    points = chain(orders[0])[None, :]
    coeffs = np.ones(1)
    x = points[0]
    xx = scale = float(x @ x)
    majors = 0
    while True:
        order = lmo(x)
        known = order in orders
        v = points[orders.index(order)] if known else chain(order)
        gap = xx - float(x @ v)
        scale = max(scale, float(v @ v))
        if known or gap <= _GAP_FLOOR * scale:
            break
        if majors >= MAX_CYCLES:
            raise SolverFailureError(
                f"minimum-norm point did not converge in {MAX_CYCLES} cycles",
                gap=gap, iterations=majors)
        majors += 1
        orders.append(order)
        points = np.concatenate((points, v[None, :]))
        coeffs = np.concatenate((coeffs, (0.0,)))
        while True:
            target = _affine_min_coeffs(points)
            if target.min() >= -1e-12:
                coeffs = np.maximum(target, 0.0)
                coeffs /= coeffs.sum()
                break
            shrink = coeffs - target
            move = shrink > 1e-14
            theta = float(np.min(coeffs[move] / shrink[move]))
            theta = min(max(theta, 0.0), 1.0)
            coeffs = coeffs + theta * (target - coeffs)
            keep = coeffs > 1e-14
            if not keep.any():
                keep[int(np.argmax(coeffs))] = True
            orders = [o for o, k in zip(orders, keep) if k]
            points = points[keep]
            coeffs = coeffs[keep]
            coeffs /= coeffs.sum()
        x = coeffs @ points
        xx = float(x @ x)
    return orders, coeffs, majors


def _decompose(order: np.ndarray, ends: list[int], target: np.ndarray,
               block_vertex, lmo):
    """Time sharing of a base given block by block along a chain, and the
    Wolfe cycles it took.

    ``block_vertex(lo, hi)`` maps an order of the positions ``0..m-1`` of
    block ``[lo, hi)`` of ``order`` to its vertex in the region contracted by
    the blocks before it.  Wolfe's method runs on those vertices over the
    block's part of ``target``, minus one, with ``lmo`` on the gradient
    rescaled the same way; the blocks are then coupled north-west-corner.
    """
    parts = []
    majors = 0
    for lo, hi in zip(ends[:-1], ends[1:]):
        nodes = order[lo:hi]
        if nodes.size == 1:
            parts.append(([(int(nodes[0]),)], np.ones(1)))
            continue
        vertex = block_vertex(lo, hi)
        inv = 1.0 / target[nodes]
        orders, coeffs, cycles = _wolfe_min_norm(
            lambda o: vertex(o) * inv - 1.0, lambda x: lmo(x * inv),
            nodes.size)
        keep = coeffs > 0.0
        parts.append(([tuple(nodes[list(o)].tolist())
                       for o, k in zip(orders, keep) if k], coeffs[keep]))
        majors += cycles
    return _couple(parts), majors


def _couple(parts) -> tuple[tuple[tuple[int, ...], float], ...]:
    """North-west-corner coupling of per-block time-sharing weights.

    ``parts`` lists, block by block in chain order, ``(orders, weights)``
    with weights summing to one.  Laying every block's weights end to end on
    ``[0, 1]`` and cutting at all their breakpoints gives epochs whose
    restriction to each block reproduces that block's weights, so the
    concatenated orders time-share the whole base in at most
    ``sum(len(weights)) - len(parts) + 1`` epochs.  Returns the
    ``(order, weight)`` pairs, heaviest first, without rounding residue.
    """
    if all(len(w) == 1 for _, w in parts):
        return ((sum((orders[0] for orders, _ in parts), ()), 1.0),)
    cums = []
    for _, w in parts:
        c = list(itertools.accumulate(w.tolist()))
        cums.append([x / c[-1] for x in c[:-1]] + [1.0])
    edges = sorted(set(itertools.chain([0.0], *cums)))
    pos = [0] * len(parts)
    support: dict[tuple[int, ...], float] = {}
    for a, b in zip(edges[:-1], edges[1:]):
        order: tuple[int, ...] = ()
        for j, (c, (orders, _)) in enumerate(zip(cums, parts)):
            while c[pos[j]] <= a:
                pos[j] += 1
            order += orders[pos[j]]
        support[order] = support.get(order, 0.0) + (b - a)
    kept = {o: w for o, w in support.items() if w > WEIGHT_PRUNE}
    total = sum(kept.values())
    items = [(o, w / total) for o, w in kept.items()]
    items.sort(key=lambda ow: (-ow[1], ow[0]))
    return tuple(items)


def _power_lmo(x: np.ndarray) -> tuple[int, ...]:
    # Contra-polymatroid side: chain increments grow along the chain, so the
    # largest gradient entry goes first.
    return tuple(np.argsort(-x, kind="stable").tolist())


def _unit_gains(noise: NoiseModel) -> bool:
    return noise.gains is None or bool(np.all(noise.gains == 1.0))


def _weighted_levels(r: np.ndarray, gains: np.ndarray, total: float
                     ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Gain-weighted nearest base in units of the noise power, its chain
    order and its blocks ``[lo, hi)`` along that order.

    Block k is a set ``A`` of the remaining nodes that maximizes
    ``(f_k(A) - c|A|) / sum_A 1/g_i``, where ``f_k`` is the rank contracted
    by the blocks before it (noise ``4^R(placed)``) and ``c`` the equal
    level; its nodes sit at ``c + lam/g_i``, ``lam`` the maximal ratio
    (Fujishige's decomposition, Math. OR 5(3), 1980).  Dinkelbach's
    iteration finds the set: with ``a_i = c + lam/g_i``, ``f_k(A) - a(A)`` is
    convex in ``(R(A), a(A))``, so its maximum over all subsets is a prefix
    of the nodes sorted by ``r_i / a_i`` descending, non-positive ``a_i``
    first.  ``lam`` grows strictly over finitely many prefix sets, so the
    iteration ends without a tolerance.  Zero-rate nodes get zero power and
    close the chain as single-node blocks.
    """
    c = total / float(gains.sum())
    inv_g = 1.0 / gains
    base = np.zeros(r.size)
    remaining = np.flatnonzero(r > 0.0)
    chain: list[int] = []
    ends = [0]
    placed = 0.0
    while remaining.size:
        scale = float(np.exp2(2.0 * placed))
        rr, w = r[remaining], inv_g[remaining]
        seq, k, lam = np.arange(rr.size), rr.size, -np.inf
        while True:  # Dinkelbach, from the whole remaining set
            rank = scale * math.expm1(2.0 * LN2 * float(rr[seq[:k]].sum()))
            ratio = (rank - c * k) / float(w[seq[:k]].sum())
            if not ratio > lam:
                break
            lam, take = ratio, seq[:k]
            a = c + lam * w
            key = np.divide(rr, a, out=np.full(a.size, np.inf), where=a > 0.0)
            seq = np.argsort(-key, kind="stable")
            gain = (scale * np.expm1((2.0 * LN2) * np.cumsum(rr[seq]))
                    - np.cumsum(a[seq]))
            k = int(np.argmax(gain)) + 1
        block = remaining[take]
        base[block] = c + lam * inv_g[block]
        chain.extend(block.tolist())
        ends.append(len(chain))
        placed += float(rr[take].sum())
        remaining = np.delete(remaining, take)
    chain.extend(np.flatnonzero(r == 0.0).tolist())
    ends.extend(range(ends[-1] + 1, r.size + 1))
    return base, np.asarray(chain, dtype=np.intp), ends


def _fair_base(r: np.ndarray, noise: NoiseModel):
    """The fair base in units of the noise power, its chain order, its
    blocks ``[lo, hi)`` along that order, and the descending prefix ranks.

    Unit gains take Fujishige's lexicographically optimal base: the slopes
    of the least concave majorant of the descending prefix ranks, one block
    per segment.  Other gains take the weighted max-ratio blocks.
    """
    order, ranks = _prefix_ranks(r, noise.sigma_sq)
    if not _unit_gains(noise):
        base, chain, ends = _weighted_levels(r, noise.gains, float(ranks[-1]))
        return base, chain, ends, ranks
    base = np.empty(r.size)
    values = ranks.tolist()
    ends = _hull_ends(values)
    for lo, hi in zip(ends[:-1], ends[1:]):
        base[order[lo:hi]] = (values[hi] - values[lo]) / (hi - lo)
    return base, order, ends, ranks


def _fair_transmit(r: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Transmit powers of the min-max fair base without its time sharing,
    for a rate vector or for every row of a rate matrix.  Unit gains take
    the majorant's slopes of all rows at once; other gains solve row by
    row."""
    if _unit_gains(noise):
        # The prefix ranks of _prefix_ranks for every row at once; the
        # vector form there stays as cheap as it was for solve.
        order = np.argsort(-r, axis=-1, kind="stable")
        prefix = np.zeros(r.shape[:-1] + (r.shape[-1] + 1,))
        np.cumsum(np.take_along_axis(r, order, -1), axis=-1,
                  out=prefix[..., 1:])
        _check_sum_rate(prefix[..., -1].max(), noise.sigma_sq)
        levels = _majorant_levels(np.expm1((2.0 * LN2) * prefix))
        base = np.empty_like(r)
        np.put_along_axis(base, order, levels, axis=-1)
    else:
        rows = r.reshape(-1, r.shape[-1])
        base = np.array([_fair_base(row, noise)[0] for row in rows]
                        ).reshape(r.shape)
    return noise.sigma_sq * base / noise.gains_for(r.shape[-1])


def solve(rates, noise: NoiseModel, check: bool = True) -> MinMaxSolution:
    """Min-max fair base of the power region and its time sharing.

    The base comes from exact levels, block by block along a chain (the
    hull for unit gains, max-ratio blocks for unequal gains); each block's
    point is decomposed over the block's chains by Wolfe's method and the
    blocks are coupled.  With ``check`` (and unit gains, ``n <= 12``) the
    base must also pass :func:`is_lex_optimal_base`.
    """
    r = _as_vector(rates, "rates")
    n = r.size
    gains = noise.gains_for(n)
    base, order, ends, ranks = _fair_base(r, noise)
    total = float(ranks[-1])

    if total == 0.0:
        received = np.zeros(n)
        return MinMaxSolution(
            received=received, transmit=received.copy(),
            coefficients=((tuple(range(n)), 1.0),),
            case=CaseLabel.VERTEX_COINCIDENT,
            distance=0.0, iterations=0, gap=0.0)

    level = 1.0 / float(gains.sum())
    case = _case_label(ranks / total, level)
    prefix = np.zeros(n + 1)
    np.cumsum(r[order], out=prefix[1:])

    def block_vertex(lo, hi):
        # The contraction by the blocks before is a power region of the
        # same form with noise 2^(2*prefix[lo]).
        rb = r[order[lo:hi]]
        noise_b = float(np.exp2(2.0 * prefix[lo]))
        return lambda o: _chain_received_trusted(
            rb, noise_b, np.asarray(o, dtype=np.intp))

    support, iters = _decompose(order, ends, base, block_vertex, _power_lmo)
    received = noise.sigma_sq * base
    transmit = received / gains
    u = base / total
    # The chain visits the blocks in order of decreasing gradient
    # g * (u - level), so its vertex is a greedy one.
    grad = gains[order] * (u[order] - level)
    shares = np.expm1((2.0 * LN2) * prefix) / total
    gap = max(float(grad @ (u[order] - np.diff(shares))), 0.0)
    factor = (noise.sigma_sq * total) ** 2
    distance = factor * float(gains @ (u - level) ** 2)
    gap_phys = factor * gap

    if check and _unit_gains(noise) and n <= LEX_CHECK_MAX_N:
        if not is_lex_optimal_base(transmit, r, noise):
            raise SolverFailureError(
                "solver output failed the lexicographic optimality check",
                gap=gap_phys, iterations=iters)

    return MinMaxSolution(
        received=received, transmit=transmit,
        coefficients=support, case=case,
        distance=distance, iterations=iters, gap=gap_phys)


def _capacity_lmo(x: np.ndarray) -> tuple[int, ...]:
    # Polymatroid side: chain increments shrink along the chain, so the
    # smallest gradient entry takes the first (largest) share.
    return tuple(np.argsort(x, kind="stable").tolist())


def max_min_rates(powers, noise: NoiseModel
                  ) -> tuple[np.ndarray, tuple[tuple[tuple[int, ...], float], ...]]:
    """Max-min fair rate base of the capacity region, with time sharing.

    The dual of the power problem: the fairest achievable rate vector at
    fixed powers is the slope sequence of the greatest convex minorant of
    the prefix capacities over the received powers sorted in ascending
    order.  Block ``[lo, hi)`` is a capacity region of the same form whose
    noise includes the received power of the blocks below it.  Returns the
    rate vector and the ``(decoding order, weight)`` pairs realizing it.
    """
    p = _as_vector(powers, "powers")
    n = p.size
    q = noise.received(p)
    order = np.argsort(q, kind="stable")
    cum = np.zeros(n + 1)
    np.cumsum(q[order], out=cum[1:])
    caps = (0.5 / LN2) * np.log1p(cum / noise.sigma_sq)
    if caps[-1] == 0.0:
        return np.zeros(n), ((tuple(range(n)), 1.0),)
    rates = np.empty(n)
    values = caps.tolist()
    ends = _hull_ends([-c for c in values])
    for lo, hi in zip(ends[:-1], ends[1:]):
        rates[order[lo:hi]] = (values[hi] - values[lo]) / (hi - lo)

    def block_vertex(lo, hi):
        qb = q[order[lo:hi]]
        block_noise = NoiseModel(noise.sigma_sq + float(cum[lo]))
        return lambda o: capacity_chain(qb, block_noise, o)

    return rates, _decompose(order, ends, rates, block_vertex, _capacity_lmo)[0]
