"""Min-max fair base of the multi-access power region.

The min-max fair (lexicographically optimal) power allocation at fixed rates
is the base of the dominant face closest to the equal-allocation point.  One
solver computes it; the input decides how:

* Unit gains.  The rank ``sigma^2 * (2^(2*R(A)) - 1)`` depends on a subset
  only through its rate sum, so the fair base is the slope sequence of the
  least concave majorant of the prefix ranks of the rates sorted in
  descending order: Fujishige's lexicographically optimal base (Math. OR
  5(3), 1980).  Each hull segment is a block of nodes sharing one power
  level.  The time-sharing weights decompose each block's equal point over
  the block's greedy chains with Wolfe's minimum-norm-point method, and a
  north-west-corner coupling of the blocks gives at most ``n`` epochs.
* Unequal gains.  The objective is the gain-weighted squared distance
  ``sum_i g_i * (Q_i - c)^2`` to the level ``c = sum_power / sum(gains)``.
  Wolfe's method runs on the whole ground set in the ``sqrt(g)`` metric with
  the greedy rule as its vertex oracle (the Fujishige-Wolfe method of
  Chakrabarty, Jain and Kothari, NeurIPS 2014), so the ``n!`` vertices are
  never listed.

Both work on the received-power region normalized by the conserved sum
power, which makes every output exactly linear in the noise power.

The dual problem, max-min fair rate allocation in the capacity region, is
solved by :func:`max_min_rates` the same way, from the greatest convex
minorant of the prefix capacities over the received powers sorted in
ascending order.
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

    @property
    def base(self) -> np.ndarray:
        """The min-max optimal base (received-power coordinates)."""
        return self.received


def equal_allocation(rates, noise: NoiseModel) -> np.ndarray:
    """Transmit powers of the equal-allocation point.

    Every node receives ``sum_power / n`` watts at the sink, so node ``i``
    transmits ``sum_power / n / gain_i``.
    """
    r = _as_vector(rates, "rates")
    level = sum_power(r, noise) / r.size
    return level / noise.gains_for(r.size)


def _prefix_ranks(rates: np.ndarray, sigma_sq: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descending rate order, its prefix rate sums and prefix ranks.

    Both prefix arrays start with the empty set; ranks are in units of the
    noise power.  Raises ``ValueError`` when the sum power leaves the range
    in which it, and the squared distances built from it, are finite.
    """
    order = np.argsort(-rates, kind="stable")
    prefix = np.zeros(rates.size + 1)
    np.cumsum(rates[order], out=prefix[1:])
    limit = math.log1p(_MAX_SUM_POWER / sigma_sq) / (2.0 * LN2)
    if not prefix[-1] < limit:
        raise ValueError(
            f"the rates sum to {prefix[-1]:g} bits per channel use; above "
            f"about {limit:.4g} the sum power overflows at this noise power")
    return order, prefix, np.expm1((2.0 * LN2) * prefix)


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
    _, _, ranks = _prefix_ranks(r, noise.sigma_sq)
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
    if m == 1:
        return np.ones(1)
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


def _wolfe_min_norm(chain, lmo, start: tuple[int, ...]):
    """Wolfe's minimum-norm point of the convex hull of the chain vertices.

    ``chain`` maps a decoding order to its vertex, already shifted so the
    target is the origin and scaled to the problem's metric; ``lmo`` maps a
    point ``x`` to the order whose vertex minimizes ``x . v`` (the greedy
    rule), so the vertex set is never materialized.  The search starts at
    the vertex of ``start``.  Returns ``(x, corral orders, coefficients,
    major cycles, gap)`` where ``gap = x.x - min_v x.v`` is the final
    duality gap of ``0.5*|x|^2``.
    """
    orders = [start]
    points = chain(start)[None, :]
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
    return x, orders, coeffs, majors, max(gap, 0.0)


def _decompose(nodes: np.ndarray, level: float, vertex, lmo):
    """Time-sharing weights of one hull block's equal point.

    ``vertex`` maps an order of the block's positions ``0..m-1`` to the
    block's vertex; Wolfe's method runs on vertices over ``level`` minus
    one, so the equal point is the origin.  Returns the orders mapped to
    node indices, their weights and the major cycles spent.
    """
    if nodes.size == 1:
        return [(int(nodes[0]),)], np.ones(1), 0
    inv = 1.0 / level

    def chain(o):
        p = vertex(o)
        p *= inv
        p -= 1.0
        return p

    _, orders, coeffs, majors, _ = _wolfe_min_norm(
        chain, lmo, tuple(range(nodes.size)))
    keep = coeffs > 0.0
    mapped = [tuple(nodes[list(o)].tolist())
              for o, k in zip(orders, keep) if k]
    return mapped, coeffs[keep], majors


def _couple(parts) -> dict[tuple[int, ...], float]:
    """North-west-corner coupling of per-block time-sharing weights.

    ``parts`` lists, block by block in chain order, ``(orders, weights)``
    with weights summing to one.  Laying every block's weights end to end on
    ``[0, 1]`` and cutting at all their breakpoints gives epochs whose
    restriction to each block reproduces that block's weights, so the
    concatenated orders time-share the whole base in at most
    ``sum(len(weights)) - len(parts) + 1`` epochs.
    """
    if all(len(w) == 1 for _, w in parts):
        return {sum((orders[0] for orders, _ in parts), ()): 1.0}
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
    return support


def _prune_support(support: dict) -> tuple[tuple[tuple[int, ...], float], ...]:
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


def _hull_base(order: np.ndarray, ranks: np.ndarray
               ) -> tuple[np.ndarray, list[int]]:
    """Fujishige's lexicographically optimal base in units of the noise
    power, and its blocks ``[lo, hi)`` along the descending order: the
    segments of the least concave majorant of the prefix ranks, each at the
    level of its slope."""
    base = np.empty(order.size)
    values = ranks.tolist()
    ends = _hull_ends(values)
    for lo, hi in zip(ends[:-1], ends[1:]):
        base[order[lo:hi]] = (values[hi] - values[lo]) / (hi - lo)
    return base, ends


def _hull_time_sharing(r: np.ndarray, order: np.ndarray, prefix: np.ndarray,
                       base: np.ndarray, ends: list[int]):
    """Time sharing of the hull base and the Wolfe cycles it took.

    Block ``[lo, hi)`` of the descending order is the contraction by the
    blocks above it, a power region of the same form with noise
    ``2^(2*prefix[lo])``, so its chains are ordinary chain vertices.
    """
    parts = []
    majors = 0
    for lo, hi in zip(ends[:-1], ends[1:]):
        nodes = order[lo:hi]
        rb = r[nodes]
        noise_b = float(np.exp2(2.0 * prefix[lo]))

        def vertex(o, rb=rb, noise_b=noise_b):
            return _chain_received_trusted(rb, noise_b,
                                           np.asarray(o, dtype=np.intp))

        orders, weights, cycles = _decompose(nodes, float(base[nodes[0]]),
                                             vertex, _power_lmo)
        parts.append((orders, weights))
        majors += cycles
    return _couple(parts), majors


def _fair_transmit(r: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Transmit powers of the min-max fair base without its time sharing:
    the hull levels alone for unit gains, Wolfe's base otherwise."""
    if not _unit_gains(noise):
        return solve(r, noise, check=False).transmit
    order, _, ranks = _prefix_ranks(r, noise.sigma_sq)
    return noise.sigma_sq * _hull_base(order, ranks)[0]


def _weighted_base(r: np.ndarray, gains: np.ndarray, level: float,
                   total: float, start: tuple[int, ...]):
    """Gain-weighted nearest base by Wolfe's method on the whole ground set,
    in units of the sum power."""
    root = np.sqrt(gains)
    unit = 1.0 / total

    def chain(o):
        v = _chain_received_trusted(r, unit, np.asarray(o, dtype=np.intp))
        return (v - level) * root

    def lmo(x):
        return _power_lmo(x * root)

    x, orders, coeffs, majors, gap = _wolfe_min_norm(chain, lmo, start)
    return x / root + level, dict(zip(orders, coeffs.tolist())), majors, gap


def solve(rates, noise: NoiseModel, check: bool = True) -> MinMaxSolution:
    """Min-max fair base of the power region and its time sharing.

    Unit gains take the exact hull base; unequal gains take Wolfe's method
    on the gain-weighted objective.  With ``check`` (and unit gains,
    ``n <= 12``) the base must also pass :func:`is_lex_optimal_base`.
    """
    r = _as_vector(rates, "rates")
    n = r.size
    gains = noise.gains_for(n)
    order, prefix, ranks = _prefix_ranks(r, noise.sigma_sq)
    total = float(ranks[-1])
    scale = noise.sigma_sq

    if total == 0.0:
        received = np.zeros(n)
        return MinMaxSolution(
            received=received, transmit=received.copy(),
            coefficients=((tuple(range(n)), 1.0),),
            case=CaseLabel.VERTEX_COINCIDENT,
            distance=0.0, iterations=0, gap=0.0)

    level = 1.0 / float(gains.sum())
    shares = ranks / total
    case = _case_label(shares, level)
    unit_gains = _unit_gains(noise)
    if unit_gains:
        base, ends = _hull_base(order, ranks)
        support, iters = _hull_time_sharing(r, order, prefix, base, ends)
        received = scale * base
        u = base / total
        # The descending chain is a greedy vertex of the gradient u - level:
        # it visits the blocks in order of decreasing level.
        grad = u[order] - level
        gap = max(float(grad @ (u[order] - np.diff(shares))), 0.0)
    else:
        u, support, iters, gap = _weighted_base(
            r, gains, level, total, tuple(order.tolist()))
        received = scale * (total * u)

    transmit = received / gains
    factor = (scale * total) ** 2
    distance = factor * float(gains @ (u - level) ** 2)
    gap_phys = factor * gap

    if check and unit_gains and n <= LEX_CHECK_MAX_N:
        if not is_lex_optimal_base(transmit, r, noise):
            raise SolverFailureError(
                "solver output failed the lexicographic optimality check",
                gap=gap_phys, iterations=iters)

    return MinMaxSolution(
        received=received, transmit=transmit,
        coefficients=_prune_support(support), case=case,
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
    parts = []
    values = caps.tolist()
    ends = _hull_ends([-c for c in values])
    for lo, hi in zip(ends[:-1], ends[1:]):
        nodes = order[lo:hi]
        level = (values[hi] - values[lo]) / (hi - lo)
        rates[nodes] = level
        block_noise = NoiseModel(noise.sigma_sq + float(cum[lo]))
        qb = q[nodes]

        def vertex(o, qb=qb, block_noise=block_noise):
            return capacity_chain(qb, block_noise, o)

        orders, weights, _ = _decompose(nodes, level, vertex, _capacity_lmo)
        parts.append((orders, weights))
    return rates, _prune_support(_couple(parts))
