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
   one sort, started from the previous block's sort.
2. Time sharing.  Each block is a region of the same form, contracted by
   the blocks before it, and its point is decomposed exactly by a
   Carathéodory walk (Cunningham, JCTB 36, 1984; Fujishige, *Submodular
   Functions and Optimization*, 2005) along one sort of the block: at most
   ``m - 1`` splits, each one pass over prefixes, and no tolerance.  One
   sweep over all the blocks' breakpoints couples them north-west-corner
   into at most ``n`` epochs.

Levels and the walk are computed in units of the noise power, so every
output power is exactly linear in the noise power.

:func:`solve` works in Python floats from the descending rate sort through
the hull, the case label, the walk, the gap and the distance to the
certificate, because at a handful of nodes each NumPy call costs more than
its arithmetic.  Only the exponentials come from NumPy: ``np.expm1`` and
``np.exp2`` on the prefix rate sums, and ``np.expm1`` once more per block
of two or more nodes and per weighted Dinkelbach step; ``math.expm1`` and
``2.0 ** x`` round differently on some arguments, and the outputs are to
stay those of the array form.  Sums run left to right, as ``np.cumsum`` adds.

The dual problem, max-min fair rate allocation in the capacity region, is
solved by :func:`max_min_rates` the same way, with the levels from the
greatest convex minorant of the prefix capacities over the received powers
sorted in ascending order.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .polymatroid import (
    LN2,
    NoiseModel,
    _as_vector,
    _check_received_sum,
    _check_sum_rate,
    _lex_optimal_trusted,
    _power_slack,
    _sum_rank,
)

# Diagnostic tolerance for the case classification, in units of the sum
# power; loose enough to recognize equal points specified with a handful of
# decimals.
CASE_TOL = 1e-5

# Largest piece of the power region's time-sharing walk priced in Python
# floats; larger pieces, and every piece of the capacity region, are priced
# on arrays, whose cost per call pays off only on large pieces.
# Measured crossover, as solve time at -30 dB with rates uniform on
# (0, 4/n] against a walk that priced every piece of three or more nodes on
# arrays (2-vCPU VM; median of three interleaved runs), for list pieces of
# at most 16 / 32 / 64 / 128 nodes / any size: n = 50 0.80 / 0.72 / 0.67 /
# 0.67 / 0.67; n = 100 0.84 / 0.80 / 0.82 / 0.84 / 0.84; n = 200 0.85 /
# 0.83 / 0.83 / 0.96 / 1.10.
_LIST_PIECE = 64


class CaseLabel(enum.Enum):
    """Geometric relation between the equal-allocation point and the face."""

    VERTEX_COINCIDENT = "VertexCoincident"
    INTERIOR_FEASIBLE = "InteriorFeasible"
    INFEASIBLE = "Infeasible"


class SolverFailureError(RuntimeError):
    """The solver's output failed its lexicographic optimality certificate.

    ``gap`` is the duality gap of the rejected base and ``iterations`` the
    walk's split count, as on :class:`MinMaxSolution`.
    """

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
    units.  ``iterations`` counts the splits of the time-sharing walk, at
    most ``n - 1``.
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
    level = _sum_rank(r, noise.sigma_sq) / r.size
    return level / noise.gains_for(r.size)


def _majorant_levels(points: np.ndarray) -> np.ndarray:
    """Slope of the least concave majorant of the points ``(k, F_k)`` on
    every unit step ``[k, k + 1]``, for every column ``F`` of ``points``.

    The slope on step ``k`` is ``min_{a <= k} max_{b > k} (F_b - F_a) /
    (b - a)``, the max-min formula of isotonic regression (Robertson, Wright
    and Dykstra, *Order Restricted Statistical Inference*, 1988).  Each
    slope is one quotient ``(F_b - F_a) / (b - a)``, the expression that
    :func:`_fair_base` evaluates on the hull's segments.

    The layout is points-major: ``points[k]`` holds point ``k`` of every
    row, and level ``k`` comes back as row ``k`` of the ``(n, rows)``
    result.  Walking ``b`` down from ``n``, ``steepest[a]`` keeps the
    steepest slope from ``a`` to any point at or past ``b``, so level
    ``b - 1`` is the least of ``steepest[:b]``.  Every step is one
    elementwise ufunc over whole rows of points: an accumulation along
    the few points of a row costs several times as much per element.
    """
    n = points.shape[0] - 1
    # b - a for every a < b, read from row n - b on.
    steps = np.arange(n, 0, -1.0)[:, None]
    steepest = np.full((n,) + points.shape[1:], -np.inf)
    slopes = np.empty_like(steepest)
    levels = np.empty_like(steepest)
    for b in range(n, 0, -1):
        np.subtract(points[b], points[:b], out=slopes[:b])
        np.divide(slopes[:b], steps[n - b:], out=slopes[:b])
        np.maximum(steepest[:b], slopes[:b], out=steepest[:b])
        np.minimum.reduce(steepest[:b], axis=0, out=levels[b - 1])
    return levels


def _case_label(shares: list[float], level: float) -> CaseLabel:
    """Where the equal-level point sits relative to the face.

    ``shares`` are the prefix ranks of the descending rates over the sum
    power, empty set first.  The point violates the top-k constraint when a
    share exceeds ``k * level``, and it is the vertex of the descending chain
    when every share equals ``k * level``.  A one-node face is one point,
    its own vertex, whatever the gain puts the level at.
    """
    if len(shares) == 2:
        return CaseLabel.VERTEX_COINCIDENT
    excess = [shares[k] - level * k for k in range(1, len(shares))]
    if max(excess) > CASE_TOL:
        return CaseLabel.INFEASIBLE
    if max(map(abs, excess)) <= CASE_TOL:
        return CaseLabel.VERTEX_COINCIDENT
    return CaseLabel.INTERIOR_FEASIBLE


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


def _segment_levels(order: list[int], values: list[float], ends: list[int]
                    ) -> list[float]:
    """The slope ``(values[hi] - values[lo]) / (hi - lo)`` of every segment
    ``[lo, hi)`` of ``ends``, at the segment's nodes ``order[lo:hi]``."""
    levels = [0.0] * len(order)
    for lo, hi in zip(ends[:-1], ends[1:]):
        level = (values[hi] - values[lo]) / (hi - lo)
        for i in order[lo:hi]:
            levels[i] = level
    return levels


class _PowerBlock:
    """One block of the power region, along its sort, in units of the noise
    power.  A piece ``[lo, hi)`` of noise ``s`` has the rank
    ``f(P) = s (4^R(P) - 1)``, kept as ``c (E_k - E_lo)`` with ``E`` the
    block's prefix values of ``4^R`` and ``c = s / E_lo`` (the block's own
    noise at ``lo = 0``), so that no piece evaluates an exponential.  The
    block keeps only ``E - 1`` and ``1 / E``, as lists, and as arrays too in
    a block of more than ``_LIST_PIECE`` nodes, the only one that prices
    pieces on arrays.

    A list piece's masses are not built by its parent.  The piece holds
    ``(src, slo, cp, chain, top)``: its parent's masses over the parent's
    prefixes from ``slo``, the parent's ``c``, the time the parent follows
    its chain and the mass its suffix drops.  It derives its own masses
    ``(src[j - slo] - chain * (cp * (E_j - E_slo))) - top`` in the pass that
    prices it, the IEEE operations that building them first would do.  A
    list of ready masses is priced as ``(masses, lo, 0, 0, 0)``, which
    leaves them as they are."""

    def __init__(self, rates: list[float]):
        em = np.expm1(np.multiply(2.0 * LN2, [0.0, *accumulate(rates)]))
        self.em_list = em.tolist()  # E - 1, exact near 0
        self.inv_list = [1.0 / (1.0 + e) for e in self.em_list]
        if len(rates) > _LIST_PIECE:
            self.em = em
            self.inv = 1.0 / (1.0 + em)

    def split(self, lo: int, hi: int, c: float, scale: float, mass):
        """The piece's breakpoint ``b``, the length ``k`` of the prefix
        before its tight suffix, and ``(c, masses)`` of the suffix
        ``[lo + k, hi)``, a restriction (noise ``s``), and of the prefix
        ``[lo, lo + k)``, the contraction by the suffix (noise
        ``s 4^R(S)``); the parts are ``None`` when ``b`` is not positive.

        The split after prefix ``P`` (suffix ``S``) is met at ``b = scale
        (x(P) - f(P)) / (f(N) - f(P) - f(S))``, as in :func:`_array_split`,
        with ``f(N) - f(P) - f(S) = f(P) f(S) / s``.  A list piece takes its
        masses, ranks, ratios and their argmax in one pass over its
        prefixes; it divides a zero excess as NumPy does, and the first NaN
        ratio is the breakpoint, as in ``argmax``."""
        if isinstance(mass, np.ndarray):
            return self._split_array(lo, hi, c, scale, mass)
        if isinstance(mass, list):
            mass = (mass, lo, 0.0, 0.0, 0.0)
        src, slo, cp, chain, top = mass
        em, inv = self.em_list, self.inv_list
        first, last, base = em[lo], em[hi], em[slo]
        own = [0.0]
        best, cut = -math.inf, lo + 1
        for j in range(lo + 1, hi):
            e = em[j]
            y = (src[j - slo] - chain * (cp * (e - base))) - top
            own.append(y)
            rank = c * (e - first)
            gain = y - scale * rank
            try:
                ratio = gain / (rank * ((last - e) * inv[j]))
            except ZeroDivisionError:  # by +0: +-inf, or NaN at a zero gain
                if not gain:
                    best, cut = math.nan, j
                    break
                ratio = math.copysign(math.inf, gain)
            if ratio > best:
                best, cut = ratio, j
        b, k = min(best, scale), cut - lo
        if not b > 0.0:
            return b, k, None, None
        chain = scale - b  # the time the piece follows its chain
        top = own[k] - chain * (c * (em[cut] - first))
        inv = inv[cut]
        return (b, k, (c * (1.0 + first) * inv, (own, lo, c, chain, top)),
                (c * (1.0 + last) * inv, (own, lo, c, chain, 0.0)))

    def _split_array(self, lo, hi, c, scale, mass):
        """:meth:`split` on arrays, for the piece's masses ``mass``; a part
        of at most ``_LIST_PIECE`` nodes gets its masses as a list."""
        em = self.em
        ranks = c * (em[lo:hi + 1] - em[lo])
        excess = ranks[1:-1] * ((em[hi] - em[lo + 1:hi]) * self.inv[lo + 1:hi])
        b, k, tail, head = _array_split(ranks, excess, mass, scale)
        if tail is None:
            return b, k, None, None
        em, inv = self.em_list, self.inv_list[lo + k]
        return (b, k, (c * (1.0 + em[lo]) * inv,
                       tail if tail.size > _LIST_PIECE else tail.tolist()),
                (c * (1.0 + em[hi]) * inv,
                 head if k > _LIST_PIECE else head.tolist()))


class _CapacityBlock:
    """One block of the capacity region, along its sort, mirrored to the
    supermodular rank ``f(P) = -log2(1 + Q(P)/s) / 2`` of a piece of noise
    ``s`` so that both regions walk alike (the walk takes negated rates).
    Every piece, whatever its size, is priced on arrays."""

    def __init__(self, received: list[float]):
        self.sums = np.array([0.0, *accumulate(received)])

    def split(self, lo: int, hi: int, s: float, scale: float, mass):
        """As :meth:`_PowerBlock.split`, with the noise ``s`` of the suffix
        (a restriction) and of the prefix (the contraction by the suffix)
        in place of ``c``; the parts' masses are arrays."""
        q = self.sums[lo:hi + 1] - self.sums[lo]
        ranks = (-0.5 / LN2) * np.log1p(q / s)
        head = q[1:-1]
        excess = (0.5 / LN2) * np.log1p(
            (head / s) * ((q[-1] - head) / (s + q[-1])))
        b, k, tail, head = _array_split(ranks, excess, np.asarray(mass), scale)
        if tail is None:
            return b, k, None, None
        return (b, k, (s, tail),
                (s + (self.sums[hi] - self.sums[lo + k]), head))


def _array_split(ranks, excess, mass, scale: float):
    """Breakpoint ``b`` of an array piece, the length ``k`` of the prefix
    before its tight suffix, and the masses of that suffix and of the
    prefix, or ``None`` for both when ``b`` is not positive.

    ``ranks`` are the ranks of the piece's prefixes, ``excess`` the
    excesses of its proper splits and ``mass`` the masses of its empty and
    proper prefixes.  The split after prefix ``P`` (suffix ``S``) is met at
    ``b = scale (x(P) - f(P)) / (f(N) - f(P) - f(S))`` with ``x(P) =
    mass(P) / scale``; the walk meets the split of largest ``b``, capped at
    ``scale``, by ``argmax``, so a zero excess gives a signed infinity or
    NaN and the first NaN ratio is the breakpoint.  The parts' masses are
    the piece's less ``scale - b`` times its ranks; the suffix's less the
    prefix's total.  ``mass`` is updated in place.
    """
    ratio = (mass[1:] - scale * ranks[1:-1]) / excess
    k = int(ratio.argmax())
    b = min(float(ratio[k]), scale)
    k += 1
    if not b > 0.0:
        return b, k, None, None
    mass -= (scale - b) * ranks[:-1]
    return b, k, mass[k:] - mass[k], mass[:k]


def _walk(nodes: list[int], w: list[float], x: list[float], noise: float,
          region, at: int) -> tuple[list[int], list[tuple]]:
    """Exact time sharing of one block by a Carathéodory walk.

    The block is a region of noise ``noise`` whose rank ``f`` depends on a
    subset only through its weight sum, convexly, and ``x`` is a base of it
    (both over ``nodes``, with positive weights ``w``).  Along the order
    sorting ``x_i / w_i`` descending, the chain vertex ``v`` has ``v_i /
    w_i`` nondecreasing, so ``x + t (x - v)`` stays sorted for every ``t >=
    0`` and the first set it makes tight is a suffix.  The walk moves there
    in one pass over the prefixes, splits the piece into that suffix (a
    restriction) and the rest (the contraction by it), and goes on with
    both; every piece is a contiguous range of the one sort.  Pieces are
    kept as prefix masses ``scale * y(P)`` over their empty and proper
    prefixes ``P``, ``scale`` the time they share; no breakpoint reads a
    piece's total.  A split subtracts the vertex's prefix masses (the
    piece's prefix ranks) and divides by nothing small; the prefix keeps the
    leading masses, and the suffix's are the rest less the prefix's
    total.

    The region's block splits each piece: it prices the piece and hands
    both parts their noise and masses.  A capacity piece is priced on
    arrays whatever its size.  A power piece of at most ``_LIST_PIECE``
    nodes is priced in Python floats, a larger one on arrays, with the same
    IEEE operations either way; one in Python floats takes its masses from
    its parent's, its ranks, its ratios and their argmax in one pass.

    A piece shares ``[0, scale]`` and opens at its breakpoint ``b``: on
    ``(b, scale]`` it follows its chain, below ``b`` its suffix goes first.
    Returns the sorted nodes and the openings ``(b, start, size, k)``: below
    ``b`` the ``size`` slots from ``start`` (the block starting at slot
    ``at``) put their last ``size - k`` nodes first.  There are at most
    ``m - 1`` openings.
    """
    m = len(nodes)
    large = m > _LIST_PIECE
    arrays = large or region is _CapacityBlock
    keys = [-a / b for a, b in zip(x, w)]
    sort = sorted(range(m), key=keys.__getitem__)  # stable
    ws = [w[i] for i in sort]
    xs = [x[i] for i in sort]
    order = [nodes[i] for i in sort]
    block = region(ws)
    mass = [0.0, *accumulate(xs[:-1])]
    if large:
        mass = np.array(mass)
    openings = []
    pieces = [(0, m, at, 1.0, (noise, mass))]
    # Ranks that underflow give a NaN breakpoint, which ends the piece.
    # Only array pieces divide in NumPy; a power list piece divides a zero
    # excess itself, to the same infinities and NaN.
    with (np.errstate(divide="ignore", invalid="ignore") if arrays
          else contextlib.nullcontext()):
        while pieces:
            lo, hi, start, scale, (p, mass) = pieces.pop()
            b, k, suffix, prefix = block.split(lo, hi, p, scale, mass)
            if not b > 0.0:
                continue
            openings.append((b, start, hi - lo, k))
            cut = lo + k
            if hi - cut > 1:
                pieces.append((cut, hi, start, b, suffix))
            if k > 1:
                pieces.append((lo, cut, start + hi - cut, b, prefix))
    return order, openings


def _decompose(order: list[int], ends: list[int], x: list[float],
               w: list[float], noises: list[float], region):
    """Time sharing of a base given block by block along a chain, as
    ``(order, weight)`` pairs, heaviest first, and the walk's split count.

    Block ``[lo, hi)`` of ``order`` is a region of noise ``noises[lo]``
    (contracted by the blocks before it) with node weights ``w`` and base
    ``x``; :func:`_walk` walks each.  Laying the blocks' sorted nodes end to
    end and sweeping all their openings by falling breakpoint couples the
    blocks north-west-corner: every block keeps its own time sharing, and
    each distinct breakpoint adds one epoch, so there are at most ``n``.
    """
    arrangement: list[int] = []
    openings = []
    for lo, hi in zip(ends[:-1], ends[1:]):
        if hi - lo == 1:
            arrangement.append(order[lo])
            continue
        nodes = order[lo:hi]
        sorted_nodes, opened = _walk(nodes, [w[i] for i in nodes],
                                     [x[i] for i in nodes], noises[lo],
                                     region, lo)
        arrangement += sorted_nodes
        openings += opened
    # Stable, also in reverse: at a tied breakpoint a piece still opens
    # before its parts.
    openings.sort(key=itemgetter(0), reverse=True)
    support = []
    top = 1.0
    for b, start, size, k in openings:
        if b < top:
            support.append((tuple(arrangement), top - b))
            top = b
        # Put the last size - k slots first; when that moves one node,
        # move it in place.
        if k == 1:
            arrangement.insert(start + size - 1, arrangement.pop(start))
        elif k == size - 1:
            arrangement.insert(start, arrangement.pop(start + k))
        else:
            arrangement[start:start + size] = (
                arrangement[start + k:start + size]
                + arrangement[start:start + k])
    support.append((tuple(arrangement), top))
    support.sort(key=lambda ow: (-ow[1], ow[0]))
    return tuple(support), len(openings)


def _unit_gains(noise: NoiseModel) -> bool:
    return noise.gains is None or bool(np.all(noise.gains == 1.0))


def _gain_overflow(gains: np.ndarray) -> ValueError:
    return ValueError("the gain-weighted base overflows at these gains (from "
                      f"{gains.min():g} to {gains.max():g})")


def _weighted_levels(r: np.ndarray, gains: np.ndarray, total: float
                     ) -> tuple[list[float], list[int], list[int]]:
    """Gain-weighted nearest base in units of the noise power, its chain
    order and its blocks ``[lo, hi)`` along that order, all lists.

    Block k is a set ``A`` of the remaining nodes that maximizes
    ``(f_k(A) - c|A|) / sum_A 1/g_i``, where ``f_k`` is the rank contracted
    by the blocks before it (noise ``4^R(placed)``) and ``c`` the equal
    level; its nodes sit at ``c + lam/g_i``, ``lam`` the maximal ratio
    (Fujishige's decomposition, Math. OR 5(3), 1980).  Dinkelbach's
    iteration finds the set: with ``a_i = c + lam/g_i``, ``f_k(A) - a(A)`` is
    convex in ``(R(A), a(A))``, so its maximum over all subsets is a prefix
    of the nodes sorted by ``r_i / a_i`` descending, non-positive ``a_i``
    first, and the cumulative sums of that sort price every prefix's ratio.
    The first block starts from all nodes; a later one from the best prefix
    of the previous block's final sort, restricted to the remaining nodes
    and priced at the previous ratio, so a block that this order already
    holds costs one sort.  ``lam`` grows strictly over finitely many prefix
    sets, so the iteration ends without a tolerance.  Zero-rate nodes get
    zero power and close the chain as single-node blocks.

    Each Dinkelbach step is one pass in Python floats with one ``np.expm1``,
    bit-identical to the array form ``oracles.array_weighted_levels``; where
    that form overflowed, a checked value is not finite and ``ValueError``
    is raised (weight sums grow along prefixes, ``c + lam/g_i`` is monotone
    in ``1/g_i``, an infinite level makes the ratio or a score infinite, and
    the sum-rate limit keeps the ranks finite).
    """
    inf, two_ln2, rl = math.inf, 2.0 * LN2, r.tolist()
    try:
        with np.errstate(over="raise"):  # the gain sum and 1/g, as before
            c, inv_g = total / float(gains.sum()), (1.0 / gains).tolist()
    except FloatingPointError:
        raise _gain_overflow(gains) from None
    remaining = [i for i, x in enumerate(rl) if x > 0.0]
    level = [c * k for k in range(1, len(remaining) + 1)]
    base = [0.0] * r.size
    seq = remaining  # the last sort, restricted to the remaining nodes
    price = None  # the ratio that picks a prefix of seq; None takes all
    chain, ends, placed = [], [0], 0.0
    while remaining:
        scale = float(np.exp2(2.0 * placed))
        rr, w = [rl[i] for i in remaining], [inv_g[i] for i in remaining]
        w_max, lam = max(w), -inf
        while True:  # Dinkelbach, from the warm start
            rates = list(accumulate(map(rl.__getitem__, seq)))
            em = np.expm1([two_ln2 * x for x in rates]).tolist()
            weight = list(accumulate(map(inv_g.__getitem__, seq)))
            k, low, high = len(seq), 0.0, 0.0
            if price is not None:  # the first largest score, as argmax
                score = [(scale * e - lv) - price * x
                         for e, lv, x in zip(em, level, weight)]
                low, high = min(score), max(score)
                k = score.index(high) + 1
            ratio = (scale * em[k - 1] - level[k - 1]) / weight[k - 1]
            if not (-inf < low and high < inf and -inf < ratio < inf
                    and weight[-1] < inf):
                raise _gain_overflow(gains)
            if not ratio > lam:
                break
            lam = price = ratio
            take, rate = seq[:k], rates[k - 1]
            key = [-(x / a) if (a := c + lam * y) > 0.0 else -inf
                   for x, y in zip(rr, w)]
            # c + lam/g_i peaks at w_max; -inf keys may be overflowed r_i/a_i
            if not -inf < c + lam * w_max < inf or -inf in key and any(
                    x / a == inf for x, y in zip(rr, w)
                    if (a := c + lam * y) > 0.0):
                raise _gain_overflow(gains)
            seq = [remaining[j] for j in sorted(range(len(rr)),
                                                key=key.__getitem__)]
        for i in take:
            base[i] = c + lam * inv_g[i]
        chain += take
        ends.append(len(chain))
        placed += rate
        taken = set(take)
        remaining = [i for i in remaining if i not in taken]
        seq = [i for i in seq if i not in taken]
    chain += [i for i, x in enumerate(rl) if x == 0.0]
    ends.extend(range(ends[-1] + 1, r.size + 1))
    return base, chain, ends


def _fair_base(r: np.ndarray, noise: NoiseModel):
    """The fair base in units of the noise power, its chain order, its
    blocks ``[lo, hi)`` along that order, and the prefix rate sums and
    prefix ranks of the descending rate sort, empty set first, all lists
    (range checked by :func:`_check_sum_rate`).

    Unit gains take Fujishige's lexicographically optimal base: the slopes
    of the least concave majorant of the descending prefix ranks, one block
    per segment, so the chain is the descending sort.  Other gains take the
    weighted max-ratio blocks.
    """
    rl = r.tolist()
    # Stable, as np.argsort(-r, kind="stable"); accumulate adds left to
    # right, as np.cumsum does.
    order = sorted(range(len(rl)), key=rl.__getitem__, reverse=True)
    prefix = [0.0, *accumulate([rl[i] for i in order])]
    _check_sum_rate(prefix[-1], noise.sigma_sq)
    ranks = np.expm1(np.multiply(2.0 * LN2, prefix)).tolist()
    if not _unit_gains(noise):
        return (*_weighted_levels(r, noise.gains, ranks[-1]), prefix, ranks)
    ends = _hull_ends(ranks)
    return _segment_levels(order, ranks, ends), order, ends, prefix, ranks


def _fair_transmit(r: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Transmit powers of the min-max fair base without its time sharing,
    for a rate vector or for every row of an array of rates.  Unit gains
    take the majorant's slopes of all rows at once; other gains take the
    sum power from those ranks and the levels row by row.  The rows' sum
    rates are trusted: a ``SimConfig`` bounds them.

    The prefix ranks are those of :func:`_fair_base`, laid out
    points-major, ``(n + 1, rows)``: the ``k``-th largest rates of all rows
    form one contiguous row, so each prefix sum is one ``np.add`` of two
    whole rows, in the order ``np.cumsum`` adds, and the exponential and
    :func:`_majorant_levels` work on whole rows too.
    """
    n = r.shape[-1]
    rows = r.reshape(-1, n)
    cols = np.arange(rows.shape[0])
    # order[k] is the k-th largest rate's node in every row.
    order = np.argsort(-rows, axis=-1, kind="stable").T
    points = np.empty((n + 1, rows.shape[0]))
    points[0] = 0.0
    points[1:] = rows[cols, order]
    for k in range(2, n + 1):
        np.add(points[k - 1], points[k], out=points[k])
    np.multiply(points, 2.0 * LN2, out=points)
    np.expm1(points, out=points)
    if not _unit_gains(noise):
        base = [_weighted_levels(row, noise.gains, total)[0]
                for row, total in zip(rows, points[n].tolist())]
        return noise.sigma_sq * np.reshape(base, r.shape) / noise.gains_for(n)
    levels = _majorant_levels(points)
    np.multiply(levels, noise.sigma_sq, out=levels)
    base = np.empty(rows.shape)
    base[cols, order] = levels
    return base.reshape(r.shape)


def solve(rates, noise: NoiseModel) -> MinMaxSolution:
    """Min-max fair base of the power region and its time sharing.

    The base comes from exact levels, block by block along a chain (the
    hull for unit gains, max-ratio blocks for unequal gains); each block's
    point is decomposed exactly by the walk of :func:`_walk` and the blocks
    are coupled.  Every unit-gain base must pass the certificate of
    :func:`~macfair.polymatroid.is_lex_optimal_base`, or
    :class:`SolverFailureError` is raised; a weighted base minimizes a
    gain-weighted distance instead and is not certified, but it must lie on
    the dominant face.  Raises ``ValueError`` when the sum power, the
    weighted levels or a weighted distance overflows, or when the weighted
    base is off the face.
    """
    r = _as_vector(rates, "rates")
    n = r.size
    gains = [1.0] * n if noise.gains is None else noise.gains_for(n).tolist()
    unit = _unit_gains(noise)
    base, order, ends, prefix, ranks = _fair_base(r, noise)
    total = ranks[-1]

    if total == 0.0:
        received = np.zeros(n)
        return MinMaxSolution(
            received=received, transmit=received.copy(),
            coefficients=((tuple(range(n)), 1.0),),
            case=CaseLabel.VERTEX_COINCIDENT,
            distance=0.0, iterations=0, gap=0.0)

    # The gains summed as _weighted_levels sums them for its level.
    level = 1.0 / (n if unit else float(noise.gains.sum()))
    shares = [f / total for f in ranks]
    case = _case_label(shares, level)
    rl = r.tolist()
    if not unit:  # the weighted chain is not the descending sort
        prefix = [0.0, *accumulate([rl[i] for i in order])]
        shares = [f / total for f in
                  np.expm1(np.multiply(2.0 * LN2, prefix)).tolist()]

    # Block [lo, hi) is the power region contracted by the blocks before
    # it, of noise 4^R(before) in units of the noise power.
    support, splits = _decompose(order, ends, base, rl,
                                 np.exp2(np.multiply(2.0, prefix)).tolist(),
                                 _PowerBlock)
    sigma_sq = noise.sigma_sq
    received = [sigma_sq * x for x in base]
    u = [x / total for x in base]
    # The chain visits the blocks in order of decreasing gradient
    # g * (u - level), so its vertex is a greedy one.  Both sums run left
    # to right, the gap along the chain and the distance over the nodes.
    gap = distance = 0.0
    for k, i in enumerate(order):
        gap += (gains[i] * (u[i] - level)) * (u[i] - (shares[k + 1]
                                                      - shares[k]))
    for g, ui in zip(gains, u):
        d = ui - level
        distance += g * (d * d)
    factor = (sigma_sq * total) ** 2
    distance *= factor
    gap_phys = factor * max(gap, 0.0)
    if not (math.isfinite(distance) and math.isfinite(gap_phys)):
        raise ValueError("the gain-weighted distance to the equal point "
                         "overflows at these gains and this noise power")
    if not unit:
        # The certificate's face test: at tiny, far-apart gains the levels
        # c + lam/g_i can cancel to a point that is not a base.
        full, tol = _power_slack(sum(received), sum(rl), sigma_sq)
        if not abs(full) <= tol:
            raise ValueError("the gain-weighted base is off the dominant face "
                             f"at these gains (from {noise.gains.min():g} to "
                             f"{noise.gains.max():g})")
    elif not _lex_optimal_trusted(received, rl, sigma_sq):
        raise SolverFailureError(
            "solver output failed the lexicographic optimality check",
            gap=gap_phys, iterations=splits)

    received = np.array(received)
    transmit = (received.copy() if noise.gains is None
                else received / noise.gains)
    return MinMaxSolution(
        received=received, transmit=transmit,
        coefficients=support, case=case,
        distance=distance, iterations=splits, gap=gap_phys)


def max_min_rates(powers, noise: NoiseModel
                  ) -> tuple[np.ndarray, tuple[tuple[tuple[int, ...], float], ...]]:
    """Max-min fair rate base of the capacity region, with time sharing.

    The dual of the power problem: the fairest achievable rate vector at
    fixed powers is the slope sequence of the greatest convex minorant of
    the prefix capacities over the received powers sorted in ascending
    order.  Block ``[lo, hi)`` is a capacity region of the same form whose
    noise includes the received power of the blocks below it.  Returns the
    rate vector and the ``(decoding order, weight)`` pairs realizing it;
    raises ``ValueError`` when the received-power sum, or its ratio to the
    noise power, overflows.
    """
    p = _as_vector(powers, "powers")
    n = p.size
    with np.errstate(over="ignore"):  # an overflow is rejected below
        q = noise.received(p)
        order = np.argsort(q, kind="stable")
        cum = np.zeros(n + 1)
        np.cumsum(q[order], out=cum[1:])
    _check_received_sum(float(cum[-1]), noise.sigma_sq)
    caps = (0.5 / LN2) * np.log1p(cum / noise.sigma_sq)
    if caps[-1] == 0.0:
        return np.zeros(n), ((tuple(range(n)), 1.0),)
    values = caps.tolist()
    order = order.tolist()
    ends = _hull_ends([-c for c in values])
    rates = _segment_levels(order, values, ends)

    # Mirrored to a supermodular rank: the walk takes the negated rates.
    support = _decompose(order, ends, [-x for x in rates], q.tolist(),
                         (noise.sigma_sq + cum).tolist(), _CapacityBlock)[0]
    return np.array(rates), support
