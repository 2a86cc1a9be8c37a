"""Independent brute-force oracles used by the test suite.

Everything here recomputes expected results from first principles (direct
formulas, exhaustive enumeration, fine grid searches) without going through
the solver code paths it is used to check.  The lifetime references work
one period at a time, where the engine works on many.  It also reads
schedule CSVs back, and lays an engine pass out run by run, so that the
tests can check what the CLI wrote and what the engine computed.
"""

import collections
import csv
import decimal
import fractions
import functools
import itertools
import math
import operator

import numpy as np

from macfair import (
    STRATEGIES,
    Backlog,
    ComparisonTable,
    Epoch,
    Schedule,
    StrategyStats,
    build_schedule,
    energy_report,
)
from macfair import lifetime, minmax, scheduling
from macfair.lifetime import _blocks_per_period
from macfair.polymatroid import (
    LEVEL_ATOL,
    LEVEL_RTOL,
    LN2,
    TIGHT_RTOL,
    NotABaseError,
    NotAMemberError,
    _as_vector,
    sum_power,
)

# Caps on exhaustive enumeration.  Exceeding one raises
# EnumerationLimitError; there is never a silent approximate fallback.
MODULARITY_MAX_N = 12   # 2^n x 2^n subset pairs
LEX_CHECK_MAX_N = 12    # dependent-set checks per fairness level
PERTURB_MAX_N = 8       # pairwise transfer probing
MINMAX_PEAK_MAX_N = 10  # 2^n subsets
PAPER_MAX_N = 7         # n! chain vertices

# Default perturbation size of the min-max transfer probe, as a fraction of
# the conserved received-power sum.
PERTURB_STEP_FRACTION = 1e-4


class EnumerationLimitError(ValueError):
    """The requested exhaustive check exceeds its enumeration cap."""


@functools.lru_cache(maxsize=None)
def _subset_bits(n):
    """Float64 0/1 matrix (2^n, n): row m has the members of bitmask m."""
    masks = np.arange(1 << n, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


def _tight_tol(rank_value, unit=1.0):
    """Tightness tolerance of a rank: ``unit`` is the noise power on the
    power side and one bit on the capacity side."""
    return TIGHT_RTOL * (unit + abs(rank_value))


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


def naive_capacity_vertex(powers, sigma_sq, order):
    """Rate vertex of the capacity region via successive capacity
    differences, scalar math."""
    powers = np.asarray(powers, dtype=float)
    out = np.zeros(powers.size)
    cum = 0.0
    prev = 0.0
    for i in order:
        cum += powers[i]
        cur = capacity_of(cum, sigma_sq)
        out[i] = cur - prev
        prev = cur
    return out


def all_capacity_vertices(powers, sigma_sq):
    """All n! rate vertices of the capacity region by explicit enumeration."""
    n = len(powers)
    orders = list(itertools.permutations(range(n)))
    return orders, np.stack([naive_capacity_vertex(powers, sigma_sq, o)
                             for o in orders])


def subset_ranks(values, rank):
    """``rank(sum of values over A)`` for every subset ``A`` of
    ``range(n)``, indexed by its bit mask."""
    values = np.asarray(values, dtype=float)
    n = values.size
    return np.array([rank(sum(values[i] for i in range(n) if mask >> i & 1))
                     for mask in range(2 ** n)])


def check_rank_modularity(rank_fn, n, mode="super"):
    """Exhaustively check that a set function is a valid (contra-)polymatroid rank.

    Verifies ``rank({}) == 0``, monotonicity under inclusion, and the
    sub/supermodular exchange inequality over all subset pairs, within
    relative tolerance ``TIGHT_RTOL``.
    """
    if mode not in ("sub", "super"):
        raise ValueError(f"mode must be 'sub' or 'super', got {mode!r}")
    if n > MODULARITY_MAX_N:
        raise EnumerationLimitError(
            f"modularity check enumerates all subset pairs and is capped at "
            f"n <= {MODULARITY_MAX_N}; got n = {n}"
        )
    size = 1 << n
    bits = _subset_bits(n)
    values = np.array(
        [rank_fn(frozenset(np.nonzero(bits[m])[0].tolist())) for m in range(size)]
    )
    tol = TIGHT_RTOL * (1.0 + np.abs(values))
    if abs(values[0]) > tol[0]:
        return False
    # Monotonicity: adding one element never decreases the rank.
    for i in range(n):
        without = np.nonzero(bits[:, i] == 0)[0]
        with_i = without | (1 << i)
        if np.any(values[without] > values[with_i] + tol[with_i]):
            return False
    masks = np.arange(size, dtype=np.intp)
    for a in range(size):
        union = masks | a
        inter = masks & a
        lhs = values[a] + values
        rhs = values[union] + values[inter]
        margin = lhs - rhs if mode == "sub" else rhs - lhs
        if np.any(margin < -(tol[union] + tol[inter])):
            return False
    return True


def walk_ratios(x, v, ranks):
    """Step lengths ``t`` at which ``x + t (x - v)`` meets each subset
    constraint ``y(A) >= f(A)``, by enumeration.

    Returns ``{mask: t}`` over the nonempty proper subsets with
    ``v(A) > x(A)``, the only ones the walk can meet; ``ranks[mask]`` is
    ``f(A)``.  A polymatroid's ``y(A) <= g(A)`` is passed negated.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n = x.size
    out = {}
    for mask in range(1, 2 ** n - 1):
        members = [i for i in range(n) if mask >> i & 1]
        xa, va = float(x[members].sum()), float(v[members].sum())
        if va > xa:
            out[mask] = (xa - ranks[mask]) / (va - xa)
    return out


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


def decimal_fair_levels(rates, sigma_sq, digits=60):
    """Unit-gain min-max fair received powers, as ``Decimal``s of ``digits``
    significant digits.

    The prefix ranks ``sigma_sq (exp(2 ln2 R_k) - 1)`` of the rates sorted
    in descending order come from ``Decimal.exp`` and ``Decimal.ln``; a stack
    hull finds their least concave majorant, and each node gets the slope of
    its segment.  Nothing of the solver is called.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        order = sorted(range(len(rates)), key=lambda i: -rates[i])
        two_ln2 = 2 * decimal.Decimal(2).ln()
        sigma = decimal.Decimal(float(sigma_sq))
        ranks, rate = [decimal.Decimal(0)], decimal.Decimal(0)
        for i in order:
            rate += decimal.Decimal(float(rates[i]))
            ranks.append(sigma * ((two_ln2 * rate).exp() - 1))
        hull = [0]
        for k in range(1, len(ranks)):
            # Drop the last corner while it is not above the chord to k.
            while len(hull) > 1:
                a, b = hull[-2], hull[-1]
                if ((ranks[b] - ranks[a]) * (k - a)
                        > (ranks[k] - ranks[a]) * (b - a)):
                    break
                hull.pop()
            hull.append(k)
        levels = [None] * len(rates)
        for lo, hi in zip(hull, hull[1:]):
            for i in order[lo:hi]:
                levels[i] = (ranks[hi] - ranks[lo]) / (hi - lo)
    return levels


def decimal_rate_levels(powers, sigma_sq, digits=60):
    """Max-min fair rates of unit-gain received powers, as ``Decimal``s of
    ``digits`` significant digits.

    The prefix capacities ``ln(1 + Q_k / sigma_sq) / (2 ln2)`` of the powers
    sorted in ascending order come from ``Decimal.ln``; a stack hull finds
    their greatest convex minorant, and each node gets the slope of its
    segment.  Nothing of the solver is called.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        order = sorted(range(len(powers)), key=lambda i: powers[i])
        two_ln2 = 2 * decimal.Decimal(2).ln()
        sigma = decimal.Decimal(float(sigma_sq))
        caps, total = [decimal.Decimal(0)], decimal.Decimal(0)
        for i in order:
            total += decimal.Decimal(float(powers[i]))
            caps.append((1 + total / sigma).ln() / two_ln2)
        hull = [0]
        for k in range(1, len(caps)):
            # Drop the last corner while it is not below the chord to k.
            while len(hull) > 1:
                a, b = hull[-2], hull[-1]
                if ((caps[b] - caps[a]) * (k - a)
                        < (caps[k] - caps[a]) * (b - a)):
                    break
                hull.pop()
            hull.append(k)
        levels = [None] * len(powers)
        for lo, hi in zip(hull, hull[1:]):
            for i in order[lo:hi]:
                levels[i] = (caps[hi] - caps[lo]) / (hi - lo)
    return levels


def majorant_slopes(xs, values):
    """Slope of the least concave majorant of the points ``(xs[k],
    values[k])`` on every step ``[xs[k], xs[k + 1]]``, as ``Fraction``s.

    The max-min formula ``min_{a <= k} max_{b > k} (F_b - F_a) / (x_b -
    x_a)``, term by term in exact rationals of the float inputs; ``xs``
    must increase strictly.  Nothing of the solver is called.
    """
    x = [fractions.Fraction(v) for v in xs]
    f = [fractions.Fraction(v) for v in values]
    n = len(f) - 1
    return [min(max((f[b] - f[a]) / (x[b] - x[a]) for b in range(k + 1, n + 1))
                for a in range(k + 1)) for k in range(n)]


def minmax_peak(rates, noise):
    """``t* = max_A f(A) / g(A)`` over the non-empty subsets ``A`` of the
    nodes, by enumerating all ``2^n`` of them (``n <= MINMAX_PEAK_MAX_N``):
    the smallest peak transmit power of any base, since a base's received
    powers on ``A`` sum to at least the rank ``f(A)``.  In plain NumPy."""
    r = np.asarray(rates, dtype=float)
    if r.size > MINMAX_PEAK_MAX_N:
        raise EnumerationLimitError(
            f"minmax_peak enumerates 2^n subsets; n={r.size} exceeds the "
            f"cap of {MINMAX_PEAK_MAX_N}")
    bits = _subset_bits(r.size)[1:]
    ranks = noise.sigma_sq * np.expm1(2.0 * LN2 * (bits @ r))
    return float(np.max(ranks / (bits @ noise.gains_for(r.size))))


def paper_time_sharing(rates, noise, rtol=1e-15, max_cycles=10_000):
    """The paper's program for unit gains: the point of the dominant face
    nearest the equal point, as the time sharing of all ``n!`` chain
    vertices (``n <= PAPER_MAX_N``) that minimizes the distance to it.

    Wolfe's min-norm point algorithm (Math. Programming 11, 1976) on the
    vertices taken from the equal point: a corral of affinely independent
    vertices, grown by the vertex most opposed to the current point and cut
    back to the part of its affine minimizer with positive weights.  The
    affine minimizer is an orthogonal least-squares solve on the corral's
    differences to its first vertex, which leaves their common part out of
    the factorization; Wolfe's own system ``(P P^T + 1 1^T) mu = 1`` keeps
    it, and where small rates tie it lands up to 17 times further from the
    60-digit ``decimal_fair_levels``.  It
    stops when no vertex improves the point by more than ``rtol`` of the
    squared diameter, or when a cycle no longer shortens the point, which
    is rounding.  Returns the received powers and the weights over
    ``all_received_vertices``' orders.
    """
    r = np.asarray(rates, dtype=float)
    if r.size > PAPER_MAX_N:
        raise EnumerationLimitError(
            f"paper_time_sharing enumerates n! chain vertices; n={r.size} "
            f"exceeds the cap of {PAPER_MAX_N}")
    _, vertices = all_received_vertices(r, noise.sigma_sq)
    total = float(vertices[0].sum())
    # In units of the sum power, so that the points and the row of ones of
    # the affine constraint are commensurate.
    points = vertices / total - 1.0 / r.size
    norms = np.sum(points * points, axis=1)
    corral, weights = [int(np.argmin(norms))], np.ones(1)
    x = points[corral[0]]
    for _ in range(max_cycles):
        j = int(np.argmin(points @ x))
        if x @ x - points[j] @ x <= rtol * norms.max() or j in corral:
            break
        grown, w = [*corral, j], np.append(weights, 0.0)
        while True:  # minor cycle: the affine minimizer of the corral
            # The corral's point p_0 + D lam of least norm, D the differences
            # to p_0, by SVD least squares (as accurate as QR here, and it
            # takes a rank-deficient D); mu = (1 - sum(lam), lam).
            first = points[grown[0]]
            lam = np.linalg.lstsq((points[grown[1:]] - first).T, -first,
                                  rcond=None)[0]
            mu = np.concatenate([[1.0 - lam.sum()], lam])
            if np.all(mu > 0.0):
                w = mu
                break
            falling = np.flatnonzero(mu <= 0.0)
            ratios = w[falling] / (w[falling] - mu[falling])
            w = w + ratios.min() * (mu - w)
            keep = w > 0.0
            keep[falling[np.argmin(ratios)]] = False  # the one it zeroes
            grown = [c for c, k in zip(grown, keep) if k]
            w = w[keep]
        y = w @ points[grown]
        if not y @ y < x @ x:
            break
        corral, weights, x = grown, w, y
    else:
        raise RuntimeError("Wolfe's method did not converge")
    share = np.zeros(len(vertices))
    share[corral] = weights
    return total * (x + 1.0 / r.size), share


def max_ratio_blocks(rates, gains, rtol=1e-12):
    """Successive max-ratio blocks of the gain-weighted fair base, by
    enumerating every subset, in units of the noise power.

    With ``c`` the sum power over the gain sum, block k maximizes
    ``(f_k(A) - c|A|) / sum_A 1/g_i`` over the nonempty subsets ``A`` of
    the positive-rate nodes not yet placed, where ``f_k(A) = F(placed + A)
    - F(placed)`` and ``F`` is the rank of a rate sum.  Sets within
    ``rtol * sum_power * max(gains)`` of the largest ratio tie, and the
    block is their union (the largest maximizer), which must tie as well.
    Returns ``[(frozenset of nodes, ratio), ...]``; zero-rate nodes belong
    to no block.
    """
    r = np.asarray(rates, dtype=float)
    g = np.asarray(gains, dtype=float)
    total = rank_of(float(r.sum()))
    c = total / float(g.sum())
    tol = rtol * total * float(g.max())
    remaining = [i for i in range(r.size) if r[i] > 0.0]
    placed = 0.0
    blocks = []
    while remaining:
        scored = []
        for size in range(1, len(remaining) + 1):
            for subset in itertools.combinations(remaining, size):
                f = rank_of(placed + float(r[list(subset)].sum())) \
                    - rank_of(placed)
                w = float((1.0 / g[list(subset)]).sum())
                scored.append(((f - c * size) / w, subset))
        best = max(ratio for ratio, _ in scored)
        block = frozenset().union(*(subset for ratio, subset in scored
                                    if ratio >= best - tol))
        ratio = next(q for q, subset in scored
                     if frozenset(subset) == block)
        assert ratio >= best - tol, "the tied maximizers' union is not one"
        blocks.append((block, ratio))
        placed += float(r[sorted(block)].sum())
        remaining = [i for i in remaining if i not in block]
    return blocks


def restart_weighted_levels(r, gains, total):
    """The max-ratio blocks with every block's Dinkelbach iteration
    restarted from the whole remaining set, each step summing its prefix
    anew and re-sorting every remaining node.

    The reference for ``minmax._weighted_levels``, which starts each block
    from the previous block's sort; same arguments and returns.
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


def array_weighted_levels(r, gains, total):
    """The gain-weighted levels in their array form, the reference for
    ``minmax._weighted_levels``: the same arguments, with the base and the
    chain returned as arrays; every NumPy operation runs under
    ``np.errstate(over="raise", invalid="raise")``, so an overflow raises
    ``FloatingPointError``.  The body is the array form's, verbatim.
    """
    with np.errstate(over="raise", invalid="raise"):
        c = total / float(gains.sum())
        inv_g = 1.0 / gains
        base = np.zeros(r.size)
        keep = r > 0.0
        remaining = np.flatnonzero(keep)
        seq = remaining  # the last sort, restricted to the remaining nodes
        price = None  # the ratio that picks a prefix of seq; None takes all
        chain: list[int] = []
        ends = [0]
        placed = 0.0
        while remaining.size:
            scale = float(np.exp2(2.0 * placed))
            rr, w = r[remaining], inv_g[remaining]
            level = c * np.arange(1.0, remaining.size + 1)
            lam = -np.inf
            while True:  # Dinkelbach, from the warm start
                rates = r[seq].cumsum()
                rank = scale * np.expm1((2.0 * LN2) * rates)
                weight = inv_g[seq].cumsum()
                k = (seq.size if price is None
                     else int((rank - level - price * weight).argmax()) + 1)
                ratio = float((rank[k - 1] - level[k - 1]) / weight[k - 1])
                if not ratio > lam:
                    break
                lam = price = ratio
                take, rate = seq[:k], float(rates[k - 1])
                a = c + lam * w
                key = np.divide(rr, a, out=np.full(a.size, np.inf), where=a > 0.0)
                seq = remaining[(-key).argsort(kind="stable")]
            base[take] = c + lam * inv_g[take]
            chain.extend(take.tolist())
            ends.append(len(chain))
            placed += rate
            keep[take] = False
            remaining = np.flatnonzero(keep)
            seq = seq[keep[seq]]
        chain.extend(np.flatnonzero(r == 0.0).tolist())
        ends.extend(range(ends[-1] + 1, r.size + 1))
        return base, np.asarray(chain, dtype=np.intp), ends


class _PiecePowerBlock:
    """The reference power block: each piece priced by array operations on
    the prefix values ``E - 1`` and ``1 / E``, the IEEE operations that
    ``minmax._PowerBlock`` must reproduce bit for bit, in Python floats on
    the walk's small pieces and on arrays on its large ones."""

    def __init__(self, rates):
        sums = np.zeros(rates.size + 1)
        np.cumsum(rates, out=sums[1:])
        self.em = np.expm1((2.0 * LN2) * sums)
        self.inv = 1.0 / (1.0 + self.em)

    def split(self, lo, hi, c):
        em = self.em
        ranks = c * (em[lo:hi + 1] - em[lo])
        excess = ranks[1:-1] * ((em[hi] - em[lo + 1:hi]) * self.inv[lo + 1:hi])
        return ranks, excess

    def parts(self, lo, cut, hi, c):
        inv = self.inv[cut]
        return c * (1.0 + self.em[lo]) * inv, c * (1.0 + self.em[hi]) * inv


class _PieceCapacityBlock:
    """The reference capacity block: each piece priced by array operations
    on the prefix sums of the received powers, as ``minmax._CapacityBlock``
    must price it."""

    def __init__(self, received):
        self.sums = np.zeros(received.size + 1)
        np.cumsum(received, out=self.sums[1:])

    def split(self, lo, hi, s):
        q = self.sums[lo:hi + 1] - self.sums[lo]
        ranks = (-0.5 / LN2) * np.log1p(q / s)
        head = q[1:-1]
        excess = (0.5 / LN2) * np.log1p(
            (head / s) * ((q[-1] - head) / (s + q[-1])))
        return ranks, excess

    def parts(self, lo, cut, hi, s):
        return s, s + (self.sums[hi] - self.sums[cut])


def walk_reference(nodes, w, x, noise, region, at):
    """The Carathéodory walk of one block, every piece priced by one array
    pass over its prefixes: the reference for ``minmax._walk``, with the
    same arguments and returns.

    The power region's pieces are priced by ``_PiecePowerBlock``, the
    capacity region's by ``_PieceCapacityBlock``.  Every piece, whatever its
    size, takes the breakpoint of largest ratio over its splits by NumPy's
    ``argmax``.
    """
    region = {minmax._PowerBlock: _PiecePowerBlock,
              minmax._CapacityBlock: _PieceCapacityBlock}[region]
    nodes, w, x = np.asarray(nodes), np.asarray(w), np.asarray(x)
    sort = np.argsort(-x / w, kind="stable")
    block = region(w[sort])
    mass = np.zeros(nodes.size + 1)
    np.cumsum(x[sort], out=mass[1:])
    openings = []
    pieces = [(0, nodes.size, at, noise, 1.0, mass)]
    with np.errstate(divide="ignore", invalid="ignore"):
        while pieces:
            lo, hi, start, p, scale, mass = pieces.pop()
            ranks, excess = block.split(lo, hi, p)
            ratio = (mass[1:-1] - scale * ranks[1:-1]) / excess
            k = int(ratio.argmax())
            b = min(float(ratio[k]), scale)
            k += 1
            if not b > 0.0:
                continue
            mass -= (scale - b) * ranks
            cut = lo + k
            suffix, prefix = block.parts(lo, cut, hi, p)
            openings.append((b, start, hi - lo, k))
            if hi - cut > 1:
                pieces.append((cut, hi, start, suffix, b, mass[k:] - mass[k]))
            if k > 1:
                pieces.append((lo, cut, start + hi - cut, prefix, b,
                               mass[:k + 1]))
    return nodes[sort].tolist(), openings


def sweep_reference(order, ends, x, w, noises, region):
    """The coupling of ``minmax._decompose`` with every rotation done on
    slices: the reference for its in-place one-node moves, with the same
    arguments and returns.  Each block is walked by ``minmax._walk``; the
    openings, by falling breakpoint, put the last ``size - k`` of their
    ``size`` slots first, one epoch per distinct breakpoint."""
    arrangement = []
    openings = []
    for lo, hi in zip(ends[:-1], ends[1:]):
        nodes = order[lo:hi]
        if len(nodes) == 1:
            arrangement += nodes
            continue
        sorted_nodes, opened = minmax._walk(nodes, [w[i] for i in nodes],
                                            [x[i] for i in nodes], noises[lo],
                                            region, lo)
        arrangement += sorted_nodes
        openings += opened
    openings.sort(key=lambda o: -o[0])
    support = []
    top = 1.0
    for b, start, size, k in openings:
        if b < top:
            support.append((tuple(arrangement), top - b))
            top = b
        arrangement[start:start + size] = (arrangement[start + k:start + size]
                                           + arrangement[start:start + k])
    support.append((tuple(arrangement), top))
    support.sort(key=lambda ow: (-ow[1], ow[0]))
    return tuple(support), len(openings)


# The certificates by exhaustive enumeration of the 2^n subset constraints:
# every public entry point re-validates what it passes on, the slack of
# ``q`` is computed for membership and again for the tight sets, a node's
# dependent set is the intersection of the tight sets that hold it, and the
# levels are clustered on NumPy scalars.  The sort-based certificates of
# ``macfair.polymatroid`` must give the same verdicts wherever these run:
# True, False or the same exception class.

class _ReferenceRankTable:
    """All 2^n subset ranks of the power region, and the received powers
    ``q`` of the transmit powers ``p`` under test."""

    def __init__(self, p, rates, noise):
        r = _as_vector(rates, "rates")
        self.n = r.size
        self.q = noise.received(p)
        self.noise = noise
        self.bits = _subset_bits(self.n)
        self.rank = noise.sigma_sq * np.expm1(2.0 * LN2 * (self.bits @ r))
        self.tol = TIGHT_RTOL * (noise.sigma_sq + np.abs(self.rank))

    def slack(self, received):
        return self.bits @ received - self.rank

    def is_member(self, received):
        return bool(np.all(self.slack(received) >= -self.tol))

    def tight_masks(self):
        tight = np.abs(self.slack(self.q)) <= self.tol
        return [int(m) for m in np.nonzero(tight)[0]]


def _reference_base_table(p, rates, noise):
    # A length mismatch is rejected before any sum is compared.
    if p.size != _as_vector(rates, "rates").size:
        raise ValueError("powers and rates must have the same length")
    total = sum_power(rates, noise)
    if abs(float(noise.received(p).sum()) - total) <= _tight_tol(
            total, noise.sigma_sq):
        table = _ReferenceRankTable(p, rates, noise)
        if table.is_member(table.q):
            return table
    raise NotABaseError("the point is not on the dominant face")


def _reference_minimal_tight(tight, i):
    containing = [m for m in tight if (m >> i) & 1]
    return functools.reduce(operator.and_, containing) if containing else 0


def distinct_levels_reference(values, atol=LEVEL_ATOL):
    """Levels of a vector, highest first, clustered on NumPy scalars;
    ``atol`` is the absolute part of the gap tolerance."""
    x = _as_vector(values, "values", nonneg=False)
    order = np.argsort(-x, kind="stable")
    groups = [[int(order[0])]]
    for k in order[1:]:
        prev = x[groups[-1][-1]]
        cur = x[k]
        gap_tol = atol + LEVEL_RTOL * max(abs(prev), abs(cur))
        if prev - cur > gap_tol:
            groups.append([int(k)])
        else:
            groups[-1].append(int(k))
    return [np.asarray(g, dtype=np.intp) for g in groups]


def _reference_prefixes_closed(groups, tight):
    prefix = 0
    for group in groups:
        prefix |= sum(1 << int(i) for i in group)
        for i in group:
            inter = _reference_minimal_tight(tight, int(i))
            if not inter:
                return False
            assert inter in tight, "intersection of tight sets is not tight"
            if inter & ~prefix:
                return False
    return True


def lex_certificate_reference(powers, rates, noise):
    """``is_lex_optimal_base`` with its inputs re-validated at every step."""
    p = _as_vector(powers, "powers")
    if p.size > LEX_CHECK_MAX_N:
        raise EnumerationLimitError(
            f"lexicographic check is capped at n <= {LEX_CHECK_MAX_N}; got {p.size}"
        )
    table = _reference_base_table(p, rates, noise)
    return _reference_prefixes_closed(
        distinct_levels_reference(table.q, LEVEL_ATOL * noise.sigma_sq),
        table.tight_masks())


def is_minmax(powers, rates, noise, step=None):
    """Finite perturbation probe for min-max fairness of a base.

    For every ordered node pair tries to move ``e`` watts of received power
    from a higher coordinate onto a strictly lower one (probing ``e`` and
    ``e/10``); any feasible such transfer improves fairness, so the point is
    not min-max optimal.  This is a practical finite test of the definition,
    independent of the dependent-set certificate.
    """
    p = _as_vector(powers, "powers")
    if p.size > PERTURB_MAX_N:
        raise EnumerationLimitError(
            f"perturbation probe is capped at n <= {PERTURB_MAX_N}; got {p.size}"
        )
    table = _reference_base_table(p, rates, noise)
    q = table.q
    if step is None:
        step = PERTURB_STEP_FRACTION * sum_power(rates, noise)
    if not step > 0.0:
        return True  # zero rates: the origin admits no transfers
    for e in (step, step / 10.0):
        for i in range(table.n):
            if q[i] < e:
                continue
            for j in range(table.n):
                # Only a transfer that keeps the receiving coordinate below
                # the donor's old value improves the sorted profile.
                if j == i or not q[j] + e < q[i]:
                    continue
                trial = q.copy()
                trial[i] -= e
                trial[j] += e
                if table.is_member(trial):
                    return False
    return True


def _reference_capacity_tight_masks(rates, powers, noise):
    r = _as_vector(rates, "rates")
    p = _as_vector(powers, "powers")
    if r.size != p.size:
        raise ValueError("rates and powers must have the same length")
    bits = _subset_bits(r.size)
    q = noise.received(p)
    rank = 0.5 * np.log1p((bits @ q) / noise.sigma_sq) / LN2
    tol = TIGHT_RTOL * (1.0 + np.abs(rank))
    sums = bits @ r
    if np.any(sums > rank + tol):
        raise NotAMemberError("the rate point violates a capacity constraint")
    return np.nonzero(np.abs(sums - rank) <= tol)[0]


def lex_rate_certificate_reference(rates, powers, noise):
    """``is_lex_optimal_rate_base`` with its inputs re-validated at every
    step."""
    r = _as_vector(rates, "rates")
    if r.size > LEX_CHECK_MAX_N:
        raise EnumerationLimitError(
            f"lexicographic check is capped at n <= {LEX_CHECK_MAX_N}; got {r.size}"
        )
    received = noise.received(_as_vector(powers, "powers"))
    total = float(capacity_of(received.sum(), noise.sigma_sq))
    if abs(float(r.sum()) - total) > _tight_tol(total):
        raise NotABaseError("the rate point is not on the dominant face")
    tight = [int(m) for m in _reference_capacity_tight_masks(r, powers, noise)]
    return _reference_prefixes_closed(distinct_levels_reference(r)[::-1], tight)


# One run of one strategy: completed periods, the batteries left, the sum
# of the period-normalized peak powers of the completed periods, added with
# += in period order (builtin sum() compensates from Python 3.12), and
# whether the period cap ended the run.
Run = collections.namedtuple(
    "Run", "lifetime_periods residual_energy peak_sum censored")


def sweep_runs(config, sweep, k):
    """The runs at the ``k``-th bound of a ``lifetime._simulate`` pass, as
    ``{strategy: [Run, ...]}``.  A run is censored when it lived
    ``period_cap`` periods: a death always comes before the cap."""
    out = {}
    for i, s in enumerate(STRATEGIES):
        out[s] = []
        for run in range(sweep.lifetimes.shape[2]):
            periods = int(sweep.lifetimes[i, k, run])
            out[s].append(Run(
                periods, sweep.residual[i, k, run],
                float(sweep.peak_sums[i, k, run]),
                periods == config.period_cap))
    return out


def engine_runs(config, lam):
    """Every strategy's runs of ``config`` at bound ``lam``, by the engine."""
    return sweep_runs(config, lifetime._simulate(config, [lam]), 0)


def period_backlog(config, lam, run, period):
    """The backlog of one (run, period), uniform on ``(0, lam]``, from a
    generator keyed on ``(seed, run)`` whose counter starts at the period's
    own block: the one-period reference for ``lifetime._draw``."""
    n = config.n_nodes
    key = np.array([config.seed, run], dtype=np.uint64)
    counter = np.array([period * _blocks_per_period(n), 0, 0, 0],
                       dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(counter=counter, key=key))
    packets = lam * (1.0 - rng.random(n))
    return Backlog(packets=packets, packet_bits=config.packet_bits)


def offline_lifetime(config, lam, run):
    """T*, the most periods any schedule could complete on one run's draws
    at bound ``lam``.

    A period of rates ``R_t`` needs received powers in the power region, so
    every non-empty subset ``A`` receives at least ``period * f_t(A)``
    joules in it, ``f_t(A) = sigma^2 (4^R_t(A) - 1)``, while its batteries
    can deliver at most ``E0 * g(A)`` received joules, ``g(A)`` its gain
    sum.  T* is the largest ``T`` up to ``period_cap`` at which
    ``sum_{t <= T} period * f_t(A) <= E0 * g(A)`` for every such ``A``.
    """
    members = _subset_bits(config.n_nodes)[1:]
    budget = config.initial_energy * (members @ config.noise.gains_for(
        config.n_nodes))
    spent = np.zeros(len(members))
    for period in range(config.period_cap):
        rates = period_backlog(config, lam, run, period).bits / config.period
        spent += config.period * (config.noise.sigma_sq * np.expm1(
            2.0 * LN2 * (members @ rates)))
        if np.any(spent > budget):
            return period
    return config.period_cap


def delivered_bits(schedule):
    """Bits each node delivers over the period: every epoch's rates for its
    share of the period, summed over the epochs."""
    out = np.zeros(schedule.n_nodes)
    for e in schedule.epochs:
        out += e.duration_fraction * schedule.period * e.rates
    return out


def period_energies(backlog, period, noise):
    """Per-node energy of every strategy over one period, by the engine's
    closed forms on one row, without schedules: the one-period reference
    for the lifetime engine's pricing.  Nodes without backlog spend
    nothing."""
    n = backlog.packets.size
    active, packets, sub, _ = scheduling._active(backlog, period, noise)
    return {s: scheduling._embed(energy(packets[None, :], backlog.packet_bits,
                                        period, sub)[0], active, n)
            for s, (_, energy) in scheduling._TABLE.items()}


def simulate_with_schedules(config, lam, strategy):
    """Lifetime runs of one strategy at bound ``lam``, one full schedule per
    period.

    The reference loop for the energies-only engine: every period draws its
    backlog on its own key with ``period_backlog``, builds and validates the
    strategy's schedule, sums the epochs into per-node energies with
    ``energy_report``, and pays them only if every node can.
    """
    results = []
    for run in range(config.runs):
        energies = np.full(config.n_nodes, float(config.initial_energy))
        peak_sum = 0.0
        period = 0
        censored = True
        while period < config.period_cap:
            backlog = period_backlog(config, lam, run, period)
            report = energy_report(build_schedule(
                strategy, backlog, config.period, config.noise))
            if not np.all(report.per_node_energy <= energies):
                censored = False
                break
            energies = energies - report.per_node_energy
            peak_sum += report.max_power
            period += 1
        results.append(Run(lifetime_periods=period, residual_energy=energies,
                           peak_sum=peak_sum, censored=censored))
    return results


def _run_backlogs(config, lam, run):
    """The backlogs of one run at bound ``lam``, period after period,
    without end.

    One Philox stream keyed on ``(seed, run)`` from counter 0; each period
    takes the next ``4 * _blocks_per_period(n)`` doubles and keeps the
    first ``n``, one period per call of the generator.
    """
    n = config.n_nodes
    width = 4 * _blocks_per_period(n)
    key = np.array([config.seed, run], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    while True:
        packets = lam * (1.0 - gen.random(width)[:n])
        yield Backlog(packets=packets, packet_bits=config.packet_bits)


def _simulate_run(config, lam, run):
    """Every strategy's outcome of one run at bound ``lam``, one period at a
    time.

    The reference loop for the chunked engine: each period's backlog is
    priced with ``period_energies`` and charged to each live strategy's
    batteries only if every node can pay; a strategy stops at its first
    unaffordable period, the run at the period cap (censored).
    """
    batteries = {s: np.full(config.n_nodes, float(config.initial_energy))
                 for s in STRATEGIES}
    peak_sums = dict.fromkeys(STRATEGIES, 0.0)
    died = {}
    backlogs = _run_backlogs(config, lam, run)
    period = 0
    while len(died) < len(STRATEGIES) and period < config.period_cap:
        spent = period_energies(next(backlogs), config.period, config.noise)
        for s, e in spent.items():
            if s in died:
                continue
            if np.all(e <= batteries[s]):
                batteries[s] = batteries[s] - e
                peak_sums[s] += float(e.max()) / config.period
            else:
                died[s] = period
        period += 1
    return {s: Run(lifetime_periods=died.get(s, period),
                   residual_energy=batteries[s],
                   peak_sum=peak_sums[s], censored=s not in died)
            for s in STRATEGIES}


def tabulate(config, simulated):
    """Per-strategy statistics of one bound's runs, ``{strategy:
    [Run, ...]}``, one run at a time: means and sample standard
    deviations with ``np.mean`` and ``np.std`` over Python lists; a run's
    peak mean is its peak sum over its lifetime.  Runs that completed no
    period have no peak or sum-energy mean."""
    stats = {}
    lifetimes = {}
    for strategy, results in simulated.items():
        lifetimes[strategy] = np.array(
            [r.lifetime_periods for r in results], dtype=int)
        life = lifetimes[strategy].astype(float)
        peak_means = [r.peak_sum / r.lifetime_periods
                      for r in results if r.lifetime_periods]
        sum_means = []
        for r in results:
            if r.lifetime_periods == 0:
                continue
            spent = config.n_nodes * config.initial_energy - float(
                r.residual_energy.sum())
            sum_means.append(spent / r.lifetime_periods)
        stats[strategy] = StrategyStats(
            mean_lifetime=float(life.mean()),
            std_lifetime=float(life.std(ddof=1)) if config.runs > 1 else 0.0,
            mean_max_power=float(np.mean(peak_means)) if peak_means else float("nan"),
            mean_sum_energy=float(np.mean(sum_means)) if sum_means else float("nan"),
        )
    return ComparisonTable(stats=stats, lifetimes=lifetimes)


def wire_to_order(text, n):
    """A ``>``-joined 1-based decode order as 0-based node indices."""
    try:
        order = tuple(int(tok) - 1 for tok in text.split(">"))
    except ValueError as exc:
        raise ValueError(f"bad decode order {text!r}") from exc
    if sorted(order) != list(range(n)):
        raise ValueError(f"decode order {text!r} is not a permutation of 1..{n}")
    return order


def read_schedule_csv(path, kind, period):
    """Re-parse a schedule CSV back into a validated Schedule."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    n = sum(1 for name in header if name.startswith("power_"))
    epochs = []
    for row in rows[1:]:
        fraction = float(row[0])
        order = wire_to_order(row[1], n)
        powers = np.array([float(x) for x in row[2:2 + n]])
        rates = np.array([float(x) for x in row[2 + n:2 + 2 * n]])
        epochs.append(Epoch(duration_fraction=fraction, powers=powers,
                            rates=rates, decode_order=order))
    return Schedule(kind=kind, epochs=tuple(epochs), period=period)
