"""Rank functions, membership tests, vertices and fairness oracles for the
Gaussian multiple-access power and capacity regions.

At fixed per-node rates R the feasible power vectors of an N-user Gaussian
multiple-access channel form a contra-polymatroid: every node subset A must
receive at least ``sigma^2 * (2^(2*R(A)) - 1)`` watts in aggregate.  Dually,
at fixed powers the achievable rate vectors form a polymatroid whose rank is
the Shannon sum capacity ``0.5 * log2(1 + Q(A)/sigma^2)``.  Each extreme
point (vertex) of either region is realized by one successive-decoding order,
so any point of the dominant face can be scheduled by time sharing among
decoding orders.

This module implements the power rank, vertex construction along decoding
chains, Edmonds-style greedy linear minimization, and the certificates of
lexicographic (min-max fair) optimality of a power base and of a rate base,
each with its membership and base tests.  A subset's rank depends on it
only through its rate sum, convexly, so the slack of its constraint is
concave in the point ``(Q(A), R(A))`` and is least at a prefix of the nodes
sorted by ``r_i / q_i`` descending: membership is one sort and ``n + 1``
prefix checks, and the tight sets are such prefixes.  A base is the
lexicographically optimal one iff every prefix of its levels is tight
(Fujishige, Math. OR 5(3), 1980).  The public functions check their inputs
once; the range rules for the sum rate and the received-power sum, which
the package's public calls apply, live here.

Conventions
-----------
* Nodes are indexed ``0 .. n-1``.
* Rates are in bits per channel use, powers in watts (linear scale).
* With unequal channel gains every subset constraint applies to the
  *received* powers ``g_i * p_i``; transmit powers are recovered by dividing
  by the gains at the boundary.  The symmetric channel is ``gains == 1``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

LN2 = float(np.log(2.0))

# Relative tolerance for tightness/feasibility of subset constraints; scaled
# by (unit + |rank|) because rank values span many orders of magnitude.  The
# unit is the noise power on the power side and one bit on the capacity side.
TIGHT_RTOL = 1e-9

# Two levels are considered distinct fairness levels only if they differ by
# more than this (absolute + relative; the absolute part in units of the
# noise power for power levels); solver outputs are numeric.
LEVEL_ATOL = 1e-6
LEVEL_RTOL = 1e-6

# Largest sum power whose square, the scale of distances and gaps, is finite.
_MAX_SUM_POWER = math.sqrt(np.finfo(float).max)

# Largest rank in units of the noise power, the units of the levels, the
# walk and the certificate: 2^24 below the largest double, so that their
# sums over many nodes and their gain-scaled forms stay finite too.
_MAX_RANK = 2.0 ** 1000


class InvalidSubsetError(ValueError):
    """A subset refers to node indices outside the ground set."""


class NotAMemberError(ValueError):
    """The point violates a subset constraint of the region."""


class NotABaseError(ValueError):
    """The point is not on the dominant face of the region."""


def _check_noise_power(sigma_sq: float) -> None:
    if not 0.0 < sigma_sq < np.inf:
        raise ValueError(
            f"noise power must be positive and finite, got {sigma_sq}")


def _check_sum_rate(total: float, sigma_sq: float) -> None:
    """Raise ``ValueError`` when the sum power of a rate sum leaves the range
    in which it, and the squared distances built from it, are finite, or
    its rank in units of the noise power exceeds ``_MAX_RANK``."""
    # Below about 1.3e-147 W the rank, 4^total - 1, reaches _MAX_RANK first:
    # the limit is then 500 bits.
    limit = math.log1p(min(_MAX_SUM_POWER / sigma_sq, _MAX_RANK)) / (2.0 * LN2)
    if not total < limit:
        raise ValueError(
            f"the rates sum to {total:g} bits per channel use; above "
            f"about {limit:.4g} the sum power overflows at this noise power")


def _check_received_sum(total: float, sigma_sq: float) -> None:
    """Raise ``ValueError`` when a received-power sum, or its ratio to the
    noise power, overflows."""
    if not total / sigma_sq < math.inf:
        raise ValueError(
            f"the received powers sum to {total:g} W; the sum or its ratio "
            f"to the noise power {sigma_sq:g} W overflows")


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise power and per-node channel gains.

    ``gains is None`` means the symmetric channel (all gains one).
    """

    sigma_sq: float = 1.0
    gains: np.ndarray | None = None

    def __post_init__(self):
        _check_noise_power(self.sigma_sq)
        if self.gains is not None:
            g = np.asarray(self.gains, dtype=float)
            if g.ndim != 1 or g.size < 1:
                raise ValueError("gains must be a non-empty 1-D vector")
            if not (0.0 < g.min() and g.max() < np.inf):
                raise ValueError("every channel gain must be positive and finite")
            g.flags.writeable = False
            object.__setattr__(self, "gains", g)

    @classmethod
    def from_db(cls, noise_db: float, gains=None) -> "NoiseModel":
        """Build a model from a noise power in dB (e.g. -30 dB -> 1e-3 W)."""
        try:
            sigma_sq = 10.0 ** (noise_db / 10.0)
        except OverflowError:  # a float power past the largest double raises
            sigma_sq = np.inf
        return cls(sigma_sq=sigma_sq, gains=gains)

    def gains_for(self, n: int) -> np.ndarray:
        if self.gains is None:
            return np.ones(n)
        if self.gains.size != n:
            raise ValueError(
                f"gain vector has length {self.gains.size}, expected {n}"
            )
        return self.gains

    def received(self, powers: np.ndarray) -> np.ndarray:
        """Received powers g_i * p_i for a transmit power vector."""
        p = np.asarray(powers, dtype=float)
        return p * self.gains_for(p.size)


def _as_vector(values, name: str, nonneg: bool = True) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    # One reduction each for the lower and upper end: a NaN fails both.
    if nonneg:
        ok = 0.0 <= x.min() and x.max() < np.inf
    else:
        ok = -np.inf < x.min() and x.max() < np.inf
    if not ok:
        if not np.isfinite(x).all():
            raise ValueError(f"every entry of {name} must be finite")
        raise ValueError(f"every entry of {name} must be non-negative")
    return x


def _as_subset(members: Iterable[int], n: int) -> np.ndarray:
    idx = np.asarray(sorted(set(map(operator.index, members))), dtype=np.intp)
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise InvalidSubsetError(
            f"subset {idx.tolist()} is not contained in the ground set 0..{n - 1}"
        )
    return idx


def _as_order(order, n: int) -> tuple[int, ...]:
    pi = tuple(map(operator.index, order))
    if sorted(pi) != list(range(n)):
        raise ValueError(f"{order!r} is not a permutation of 0..{n - 1}")
    return pi


def power_rank(rates, noise: NoiseModel, members) -> float:
    """Minimum aggregate received power a node subset needs at the given rates.

    This is the supermodular rank function of the power contra-polymatroid:
    ``sigma^2 * (2^(2*R(A)) - 1)``.
    """
    r = _as_vector(rates, "rates")
    return _sum_rank(r[_as_subset(members, r.size)], noise.sigma_sq)


def _sum_rank(r: np.ndarray, sigma_sq: float) -> float:
    total = float(r.sum())
    _check_sum_rate(total, sigma_sq)
    return sigma_sq * float(np.expm1(2.0 * LN2 * total))


def sum_power(rates, noise: NoiseModel) -> float:
    """Common received-power sum of every base: sigma^2 * (2^(2*sum(R)) - 1)."""
    return _sum_rank(_as_vector(rates, "rates"), noise.sigma_sq)


def _chain_received_trusted(r: np.ndarray, sigma_sq: float,
                            idx: np.ndarray) -> np.ndarray:
    """The chain vertex of a rate vector, or of every column of a rate
    matrix, along one order ``idx`` of the first axis."""
    rp = r[idx]
    prefix = rp.cumsum(axis=0)
    prefix -= rp
    coords = np.exp2(2.0 * prefix)
    coords *= sigma_sq
    coords *= np.expm1(2.0 * LN2 * rp)
    out = np.empty_like(coords)
    out[idx] = coords
    return out


def chain_received(rates, sigma_sq: float, order) -> np.ndarray:
    """Received-power vertex of the power region for one decoding chain.

    Entry ``order[i]`` is the increment of the rank along the nested chain
    ``{order[0]}, {order[0], order[1]}, ...``; the receiver decodes
    ``order[-1]`` first and ``order[0]`` last, so ``order[0]`` gets the
    smallest share.
    """
    _check_noise_power(sigma_sq)
    r = _as_vector(rates, "rates")
    pi = _as_order(order, r.size)
    _check_sum_rate(float(r.sum()), sigma_sq)
    return _chain_received_trusted(r, sigma_sq, np.asarray(pi, dtype=np.intp))


def vertex(rates, noise: NoiseModel, order) -> np.ndarray:
    """Transmit-power vertex of the power region for one decoding order."""
    q = chain_received(rates, noise.sigma_sq, order)
    return q / noise.gains_for(q.size)


def _power_slack(q_sum: float, r_sum: float, sigma_sq: float):
    """Slack of the power constraint ``Q(A) >= f(A)`` of a subset with
    received-power sum ``q_sum`` and rate sum ``r_sum``, and its tolerance."""
    rank = sigma_sq * math.expm1(2.0 * LN2 * r_sum)
    return q_sum - rank, TIGHT_RTOL * (sigma_sq + abs(rank))


def _capacity_slack(q_sum: float, r_sum: float, sigma_sq: float):
    """Slack of the capacity constraint ``R(A) <= C(Q(A))`` and its
    tolerance."""
    rank = 0.5 * math.log1p(q_sum / sigma_sq) / LN2
    return rank - r_sum, TIGHT_RTOL * (1.0 + abs(rank))


def _ratio_sort(q: list[float], r: list[float]):
    """The nodes sorted by ``r_i / q_i`` descending.

    A node with a rate and no power comes first, one with neither last.
    Both slacks are concave in ``(Q(A), R(A))`` and fall as ``R(A)`` grows,
    so over all subsets they are least at a prefix of this sort, and a
    tight set is such a prefix, up to nodes with neither rate nor power.
    """
    keys = [-(ri / qi) if qi > 0.0 else (-math.inf if ri > 0.0 else math.inf)
            for qi, ri in zip(q, r)]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _group_slacks(groups, q, r, sigma_sq: float, slack):
    """``slack`` of the union of every leading run of ``groups``."""
    q_sum = r_sum = 0.0
    for group in groups:
        for i in group:
            q_sum += q[i]
            r_sum += r[i]
        yield slack(q_sum, r_sum, sigma_sq)


def _is_member(nodes: list[int], q, r, sigma_sq: float, slack) -> bool:
    """Whether no prefix of the ratio sort ``nodes`` violates its
    constraint, and so no subset does."""
    return all(s >= -tol for s, tol in  # zip makes one-node groups
               _group_slacks(zip(nodes), q, r, sigma_sq, slack))


def _all_tight(groups, q, r, sigma_sq: float, slack) -> bool:
    """Whether the union of every leading run of ``groups`` is tight."""
    return all(abs(s) <= tol for s, tol in
               _group_slacks(groups, q, r, sigma_sq, slack))


def greedy_linear_min(theta, rates, noise: NoiseModel) -> tuple[tuple[int, ...], np.ndarray]:
    """Minimize ``theta . Q`` over the power region by Edmonds' greedy rule.

    The optimum is the vertex of the permutation sorting theta in descending
    order (ties broken by ascending node index): the node with the largest
    coefficient is placed first on the decoding chain, where the rank
    increment is smallest.  Returns the permutation and the transmit-power
    vertex.
    """
    t = _as_vector(theta, "theta", nonneg=False)
    r = _as_vector(rates, "rates")
    if t.size != r.size:
        raise ValueError("theta and rates must have the same length")
    pi = np.argsort(-t, kind="stable")
    _check_sum_rate(float(r.sum()), noise.sigma_sq)
    q = _chain_received_trusted(r, noise.sigma_sq, pi)
    return tuple(pi.tolist()), q / noise.gains_for(r.size)


def _levels(values: list[float], atol: float) -> list[list[int]]:
    """Cluster ``values`` into distinct levels, highest first.

    Two entries belong to the same level when they differ by at most
    ``atol + LEVEL_RTOL * max(|a|, |b|)``.  Returns the indices of each
    level.
    """
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    groups = [[order[0]]]
    prev = values[order[0]]
    for k in order[1:]:
        cur = values[k]
        if prev - cur > atol + LEVEL_RTOL * max(abs(prev), abs(cur)):
            groups.append([k])
        else:
            groups[-1].append(k)
        prev = cur
    return groups


def _certificate_point(powers, rates, noise: NoiseModel):
    """Checked received powers and rates of one length, as lists."""
    p = _as_vector(powers, "powers")
    r = _as_vector(rates, "rates")
    if p.size != r.size:
        raise ValueError("powers and rates must have the same length")
    with np.errstate(over="ignore"):  # an overflow is rejected below
        q = noise.received(p).tolist()
    _check_received_sum(sum(q), noise.sigma_sq)
    return q, r.tolist()


def _lex_optimal_trusted(q: list[float], r: list[float],
                         sigma_sq: float) -> bool:
    """:func:`is_lex_optimal_base` on received powers ``q`` and rates ``r``
    of one length, checked as it checks them; raises ``NotABaseError`` when
    ``q`` is not a base of the power region at rates ``r``."""
    full, tol = _power_slack(sum(q), sum(r), sigma_sq)
    if not (abs(full) <= tol and _is_member(_ratio_sort(q, r), q, r,
                                            sigma_sq, _power_slack)):
        raise NotABaseError("the point is not on the dominant face")
    return _all_tight(_levels(q, LEVEL_ATOL * sigma_sq), q, r, sigma_sq,
                      _power_slack)


def is_lex_optimal_base(powers, rates, noise: NoiseModel) -> bool:
    """Certify that a base is the lexicographically optimal (min-max fair) one.

    Clusters the received powers into distinct levels C_1 > ... > C_p and
    checks that every prefix set S_j of nodes at level >= C_j is tight, so
    that each node's dependent set lies inside the prefix it joins.  A node
    failing this could shed power onto a strictly lower node, contradicting
    min-max fairness.
    """
    q, r = _certificate_point(powers, rates, noise)
    _check_sum_rate(sum(r), noise.sigma_sq)
    return _lex_optimal_trusted(q, r, noise.sigma_sq)


def is_lex_optimal_rate_base(rates, powers, noise: NoiseModel) -> bool:
    """Mirrored fairness certificate for a rate base of the capacity region.

    Max-min fairness over rates is the mirror of min-max fairness over
    powers: cluster the rates into levels C_1 < ... < C_p from the bottom and
    require every low prefix to be tight (no node can take rate from a
    strictly higher one).  Membership takes the same ratio sort, along which
    ``R(A) - C(Q(A))`` is largest.
    """
    q, rl = _certificate_point(powers, rates, noise)
    full, tol = _capacity_slack(sum(q), sum(rl), noise.sigma_sq)
    if abs(full) > tol:
        raise NotABaseError("the rate point is not on the dominant face")
    if not _is_member(_ratio_sort(q, rl), q, rl, noise.sigma_sq,
                      _capacity_slack):
        raise NotAMemberError("the rate point violates a capacity constraint")
    return _all_tight(_levels(rl, LEVEL_ATOL)[::-1], q, rl, noise.sigma_sq,
                      _capacity_slack)
