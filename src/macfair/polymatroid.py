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

This module implements the two rank functions, the exhaustive base test,
vertex construction along decoding chains, Edmonds-style greedy linear
minimization, and the tight-set / dependent-set machinery that certifies
lexicographic (min-max fair) optimality of a base.  The public functions
check their inputs once; a certificate computes the 2^n slack of its point
once and reads both membership and the tight sets from it.

Conventions
-----------
* Nodes are indexed ``0 .. n-1``.
* Rates are in bits per channel use, powers in watts (linear scale).
* With unequal channel gains every subset constraint applies to the
  *received* powers ``g_i * p_i``; transmit powers are recovered by dividing
  by the gains at the boundary.  The symmetric channel is ``gains == 1``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

LN2 = float(np.log(2.0))

# Relative tolerance for tightness/feasibility of subset constraints; scaled
# by (1 + |rank|) because rank values span many orders of magnitude.
TIGHT_RTOL = 1e-9

# Two power levels are considered distinct fairness levels only if they
# differ by more than this (absolute + relative); solver outputs are numeric.
LEVEL_ATOL = 1e-6
LEVEL_RTOL = 1e-6

# Hard caps on exhaustive enumeration.  Exceeding a cap raises
# EnumerationLimitError; there is never a silent approximate fallback.
MEMBERSHIP_MAX_N = 20   # 2^n subset constraints
TIGHT_SET_MAX_N = 16    # 2^n tight-set enumeration (dep, capacity tight sets)
LEX_CHECK_MAX_N = 12    # dependent-set checks per fairness level
PERTURB_MAX_N = 8       # pairwise transfer probing

# Default perturbation size for the min-max transfer oracle, as a fraction
# of the conserved received-power sum.
PERTURB_STEP_FRACTION = 1e-4


class InvalidSubsetError(ValueError):
    """A subset refers to node indices outside the ground set."""


class EnumerationLimitError(ValueError):
    """The requested exhaustive check exceeds its enumeration cap."""


class NotAMemberError(ValueError):
    """The point violates a subset constraint of the region."""


class NotABaseError(ValueError):
    """The point is not on the dominant face of the region."""


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise power and per-node channel gains.

    ``gains is None`` means the symmetric channel (all gains one).
    """

    sigma_sq: float = 1.0
    gains: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.sigma_sq < np.inf:
            raise ValueError(
                f"noise power must be positive and finite, got {self.sigma_sq}")
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
    pi = tuple(int(i) for i in order)
    if sorted(pi) != list(range(n)):
        raise ValueError(f"{order!r} is not a permutation of 0..{n - 1}")
    return pi


def _tight_tol(rank_value: float) -> float:
    return TIGHT_RTOL * (1.0 + abs(rank_value))


def power_rank(rates, noise: NoiseModel, members) -> float:
    """Minimum aggregate received power a node subset needs at the given rates.

    This is the supermodular rank function of the power contra-polymatroid:
    ``sigma^2 * (2^(2*R(A)) - 1)``.
    """
    r = _as_vector(rates, "rates")
    return _sum_rank(r[_as_subset(members, r.size)], noise.sigma_sq)


def capacity_rank(powers, noise: NoiseModel, members) -> float:
    """Shannon sum capacity of a node subset, in bits per channel use.

    This is the submodular rank function of the capacity polymatroid:
    ``0.5 * log2(1 + Q(A)/sigma^2)`` with Q the received powers.
    """
    p = _as_vector(powers, "powers")
    idx = _as_subset(members, p.size)
    q = float((p[idx] * noise.gains_for(p.size)[idx]).sum())
    return 0.5 * float(np.log1p(q / noise.sigma_sq)) / LN2


def _sum_rank(r: np.ndarray, sigma_sq: float) -> float:
    return sigma_sq * float(np.expm1(2.0 * LN2 * r.sum()))


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
    r = _as_vector(rates, "rates")
    pi = _as_order(order, r.size)
    return _chain_received_trusted(r, sigma_sq, np.asarray(pi, dtype=np.intp))


def vertex(rates, noise: NoiseModel, order) -> np.ndarray:
    """Transmit-power vertex of the power region for one decoding order."""
    q = chain_received(rates, noise.sigma_sq, order)
    return q / noise.gains_for(q.size)


@functools.lru_cache(maxsize=None)
def _subset_bits(n: int) -> np.ndarray:
    """Float64 0/1 matrix (2^n, n): row m has the members of bitmask m."""
    masks = np.arange(1 << n, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


class _RankTable:
    """All 2^n subset ranks of the power region at the checked rates ``r``,
    for exhaustive oracles, and the slack of every subset constraint at the
    received powers ``q`` under test, computed once."""

    def __init__(self, q: np.ndarray, r: np.ndarray, sigma_sq: float,
                 max_n: int, what: str):
        if r.size > max_n:
            raise EnumerationLimitError(
                f"{what} enumerates 2^n subsets and is capped at n <= {max_n}; "
                f"got n = {r.size}"
            )
        if q.size != r.size:
            raise ValueError("powers and rates must have the same length")
        self.n = r.size
        self.q = q
        self.bits = _subset_bits(self.n)
        self.rank = sigma_sq * np.expm1(2.0 * LN2 * (self.bits @ r))
        self.tol = TIGHT_RTOL * (1.0 + np.abs(self.rank))
        self.q_slack = self.slack(q)

    def slack(self, received: np.ndarray) -> np.ndarray:
        return self.bits @ received - self.rank

    def is_member(self, slack: np.ndarray) -> bool:
        return bool((slack >= -self.tol).all())

    def tight_masks(self) -> list[int]:
        """Bitmasks of the subsets whose constraint is tight at ``q``."""
        return (np.abs(self.q_slack) <= self.tol).nonzero()[0].tolist()


def _base_table(q: np.ndarray, r: np.ndarray, sigma_sq: float) -> _RankTable:
    """Rank table of a base; raises ``NotABaseError`` when ``q`` is not one."""
    total = _sum_rank(r, sigma_sq)
    if abs(float(q.sum()) - total) <= _tight_tol(total):
        table = _RankTable(q, r, sigma_sq, MEMBERSHIP_MAX_N, "membership test")
        if table.is_member(table.q_slack):
            return table
    raise NotABaseError("the point is not on the dominant face")


def is_base(powers, rates, noise: NoiseModel) -> bool:
    """Whether the powers are feasible and lie on the dominant face.

    A base saturates the full-set constraint: the received-power sum equals
    ``sum_power(rates, noise)``.
    """
    p = _as_vector(powers, "powers")
    r = _as_vector(rates, "rates")
    try:
        _base_table(noise.received(p), r, noise.sigma_sq)
    except NotABaseError:
        return False
    return True


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
    pi = tuple(int(i) for i in np.argsort(-t, kind="stable"))
    return pi, vertex(r, noise, pi)


def capacity_chain(powers, noise: NoiseModel, order) -> np.ndarray:
    """Rate vertex of the capacity region for one decoding chain."""
    p = _as_vector(powers, "powers")
    pi = _as_order(order, p.size)
    idx = np.asarray(pi, dtype=np.intp)
    q = noise.received(p)[idx]
    cum = 0.5 * np.log1p(np.cumsum(q) / noise.sigma_sq) / LN2
    coords = np.diff(cum, prepend=0.0)
    out = np.empty_like(coords)
    out[idx] = coords
    return out


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _minimal_tight(tight: list[int], i: int) -> int:
    """Intersection of the tight sets that contain node ``i``; 0 if none."""
    containing = [m for m in tight if (m >> i) & 1]
    return functools.reduce(operator.and_, containing) if containing else 0


def dep(powers, i: int, rates, noise: NoiseModel) -> frozenset[int]:
    """Dependent set of node ``i``: the minimal tight set containing it.

    Equals the intersection of all tight sets containing ``i``; empty when
    ``i`` is not saturated (its power can be decreased without leaving the
    region).
    """
    i = operator.index(i)
    p = _as_vector(powers, "powers")
    r = _as_vector(rates, "rates")
    table = _RankTable(noise.received(p), r, noise.sigma_sq,
                       TIGHT_SET_MAX_N, "tight-set enumeration")
    if not table.is_member(table.q_slack):
        raise NotAMemberError("the point violates a subset power constraint")
    q, tight = table.q, table.tight_masks()
    if not 0 <= i < q.size:
        raise InvalidSubsetError(f"node index {i} outside ground set 0..{q.size - 1}")
    members = _mask_to_set(_minimal_tight(tight, i))
    if not members:
        return members
    assert i in members, "dependent set lost its own node"
    idx = sorted(members)
    bottom = _sum_rank(r[idx], noise.sigma_sq)
    assert abs(float(q[idx].sum()) - bottom) <= _tight_tol(bottom), \
        "intersection of tight sets is not tight"
    return members


def _levels(x: np.ndarray) -> list[list[int]]:
    """Cluster the entries of ``x`` into distinct levels, highest first.

    Two entries belong to the same level when they differ by at most
    ``LEVEL_ATOL + LEVEL_RTOL * max(|a|, |b|)``.  Returns the indices of
    each level.
    """
    order = np.argsort(-x, kind="stable").tolist()
    values = x.tolist()
    groups = [[order[0]]]
    prev = values[order[0]]
    for k in order[1:]:
        cur = values[k]
        if prev - cur > LEVEL_ATOL + LEVEL_RTOL * max(abs(prev), abs(cur)):
            groups.append([k])
        else:
            groups[-1].append(k)
        prev = cur
    return groups


def _prefixes_closed(groups: list[list[int]], tight: list[int]) -> bool:
    """Whether every node's minimal tight set exists and lies inside the
    level prefix the node joins, and so inside every later prefix.

    ``groups`` lists the nodes level by level as the prefixes grow;
    ``tight`` holds the bitmasks of the tight sets.
    """
    prefix = 0
    for group in groups:
        prefix |= sum(1 << i for i in group)
        for i in group:
            inter = _minimal_tight(tight, i)
            if not inter:
                return False
            assert inter in tight, "intersection of tight sets is not tight"
            if inter & ~prefix:
                return False
    return True


def is_lex_optimal_base(powers, rates, noise: NoiseModel) -> bool:
    """Certify that a base is the lexicographically optimal (min-max fair) one.

    Clusters the received powers into distinct levels C_1 > ... > C_p and
    checks, for every prefix set S_j of nodes at level >= C_j, that each
    member's dependent set is non-empty and contained in S_j.  Any node
    failing this could shed power onto a strictly lower node, contradicting
    min-max fairness.
    """
    p = _as_vector(powers, "powers")
    if p.size > LEX_CHECK_MAX_N:
        raise EnumerationLimitError(
            f"lexicographic check is capped at n <= {LEX_CHECK_MAX_N}; got {p.size}"
        )
    r = _as_vector(rates, "rates")
    table = _base_table(noise.received(p), r, noise.sigma_sq)
    return _prefixes_closed(_levels(table.q), table.tight_masks())


def is_minmax(powers, rates, noise: NoiseModel, step: float | None = None) -> bool:
    """Finite perturbation probe for min-max fairness of a base.

    For every ordered node pair tries to move ``e`` watts of received power
    from a higher coordinate onto a strictly lower one (probing ``e`` and
    ``e/10``); any feasible such transfer improves fairness, so the point is
    not min-max optimal.  This is a practical finite test of the definition;
    :func:`is_lex_optimal_base` is the exact certificate.
    """
    p = _as_vector(powers, "powers")
    if p.size > PERTURB_MAX_N:
        raise EnumerationLimitError(
            f"perturbation probe is capped at n <= {PERTURB_MAX_N}; got {p.size}"
        )
    r = _as_vector(rates, "rates")
    table = _base_table(noise.received(p), r, noise.sigma_sq)
    q = table.q
    if step is None:
        step = PERTURB_STEP_FRACTION * _sum_rank(r, noise.sigma_sq)
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
                if table.is_member(table.slack(trial)):
                    return False
    return True


def is_lex_optimal_rate_base(rates, powers, noise: NoiseModel) -> bool:
    """Mirrored fairness certificate for a rate base of the capacity region.

    Max-min fairness over rates is the mirror of min-max fairness over
    powers: cluster the rates into levels C_1 < ... < C_p from the bottom and
    require every node in a low prefix to have its minimal tight set inside
    that prefix (no node can take rate from a strictly higher one).
    """
    r = _as_vector(rates, "rates")
    if r.size > LEX_CHECK_MAX_N:
        raise EnumerationLimitError(
            f"lexicographic check is capped at n <= {LEX_CHECK_MAX_N}; got {r.size}"
        )
    p = _as_vector(powers, "powers")
    if r.size != p.size:
        raise ValueError("rates and powers must have the same length")
    q = noise.received(p)
    total = 0.5 * float(np.log1p(float(q.sum()) / noise.sigma_sq)) / LN2
    if abs(float(r.sum()) - total) > _tight_tol(total):
        raise NotABaseError("the rate point is not on the dominant face")
    bits = _subset_bits(r.size)
    rank = 0.5 * np.log1p((bits @ q) / noise.sigma_sq) / LN2
    tol = TIGHT_RTOL * (1.0 + np.abs(rank))
    sums = bits @ r
    if np.any(sums > rank + tol):
        raise NotAMemberError("the rate point violates a capacity constraint")
    tight = (np.abs(sums - rank) <= tol).nonzero()[0].tolist()
    return _prefixes_closed(_levels(r)[::-1], tight)
