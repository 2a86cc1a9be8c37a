"""Randomized property suites for the library's own guarantees.

Each suite draws random instances and checks one family of invariants with
an independent oracle: exhaustive modularity of the rank functions, vertex
feasibility and chain tightness, greedy optimality against brute force over
all decoding orders, agreement of the fairness certificate with the
perturbation probe on solver outputs and on deliberately ruined bases, and
the first-order optimality of solver outputs against brute force over all
decoding orders, with unit and random gains.  Suites whose oracle would
exceed its enumeration cap are reported as skipped, never silently reduced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import minmax, polymatroid
from .polymatroid import NoiseModel


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ran: bool
    passed: bool
    checks: int
    message: str = ""


def _skip(name: str, cap: int, n: int) -> SuiteResult:
    return SuiteResult(name=name, ran=False, passed=True, checks=0,
                       message=f"skipped: enumeration limit (n > {cap}, got {n})")


def modularity_suite(n: int, instances: int, seed: int) -> SuiteResult:
    """Power rank is supermodular, capacity rank submodular, exhaustively."""
    name = "rank-modularity"
    if n > polymatroid.MODULARITY_MAX_N:
        return _skip(name, polymatroid.MODULARITY_MAX_N, n)
    rng = np.random.default_rng(seed)
    checks = 0
    for k in range(instances):
        rates = rng.uniform(0.01, 1.5, n)
        powers = rng.uniform(0.1, 10.0, n)
        noise = NoiseModel(float(rng.choice([1.0, 1e-3])))
        if not polymatroid.check_rank_modularity(
                lambda A: polymatroid.power_rank(rates, noise, A), n, "super"):
            return SuiteResult(name, True, False, checks,
                               f"power rank not supermodular: rates={rates.tolist()} "
                               f"sigma_sq={noise.sigma_sq}")
        if not polymatroid.check_rank_modularity(
                lambda A: polymatroid.capacity_rank(powers, noise, A), n, "sub"):
            return SuiteResult(name, True, False, checks,
                               f"capacity rank not submodular: powers={powers.tolist()} "
                               f"sigma_sq={noise.sigma_sq}")
        checks += 2
    return SuiteResult(name, True, True, checks)


def vertex_suite(n: int, instances: int, seed: int) -> SuiteResult:
    """Every sampled vertex is a base and its decoding chain is tight."""
    name = "vertex-validity"
    if n > polymatroid.MEMBERSHIP_MAX_N:
        return _skip(name, polymatroid.MEMBERSHIP_MAX_N, n)
    rng = np.random.default_rng(seed)
    checks = 0
    for _ in range(instances):
        rates = rng.uniform(0.0, 2.0, n)
        noise = NoiseModel(float(rng.choice([1.0, 1e-3])))
        if n <= 5:
            orders = list(itertools.permutations(range(n)))
        else:
            orders = [tuple(rng.permutation(n)) for _ in range(24)]
        for order in orders:
            p = polymatroid.vertex(rates, noise, order)
            if not polymatroid.is_base(p, rates, noise):
                return SuiteResult(name, True, False, checks,
                                   f"vertex not a base: rates={rates.tolist()} "
                                   f"order={order} sigma_sq={noise.sigma_sq}")
            q = noise.received(p)
            cum = 0.0
            for i, node in enumerate(order):
                cum += q[node]
                rank = polymatroid.power_rank(rates, noise, order[:i + 1])
                if abs(cum - rank) > polymatroid.TIGHT_RTOL * (1.0 + abs(rank)):
                    return SuiteResult(name, True, False, checks,
                                       f"chain set not tight: rates={rates.tolist()} "
                                       f"order={order} prefix={order[:i + 1]}")
            checks += 1
    return SuiteResult(name, True, True, checks)


def greedy_suite(n: int, instances: int, seed: int) -> SuiteResult:
    """Greedy linear minimization matches brute force over all n! vertices."""
    name = "greedy-optimality"
    cap = 8
    if n > cap:
        return _skip(name, cap, n)
    rng = np.random.default_rng(seed)
    checks = 0
    orders = list(itertools.permutations(range(n)))
    for _ in range(instances):
        rates = rng.uniform(0.0, 2.0, n)
        theta = rng.uniform(0.05, 10.0, n)
        noise = NoiseModel(float(rng.choice([1.0, 1e-3])))
        _, greedy_vertex = polymatroid.greedy_linear_min(theta, rates, noise)
        greedy_obj = float(theta @ noise.received(greedy_vertex))
        brute = min(float(theta @ noise.received(
            polymatroid.vertex(rates, noise, o))) for o in orders)
        if greedy_obj > brute * (1 + 1e-12) + 1e-300:
            return SuiteResult(name, True, False, checks,
                               f"greedy suboptimal: rates={rates.tolist()} "
                               f"theta={theta.tolist()} greedy={greedy_obj} "
                               f"brute={brute}")
        checks += 1
    return SuiteResult(name, True, True, checks)


def fairness_suite(n: int, instances: int, seed: int,
                   extra_bases=None) -> SuiteResult:
    """Fairness certificate and perturbation probe agree.

    Solver outputs must pass both; random time-sharing bases that are far
    from the optimum must fail both.  ``extra_bases`` injects
    ``(point, rates, noise)`` triples treated as claimed-optimal solver
    outputs; a perturbed injection must come back as a counterexample
    (the negative-path test of this very suite).
    """
    name = "fairness-oracles"
    if n > polymatroid.PERTURB_MAX_N:
        return _skip(name, polymatroid.PERTURB_MAX_N, n)
    rng = np.random.default_rng(seed)
    checks = 0
    orders = list(itertools.permutations(range(n)))
    for _ in range(instances):
        rates = rng.uniform(0.05, 2.0, n)
        noise = NoiseModel(float(rng.choice([1.0, 1e-3])))
        sol = minmax.solve(rates, noise)
        transmit = sol.transmit
        lex = polymatroid.is_lex_optimal_base(transmit, rates, noise)
        probe = polymatroid.is_minmax(transmit, rates, noise)
        if not (lex and probe):
            return SuiteResult(name, True, False, checks,
                               f"solver output rejected: rates={rates.tolist()} "
                               f"sigma_sq={noise.sigma_sq} point={transmit.tolist()} "
                               f"lex={lex} probe={probe}")
        checks += 1
        beta = rng.dirichlet(np.ones(len(orders)))
        mix = sum(b * polymatroid.vertex(rates, noise, o)
                  for b, o in zip(beta, orders))
        scale = polymatroid.sum_power(rates, noise)
        if np.max(np.abs(noise.received(mix) - sol.received)) > 1e-3 * scale:
            lex = polymatroid.is_lex_optimal_base(mix, rates, noise)
            probe = polymatroid.is_minmax(mix, rates, noise)
            if lex or probe:
                return SuiteResult(name, True, False, checks,
                                   f"non-optimal base accepted: rates={rates.tolist()} "
                                   f"sigma_sq={noise.sigma_sq} point={mix.tolist()} "
                                   f"lex={lex} probe={probe}")
            checks += 1
    for point, rates, noise in (extra_bases or []):
        lex = polymatroid.is_lex_optimal_base(point, rates, noise)
        probe = polymatroid.is_minmax(point, rates, noise)
        if not (lex and probe):
            return SuiteResult(name, True, False, checks,
                               f"claimed-optimal base rejected: "
                               f"point={np.asarray(point).tolist()} "
                               f"rates={np.asarray(rates).tolist()} "
                               f"sigma_sq={noise.sigma_sq} lex={lex} probe={probe}")
        checks += 1
    return SuiteResult(name, True, True, checks)


def certificate_suite(n: int, instances: int, seed: int) -> SuiteResult:
    """Solver outputs pass the first-order optimality certificate.

    The gain-weighted gradient at the returned base may not prefer any of
    the ``n!`` decoding-order vertices, found by brute force, by more than
    ``1e-12`` of the squared sum power; checked with unit and random gains.
    """
    name = "solver-certificate"
    cap = 8
    if n > cap:
        return _skip(name, cap, n)
    rng = np.random.default_rng(seed)
    checks = 0
    orders = list(itertools.permutations(range(n)))
    for _ in range(instances):
        rates = rng.uniform(0.0, 1.0, n)
        sigma_sq = float(rng.choice([1.0, 1e-3]))
        vertices = np.stack([polymatroid.chain_received(rates, sigma_sq, o)
                             for o in orders])
        for gains in (None, rng.uniform(0.2, 5.0, n)):
            noise = NoiseModel(sigma_sq, gains=gains)
            sol = minmax.solve(rates, noise, check=False)
            g = noise.gains_for(n)
            total = polymatroid.sum_power(rates, noise)
            grad = g * (sol.received - total / float(g.sum()))
            gap = float(grad @ sol.received) - float(np.min(vertices @ grad))
            if gap > 1e-12 * total * total:
                return SuiteResult(name, True, False, checks,
                                   f"certificate gap {gap}: rates={rates.tolist()} "
                                   f"gains={g.tolist()} sigma_sq={sigma_sq}")
            checks += 1
    return SuiteResult(name, True, True, checks)


def run_all(n: int, instances: int, seed: int) -> list[SuiteResult]:
    """Every suite on ``n`` nodes; a run that would check nothing is
    refused."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    return [
        modularity_suite(n, max(1, instances // 10), seed),
        vertex_suite(n, instances, seed + 1),
        greedy_suite(n, instances, seed + 2),
        fairness_suite(n, max(1, instances // 2), seed + 3),
        certificate_suite(n, max(1, instances // 2), seed + 4),
    ]
