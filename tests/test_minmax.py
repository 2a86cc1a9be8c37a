"""Min-max solver: worked instances, certificates, invariants, dual."""

import decimal
import itertools
import math

import numpy as np
import pytest

import oracles
from macfair import (
    CaseLabel,
    NoiseModel,
    SolverFailureError,
    chain_received,
    equal_allocation,
    greedy_linear_min,
    is_lex_optimal_base,
    is_lex_optimal_rate_base,
    max_min_rates,
    solve,
    sum_power,
)
from macfair import minmax
from macfair.polymatroid import _power_slack

UNIT = NoiseModel(1.0)
R2_COINCIDENT = float(np.log2(3.0) / 2.0 - 0.5)  # makes vertex (1,1) the equal point


def reconstruct(solution, rates, noise):
    total = np.zeros(len(solution.received))
    for order, weight in solution.coefficients:
        total += weight * chain_received(rates, noise.sigma_sq, order)
    return total


def test_equal_allocation_examples():
    assert np.allclose(equal_allocation([1, 1], UNIT), [7.5, 7.5])
    assert np.allclose(equal_allocation([1, 2], UNIT), [31.5, 31.5])
    assert np.allclose(equal_allocation([0, 0], UNIT), [0, 0])


def test_equal_allocation_with_gains():
    noise = NoiseModel(1.0, gains=[4.0, 1.0])
    g = equal_allocation([1, 1], noise)
    assert np.allclose(g, [7.5 / 4.0, 7.5])
    assert float(noise.received(g).sum()) == pytest.approx(15.0, rel=1e-12)


def test_solve_case_label_examples():
    for rates, case in (([0.5, 0.29248], CaseLabel.VERTEX_COINCIDENT),
                        ([0.5, R2_COINCIDENT], CaseLabel.VERTEX_COINCIDENT),
                        ([0.5, 1.5], CaseLabel.INTERIOR_FEASIBLE),
                        ([0.1, 1.9], CaseLabel.INFEASIBLE),
                        ([0.0, 0.0], CaseLabel.VERTEX_COINCIDENT)):
        assert solve(rates, UNIT).case is case


def test_solve_interior_case():
    sol = solve([0.5, 1.5], UNIT)
    assert np.allclose(sol.received, [7.5, 7.5], atol=1e-8)
    assert sol.case is CaseLabel.INTERIOR_FEASIBLE
    assert sol.distance <= 1e-8
    weights = dict(sol.coefficients)
    assert weights[(0, 1)] == pytest.approx(1.0 / 14.0, abs=1e-9)
    assert weights[(1, 0)] == pytest.approx(13.0 / 14.0, abs=1e-9)


def test_solve_interior_case_second():
    sol = solve([1, 2], UNIT)
    assert np.allclose(sol.received, [31.5, 31.5], atol=1e-8)
    weights = dict(sol.coefficients)
    assert weights[(0, 1)] == pytest.approx(11.0 / 30.0, abs=1e-9)
    assert weights[(1, 0)] == pytest.approx(19.0 / 30.0, abs=1e-9)


def test_solve_projection_case():
    sol = solve([0.1, 1.9], UNIT)
    rho2 = 2.0 ** 3.8 - 1.0
    assert np.allclose(sol.received, [15.0 - rho2, rho2], atol=1e-9)
    assert sol.case is CaseLabel.INFEASIBLE
    assert len(sol.coefficients) == 1
    assert sol.coefficients[0][0] == (1, 0)
    # squared distance to (7.5, 7.5), confirmed against the grid oracle
    point, best = oracles.grid_minmax_n2([0.1, 1.9], 1.0)
    assert np.allclose(sol.received, point, atol=1e-4)
    assert sol.distance == pytest.approx(best, rel=1e-6)


def test_solve_vertex_coincident_exact():
    sol = solve([0.5, R2_COINCIDENT], UNIT)
    assert sol.case is CaseLabel.VERTEX_COINCIDENT
    assert np.allclose(sol.received, [1.0, 1.0], atol=1e-12)
    assert len(sol.coefficients) == 1
    assert sol.coefficients[0][1] == 1.0
    assert sol.distance <= 1e-12


def test_solve_single_node():
    sol = solve([1.0], UNIT)
    assert np.allclose(sol.received, [3.0])
    assert sol.case is CaseLabel.VERTEX_COINCIDENT
    assert sol.coefficients == (((0,), 1.0),)


@pytest.mark.parametrize("sigma_sq", [1.0, 1e-3])
@pytest.mark.parametrize("gain", [0.5, 1.0, 2.0])
def test_one_node_face_is_its_own_vertex(gain, sigma_sq):
    # The face of one node is the point f({0}); the level a gain sets does
    # not move it off its one vertex.
    noise = NoiseModel(sigma_sq, gains=[gain])
    sol = solve([1.0], noise)
    assert sol.case is CaseLabel.VERTEX_COINCIDENT
    assert sol.received.tolist() == [3.0 * sigma_sq]
    assert sol.coefficients == (((0,), 1.0),)


def test_solve_zero_rates():
    sol = solve([0.0, 0.0], UNIT)
    assert np.all(sol.received == 0.0)
    assert sol.case is CaseLabel.VERTEX_COINCIDENT


def test_solution_invariants_random():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        rates = rng.uniform(0.0, 2.0, n)
        noise = NoiseModel(float(rng.choice([1.0, 1e-3])))
        sol = solve(rates, noise)
        weights = np.array([w for _, w in sol.coefficients])
        assert np.all(weights > 0.0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(reconstruct(sol, rates, noise), sol.received,
                           atol=1e-8 * (1 + sum_power(rates, noise)))
        assert is_lex_optimal_base(sol.transmit, rates, noise)
        assert sol.received.sum() == pytest.approx(
            sum_power(rates, noise), rel=1e-10)


def test_case_consistency():
    # vertex-coincident: zero distance, single unit weight
    sol = solve([0.5, R2_COINCIDENT], UNIT)
    assert sol.distance <= 1e-12 and len(sol.coefficients) == 1
    # interior: distance ~ 0 but several weights
    sol = solve([0.5, 1.5], UNIT)
    assert sol.distance <= 1e-8
    # infeasible target: strictly positive distance
    sol = solve([0.1, 1.9], UNIT)
    assert sol.distance > 1.0


def test_scale_covariance_exact():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        rates = rng.uniform(0.0, 2.0, n)
        c = float(rng.choice([1e-3, 2.5, 7.0]))
        a = solve(rates, NoiseModel(1.0))
        b = solve(rates, NoiseModel(c))
        assert np.array_equal(b.received, c * a.received)
        assert b.case is a.case
        assert [o for o, _ in b.coefficients] == [o for o, _ in a.coefficients]


def test_solve_passes_brute_force_certificate():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        rates = rng.uniform(0.0, 1.5, n)
        sigma_sq = float(rng.choice([1.0, 1e-3]))
        total = sum_power(rates, NoiseModel(sigma_sq))
        for gains in (None, rng.uniform(0.2, 5.0, n)):
            sol = solve(rates, NoiseModel(sigma_sq, gains=gains))
            gap = oracles.first_order_gap(sol.received, rates, sigma_sq, gains)
            assert gap <= 1e-12 * total * total


def test_solve_symmetric_case():
    sol = solve([1, 1, 1, 1], NoiseModel(1e-3))
    level = sum_power([1, 1, 1, 1], NoiseModel(1e-3)) / 4.0
    assert np.allclose(sol.received, level, rtol=1e-9)
    assert sol.case is CaseLabel.INTERIOR_FEASIBLE


def test_solve_lex_optimal_beyond_seven_nodes():
    rng = np.random.default_rng(3)
    for n in range(8, 13):
        rates = rng.uniform(0.01, 1.0, n)
        noise = NoiseModel(1e-3)
        sol = solve(rates, noise)
        assert is_lex_optimal_base(sol.transmit, rates, noise)


def test_solver_failure_carries_gap(monkeypatch):
    # The walk cannot fail; a rejected certificate is the one failure.
    monkeypatch.setattr(minmax, "_lex_optimal_trusted", lambda *args: False)
    with pytest.raises(SolverFailureError) as err:
        solve([1.0, 1.0, 1.0, 1.0], UNIT)
    assert err.value.gap >= 0.0
    assert 0 <= err.value.iterations <= 3
    # The certificate has no size cap.
    rates = (4.0 / 200) * (1.0 + np.arange(200) % 7 / 7.0)
    with pytest.raises(SolverFailureError) as err:
        solve(rates, NoiseModel.from_db(-30.0))
    assert err.value.gap >= 0.0
    assert 0 <= err.value.iterations <= 199


def test_certificate_runs_for_every_unit_gain_solve(monkeypatch):
    calls = []
    certify = minmax._lex_optimal_trusted

    def counted(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(minmax, "_lex_optimal_trusted", counted)
    noise = NoiseModel.from_db(-30.0)
    rates = np.linspace(0.01, 0.04, 200)
    for n in (2, 7, 12, 13, 200):
        solve(rates[:n], noise)
        assert len(calls) == 1
        calls.clear()
    solve(rates[:4], NoiseModel(1e-3, gains=[4.0, 1.0, 0.5, 2.0]))
    assert calls == []


def test_solve_near_vertex_returns_equal_point():
    # The equal point is 1e-5 away from a vertex: the case label may call it
    # coincident, but the base and the weights must stay the equal point.
    rates = [0.5, R2_COINCIDENT * (1 + 1e-5)]
    level = sum_power(rates, UNIT) / 2.0
    sol = solve(rates, UNIT)
    assert np.allclose(sol.received, [level, level], rtol=1e-12)
    assert np.allclose(reconstruct(sol, rates, UNIT), sol.received,
                       rtol=1e-12)


def test_solve_large_symmetric_instance():
    # An n = 50 instance on which conditional gradient used to give up.
    rng = np.random.default_rng([3, 176])
    rates = (4.0 / 50) * (1.0 - rng.random(50))
    noise = NoiseModel.from_db(-30.0)
    sol = solve(rates, noise)
    total = sum_power(rates, noise)
    assert sol.received.sum() == pytest.approx(total, rel=1e-12, abs=0.0)
    assert np.max(np.abs(reconstruct(sol, rates, noise) - sol.received)) \
        <= 1e-12 * total
    assert sol.gap <= 1e-12 * total * total


def greedy_gap(sol, rates, noise):
    """Duality gap of the weighted objective against the exact greedy
    vertex minimum, at any n."""
    gains = noise.gains_for(len(rates))
    grad = gains * (sol.received - sum_power(rates, noise) / gains.sum())
    _, vertex = greedy_linear_min(grad, rates, noise)
    return float(grad @ (sol.received - noise.received(vertex)))


def benchmark_recipes(count):
    """The solve-small and solve-large inputs of benchmarks/worker.py,
    ``count`` of each for each of the seeds 0-2; the odd solve-large ones
    have unequal gains."""
    noise = NoiseModel.from_db(-30.0)
    for seed in range(3):
        for i in range(count):
            rng = np.random.default_rng([seed, i])
            n = int(rng.integers(2, 8))
            rates = 1.0 - rng.random(n)
            if rng.random() < 0.125:
                a, b = rng.choice(n, size=2, replace=False)
                rates[b] = rates[a]
            yield rates, noise
            rng = np.random.default_rng([seed, i])
            rates = (4.0 / 50) * (1.0 - rng.random(50))
            if i % 2:
                gains = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 50))
                yield rates, NoiseModel(noise.sigma_sq, gains=gains)
            else:
                yield rates, noise


def test_distance_and_gap_values():
    # Both recomputed with NumPy from the returned base: the gain-weighted
    # squared distance to the equal level, and the duality gap against the
    # greedy vertex of the gradient, as the benchmark checks it.  The
    # distance's floor is that of powers 1e-12 of the sum power apart, for
    # bases at the equal point.
    for rates, noise in benchmark_recipes(100):
        sol = solve(rates, noise)
        gains = noise.gains_for(rates.size)
        total = sum_power(rates, noise)
        u = sol.received / total
        distance = total ** 2 * float(gains @ (u - 1.0 / gains.sum()) ** 2)
        assert sol.distance == pytest.approx(distance, rel=1e-12,
                                             abs=(1e-12 * total) ** 2)
        assert abs(sol.gap - greedy_gap(sol, rates, noise)) \
            <= 1e-12 * total ** 2


@pytest.mark.parametrize("n", [8, 20, 50, 200])
def test_time_sharing_invariants_large_n(n):
    rng = np.random.default_rng([11, n])
    sigma_sq = NoiseModel.from_db(-30.0).sigma_sq
    weighted = (4.0 / n) * (1.0 - rng.random(n))
    weighted[rng.random(n) < 0.1] = 0.0
    gains = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
    for rates, noise in (
            ((4.0 / n) * (1.0 - rng.random(n)), NoiseModel(sigma_sq)),
            ((16.0 / n) * (1.0 - rng.random(n)), NoiseModel(sigma_sq)),
            (np.full(n, 2.0 / n), NoiseModel(sigma_sq)),
            (weighted, NoiseModel(sigma_sq, gains=gains))):
        sol = solve(rates, noise)
        total = sum_power(rates, noise)
        weights = np.array([w for _, w in sol.coefficients])
        assert np.all(weights > 0.0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(sol.coefficients) <= n
        assert np.max(np.abs(reconstruct(sol, rates, noise) - sol.received)) \
            <= 1e-12 * total
        assert sol.received.sum() == pytest.approx(total, rel=1e-12, abs=0.0)
        assert greedy_gap(sol, rates, noise) <= 1e-12 * total * total
        assert np.all(sol.transmit[rates == 0.0] == 0.0)
        assert sol.iterations <= n - 1


def test_weighted_large_instance_with_zero_rates():
    # Weighted instances with zero rates, among them two named n = 200 ones.
    # On the first, Wolfe's method over the whole ground set did not
    # converge in 10,000 major cycles; on the second, Wolfe's method run
    # block by block took 2217 major cycles, against 142 splits of the walk.
    instances = []
    rng = np.random.default_rng(7)
    for n in (8, 20, 50, 200):
        for _ in range(30 if n < 200 else 3):
            rates = rng.uniform(0.0, 4.0 / n, n)
            rates[rng.random(n) < 0.1] = 0.0
            gains = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
            instances.append((rates, gains))
    assert len(instances) == 93
    assert np.count_nonzero(rates == 0.0) == 21
    rng = np.random.default_rng(12)
    rates = (4.0 / 200) * (1.0 - rng.random(200))
    rates[rng.random(200) < 0.1] = 0.0
    gains = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 200))
    assert np.count_nonzero(rates == 0.0) == 15
    instances.append((rates, gains))
    for rates, gains in instances:
        n = rates.size
        noise = NoiseModel(NoiseModel.from_db(-30.0).sigma_sq, gains=gains)
        sol = solve(rates, noise)
        total = sum_power(rates, noise)
        assert np.max(np.abs(reconstruct(sol, rates, noise) - sol.received)) \
            <= 1e-12 * total
        assert greedy_gap(sol, rates, noise) <= 1e-12 * total * total
        assert np.all(sol.transmit[rates == 0.0] == 0.0)
        assert len(sol.coefficients) <= n and sol.iterations <= n - 1


def _spread_rates(rng, n):
    """Rates log-uniform on [0.003, 0.3]: several blocks at n <= 10."""
    return 0.3 * np.exp(rng.uniform(np.log(0.01), 0.0, n))


def _tied_weighted(rng):
    """Rates and gains at n <= 10 with exact ties: a pair tied in both, a
    node tied with another in rate only and one in gain only."""
    n = int(rng.integers(4, 11))
    rates = _spread_rates(rng, n)
    gains = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
    a, b, d, e = rng.permutation(n)[:4]
    rates[b], gains[b] = rates[a], gains[a]
    rates[d] = rates[a]
    gains[e] = gains[a]
    return rates, gains


def _zero_rate_weighted(rng):
    n = int(rng.integers(2, 11))
    rates = _spread_rates(rng, n)
    rates[rng.random(n) < 0.3] = 0.0
    return rates, np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))


def _spread_weighted(rng):
    n = int(rng.integers(2, 11))
    return (_spread_rates(rng, n),
            np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n)))


@pytest.mark.parametrize("draw", [_tied_weighted, _zero_rate_weighted,
                                  _spread_weighted])
def test_weighted_levels_are_max_ratio_blocks(draw):
    # Every block is the largest set of the best ratio over all subsets of
    # the nodes left, and its nodes sit at c + lam/g_i.
    rng = np.random.default_rng(83)
    for _ in range(20):
        rates, gains = draw(rng)
        total = oracles.rank_of(float(rates.sum()))
        c = total / float(gains.sum())
        base, chain, ends = minmax._weighted_levels(rates, gains, total)
        base = np.array(base)
        blocks = [frozenset(chain[lo:hi])
                  for lo, hi in zip(ends[:-1], ends[1:])]
        expected = oracles.max_ratio_blocks(rates, gains)
        assert blocks[:len(expected)] == [block for block, _ in expected]
        for block, lam in expected:
            nodes = sorted(block)
            assert np.allclose(base[nodes], c + lam / gains[nodes],
                               rtol=0.0, atol=1e-12 * total)
        zero = np.flatnonzero(rates == 0.0)
        assert blocks[len(expected):] == [frozenset([i]) for i in zero]
        assert np.all(base[zero] == 0.0)


def _large_weighted():
    """The weighted half of the solve-large benchmark recipe (seeds 0-2),
    then n = 200 instances with zero rates, as ``(rates, gains)``."""
    for seed in range(3):
        for i in range(1, 300, 2):
            rng = np.random.default_rng([seed, i])
            rates = (4.0 / 50) * (1.0 - rng.random(50))
            yield rates, np.exp(rng.uniform(np.log(0.2), np.log(5.0), 50))
    for seed in range(30):
        rng = np.random.default_rng([200, seed])
        rates = (4.0 / 200) * (1.0 - rng.random(200))
        rates[rng.random(200) < 0.1] = 0.0
        yield rates, np.exp(rng.uniform(np.log(0.2), np.log(5.0), 200))


def test_weighted_levels_match_the_restart_form():
    # The warm-started blocks are those of Dinkelbach's iteration restarted
    # from the whole remaining set, on the weighted half of the solve-large
    # benchmark recipe (seeds 0-2) and on n = 200 instances with zero rates.
    for rates, gains in _large_weighted():
        total = sum_power(rates, UNIT)
        base, chain, ends = minmax._weighted_levels(rates, gains, total)
        ref_base, ref_chain, ref_ends = oracles.restart_weighted_levels(
            rates, gains, total)
        assert ends == ref_ends
        for lo, hi in zip(ends[:-1], ends[1:]):
            assert set(chain[lo:hi]) == set(ref_chain[lo:hi].tolist())
        assert np.max(np.abs(np.array(base) - ref_base)) <= 1e-15 * total


def _extreme_weighted(rng):
    """Rates at n = 2..6, some zero, and gains 10^U(-300, 300) or
    10^U(-30, 30): many of them overflow the levels."""
    n = int(rng.integers(2, 7))
    rates = rng.uniform(0.0, 1.0, n) * rng.choice([1e-3, 0.1, 1.0, 3.0])
    rates[rng.random(n) < 0.2] = 0.0
    span = rng.choice([30.0, 300.0])
    return rates, 10.0 ** rng.uniform(-span, span, n)


def test_weighted_levels_match_the_array_form():
    # The list form's levels, chain and blocks are the array form's bit for
    # bit, and it rejects exactly the inputs on which the array form
    # overflows, with the gains' range error.
    # The named inputs overflow the gain sum, 1/g_i of a zero-rate node, and
    # the sum of 1/g_i at a level that keeps every ratio finite.
    rng = np.random.default_rng(31)
    draws = (_tied_weighted, _zero_rate_weighted, _spread_weighted)
    instances = [*_large_weighted(),
                 *(draw(rng) for draw in draws for _ in range(100)),
                 *(_extreme_weighted(rng) for _ in range(1500)),
                 (np.array([1.0, 1.0]), np.array([1e308, 1e308])),
                 (np.array([1.0, 0.0]), np.array([1.0, 1e-310])),
                 (np.array([1e-3, 1e-3]), np.array([1e-308, 1e-308]))]
    rejected = 0
    for rates, gains in instances:
        total = sum_power(rates, UNIT)
        try:
            ref = oracles.array_weighted_levels(rates, gains, total)
        except FloatingPointError:
            with pytest.raises(ValueError, match="gains"):
                minmax._weighted_levels(rates, gains, total)
            rejected += 1
            continue
        base, chain, ends = minmax._weighted_levels(rates, gains, total)
        assert np.array_equal(np.array(base).view(np.int64),
                              ref[0].view(np.int64))
        assert chain == ref[1].tolist() and ends == ref[2]
    assert len(instances) == 2283 and 250 < rejected < 500


def _random_block(rng, side, mixed=None):
    """A random region of either side at n <= 7 and a point of it mixed
    from all n! vertices (or from ``mixed`` of them, a point on a face),
    mirrored to the contra-polymatroid form the walk takes: weights, noise,
    signed point, signed vertices and ranks."""
    n = int(rng.integers(2, 8))
    w = rng.uniform(0.05, 1.5, n) * (1.0 if side == "power" else 4.0)
    s = float(rng.choice([1.0, 1e-3, 5.0]))
    if side == "power":
        orders, vertices = oracles.all_received_vertices(w, s)
        ranks = oracles.subset_ranks(w, lambda a: oracles.rank_of(a, s))
        sign = 1.0
    else:
        orders, vertices = oracles.all_capacity_vertices(w, s)
        ranks = -oracles.subset_ranks(w, lambda a: oracles.capacity_of(a, s))
        sign = -1.0
    pick = rng.permutation(len(orders))[:mixed]
    x = sign * (rng.dirichlet(np.ones(pick.size)) @ vertices[pick])
    return w, s, x, orders, sign * vertices, ranks


BLOCKS = {"power": minmax._PowerBlock, "capacity": minmax._CapacityBlock}


@pytest.mark.parametrize("side", ["power", "capacity"])
def test_walk_step_meets_a_suffix_first(side):
    # Along the anti-aligned order, the first constraint the walk from the
    # chain vertex through x meets is a suffix, and the walk's one pass
    # over the prefixes finds it: its breakpoint is 1/(1+t) for the
    # all-subset minimum t.
    rng = np.random.default_rng(71)
    for _ in range(40):
        w, s, x, orders, vertices, ranks = _random_block(rng, side)
        n = w.size
        sort = np.argsort(-x / w, kind="stable")
        v = vertices[orders.index(tuple(sort.tolist()))]
        ratios = oracles.walk_ratios(x, v, ranks)
        best = min(ratios.values())
        suffixes = [sum(1 << int(i) for i in sort[k:]) for k in range(1, n)]
        assert min(ratios[m] for m in suffixes) == pytest.approx(best,
                                                                 rel=1e-9)
        mass = [0.0, *np.cumsum(x[sort])[:-1].tolist()]
        block = BLOCKS[side](w[sort].tolist())
        b, k = block.split(0, n, s, 1.0, mass)[:2]
        assert b == pytest.approx(1.0 / (1.0 + best), rel=1e-9)
        assert ratios[suffixes[k - 1]] == pytest.approx(best, rel=1e-9)


@pytest.mark.parametrize("side", ["power", "capacity"])
@pytest.mark.parametrize("mixed", [None, 2, 3])
def test_block_walk_rebuilds_random_point(side, mixed):
    # Points on a face have tight sets the walk meets at once, so pieces
    # open at their parent's breakpoint.
    rng = np.random.default_rng(73)
    for _ in range(40):
        w, s, x, orders, vertices, _ = _random_block(rng, side, mixed)
        n = w.size
        support, splits = minmax._decompose(list(range(n)), [0, n],
                                            x.tolist(), w.tolist(), [s],
                                            BLOCKS[side])
        weights = np.array([a for _, a in support])
        assert np.all(weights > 0.0) and len(support) <= n
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert splits <= n - 1
        rebuilt = sum(a * vertices[orders.index(o)] for o, a in support)
        assert np.max(np.abs(rebuilt - x)) <= 1e-12 * np.abs(x).sum()


def walked_by(walk, monkeypatch, fn, *args):
    """``fn(*args)`` with every block walked by ``walk``, and what each
    walk returned: its sorted nodes and its openings ``(b, start, size,
    k)``."""
    walks = []

    def recording(*block):
        walks.append(walk(*block))
        return walks[-1]

    with monkeypatch.context() as m:
        m.setattr(minmax, "_walk", recording)
        return fn(*args), walks


def assert_walks_match_reference(monkeypatch, fn, *args):
    """Openings of every block, and the rates or powers and coefficients of
    ``fn``, bit for bit equal under ``minmax._walk`` and
    ``oracles.walk_reference``; and the coefficients (and the split count)
    of ``fn`` bit for bit equal under ``minmax._decompose`` and
    ``oracles.sweep_reference``.  Returns what each walk returned."""
    out, walks = walked_by(minmax._walk, monkeypatch, fn, *args)
    ref, ref_walks = walked_by(oracles.walk_reference, monkeypatch, fn, *args)
    assert walks == ref_walks
    if isinstance(out, tuple):  # max_min_rates
        assert out[0].tobytes() == ref[0].tobytes() and out[1] == ref[1]
    else:
        assert out.received.tobytes() == ref.received.tobytes()
        assert out.coefficients == ref.coefficients
    with monkeypatch.context() as m:
        m.setattr(minmax, "_decompose", oracles.sweep_reference)
        swept = fn(*args)
    if isinstance(out, tuple):
        assert out[1] == swept[1]
    else:
        assert (out.coefficients, out.iterations) == (swept.coefficients,
                                                      swept.iterations)
    return walks


def test_walk_matches_the_reference_on_the_benchmark_recipes(monkeypatch):
    walks = [walk for rates, noise in benchmark_recipes(100)
             for walk in assert_walks_match_reference(monkeypatch, solve,
                                                      rates, noise)]
    assert len(walks) > 600
    # The sweep moves one node in place when an opening splits off the
    # first or the last slot of its piece, and rotates a slice otherwise.
    moves = {"first" if k == 1 else "last" if k == size - 1 else "slice"
             for _, opened in walks for _, _, size, k in opened}
    assert moves == {"first", "last", "slice"}


def test_walk_matches_the_reference_at_n_200(monkeypatch):
    # Thirty draws of each random family of
    # test_time_sharing_invariants_large_n; the equal-rate family has no
    # draw, so it runs once.
    n = 200
    rng = np.random.default_rng([13, n])
    sigma_sq = NoiseModel.from_db(-30.0).sigma_sq
    plain = NoiseModel(sigma_sq)
    assert_walks_match_reference(monkeypatch, solve, np.full(n, 2.0 / n),
                                 plain)
    for _ in range(30):
        weighted = (4.0 / n) * (1.0 - rng.random(n))
        weighted[rng.random(n) < 0.1] = 0.0
        gains = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
        for rates, noise in (
                ((4.0 / n) * (1.0 - rng.random(n)), plain),
                ((16.0 / n) * (1.0 - rng.random(n)), plain),
                (weighted, NoiseModel(sigma_sq, gains=gains))):
            assert assert_walks_match_reference(monkeypatch, solve, rates,
                                                noise)


def test_dual_walk_matches_the_reference(monkeypatch):
    # The instances of acceptance criterion 10 and of
    # test_max_min_rates_lex_optimal_and_rebuilt.
    assert_walks_match_reference(monkeypatch, max_min_rates, [1.0, 1.0],
                                 UNIT)
    rng = np.random.default_rng(110)
    for _ in range(50):
        powers = rng.uniform(0.1, 8.0, int(rng.integers(2, 4)))
        assert_walks_match_reference(monkeypatch, max_min_rates, powers, UNIT)
    rng = np.random.default_rng(67)
    for _ in range(20):
        powers = rng.uniform(0.0, 8.0, int(rng.integers(2, 9)))
        noise = NoiseModel(float(rng.choice([1.0, 1e-3])))
        assert_walks_match_reference(monkeypatch, max_min_rates, powers,
                                     noise)
    # At n = 200 each input's largest block holds 197 nodes or more, so its
    # pieces span every size up to that block.
    rng = np.random.default_rng(200)
    for s in (1.0, 1e-3):
        for _ in range(3):
            walks = assert_walks_match_reference(
                monkeypatch, max_min_rates, rng.uniform(0.0, 8.0, 200),
                NoiseModel(s))
            assert max(len(nodes) for nodes, _ in walks) >= 197


REFERENCE_BLOCKS = {"power": oracles._PiecePowerBlock,
                    "capacity": oracles._PieceCapacityBlock}


def _root_ratios(side, w, x, s):
    """The ratios of the first piece of a walk over ``(w, x, s)``, by the
    reference's array operations, before the cap."""
    sort = np.argsort(-x / w, kind="stable")
    ranks, excess = REFERENCE_BLOCKS[side](w[sort]).split(0, w.size, s)
    mass = np.concatenate(([0.0], np.cumsum(x[sort])))
    with np.errstate(divide="ignore", invalid="ignore"):
        return (mass[1:-1] - ranks[1:-1]) / excess


def _ratio_cases(ratio):
    cases = {name for name, value in (("+inf", np.inf), ("-inf", -np.inf))
             if (ratio == value).any()}
    nan = np.isnan(ratio)
    if nan.any():
        cases.add("nan")
        if np.isfinite(ratio[:int(nan.argmax())]).any():
            cases.add("nan after a finite one")
    finite = ratio[np.isfinite(ratio)]
    if finite.size and finite.max() > 1.0:
        cases.add("capped")
    if not nan.any() and finite.size and 0.0 < finite.max() <= 1.0:
        cases.add("open")
    return cases


@pytest.mark.parametrize("side", ["power", "capacity"])
def test_list_and_array_pieces_match_the_reference(side):
    # Blocks priced in lists alone, and blocks on both sides of the power
    # walk's _LIST_PIECE-node threshold, so that power pieces are priced in
    # Python floats, on arrays, or on arrays and then in lists; capacity
    # pieces are priced on arrays at every size.
    # Zero excesses give +inf, -inf and NaN ratios, which the lists must
    # pick as NumPy's argmax does: the first NaN, also after a finite ratio.
    # Ties must go to the first maximum and ratios past 1 to the cap.
    # Tiny weights make every excess 0: power rates of 1e-17 at 1e-300 W,
    # whose ranks underflow, or received powers of 1e-300 at 1 W.  Heavy
    # nodes followed by ones too light to move the prefix values make the
    # excesses 0 after the heavy ones; their masses set the gain of those
    # splits to 0, above 0 or below.  Bases mixed from chain vertices, with
    # tied rates, open inside the piece's time, and scaled ones past it.
    t = minmax._LIST_PIECE
    rng = np.random.default_rng(79)
    sign = 1.0 if side == "power" else -1.0
    vertex = (oracles.naive_vertex if side == "power"
              else oracles.naive_capacity_vertex)
    for m in sorted({2, 3, 5, 31, 32, 33, 40, t - 1, t, t + 1, t + 8}):
        blocks = []
        w, s = ((np.full(m, 1e-17), 1e-300) if side == "power"
                else (np.full(m, 1e-300), 1.0))
        v = sign * vertex(w, s, range(m))
        blocks += [(w, np.full(m, v[0]), s), (w, v, s), (w, v[::-1].copy(), s)]
        for heavy in range(1, min(m, 3)):
            w = np.r_[np.ones(heavy), np.full(m - heavy, 1e-20)]
            each = float(REFERENCE_BLOCKS[side](w).split(0, m, 1.0)[0][heavy])
            each /= heavy
            for f in (1.0, 0.9, 1.1):
                x = np.r_[np.full(heavy, each * f), w[heavy:] * (each - 1.0)]
                blocks.append((w, x, 1.0))
        for _ in range(6):
            w = rng.uniform(0.05, 1.5, m) * (1.0 if side == "power" else 4.0)
            w[rng.integers(m)] = w[0]
            s = float(rng.choice([1.0, 1e-3, 5.0]))
            vertices = np.stack([sign * vertex(w, s, rng.permutation(m))
                                 for _ in range(4)])
            x = rng.dirichlet(np.ones(4)) @ vertices
            blocks += [(w, x, s), (w, 1.5 * x, s), (w, 0.5 * x, s)]
        seen = set()
        for w, x, s in blocks:
            seen |= _ratio_cases(_root_ratios(side, w, x, s))
            args = (list(range(m)), w.tolist(), x.tolist(), s,
                    BLOCKS[side], 0)
            assert minmax._walk(*args) == oracles.walk_reference(*args)
        expected = {"nan", "+inf", "-inf", "capped", "open"}
        if m > 2:
            expected.add("nan after a finite one")
        assert seen == expected, (m, seen)


def test_power_piece_derives_the_same_masses_at_a_zero_excess():
    # A list piece derives its masses from its parent's in the pass that
    # prices it, and must price them as it prices ready masses, also where
    # it divides a zero excess, in the one loop.  The two trailing nodes are
    # too light to move the prefix values, so the last two excesses are 0.
    block = minmax._PowerBlock([1.0, 0.5, 0.8, 1e-20, 1e-20])
    em = block.em_list
    rng = np.random.default_rng(83)
    for _ in range(20):
        src = rng.uniform(0.0, 3.0, 5).tolist()
        cp, chain, top = rng.uniform(0.1, 1.0, 3).tolist()
        for lo, slo in ((0, 0), (1, 0), (1, 1), (2, 0)):
            ready = [0.0] + [(src[j - slo] - chain * (cp * (em[j] - em[slo])))
                             - top for j in range(lo + 1, 5)]
            for scale in (0.5, 1.0):
                got = block.split(lo, 5, 1.3, scale, (src, slo, cp, chain, top))
                assert repr(got) == repr(block.split(lo, 5, 1.3, scale, ready))


def test_small_power_blocks_price_in_python_floats_alone(monkeypatch):
    # A block of at most _LIST_PIECE nodes never prices a piece on arrays,
    # also where it divides a zero excess: five rates of 1e-170 at 1 W
    # underflow every excess, and two trailing rates of 1e-20 leave the
    # last two excesses 0.
    def on_arrays(*args):
        raise AssertionError("a small block priced a piece on arrays")

    monkeypatch.setattr(minmax._PowerBlock, "_split_array", on_arrays)
    cases = [([1e-170] * 5, UNIT), ([1.0, 0.5, 0.8, 1e-20, 1e-20], UNIT),
             *benchmark_recipes(10)]
    for rates, noise in cases:
        sol = solve(rates, noise)
        assert sum(weight for _, weight in sol.coefficients) \
            == pytest.approx(1.0, rel=1e-12)


def test_unit_levels_match_the_decimal_reference():
    # The received powers against a 60-digit reference hull, in ulps of the
    # sum power.  Rates on (0, 4/n] keep the sum rate at most 4 bits: the
    # prefix ranks' relative error grows as 2 ln2 times the sum rate, from
    # the rounding of the prefix rate sums.
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = int(rng.integers(2, 33))
        rates = (4.0 / n) * (1.0 - rng.random(n))
        if trial % 4 == 0:
            rates[rng.integers(n, size=n // 2)] = rates[0]
        noise = NoiseModel(1.0 if trial % 3 else 1e-3)
        received = solve(rates, noise).received.tolist()
        ref = oracles.decimal_fair_levels(rates, noise.sigma_sq)
        ulp = math.ulp(sum_power(rates, noise))
        for got, want in zip(received, ref):
            assert abs(decimal.Decimal(got) - want) <= 8 * ulp, (trial, n)


def test_unit_level_error_grows_with_the_sum_rate():
    # Rates on (0, 1] reach sum rates near 25 bits.  _fair_base rounds the
    # prefix rate sums before np.expm1, so the error in ulps of the sum power
    # grows with the sum rate R.  Over 60,000 such solves (300 seeds) every
    # error was within 4.8 + 3 R ulp, at most 44 ulp; the bound doubles that.
    rng = np.random.default_rng(102)
    for trial in range(200):
        n = int(rng.integers(2, 33))
        rates = 1.0 - rng.random(n)
        if trial % 4 == 0:
            rates[rng.integers(n, size=n // 2)] = rates[0]
        noise = NoiseModel(1.0 if trial % 3 else 1e-3)
        received = solve(rates, noise).received.tolist()
        ref = oracles.decimal_fair_levels(rates, noise.sigma_sq)
        bound = (10 + 6 * float(rates.sum())) * math.ulp(sum_power(rates, noise))
        for got, want in zip(received, ref):
            assert abs(decimal.Decimal(got) - want) <= bound, (trial, n)


def test_time_sharing_rebuild_error_grows_with_n_and_the_sum_rate():
    # The rebuild sum_k w_k v_k of the returned time sharing against the
    # returned received powers, in ulps of the sum power, on the solve
    # recipes at -30 dB: rates on (0, 4/n] at n = 2..200, and on (0, 1] at
    # n <= 50.  Each vertex v_k carries the rounding of its prefix rate
    # sums, which grows with the sum rate R, and the sum over up to n
    # vertices adds its own.  Over 4,640 such solves (10 seeds) every error
    # was within 0.44 (8 + n (1 + R)) ulp, at most 339 ulp (n = 50, R = 34);
    # the bound is 8 + n (1 + R).
    noise = NoiseModel.from_db(-30.0)
    rng = np.random.default_rng(103)
    for n in (2, 3, 4, 5, 7, 10, 16, 25, 32, 50, 64, 100, 200):
        for scale in (4.0 / n, 1.0) if n <= 50 else (4.0 / n,):
            for trial in range(16 if n <= 50 else 6):
                rates = scale * (1.0 - rng.random(n))
                if trial % 4 == 0:
                    rates[rng.integers(n, size=n // 2)] = rates[0]
                sol = solve(rates, noise)
                ulp = math.ulp(sum_power(rates, noise))
                error = float(np.max(np.abs(reconstruct(sol, rates, noise)
                                            - sol.received))) / ulp
                bound = 8 + n * (1 + float(rates.sum()))
                assert error <= bound, (n, float(rates.sum()), error)


def _rate_level_errors(seed, trials=200):
    """Error of every ``max_min_rates`` rate against the 60-digit reference
    minorant, in ulps of the sum rate, at n = 2..32, 1 and 1e-3 W, with
    received powers up to 8/n of the noise power or log-uniform over six
    decades around it."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n = int(rng.integers(2, 33))
        noise = NoiseModel(1.0 if trial % 3 else 1e-3)
        snr = ((8.0 / n) * (1.0 - rng.random(n)) if trial % 2 else
               np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n)))
        if trial % 4 == 0:
            snr[rng.integers(n, size=n // 2)] = snr[0]
        powers = noise.sigma_sq * snr
        rates = max_min_rates(powers, noise)[0].tolist()
        ref = oracles.decimal_rate_levels(powers, noise.sigma_sq)
        ulp = math.ulp(oracles.capacity_of(float(powers.sum()),
                                           noise.sigma_sq))
        yield from (float(abs(decimal.Decimal(got) - want)) / ulp
                    for got, want in zip(rates, ref))


def test_max_min_rates_match_the_decimal_reference():
    # Measured worst case over seeds 0-9 and 107 of this sample: 1.98 ulp
    # of the sum rate; the bound is about twice that.
    assert max(_rate_level_errors(107)) <= 4.0


def test_power_block_memory_is_linear_in_the_block():
    # A block of m nodes keeps its m + 1 prefix values and nothing larger.
    for m in (1, 2, 50, 2000):
        block = minmax._PowerBlock(np.full(m, 0.002))
        for name, value in vars(block).items():
            assert isinstance(value, (np.ndarray, list)), name
            assert np.size(value) <= m + 1, name


@pytest.mark.parametrize("bad", [[np.inf, 1.0], [np.nan, 1.0], [-np.inf, 1.0]])
def test_non_finite_input_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        solve(bad, UNIT)
    with pytest.raises(ValueError, match="finite"):
        max_min_rates(bad, UNIT)


def test_overflowing_sum_rate_rejected():
    with pytest.raises(ValueError, match="overflows"):
        solve([300.0, 300.0], UNIT)
    with pytest.raises(ValueError, match="overflows"):
        solve([1.0, 1.0], NoiseModel(1e300))
    # At tiny noise powers the rank in units of the noise power, 4^R - 1,
    # overflows first, past R = 512 bits.
    tiny = NoiseModel(1e-200)
    with pytest.raises(ValueError, match="overflows"):
        solve([600.0], tiny)
    with pytest.raises(ValueError, match="overflows"):
        solve(np.full(13, 600.0 / 13), tiny)
    with pytest.raises(ValueError, match="overflows"):
        solve([600.0, 1.0], NoiseModel(1e-200, gains=[1.0, 2.0]))
    # Below the sum-rate limit, a gain-weighted distance can still overflow.
    with pytest.raises(ValueError, match="overflows"):
        solve([255.9, 0.01], NoiseModel(1.0, gains=[10.0, 0.1]))
    with pytest.raises(ValueError, match="overflows"):
        max_min_rates([1e200, 1.0], tiny)
    with pytest.raises(ValueError, match="overflows"):
        max_min_rates([1e308, 1e308], UNIT)
    sol = solve([128.0, 127.9], UNIT)
    assert np.all(np.isfinite(sol.received))
    assert np.isfinite(sol.distance) and np.isfinite(sol.gap)


def test_overflowing_weighted_levels_rejected():
    # Gains 600 decades apart: the levels c + lam / g_i overflow, for one
    # solve and for the rows the lifetime engine prices.  A gain sum so
    # small that the equal level c overflows is rejected the same way.
    for rates, noise in (
            ([1.0, 1.0], NoiseModel(1.0, gains=[1e-300, 1e300])),
            ([249.0, 249.0], NoiseModel(1e-200, gains=[1e-10, 1e-10]))):
        with pytest.raises(ValueError, match="gains"):
            solve(rates, noise)
        with pytest.raises(ValueError, match="gains"):
            minmax._fair_transmit(np.tile(rates, (3, 1)), noise)


@pytest.mark.parametrize("span", [3.0, 300.0])
def test_accepted_weighted_solves_lie_on_the_dominant_face(span):
    # Gains 10^U(-span, span) at n = 1..8, 15% of the rates zero.  At tiny,
    # far-apart gains the levels c + lam/g_i can cancel to a point off the
    # face, with nodes of positive rate at zero power; solve must reject
    # such a base by the certificate's face test, and it rejects none at
    # gains 10^U(-3, 3).
    rng = np.random.default_rng(32)
    accepted = 0
    for _ in range(1500):
        n = int(rng.integers(1, 9))
        rates = rng.random(n)
        rates[rng.random(n) < 0.15] = 0.0
        gains = 10.0 ** rng.uniform(-span, span, n)
        try:
            sol = solve(rates, NoiseModel(1.0, gains=gains))
        except ValueError as exc:
            assert span > 3.0 and "gains" in str(exc)
            continue
        accepted += 1
        full, tol = _power_slack(sum(sol.received.tolist()),
                                 sum(rates.tolist()), 1.0)
        assert abs(full) <= tol
        assert np.all(sol.transmit[rates > 0.0] > 0.0)
    assert accepted > 300


def test_fairness_oracles_agree_on_random_instances():
    """Solver output passes both fairness oracles; perturbed mixes fail both."""
    rng = np.random.default_rng(53)
    orders_cache = {}
    for _ in range(25):
        n = int(rng.integers(2, 6))
        rates = rng.uniform(0.05, 2.0, n)
        noise = NoiseModel(float(rng.choice([1.0, 1e-3])))
        sol = solve(rates, noise)
        assert is_lex_optimal_base(sol.transmit, rates, noise)
        assert oracles.is_minmax(sol.transmit, rates, noise)
        orders = orders_cache.setdefault(
            n, list(itertools.permutations(range(n))))
        beta = rng.dirichlet(np.ones(len(orders)))
        mix_received = sum(
            b * chain_received(rates, noise.sigma_sq, o)
            for b, o in zip(beta, orders))
        scale = sum_power(rates, noise)
        if np.max(np.abs(mix_received - sol.received)) > 1e-3 * scale:
            mix_transmit = mix_received / noise.gains_for(n)
            assert not is_lex_optimal_base(mix_transmit, rates, noise)
            assert not oracles.is_minmax(mix_transmit, rates, noise)


def test_weighted_reduces_to_unweighted_bitwise():
    rng = np.random.default_rng(59)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        rates = rng.uniform(0.0, 2.0, n)
        plain = solve(rates, NoiseModel(1.0))
        unit = solve(rates, NoiseModel(1.0, gains=np.ones(n)))
        assert np.array_equal(plain.received, unit.received)
        assert plain.coefficients == unit.coefficients


def test_weighted_worked_example():
    noise = NoiseModel(1.0, gains=[4.0, 1.0])
    sol = solve([1, 1], noise)
    assert np.allclose(sol.received, [4.8, 10.2], atol=1e-9)
    assert np.allclose(sol.transmit, [1.2, 10.2], atol=1e-9)
    # cross-check with the 1-D grid oracle on the received segment
    point, best = oracles.grid_minmax_n2([1, 1], 1.0, weights=(4.0, 1.0))
    assert np.allclose(sol.received, point, atol=1e-4)
    assert sol.distance == pytest.approx(best, rel=1e-6)


def test_max_min_rates_symmetric():
    rates, coefficients = max_min_rates([1, 1], UNIT)
    expected = float(np.log2(3.0) / 4.0)
    assert np.allclose(rates, [expected, expected], atol=1e-8)
    weights = sorted(w for _, w in coefficients)
    assert np.allclose(weights, [0.5, 0.5], atol=1e-8)
    # Received powers whose product overflows a double, though their sum
    # and its ratio to the noise power do not.
    for power, sigma_sq in ((1e160, 1.0), (1e200, 1e100)):
        rates, coefficients = max_min_rates([power, power],
                                            NoiseModel(sigma_sq))
        expected = float(np.log2(1.0 + 2.0 * power / sigma_sq) / 4.0)
        assert np.allclose(rates, [expected, expected], rtol=1e-12)
        weights = sorted(w for _, w in coefficients)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-12)


def test_max_min_rates_zero_power():
    rates, coefficients = max_min_rates([0, 0], UNIT)
    assert np.all(rates == 0.0)
    assert coefficients == (((0, 1), 1.0),)


def test_max_min_rates_against_grid():
    rates, _ = max_min_rates([3, 12], UNIT)
    point, _ = oracles.grid_maxmin_rates_n2([3, 12], 1.0)
    assert np.allclose(rates, point, atol=1e-4)
    # node 0 is capped at its single-user capacity here
    assert rates[0] == pytest.approx(1.0, abs=1e-8)
    assert is_lex_optimal_rate_base(rates, [3, 12], UNIT)


def test_max_min_rates_sum_is_capacity():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        powers = rng.uniform(0.1, 8.0, n)
        rates, coefficients = max_min_rates(powers, UNIT)
        assert rates.sum() == pytest.approx(
            oracles.capacity_of(powers.sum(), 1.0), rel=1e-10)
        total = sum(w for _, w in coefficients)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_max_min_rates_lex_optimal_and_rebuilt():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        powers = rng.uniform(0.0, 8.0, n)
        noise = NoiseModel(float(rng.choice([1.0, 1e-3])))
        rates, coefficients = max_min_rates(powers, noise)
        assert is_lex_optimal_rate_base(rates, powers, noise)
        assert len(coefficients) <= n
        rebuilt = sum(w * oracles.naive_capacity_vertex(powers, noise.sigma_sq,
                                                        o)
                      for o, w in coefficients)
        assert np.max(np.abs(rebuilt - rates)) <= 1e-12 * rates.sum()


def test_mirrored_fairness_certificate_rejects_skewed_rate_base():
    # (0.5, log2(3)/2 - 0.5) is a vertex, not the fair base, at P=(1,1)
    skew = [0.5, float(np.log2(3.0) / 2.0 - 0.5)]
    assert not is_lex_optimal_rate_base(skew, [1, 1], UNIT)


def test_input_selects_method():
    # The input picks where the levels come from: unit gains the exact hull,
    # any other gains the max-ratio blocks.  Both work at any n.
    small = solve(np.full(3, 0.4), UNIT)
    assert small.iterations >= 0
    big_rates = np.random.default_rng(0).uniform(0.05, 0.5, 9)
    big = solve(big_rates, NoiseModel(1e-3))
    assert is_lex_optimal_base(big.transmit, big_rates, NoiseModel(1e-3))
    weighted = NoiseModel(1e-3, gains=np.linspace(0.5, 2.0, 9))
    sol = solve(big_rates, weighted)
    # A weighted base is not lexicographically optimal at its received
    # powers, but it is a base: the certificate raises off the face.
    is_lex_optimal_base(sol.transmit, big_rates, weighted)


def test_batched_levels_equal_the_per_row_base_bitwise():
    # The lifetime engine prices min-max energies for many rows at once
    # with the max-min formula of the majorant's slopes; every level must
    # be the hull's own quotient, including rows with exactly tied rates
    # and rows of a few repeated quarter-bit values.  Gain-weighted rows
    # take their sum powers from the same batched prefix ranks, and must
    # equal the per-row base too; they are priced row by row, so 200 of
    # the rows, with the zero ones, stand for them.
    rng = np.random.default_rng(11)
    rows = 0
    for n in [*range(1, 9), 20]:
        r = (1.0 - rng.random((3000, n))) * rng.choice([1e-3, 0.2, 1.0, 3.0],
                                                       size=(3000, 1))
        ties = rng.random(3000) < 0.3
        r[ties, -1] = r[ties, 0]
        coarse = rng.random(3000) < 0.2
        r[coarse] = 0.25 * rng.integers(1, 4, size=(int(coarse.sum()), n))
        # All-zero rows, and rows with one zero rate in each position.
        one_zero = r[:10 * n].copy()
        one_zero[np.arange(10 * n), np.arange(10 * n) % n] = 0.0
        r = np.concatenate([r, np.zeros((10, n)), one_zero])
        gains = np.exp(np.random.default_rng([11, n]).uniform(
            np.log(0.2), np.log(5.0), n))
        weighted = np.concatenate([r[:200], r[3000:]])
        for noise, x, size in (
                (UNIT, r, 3000), (NoiseModel(1e-3), r, 3000),
                (NoiseModel(1e-3, gains=np.ones(n)), r, 3000),
                (NoiseModel(1e-3, gains=gains), weighted, 200)):
            batched = minmax._fair_transmit(x, noise)
            hull = noise.sigma_sq * np.array(
                [minmax._fair_base(row, noise)[0] for row in x]
            ) / noise.gains_for(n)
            assert np.array_equal(batched, hull)
            assert np.array_equal(np.signbit(batched), np.signbit(hull))
            rows += x.shape[0]
            # A 3-D stack of rows and single rate vectors price alike.
            stack = minmax._fair_transmit(
                x[:size].reshape(size // 100, 100, n), noise)
            assert np.array_equal(stack.reshape(size, n), hull[:size])
            assert np.array_equal(np.signbit(stack.reshape(size, n)),
                                  np.signbit(hull[:size]))
            for i in range(0, x.shape[0], 97):
                single = minmax._fair_transmit(x[i], noise)
                assert single.shape == (n,)
                assert np.array_equal(single, hull[i])
                assert np.array_equal(np.signbit(single), np.signbit(hull[i]))
    assert rows >= 20_000
