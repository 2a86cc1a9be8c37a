"""Min-max solver: worked instances, certificates, invariants, dual."""

import itertools

import numpy as np
import pytest

import oracles
from macfair import (
    CaseLabel,
    NoiseModel,
    SolverFailureError,
    capacity_chain,
    chain_received,
    classify_case,
    equal_allocation,
    greedy_linear_min,
    is_base,
    is_lex_optimal_base,
    is_lex_optimal_rate_base,
    is_minmax,
    max_min_rates,
    solve,
    sum_power,
)
from macfair import minmax

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


def test_classify_case_examples():
    assert classify_case([0.5, 0.29248], UNIT) is CaseLabel.VERTEX_COINCIDENT
    assert classify_case([0.5, R2_COINCIDENT], UNIT) is CaseLabel.VERTEX_COINCIDENT
    assert classify_case([0.5, 1.5], UNIT) is CaseLabel.INTERIOR_FEASIBLE
    assert classify_case([0.1, 1.9], UNIT) is CaseLabel.INFEASIBLE
    assert classify_case([0.0, 0.0], UNIT) is CaseLabel.VERTEX_COINCIDENT


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
        assert is_base(sol.transmit, rates, noise)
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
            sol = solve(rates, NoiseModel(sigma_sq, gains=gains), check=False)
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
        assert is_base(sol.transmit, rates, noise)
        assert is_lex_optimal_base(sol.transmit, rates, noise)


def test_solver_failure_carries_gap(monkeypatch):
    monkeypatch.setattr(minmax, "MAX_CYCLES", 2)
    with pytest.raises(SolverFailureError) as err:
        solve([1.0, 1.0, 1.0, 1.0], UNIT)
    assert err.value.gap >= 0.0


def test_solve_near_vertex_returns_equal_point():
    # The equal point is 1e-5 away from a vertex: the case label may call it
    # coincident, but the base and the weights must stay the equal point.
    rates = [0.5, R2_COINCIDENT * (1 + 1e-5)]
    level = sum_power(rates, UNIT) / 2.0
    for check in (True, False):
        sol = solve(rates, UNIT, check=check)
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
    assert sol.received.sum() == pytest.approx(total, rel=1e-12)
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
        assert sol.received.sum() == pytest.approx(total, rel=1e-12)
        assert greedy_gap(sol, rates, noise) <= 1e-12 * total * total
        assert np.all(sol.transmit[rates == 0.0] == 0.0)


def test_weighted_large_instance_with_zero_rates():
    # An n = 200 instance with 21 zero rates on which Wolfe's method over the
    # whole ground set did not converge in 10,000 major cycles.
    rng = np.random.default_rng(7)
    for n in (8, 20, 50, 200):
        for _ in range(30 if n < 200 else 3):
            rates = rng.uniform(0.0, 4.0 / n, n)
            rates[rng.random(n) < 0.1] = 0.0
            gains = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
    assert np.count_nonzero(rates == 0.0) == 21
    noise = NoiseModel(NoiseModel.from_db(-30.0).sigma_sq, gains=gains)
    sol = solve(rates, noise)
    total = sum_power(rates, noise)
    assert np.max(np.abs(reconstruct(sol, rates, noise) - sol.received)) \
        <= 1e-12 * total
    assert greedy_gap(sol, rates, noise) <= 1e-12 * total * total
    assert np.all(sol.transmit[rates == 0.0] == 0.0)


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
    sol = solve([128.0, 127.9], UNIT)
    assert np.all(np.isfinite(sol.received))
    assert np.isfinite(sol.distance) and np.isfinite(sol.gap)


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
        assert is_minmax(sol.transmit, rates, noise)
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
            assert not is_minmax(mix_transmit, rates, noise)


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
        from macfair import capacity_rank
        assert rates.sum() == pytest.approx(
            capacity_rank(powers, UNIT, range(n)), rel=1e-10)
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
        rebuilt = sum(w * capacity_chain(powers, noise, o)
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
    assert is_base(big.transmit, big_rates, NoiseModel(1e-3))
    weighted = NoiseModel(1e-3, gains=np.linspace(0.5, 2.0, 9))
    sol = solve(big_rates, weighted)
    assert is_base(sol.transmit, big_rates, weighted)


def test_batched_unit_levels_equal_the_hull_bitwise():
    # The lifetime engine prices min-max energies for many rows at once
    # with the max-min formula of the majorant's slopes; every level must
    # be the hull's own quotient, including rows with exactly tied rates
    # and rows of a few repeated quarter-bit values.
    rng = np.random.default_rng(11)
    rows = 0
    for n in [*range(1, 9), 20]:
        r = (1.0 - rng.random((3000, n))) * rng.choice([1e-3, 0.2, 1.0, 3.0],
                                                       size=(3000, 1))
        ties = rng.random(3000) < 0.3
        r[ties, -1] = r[ties, 0]
        coarse = rng.random(3000) < 0.2
        r[coarse] = 0.25 * rng.integers(1, 4, size=(int(coarse.sum()), n))
        for noise in (UNIT, NoiseModel(1e-3)):
            batched = minmax._fair_transmit(r, noise)
            hull = np.stack([noise.sigma_sq * minmax._fair_base(row, noise)[0]
                             for row in r])
            assert np.array_equal(batched, hull)
            rows += r.shape[0]
    assert rows >= 20_000
