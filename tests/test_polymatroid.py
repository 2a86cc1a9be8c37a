"""Core region machinery: ranks, membership, vertices, greedy, fairness oracles."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from macfair import (
    Epoch,
    InvalidSubsetError,
    NoiseModel,
    NotABaseError,
    chain_received,
    equal_allocation,
    greedy_linear_min,
    is_lex_optimal_base,
    is_lex_optimal_rate_base,
    max_min_rates,
    power_rank,
    solve,
    sum_power,
    vertex,
)
from macfair.polymatroid import LEVEL_ATOL, LEVEL_RTOL

UNIT = NoiseModel(1.0)
RHO2_19 = 2.0 ** 3.8 - 1.0  # singleton rank at rate 1.9


def test_power_rank_examples():
    assert power_rank([1, 1], UNIT, [0]) == pytest.approx(3.0, rel=1e-12)
    assert power_rank([1, 1], UNIT, [0, 1]) == pytest.approx(15.0, rel=1e-12)
    assert power_rank([1, 1], UNIT, []) == 0.0
    with pytest.raises(InvalidSubsetError):
        power_rank([1, 1], UNIT, [2])
    # Node indices go through operator.index: numpy integers pass, and 0.5
    # is not truncated to node 0.
    assert power_rank([1, 1], UNIT, np.array([1])) == pytest.approx(
        3.0, rel=1e-12)
    with pytest.raises(TypeError):
        power_rank([1, 1], UNIT, [0.5])


def test_capacity_rank_examples():
    # The fair rates of a capacity region sum to its full-set rank.
    assert max_min_rates([1.0], UNIT)[0] == pytest.approx([0.5], rel=1e-12)
    assert max_min_rates([1, 1], UNIT)[0].sum() == pytest.approx(
        0.5 * np.log2(3.0), rel=1e-12)
    assert max_min_rates([0, 0], UNIT)[0].sum() == 0.0


def test_capacity_rank_uses_gains():
    # Transmit (0.25, 1) is received (1, 1) with gains (4, 1).
    noise = NoiseModel(1.0, gains=[4.0, 1.0])
    assert max_min_rates([0.25, 1.0], noise)[0] == pytest.approx(
        [0.25 * np.log2(3.0)] * 2, rel=1e-12)
    assert max_min_rates([0.25], NoiseModel(1.0, gains=[4.0]))[0] == (
        pytest.approx([0.5], rel=1e-12))


def test_modularity_check():
    assert oracles.check_rank_modularity(
        lambda A: power_rank([1, 1, 0.5], UNIT, A), 3, "super")
    powers = np.array([1.0, 2.0, 3.0])
    assert oracles.check_rank_modularity(
        lambda A: oracles.capacity_of(powers[sorted(A)].sum(), 1.0), 3, "sub")
    # 3 + 3 < 15: the power rank fails the submodular direction
    assert not oracles.check_rank_modularity(
        lambda A: power_rank([1, 1], UNIT, A), 2, "sub")


def test_modularity_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        rates = rng.uniform(0.0, 2.0, n)
        powers = rng.uniform(0.0, 8.0, n)
        noise = NoiseModel(float(rng.choice([1.0, 1e-3])))
        assert oracles.check_rank_modularity(
            lambda A: power_rank(rates, noise, A), n, "super")
        assert oracles.check_rank_modularity(
            lambda A: oracles.capacity_of(powers[sorted(A)].sum(),
                                          noise.sigma_sq), n, "sub")


def test_modularity_limit():
    with pytest.raises(oracles.EnumerationLimitError):
        oracles.check_rank_modularity(lambda A: 0.0, 13, "super")


def test_is_base_examples():
    # The certificate answers on a base and raises NotABaseError off it.
    assert not is_lex_optimal_base([3, 12], [1, 1], UNIT)
    assert is_lex_optimal_base([7.5, 7.5], [1, 1], UNIT)
    assert is_lex_optimal_base([0.0, 0.0], [0.0, 0.0], UNIT)
    # transmit (1.875, 7.5) is received (7.5, 7.5) with gains (4, 1)
    assert is_lex_optimal_base([1.875, 7.5], [0.5, 1.5],
                               NoiseModel(1.0, gains=[4.0, 1.0]))
    for powers, rates in (([4, 12], [1, 1]),
                          # on the full-set face, but below node 1's own
                          # rank 2^3.8 - 1
                          ([7.5, 7.5], [0.1, 1.9]),
                          ([1.875, 7.5], [0.5, 1.5])):
        with pytest.raises(NotABaseError):
            is_lex_optimal_base(powers, rates, UNIT)


def test_vertex_examples():
    assert np.allclose(vertex([1, 1], UNIT, (0, 1)), [3.0, 12.0])
    assert np.allclose(vertex([0.5, 1.5], UNIT, (1, 0)), [8.0, 7.0])
    assert np.allclose(vertex([0, 0], UNIT, (1, 0)), [0.0, 0.0])


def test_vertex_divides_by_gains():
    noise = NoiseModel(1.0, gains=[4.0, 1.0])
    assert np.allclose(vertex([1, 1], noise, (0, 1)), [0.75, 12.0])


def test_vertex_rejects_bad_permutation():
    with pytest.raises(ValueError):
        vertex([1, 1], UNIT, (0, 0))
    # Decoding orders go through operator.index: 0.5 and 1.2 are not
    # truncated to the order (0, 1), nor 1.9 and 0.2 to (1, 0).
    with pytest.raises(TypeError):
        chain_received([1, 1], 1.0, [0.5, 1.2])
    with pytest.raises(TypeError):
        vertex([1, 1], UNIT, [1.9, 0.2])
    with pytest.raises(TypeError):
        Epoch(1.0, [1.0, 1.0], [0.5, 0.5], (0.5, 1.2))
    assert np.allclose(vertex([1, 1], UNIT, np.array([1, 0])), [12.0, 3.0])
    # The bare noise power is checked as NoiseModel checks it.
    for sigma_sq in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError,
                           match="noise power must be positive and finite"):
            chain_received([1, 2], sigma_sq, [0, 1])


def test_vertex_matches_naive_oracle_and_is_tight_base():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        rates = rng.uniform(0.0, 2.0, n)
        sigma = float(rng.choice([1.0, 1e-3]))
        noise = NoiseModel(sigma)
        order = tuple(rng.permutation(n))
        p = vertex(rates, noise, order)
        expected = oracles.naive_vertex(rates, sigma, order)
        assert np.allclose(p, expected, rtol=1e-9, atol=1e-12)
        is_lex_optimal_base(p, rates, noise)  # raises NotABaseError off it
        # every nested chain set is tight
        cum = 0.0
        for i in range(n):
            cum += p[order[i]]
            rank = power_rank(rates, noise, order[:i + 1])
            assert abs(cum - rank) <= 1e-9 * (1.0 + rank)


def test_sum_power_examples():
    assert sum_power([1, 1], UNIT) == pytest.approx(15.0, rel=1e-12)
    assert sum_power([1, 2], UNIT) == pytest.approx(63.0, rel=1e-12)
    assert sum_power([0, 0, 0], UNIT) == 0.0


def test_vertices_conserve_sum_power():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        rates = rng.uniform(0.0, 2.0, n)
        total = sum_power(rates, UNIT)
        for order in itertools.permutations(range(n)):
            q = chain_received(rates, 1.0, order)
            assert q.sum() == pytest.approx(total, rel=1e-9)


def test_greedy_linear_min_examples():
    order, point = greedy_linear_min([2, 1], [1, 1], UNIT)
    assert order == (0, 1)
    assert np.allclose(point, [3, 12])
    assert float(np.dot([2, 1], point)) == pytest.approx(18.0)

    order, point = greedy_linear_min([1, 1], [0.5, 1.5], UNIT)
    assert order == (0, 1)  # tie broken by ascending node index
    assert np.allclose(point, [1, 14])

    order, point = greedy_linear_min([1, 3, 2], [1, 1, 1], UNIT)
    assert order == (1, 2, 0)
    assert point[1] == pytest.approx(3.0)


def test_greedy_linear_min_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        rates = rng.uniform(0.0, 2.0, n)
        theta = rng.uniform(0.05, 10.0, n)
        sigma = float(rng.choice([1.0, 1e-3]))
        noise = NoiseModel(sigma)
        _, point = greedy_linear_min(theta, rates, noise)
        greedy_obj = float(theta @ noise.received(point))
        brute = oracles.brute_linear_min(theta, rates, sigma)
        assert greedy_obj <= brute * (1 + 1e-12) + 1e-300
        assert greedy_obj == pytest.approx(brute, rel=1e-12, abs=1e-300)


def test_is_lex_optimal_base_examples():
    assert is_lex_optimal_base([7.5, 7.5], [0.5, 1.5], UNIT)
    assert not is_lex_optimal_base([8, 7], [0.5, 1.5], UNIT)
    point = [15.0 - RHO2_19, RHO2_19]
    assert is_lex_optimal_base(point, [0.1, 1.9], UNIT)


def test_is_lex_optimal_base_rejects_non_base():
    with pytest.raises(NotABaseError):
        is_lex_optimal_base([9, 8], [0.5, 1.5], UNIT)


def _verdict(check, *args):
    try:
        return check(*args)
    except ValueError as exc:  # every rejection the checks raise
        return type(exc)


def _shifted(transmit, fraction):
    # Moves a fraction of the sum from the highest entry to the lowest.
    out = np.array(transmit, dtype=float)
    e = fraction * out.sum()
    out[int(out.argmax())] -= e
    out[int(out.argmin())] += e
    return out


def _certificate_points():
    """(powers, rates, noise) instances for the certificate comparison."""
    noise = NoiseModel.from_db(-30.0)
    points = []

    def add_solved(rates, noise, vertices=None):
        sol = solve(rates, noise)
        points.append((sol.transmit, rates, noise))
        for order, _ in sol.coefficients[:vertices]:
            points.append((vertex(rates, noise, order), rates, noise))
        points.append((_shifted(sol.transmit, 1e-4), rates, noise))

    # The solve-small recipe of the benchmark, seeds 0-2.
    for seed in range(3):
        for i in range(100):
            rng = np.random.default_rng([seed, i])
            n = int(rng.integers(2, 8))
            rates = 1.0 - rng.random(n)
            if rng.random() < 0.125:
                a, b = rng.choice(n, size=2, replace=False)
                rates[b] = rates[a]
            add_solved(rates, noise)
    rng = np.random.default_rng(1301)
    for rates in ([0.5, 0.5, 0.5], [0.3, 0.7, 0.3, 0.7], [0.0, 0.4, 0.0],
                  [0.0, 0.0], [0.0, 1.0, 1.0, 0.2]):
        add_solved(np.array(rates), UNIT)
    for n in range(8, 13):
        add_solved(rng.uniform(0.05, 0.5, n), noise, vertices=2)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        rates = rng.uniform(0.05, 1.0, n)
        gains = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
        add_solved(rates, NoiseModel(1e-3, gains=gains), vertices=2)
    # Non-bases: a feasible point above the face, an infeasible one below,
    # and a length mismatch off and on the full-set sum.
    rates = np.array([0.2, 0.5, 0.9])
    base = solve(rates, UNIT).transmit
    points += [(base * 1.001, rates, UNIT), (base * 0.999, rates, UNIT),
               (base[:2], rates, UNIT),
               (np.full(2, sum_power(rates, UNIT) / 2.0), rates, UNIT)]
    # Two received powers whose gap is exactly the level tolerance, whose
    # absolute part is in units of the noise power: one level, so the full
    # set is the dependent set of both and the point passes; split into two
    # levels it would fail.  ``a`` is a float near 7.5 mW for which ``a - b``
    # is exact, and ``a + b`` is the sum power within its tolerance.
    sigma_sq = 1e-3
    a = 0.0075000042499353
    b = a - (LEVEL_ATOL * sigma_sq + LEVEL_RTOL * a)
    assert a - b == LEVEL_ATOL * sigma_sq + LEVEL_RTOL * max(abs(a), abs(b))
    points.append((np.array([a, b]), np.array([1.0, 1.0]),
                   NoiseModel(sigma_sq)))
    return points


def _assert_same_verdict(check, reference, *args):
    """The verdict of ``check``, which must equal that of the exhaustive
    ``reference`` wherever the reference runs."""
    got = _verdict(check, *args)
    expected = _verdict(reference, *args)
    if expected is not oracles.EnumerationLimitError:
        assert got == expected, (check.__name__, args)
    return got


def test_certificates_match_the_reference():
    verdicts = {True: 0, False: 0}
    for powers, rates, noise in _certificate_points():
        got = _assert_same_verdict(is_lex_optimal_base,
                                   oracles.lex_certificate_reference, powers,
                                   rates, noise)
        verdicts[got] = verdicts.get(got, 0) + 1
    # The comparison covers passing, failing and rejected points.
    assert verdicts[True] > 500 and verdicts[False] > 500
    assert {NotABaseError, ValueError} <= set(verdicts)


# Rates with ties and zeros, and gains with ties.  Rates stay well above the
# absolute part of the tightness tolerance, TIGHT_RTOL times the noise power:
# a node whose rank is below it is tight on its own, wherever the ratio sort
# puts it.
RATES = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.01, 1.5)
GAINS = st.sampled_from([1.0, 2.0]) | st.floats(0.2, 5.0)


@st.composite
def certificate_cases(draw):
    """Rates for n = 1..10 nodes, a noise model with unit or unequal gains,
    and a decoding order."""
    n = draw(st.integers(1, 10))
    rates = np.array(draw(st.lists(RATES, min_size=n, max_size=n)))
    gains = draw(st.none() | st.lists(GAINS, min_size=n, max_size=n))
    sigma_sq = draw(st.sampled_from([1.0, 1e-3]))
    order = draw(st.permutations(range(n)))
    return rates, NoiseModel(sigma_sq, gains=gains), order


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(certificate_cases())
def test_sort_certificates_match_the_exhaustive_ones(case):
    rates, noise, order = case
    base = solve(rates, noise).transmit
    points = [base, vertex(rates, noise, order), _shifted(base, 1e-4),
              _shifted(base, -1e-4), base * 1.001]
    for powers in points:
        _assert_same_verdict(is_lex_optimal_base,
                             oracles.lex_certificate_reference, powers, rates,
                             noise)
    # The rate side at the received powers of the min-max base.
    powers = noise.received(base)
    fair, coefficients = max_min_rates(powers, noise)
    received = noise.received(powers)
    for point in (fair,
                  oracles.naive_capacity_vertex(received, noise.sigma_sq,
                                                order),
                  oracles.naive_capacity_vertex(received, noise.sigma_sq,
                                                coefficients[0][0]),
                  fair * 0.999):
        _assert_same_verdict(is_lex_optimal_rate_base,
                             oracles.lex_rate_certificate_reference,
                             point, powers, noise)


@pytest.mark.parametrize("n", [50, 200])
def test_certificate_passes_large_solves_and_fails_a_transfer(n):
    rng = np.random.default_rng(n)
    noise = NoiseModel.from_db(-30.0)
    for _ in range(5):
        rates = (4.0 / n) * (1.0 - rng.random(n))
        sol = solve(rates, noise)
        assert is_lex_optimal_base(sol.transmit, rates, noise)
        # 1e-4 of the mean power, from the top level to the bottom one: the
        # top prefix falls below its rank.
        down = _shifted(sol.transmit, 1e-4 / n)
        with pytest.raises(NotABaseError):
            is_lex_optimal_base(down, rates, noise)
        # The same transfer upwards keeps a base (no NotABaseError), but
        # not a fair one.
        up = _shifted(sol.transmit, -1e-4 / n)
        assert not is_lex_optimal_base(up, rates, noise)


def test_power_tolerances_scale_with_the_noise_power():
    # At -30 dB the levels and the tightness floor are in units of 1 mW, not
    # of 1 W.  A 4e-7 W transfer between two nodes at the fair level 7.5e-4 W
    # keeps a base (no NotABaseError) but makes two levels, and the top
    # one is not tight.
    noise = NoiseModel.from_db(-30.0)
    rates = np.full(4, 0.25)
    fair = np.full(4, sum_power(rates, noise) / 4.0)
    assert is_lex_optimal_base(fair, rates, noise)
    moved = fair + np.array([4e-7, -4e-7, 0.0, 0.0])
    assert not is_lex_optimal_base(moved, rates, noise)
    assert not oracles.lex_certificate_reference(moved, rates, noise)
    # A node whose rank is about 1.4e-10 W is above the tightness floor: a
    # vertex that gives it nothing instead is not a base.
    rates = np.array([0.5, 1e-7, 0.3])
    point = vertex(rates, noise, (0, 1, 2))
    point[1] = 0.0
    for check in (is_lex_optimal_base, oracles.lex_certificate_reference):
        with pytest.raises(NotABaseError):
            check(point, rates, noise)


def test_rate_certificate_matches_the_reference():
    rng = np.random.default_rng(1302)
    noise = NoiseModel(1e-3)
    cases = [np.array([1.0, 1.0, 0.0]), np.array([2.0, 2.0, 0.5, 0.5])]
    cases += [rng.uniform(0.0, 4.0, int(rng.integers(2, 8))) for _ in range(60)]
    verdicts = []
    for powers in cases:
        rates, coefficients = max_min_rates(powers, noise)
        points = [rates, rates * 0.999, rates * 1.001]
        points += [oracles.naive_capacity_vertex(powers, noise.sigma_sq, order)
                   for order, _ in coefficients[:2]]
        for point in points:
            got = _verdict(is_lex_optimal_rate_base, point, powers, noise)
            assert got == _verdict(oracles.lex_rate_certificate_reference,
                                   point, powers, noise)
            verdicts.append(got)
    assert verdicts.count(True) >= len(cases)
    assert False in verdicts and NotABaseError in verdicts
    # A length mismatch is rejected before any sum is compared.
    with pytest.raises(ValueError, match="same length"):
        is_lex_optimal_rate_base([0.5, 0.5, 0.5], [1.0, 1.0], noise)
    with pytest.raises(ValueError, match="same length"):
        is_lex_optimal_rate_base([0.5], [1.0, 1.0], noise)
    # So is one of the power certificate, off the full-set sum (15 W for
    # two one-bit rates at unit noise) and on it, in both certificates.
    for check in (is_lex_optimal_base, oracles.lex_certificate_reference):
        with pytest.raises(ValueError, match="same length"):
            check([1.0, 2.0, 3.0], [1.0, 1.0], UNIT)
        with pytest.raises(ValueError, match="same length"):
            check([15.0], [1.0, 1.0], UNIT)


def test_is_minmax_examples():
    assert oracles.is_minmax([7.5, 7.5], [1, 1], UNIT)
    assert not oracles.is_minmax([3, 12], [1, 1], UNIT)
    assert oracles.is_minmax([15.0 - RHO2_19, RHO2_19], [0.1, 1.9], UNIT)


def test_is_minmax_rejects_non_base():
    with pytest.raises(NotABaseError):
        oracles.is_minmax([9, 8], [0.5, 1.5], UNIT)


def test_oracle_enumeration_caps():
    # The exhaustive oracles keep their caps; the sort-based certificates
    # have none and answer at the same sizes.
    limit = oracles.EnumerationLimitError
    with pytest.raises(limit):
        oracles.is_minmax(np.full(9, 1.0), np.full(9, 0.1), UNIT)
    rates = np.full(13, 0.1)
    point = vertex(rates, UNIT, range(13))
    with pytest.raises(limit):
        oracles.lex_certificate_reference(point, rates, UNIT)
    assert not is_lex_optimal_base(point, rates, UNIT)
    fair = max_min_rates(point, UNIT)[0]
    with pytest.raises(limit):
        oracles.lex_rate_certificate_reference(fair, point, UNIT)
    assert is_lex_optimal_rate_base(fair, point, UNIT)


def test_noise_db_past_the_largest_double_rejected():
    with pytest.raises(ValueError, match="positive and finite"):
        NoiseModel.from_db(5000.0)
    with pytest.raises(ValueError, match="positive and finite"):
        NoiseModel.from_db(-5000.0)


TINY = NoiseModel(1e-200)
FAR_GAINS = NoiseModel(1.0, gains=[1e300, 1e300])

OVERFLOWING = {
    # Sum rates past float overflow, 512 bits at unit noise.
    "sum_power": (sum_power, [600.0], UNIT),
    "power_rank": (power_rank, [600.0, 1.0], UNIT, [0]),
    "chain_received": (chain_received, [300.0, 300.0], 1.0, [0, 1]),
    "vertex": (vertex, [300.0, 300.0], UNIT, [1, 0]),
    "greedy_linear_min": (greedy_linear_min, [1.0, 2.0], [300.0, 300.0],
                          UNIT),
    "equal_allocation": (equal_allocation, [300.0, 300.0], UNIT),
    "lex-base-rates": (is_lex_optimal_base, [0.0, 0.0], [600.0, 600.0],
                       UNIT),
    # Received powers whose product with the gains overflows.
    "lex-base-received": (is_lex_optimal_base, [1e10, 1e10], [1.0, 1.0],
                          FAR_GAINS),
    # A received-power sum that overflows, and one whose ratio to the
    # noise power does.
    "lex-rate-base-sum": (is_lex_optimal_rate_base, [0.0, 0.0],
                          [1e308, 1e308], UNIT),
    "lex-rate-base-ratio": (is_lex_optimal_rate_base, [0.0, 0.0],
                            [1e200, 1e200], TINY),
    "max_min_rates-ratio": (max_min_rates, [1e200, 1e200], TINY),
    # Between the sum-rate limit, 256 bits at unit noise, and overflow.
    "sum_power-limit": (sum_power, [300.0], UNIT),
}


@pytest.mark.parametrize("case", OVERFLOWING)
def test_overflowing_inputs_raise_one_range_error(case):
    # Unchecked, the power-side calls return inf, or certify zero powers,
    # after RuntimeWarnings, and the rate certificate certifies zero rates
    # against an infinite received-power sum.
    func, *args = OVERFLOWING[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="(rates|received powers) sum to .* overflows"):
            func(*args)
