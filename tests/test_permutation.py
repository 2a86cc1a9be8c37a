"""Exact symmetries of the answers.  Relabelling the nodes relabels them:
the fair base, its time sharing and the per-node energies follow the nodes,
whatever their order.  Scaling the noise power by ``2^k`` scales the powers
by exactly ``2^k`` and changes nothing else."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from macfair import Backlog, NoiseModel, max_min_rates, solve, sum_power

# A fixed example sequence and no example database, so every run on every
# machine checks the same cases: no saved failure is replayed first.
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

# Repeated values give tied rates and backlogs; zero is allowed for both.
VALUES = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.5)
GAINS = st.sampled_from([1.0, 2.0]) | st.floats(0.2, 5.0)
# As VALUES, but no rate so small that a power, gap or distance can come
# out subnormal, where a product with 2^k rounds.
SCALABLE = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(1e-6, 1.5)


@st.composite
def relabelled(draw, elements=VALUES):
    """A vector of n = 1..8 values, a gain vector or None for unit gains,
    the noise power and a permutation of the nodes."""
    n = draw(st.integers(1, 8))
    values = np.array(draw(st.lists(elements, min_size=n, max_size=n)))
    gains = draw(st.none() | st.lists(GAINS, min_size=n, max_size=n))
    sigma_sq = draw(st.sampled_from([1.0, 1e-3]))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    return values, gains, sigma_sq, perm


def noise_models(gains, sigma_sq, perm):
    """The channel as given, and with its gains relabelled by ``perm``."""
    if gains is None:
        return NoiseModel(sigma_sq), NoiseModel(sigma_sq)
    g = np.array(gains)
    return NoiseModel(sigma_sq, gains=g), NoiseModel(sigma_sq, gains=g[perm])


@PROPERTY
@given(relabelled())
def test_solve_is_permutation_equivariant(case):
    rates, gains, sigma_sq, perm = case
    noise, moved = noise_models(gains, sigma_sq, perm)
    sol, relabelled_sol = solve(rates, noise), solve(rates[perm], moved)
    total = sum_power(rates, noise)
    assert np.max(np.abs(relabelled_sol.received - sol.received[perm])) \
        <= 1e-12 * total
    # The same number of epochs, and the same weights up to rounding: a
    # relabelled walk can round its breakpoints differently.
    weights = sorted(w for _, w in sol.coefficients)
    relabelled_weights = sorted(w for _, w in relabelled_sol.coefficients)
    assert len(relabelled_weights) == len(weights)
    assert np.max(np.abs(np.subtract(relabelled_weights, weights))) <= 1e-12


@PROPERTY
@given(relabelled(SCALABLE), st.integers(-20, 20))
def test_noise_scaling_is_exact(case, k):
    values, gains, sigma_sq, _ = case
    f = 2.0 ** k
    for g in (None, gains):
        sol = solve(values, NoiseModel(sigma_sq, gains=g))
        scaled = solve(values, NoiseModel(sigma_sq * f, gains=g))
        assert np.array_equal(scaled.received, f * sol.received)
        assert np.array_equal(scaled.transmit, f * sol.transmit)
        assert (scaled.gap, scaled.distance) == (f * f * sol.gap,
                                                 f * f * sol.distance)
        assert (scaled.coefficients, scaled.case, scaled.iterations) \
            == (sol.coefficients, sol.case, sol.iterations)
    # The same values as powers, scaled up with the noise power, so that no
    # subnormal power loses bits: the capacity region depends on the
    # received powers only over the noise power.
    up = 2.0 ** abs(k)
    rates, coefficients = max_min_rates(values, NoiseModel(sigma_sq))
    scaled_rates, scaled_coefficients = max_min_rates(
        up * values, NoiseModel(sigma_sq * up))
    assert np.array_equal(scaled_rates, rates)
    assert scaled_coefficients == coefficients


@PROPERTY
@given(relabelled())
def test_period_energies_are_permutation_equivariant(case):
    packets, gains, sigma_sq, perm = case
    if not packets.any():
        packets[0] = 1.0  # an all-zero backlog is rejected
    noise, moved = noise_models(gains, sigma_sq, perm)
    energies = oracles.period_energies(Backlog(packets, 30.0), 30.0, noise)
    relabelled_energies = oracles.period_energies(Backlog(packets[perm], 30.0),
                                                  30.0, moved)
    for strategy in ("minmax", "tdma"):
        e = energies[strategy]
        assert np.max(np.abs(relabelled_energies[strategy] - e[perm])) \
            <= 1e-12 * e.sum()
    # Minicost splits the sum energy by node index by design, so only the
    # sum is invariant.
    e = energies["minicost"].sum()
    assert abs(relabelled_energies["minicost"].sum() - e) <= 1e-12 * e
