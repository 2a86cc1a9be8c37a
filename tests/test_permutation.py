"""Relabelling the nodes relabels the answers: the fair base and the
per-node energies follow the nodes, whatever their order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from macfair import Backlog, NoiseModel, solve, sum_power

# A fixed example sequence and no example database, so every run on every
# machine checks the same cases: no saved failure is replayed first.
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)

# Repeated values give tied rates and backlogs; zero is allowed for both.
VALUES = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.5)
GAINS = st.sampled_from([1.0, 2.0]) | st.floats(0.2, 5.0)


@st.composite
def relabelled(draw):
    """A vector of n = 1..8 values, a gain vector or None for unit gains,
    the noise power and a permutation of the nodes."""
    n = draw(st.integers(1, 8))
    values = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
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
    base = solve(rates, noise).received
    relabelled_base = solve(rates[perm], moved).received
    total = sum_power(rates, noise)
    assert np.max(np.abs(relabelled_base - base[perm])) <= 1e-12 * total


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
