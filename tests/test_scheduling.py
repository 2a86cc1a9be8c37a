"""Schedule construction, energy accounting, and the cross-strategy properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from macfair import (
    Backlog,
    Epoch,
    NoiseModel,
    Schedule,
    build_schedule,
    energy_report,
    sum_power,
    vertex,
)
from macfair import scheduling

UNIT = NoiseModel(1.0)


def test_epochs_run_the_average_rates():
    # Every epoch of every strategy but TDMA runs the average rates
    # b_i * B / T, which clear the backlog.
    for packets, rates in (([1, 2], [1.0, 2.0]), ([1, 1, 1, 1], np.ones(4)),
                           ([0.5], [0.5])):
        for strategy in ("minmax", "minicost"):
            sched = build_schedule(strategy, Backlog(packets, 30), 30.0, UNIT)
            for e in sched.epochs:
                assert np.allclose(e.rates, rates)


def test_builders_reject_a_zero_period():
    for strategy in ("minmax", "minicost", "tdma"):
        with pytest.raises(ValueError, match="period"):
            build_schedule(strategy, Backlog([1.0], 30), 0.0, UNIT)


def test_minicost_examples():
    sched = build_schedule("minicost", Backlog([1, 2], 30), 30.0, UNIT)
    assert len(sched.epochs) == 1
    assert np.allclose(sched.epochs[0].powers, [3.0, 60.0])
    report = energy_report(sched)
    assert report.sum_energy == pytest.approx(1890.0, rel=1e-9)
    assert report.max_power == pytest.approx(60.0, rel=1e-9)

    report = energy_report(
        build_schedule("minicost", Backlog([1, 1], 30), 30.0, UNIT))
    assert report.sum_energy == pytest.approx(450.0, rel=1e-9)

    report = energy_report(
        build_schedule("minicost", Backlog([1.0], 30), 30.0, UNIT))
    assert report.sum_energy == pytest.approx(90.0, rel=1e-9)


def test_minicost_decode_order_descending_gains():
    noise = NoiseModel(1.0, gains=[1.0, 4.0])
    sched = build_schedule("minicost", Backlog([1, 1], 30), 30.0, noise)
    # high-gain node last on the chain (decoded first) minimizes transmit sum
    assert sched.epochs[0].decode_order == (0, 1)
    other = NoiseModel(1.0, gains=[4.0, 1.0])
    sched2 = build_schedule("minicost", Backlog([1, 1], 30), 30.0, other)
    assert sched2.epochs[0].decode_order == (1, 0)
    assert float(sched.epochs[0].powers.sum()) == pytest.approx(
        float(sched2.epochs[0].powers.sum()), rel=1e-12)


def test_tdma_examples():
    sched = build_schedule("tdma", Backlog([1, 2], 30), 30.0, UNIT)
    fractions = [e.duration_fraction for e in sched.epochs]
    assert np.allclose(fractions, [1 / 3, 2 / 3])
    for e in sched.epochs:
        active = np.nonzero(e.powers)[0]
        assert active.size == 1
        assert e.rates[active[0]] == pytest.approx(3.0)
        assert e.powers[active[0]] == pytest.approx(63.0, rel=1e-9)
    report = energy_report(sched)
    assert np.allclose(report.per_node_energy, [630.0, 1260.0], rtol=1e-9)
    assert report.sum_energy == pytest.approx(1890.0, rel=1e-9)
    assert report.max_power == pytest.approx(42.0, rel=1e-9)

    report = energy_report(
        build_schedule("tdma", Backlog([1, 1], 30), 30.0, UNIT))
    assert np.allclose(report.per_node_energy, [225.0, 225.0], rtol=1e-9)

    single = build_schedule("tdma", Backlog([1.0], 30), 30.0, UNIT)
    mini = build_schedule("minicost", Backlog([1.0], 30), 30.0, UNIT)
    assert np.allclose(energy_report(single).per_node_energy,
                       energy_report(mini).per_node_energy)


def test_tdma_proportional_split_is_energy_optimal():
    for packets in ([1.0, 2.0], [0.4, 1.7], [1.0, 1.0, 2.5]):
        sched = build_schedule("tdma", Backlog(packets, 30), 30.0, UNIT)
        ours = energy_report(sched).sum_energy
        grid_best = oracles.tdma_grid_best_sum_energy(packets, 30.0, 30.0, 1.0)
        assert ours <= grid_best * (1 + 1e-6)


def test_minmax_schedule_example():
    sched = build_schedule("minmax", Backlog([1, 2], 30), 30.0, UNIT)
    fractions = sorted(e.duration_fraction for e in sched.epochs)
    assert np.allclose(fractions, [11 / 30, 19 / 30], atol=1e-9)
    report = energy_report(sched)
    assert np.allclose(report.per_node_energy / sched.period, [31.5, 31.5],
                       atol=1e-8)
    assert np.allclose(report.per_node_energy, [945.0, 945.0], atol=1e-6)
    assert report.max_power == pytest.approx(31.5, rel=1e-9)

    sched = build_schedule("minmax", Backlog([1, 1], 30), 30.0, UNIT)
    assert np.allclose(energy_report(sched).per_node_energy / sched.period,
                       [7.5, 7.5], atol=1e-9)

    single = build_schedule("minmax", Backlog([1.0], 30), 30.0, UNIT)
    assert len(single.epochs) == 1
    assert np.allclose(single.epochs[0].powers, [3.0])


def test_epoch_fractions_form_probability_vector():
    rng = np.random.default_rng(67)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        packets = rng.uniform(0.05, 2.0, n)
        for strategy in ("minmax", "minicost", "tdma"):
            sched = build_schedule(strategy, Backlog(packets, 30), 30.0, UNIT)
            fractions = np.array([e.duration_fraction for e in sched.epochs])
            assert np.all(fractions >= 0.0)
            assert fractions.sum() == pytest.approx(1.0, abs=1e-10)


def test_delivered_bits_exact():
    rng = np.random.default_rng(71)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        packets = rng.uniform(0.05, 2.0, n)
        backlog = Backlog(packets, 30)
        for strategy in ("minmax", "minicost", "tdma"):
            sched = build_schedule(strategy, backlog, 30.0, UNIT)
            assert np.allclose(oracles.delivered_bits(sched), backlog.bits,
                               rtol=1e-6)


@st.composite
def delivery_cases(draw):
    """A backlog of n = 1..8 nodes, some silent but at least one not, its
    period and the channel: noise power and gains (None, or log-uniform on
    0.2..5).  The sum rate stays below 48 bits per channel use."""
    n = draw(st.integers(1, 8))
    packets = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0])
                            | st.floats(0.0, 2.0), min_size=n, max_size=n))
    if not any(packets):
        packets[draw(st.integers(0, n - 1))] = draw(st.floats(0.05, 2.0))
    bits = draw(st.sampled_from([1, 8, 30]))
    period = draw(st.sampled_from([10.0, 30.0]) | st.floats(10.0, 60.0))
    sigma_sq = draw(st.sampled_from([1.0, 1e-3]))
    gains = draw(st.none() | st.lists(
        st.floats(math.log(0.2), math.log(5.0)).map(math.exp),
        min_size=n, max_size=n))
    return Backlog(packets, bits), period, NoiseModel(sigma_sq, gains=gains)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(delivery_cases())
def test_every_strategy_delivers_the_drawn_backlog(case):
    # Every built schedule delivers exactly b_i * B bits per node, silent
    # nodes none, at the tolerance of test_delivered_bits_exact.
    backlog, period, noise = case
    for strategy in ("minmax", "minicost", "tdma"):
        sched = build_schedule(strategy, backlog, period, noise)
        assert np.allclose(oracles.delivered_bits(sched), backlog.bits,
                           rtol=1e-6)


def test_sum_energy_identical_across_strategies():
    """Symmetric channel: all three strategies spend the same total energy."""
    rng = np.random.default_rng(73)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        packets = rng.uniform(0.05, 1.0, n)
        noise = NoiseModel(float(rng.choice([1.0, 1e-3])))
        backlog = Backlog(packets, 30)
        expected = 30.0 * sum_power(backlog.bits / 30.0, noise)
        for strategy in ("minmax", "minicost", "tdma"):
            sched = build_schedule(strategy, backlog, 30.0, noise)
            assert energy_report(sched).sum_energy == pytest.approx(
                expected, rel=1e-9)


def test_batched_energies_spend_the_sum_power_on_every_row():
    # With unit gains every strategy's batched energies of a row add up to
    # period * sum_power(row), the closed form of one row.
    rng = np.random.default_rng(29)
    period, packet_bits = 30.0, 30.0
    rows = 0
    for n in [*range(1, 9), 20]:
        lam = rng.uniform(0.2, 5.0, size=(2500, 1))
        packets = lam * (1.0 - rng.random((2500, n)))
        for noise in (UNIT, NoiseModel.from_db(-30.0)):
            expected = np.array([period * sum_power(row, noise)
                                 for row in packets * packet_bits / period])
            for strategy, (_, energy) in scheduling._TABLE.items():
                spent = energy(packets, packet_bits, period, noise).sum(axis=1)
                np.testing.assert_allclose(spent, expected, rtol=1e-12,
                                           atol=0.0, err_msg=strategy)
        rows += packets.shape[0]
    assert rows >= 20_000


def test_minmax_minimizes_normalized_max_power():
    rng = np.random.default_rng(79)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        packets = rng.uniform(0.05, 1.0, n)
        noise = NoiseModel(float(rng.choice([1.0, 1e-3])))
        backlog = Backlog(packets, 30)
        peaks = {s: energy_report(build_schedule(s, backlog, 30.0, noise)).max_power
                 for s in ("minmax", "minicost", "tdma")}
        slack = 1e-9 * (1 + peaks["minmax"])
        assert peaks["minmax"] <= peaks["minicost"] + slack
        assert peaks["minmax"] <= peaks["tdma"] + slack


def test_zero_backlog_nodes_reported_silent():
    sched = build_schedule("minmax", Backlog([1.0, 0.0, 2.0], 30), 30.0, UNIT)
    for e in sched.epochs:
        assert e.powers[1] == 0.0
        assert e.rates[1] == 0.0
    assert np.allclose(oracles.delivered_bits(sched), [30.0, 0.0, 60.0],
                       atol=1e-9)
    mini = build_schedule("minicost", Backlog([1.0, 0.0, 2.0], 30), 30.0, UNIT)
    assert mini.epochs[0].powers[1] == 0.0


def test_non_finite_period_and_packet_bits_rejected():
    with pytest.raises(ValueError, match="packet_bits"):
        Backlog([1.0, 2.0], np.inf)
    backlog = Backlog([1.0, 2.0], 30)
    # An infinite period gives zero rates and NaN energies (inf * 0).
    for strategy in ("minmax", "minicost", "tdma"):
        with pytest.raises(ValueError, match="period"):
            build_schedule(strategy, backlog, np.inf, UNIT)


@pytest.mark.parametrize("period", [np.inf, np.nan, 0.0, -30.0])
def test_schedule_rejects_non_finite_period(period):
    # The same range as the builders: an infinite period would make the
    # delivered bits infinite and the energies NaN.
    epoch = Epoch(1.0, [1.0, 2.0], [1.0, 1.0], (0, 1))
    with pytest.raises(ValueError, match="period must be positive and finite"):
        Schedule("minicost", (epoch,), period)


def test_all_zero_backlog_rejected():
    with pytest.raises(ValueError):
        build_schedule("minicost", Backlog([0.0, 0.0], 30), 30.0, UNIT)


def test_period_energies_match_schedules():
    # Zero backlogs are dropped before solving: with unequal gains a
    # zero-rate node would move the weighted base.  Every min-max and
    # minicost epoch is the public vertex of its order over the active
    # nodes, with the silent nodes at the end of its decode order.
    rng = np.random.default_rng(83)
    for k in range(120):
        n = int(rng.integers(1, 8))
        packets = rng.uniform(0.0, 1.5, n)
        packets[rng.random(n) < 0.25] = 0.0
        packets[int(rng.integers(n))] += 0.05
        sigma_sq = float(rng.choice([1.0, 1e-3]))
        gains = None if k % 2 else rng.uniform(0.2, 5.0, n)
        noise = NoiseModel(sigma_sq, gains=gains)
        backlog = Backlog(packets, 30.0)
        active = np.flatnonzero(packets)
        silent = tuple(np.flatnonzero(packets == 0.0).tolist())
        rates = backlog.bits[active] / 30.0
        sub = NoiseModel(sigma_sq,
                         gains=None if gains is None else gains[active])
        energies = oracles.period_energies(backlog, 30.0, noise)
        assert set(energies) == {"minmax", "minicost", "tdma"}
        for strategy, energy in energies.items():
            sched = build_schedule(strategy, backlog, 30.0, noise)
            expected = energy_report(sched).per_node_energy
            if strategy == "minmax":
                assert np.allclose(energy, expected, rtol=1e-9, atol=0.0)
            else:
                assert np.array_equal(energy, expected)
            assert np.all(energy[packets == 0.0] == 0.0)
            if strategy == "tdma":
                continue
            for e in sched.epochs:
                order = np.searchsorted(active, e.decode_order[:active.size])
                assert np.array_equal(e.powers[active],
                                      vertex(rates, sub, order))
                assert e.decode_order[active.size:] == silent


def test_period_energies_worked_example():
    energies = oracles.period_energies(Backlog([1.0, 2.0], 30), 30.0, UNIT)
    assert energies["minicost"] == pytest.approx([90.0, 1800.0], rel=1e-9)
    assert energies["minmax"] == pytest.approx([945.0, 945.0], rel=1e-9)
    assert energies["tdma"] == pytest.approx([630.0, 1260.0], rel=1e-9)


def test_build_schedule_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        build_schedule("fastest", Backlog([1.0], 30), 30.0, UNIT)
