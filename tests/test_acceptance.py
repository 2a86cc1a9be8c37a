"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import functools
import itertools
import time

import numpy as np
import pytest

import oracles
from macfair import (
    Backlog,
    CaseLabel,
    NoiseModel,
    SimConfig,
    build_schedule,
    chain_received,
    compare_sweep,
    energy_report,
    greedy_linear_min,
    is_lex_optimal_base,
    is_lex_optimal_rate_base,
    max_min_rates,
    solve,
    sum_power,
    vertex,
)
from macfair.cli import main as cli_main

PAPER_NOISE = NoiseModel(1e-3)


def criterion(num, description, budget=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num:02d}: {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"\n[PASS] criterion {num:02d}: {description} "
                  f"({elapsed:.1f}s)")
            if budget is not None:
                assert elapsed < budget, (
                    f"criterion {num} took {elapsed:.1f}s, budget {budget}s")
        return wrapper
    return decorate


@criterion(1, "every vertex feasible with tight decoding chains", budget=5.0)
def test_criterion_1_vertex_validity():
    rng = np.random.default_rng(101)
    for _ in range(500):
        n = int(rng.integers(2, 7))
        rates = rng.uniform(0.0, 2.0, n) + 1e-12  # open at zero
        sigma = float(rng.choice([1.0, 1e-3]))
        noise = NoiseModel(sigma)
        # independent constraint table: naive powers-of-two formula
        members = [np.array([i for i in range(n) if (m >> i) & 1], dtype=int)
                   for m in range(1 << n)]
        rank = np.array([oracles.rank_of(rates[m].sum(), sigma)
                         for m in members])
        bits = np.array([[bool((m >> i) & 1) for i in range(n)]
                         for m in range(1 << n)], dtype=float)
        orders = list(itertools.permutations(range(n)))
        received = np.stack([chain_received(rates, sigma, o) for o in orders])
        sums = received @ bits.T
        tol = 1e-9 * (1.0 + np.abs(rank))
        assert np.all(sums >= rank - tol)
        # nested chain sets are all tight: row k, column i is the prefix
        # {orders[k][0], ..., orders[k][i]} of decoding chain k
        perm = np.array(orders, dtype=int)
        cum = np.cumsum(np.take_along_axis(received, perm, axis=1), axis=1)
        prefix_rank = oracles.rank_of(np.cumsum(rates[perm], axis=1), sigma)
        assert np.all(np.abs(cum - prefix_rank)
                      <= 1e-9 * (1.0 + np.abs(prefix_rank)))


@criterion(2, "greedy linear minimization matches n! brute force", budget=5.0)
def test_criterion_2_greedy_optimality():
    rng = np.random.default_rng(102)
    for n in range(2, 6):
        for _ in range(100):
            rates = rng.uniform(0.0, 2.0, n) + 1e-12
            theta = rng.uniform(0.05, 10.0, n)
            sigma = float(rng.choice([1.0, 1e-3]))
            noise = NoiseModel(sigma)
            _, point = greedy_linear_min(theta, rates, noise)
            greedy_obj = float(theta @ point)
            brute = min(float(theta @ vertex(rates, noise, o))
                        for o in itertools.permutations(range(n)))
            assert greedy_obj == pytest.approx(brute, rel=1e-12, abs=1e-300)


@criterion(3, "solver base is lex-optimal, min-max, and distance-dominant",
           budget=30.0)
def test_criterion_3_minimum_distance_characterization():
    rng = np.random.default_rng(103)
    for n in range(2, 6):
        orders = list(itertools.permutations(range(n)))
        for _ in range(100):
            rates = rng.uniform(0.0, 2.0, n) + 1e-12
            noise = NoiseModel(1.0)
            sol = solve(rates, noise)
            assert is_lex_optimal_base(sol.transmit, rates, noise)
            assert oracles.is_minmax(sol.transmit, rates, noise)
            total = sum_power(rates, noise)
            level = total / n
            vertices = np.stack(
                [chain_received(rates, 1.0, o) for o in orders])
            betas = rng.dirichlet(np.ones(len(orders)), size=1000)
            mixes = betas @ vertices
            d_star = float(((sol.received - level) ** 2).sum())
            d_rand = ((mixes - level) ** 2).sum(axis=1)
            # margin in units of the squared sum power
            assert np.all(d_star <= d_rand + 1e-8 * total * total)


@criterion(4, "unit-gain and weighted solves pass the brute-force first-order "
              "certificate", budget=60.0)
def test_criterion_4_solver_certificate():
    rng = np.random.default_rng(104)
    for n in range(2, 8):
        for _ in range(50):
            rates = rng.uniform(0.0, 1.0, n) + 1e-12
            sigma_sq = float(rng.choice([1.0, 1e-3]))
            total = sum_power(rates, NoiseModel(sigma_sq))
            for gains in (None, rng.uniform(0.2, 5.0, n)):
                sol = solve(rates, NoiseModel(sigma_sq, gains=gains))
                gap = oracles.first_order_gap(sol.received, rates, sigma_sq,
                                              gains)
                assert gap <= 1e-12 * total * total


@criterion(5, "worked n=2 instances confirmed by 1e6-point grid search")
def test_criterion_5_worked_examples():
    noise = NoiseModel(1.0)

    sol = solve([0.5, 1.5], noise)
    assert sol.case is CaseLabel.INTERIOR_FEASIBLE
    assert np.allclose(sol.received, [7.5, 7.5], atol=1e-8)
    point, _ = oracles.grid_minmax_n2([0.5, 1.5], 1.0, npts=1_000_000)
    assert np.allclose(sol.received, point, atol=1e-4)

    sol = solve([0.1, 1.9], noise)
    assert sol.case is CaseLabel.INFEASIBLE
    assert np.allclose(sol.received, [2.0712, 12.9288], atol=1e-3)
    assert len(sol.coefficients) == 1
    point, _ = oracles.grid_minmax_n2([0.1, 1.9], 1.0, npts=1_000_000)
    assert np.allclose(sol.received, point, atol=1e-4)

    sol = solve([0.5, 0.29248], noise)
    assert sol.case is CaseLabel.VERTEX_COINCIDENT
    assert sol.distance <= 1e-8
    point, best = oracles.grid_minmax_n2([0.5, 0.29248], 1.0, npts=1_000_000)
    assert np.allclose(sol.received, point, atol=1e-4)
    assert sol.distance <= best + 1e-12


def _random_backlog_instances(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        packets = rng.uniform(0.0, 1.0, n) + 1e-9
        sigma = float(rng.choice([1.0, 1e-3]))
        yield Backlog(packets, 30.0), NoiseModel(sigma)


@criterion(6, "all strategies spend identical sum energy (symmetric channel)")
def test_criterion_6_sum_energy_identity():
    for backlog, noise in _random_backlog_instances(200, 106):
        rates = backlog.bits / 30.0
        expected = 30.0 * sum_power(rates, noise)
        for strategy in ("minmax", "minicost", "tdma"):
            sched = build_schedule(strategy, backlog, 30.0, noise)
            assert energy_report(sched).sum_energy == pytest.approx(
                expected, rel=1e-9)


@criterion(7, "min-max minimizes the normalized peak power per instance")
def test_criterion_7_max_power_ordering():
    for backlog, noise in _random_backlog_instances(200, 106):
        peaks = {
            s: energy_report(build_schedule(s, backlog, 30.0, noise)).max_power
            for s in ("minmax", "minicost", "tdma")}
        slack = 1e-9 * (1.0 + peaks["minmax"])
        assert peaks["minmax"] <= peaks["minicost"] + slack
        assert peaks["minmax"] <= peaks["tdma"] + slack


@criterion(8, "lifetime: min-max beats minicost by >= 30%, per-run dominant",
           budget=60.0)
def test_criterion_8_lifetime_comparison():
    config = SimConfig(n_nodes=4, initial_energy=2.0, period=30.0,
                       packet_bits=30.0, noise=PAPER_NOISE, runs=1000, seed=1)
    table = compare_sweep(config, [1.0])[1.0]
    mm = table.stats["minmax"].mean_lifetime
    mc = table.stats["minicost"].mean_lifetime
    assert mm > mc
    assert (mm - mc) / mc >= 0.30
    assert np.all(table.lifetimes["minmax"] >= table.lifetimes["minicost"])


@criterion(9, "mean lifetime non-increasing in the backlog bound")
def test_criterion_9_lambda_monotonicity():
    lams = [0.2, 0.4, 0.6, 0.8, 1.0]
    means = {s: [] for s in ("minmax", "minicost", "tdma")}
    errs = {s: [] for s in ("minmax", "minicost", "tdma")}
    config = SimConfig(n_nodes=4, initial_energy=2.0, period=30.0,
                       packet_bits=30.0, noise=PAPER_NOISE, runs=1000, seed=9)
    for lam in lams:
        table = compare_sweep(config, [lam])[lam]
        for s, stats in table.stats.items():
            means[s].append(stats.mean_lifetime)
            errs[s].append(stats.std_lifetime / np.sqrt(config.runs))
    for s in means:
        for k in range(len(lams) - 1):
            two_se = 2.0 * float(np.hypot(errs[s][k], errs[s][k + 1]))
            assert means[s][k + 1] <= means[s][k] + two_se, (
                f"{s}: lifetime rose from lam={lams[k]} to {lams[k + 1]}: "
                f"{means[s][k]} -> {means[s][k + 1]}")


@criterion(10, "max-min rate dual matches symmetric value and grid search")
def test_criterion_10_dual_rates():
    noise = NoiseModel(1.0)
    rates, _ = max_min_rates([1.0, 1.0], noise)
    assert np.allclose(rates, 0.39624, atol=1e-5)

    rng = np.random.default_rng(110)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        powers = rng.uniform(0.1, 8.0, n)
        rates, coefficients = max_min_rates(powers, noise)
        if n == 2:
            point, _ = oracles.grid_maxmin_rates_n2(powers, 1.0)
        else:
            point, _ = oracles.grid_maxmin_rates_n3(powers, 1.0)
        assert np.allclose(rates, point, atol=1e-4)
        assert is_lex_optimal_rate_base(rates, powers, noise)
        assert sum(w for _, w in coefficients) == pytest.approx(1.0, abs=1e-10)


@criterion(11, "gain-weighted solve: worked value and exact unit-gain reduction")
def test_criterion_11_weighted_extension():
    sol = solve([1.0, 1.0], NoiseModel(1.0, gains=[4.0, 1.0]))
    assert np.allclose(sol.received, [4.8, 10.2], atol=1e-6)

    rng = np.random.default_rng(111)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        rates = rng.uniform(0.0, 2.0, n) + 1e-12
        plain = solve(rates, NoiseModel(1.0))
        unit = solve(rates, NoiseModel(1.0, gains=np.ones(n)))
        assert np.array_equal(plain.received, unit.received)
        assert plain.coefficients == unit.coefficients


@criterion(12, "simulate CLI is byte-deterministic")
def test_criterion_12_cli_determinism(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "nodes = 4\ninitial_energy_j = 2.0\nperiod_s = 30\npacket_bits = 30\n"
        "noise_db = -30\nlambda_packets = 1.0\nlambda_sweep = 0.6,1.0\n"
        "runs = 40\nseed = 5\n")
    assert cli_main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "a")]) == 0
    assert cli_main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("fig4.csv", "fig5.csv", "fig6.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, f"{name} differs between runs"
