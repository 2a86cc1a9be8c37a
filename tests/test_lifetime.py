"""Monte Carlo simulator: draws, period accounting, determinism, comparisons."""

import numpy as np
import pytest

from macfair import (
    Backlog,
    NoiseModel,
    SimConfig,
    compare_strategies,
    draw_backlogs,
    period_backlog,
    run_period,
    simulate_lifetime,
)
from macfair.lifetime import _KeyedUniform, _period_rng

NOISE = NoiseModel(1e-3)


def paper_config(**overrides):
    base = dict(n_nodes=4, initial_energy=2.0, period=30.0, packet_bits=30.0,
                noise=NOISE, lam=1.0, strategy="minmax", runs=20, seed=1)
    base.update(overrides)
    return SimConfig(**base)


def test_draws_are_reproducible_and_order_independent():
    cfg = paper_config()
    a = period_backlog(cfg, run=3, period=17).packets
    b = period_backlog(cfg, run=3, period=17).packets
    assert np.array_equal(a, b)
    keyed = _KeyedUniform(cfg.seed)
    keyed.draws(9, 4, 4)  # interleave an unrelated draw
    c = cfg.lam * (1.0 - keyed.draws(3, 17, 4))
    assert np.array_equal(a, c)
    # different keys give different values
    assert not np.array_equal(a, period_backlog(cfg, run=4, period=17).packets)
    assert not np.array_equal(a, period_backlog(cfg, run=3, period=18).packets)


@pytest.mark.parametrize("n_nodes", [5, 8])
def test_draws_do_not_repeat_across_periods(n_nodes):
    # Each Philox block gives 4 doubles; with more than 4 nodes a period's
    # draws must not reach into the blocks of the next period.
    cfg = paper_config(n_nodes=n_nodes)
    keyed = _KeyedUniform(cfg.seed)
    for run in range(3):
        draws = np.concatenate([keyed.draws(run, period, n_nodes)
                                for period in range(50)])
        assert np.unique(draws).size == draws.size
        backlogs = np.concatenate([period_backlog(cfg, run, period).packets
                                   for period in range(50)])
        assert np.unique(backlogs).size == backlogs.size
        assert np.array_equal(backlogs, cfg.lam * (1.0 - draws))


def test_draw_backlogs_range_and_mean():
    rng = _period_rng(0, 0, 0, 1000)
    draws = np.concatenate([
        draw_backlogs(1.0, 100, 30.0, _period_rng(0, run, 0, 100)).packets
        for run in range(1000)])
    assert np.all(draws > 0.0) and np.all(draws <= 1.0)
    assert abs(draws.mean() - 0.5) < 0.01
    wide = draw_backlogs(2.0, 1000, 30.0, rng).packets
    assert np.all(wide > 0.0) and np.all(wide <= 2.0)


def test_run_period_success_and_depletion():
    cfg = paper_config()
    backlog = Backlog(np.full(4, 0.01), 30.0)
    energies = np.full(4, 2.0)
    after, ok, report = run_period(backlog, "minmax", cfg, energies)
    assert ok
    assert np.all(after < energies) and np.all(after >= 0.0)
    assert np.array_equal(energies, np.full(4, 2.0))  # input untouched

    depleted = np.array([0.0, 2.0, 2.0, 2.0])
    after, ok, _ = run_period(backlog, "minmax", cfg, depleted)
    assert not ok
    assert np.array_equal(after, depleted)


def test_run_period_minicost_fails_where_minmax_survives():
    cfg = paper_config(n_nodes=2, noise=NoiseModel(1.0))
    backlog = Backlog(np.array([1.0, 2.0]), 30.0)
    energies = np.array([2000.0, 1700.0])
    _, ok_mini, report = run_period(backlog, "minicost", cfg, energies)
    assert not ok_mini
    assert report.per_node_energy[1] == pytest.approx(1800.0, rel=1e-9)
    after, ok_mm, report = run_period(backlog, "minmax", cfg, energies)
    assert ok_mm
    assert np.allclose(report.per_node_energy, 945.0, atol=1e-6)


def test_zero_energy_and_period_cap():
    dead = paper_config(initial_energy=0.0, runs=3)
    assert all(r.lifetime_periods == 0 for r in simulate_lifetime(dead))

    immortal = paper_config(initial_energy=1e12, runs=2, period_cap=25)
    for r in simulate_lifetime(immortal):
        assert r.lifetime_periods == 25
        assert r.censored


def test_energy_ledger():
    cfg = paper_config(runs=10)
    for run, result in enumerate(simulate_lifetime(cfg)):
        spent = 0.0
        energies = np.full(4, 2.0)
        for period in range(result.lifetime_periods):
            backlog = period_backlog(cfg, run, period)
            energies, ok, report = run_period(backlog, "minmax", cfg, energies)
            assert ok
            spent += report.per_node_energy.sum()
        assert np.allclose(energies, result.residual_energy, atol=1e-12)
        assert spent + result.residual_energy.sum() == pytest.approx(
            4 * 2.0, abs=1e-9)


def test_simulation_determinism():
    cfg = paper_config(runs=8)
    a = simulate_lifetime(cfg)
    b = simulate_lifetime(cfg)
    assert [r.lifetime_periods for r in a] == [r.lifetime_periods for r in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.residual_energy, y.residual_energy)
        assert x.per_period_max_power == y.per_period_max_power


def test_compare_strategies_common_draws_and_ordering():
    cfg = paper_config(runs=30)
    table = compare_strategies(cfg)
    assert set(table.stats) == {"minmax", "minicost", "tdma"}
    # lifetimes match standalone simulations (identical draw keys)
    solo = simulate_lifetime(paper_config(runs=30, strategy="minicost"))
    assert np.array_equal(table.lifetimes["minicost"],
                          [r.lifetime_periods for r in solo])
    # per-run dominance under common random numbers
    assert np.all(table.lifetimes["minmax"] >= table.lifetimes["minicost"])
    assert table.stats["minmax"].mean_max_power <= (
        table.stats["minicost"].mean_max_power)


def test_lambda_monotonicity_smoke():
    means = []
    for lam in (0.4, 1.0):
        cfg = paper_config(runs=40, lam=lam, strategy="minmax")
        res = simulate_lifetime(cfg)
        means.append(np.mean([r.lifetime_periods for r in res]))
    assert means[0] > means[1]


def test_config_validation():
    with pytest.raises(ValueError):
        paper_config(runs=0)
    with pytest.raises(ValueError):
        paper_config(lam=0.0)
    with pytest.raises(ValueError):
        paper_config(strategy="roundrobin")
