"""Monte Carlo simulator: draws, period accounting, determinism, comparisons."""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from macfair import (
    STRATEGIES,
    Backlog,
    NoiseModel,
    SimConfig,
    compare_strategies,
    compare_sweep,
    draw_backlogs,
    lifetime,
    period_backlog,
    period_energies,
    simulate_lifetime,
)
from macfair.lifetime import _draw, _period_rng, _results, _simulate

NOISE = NoiseModel(1e-3)


def paper_config(**overrides):
    base = dict(n_nodes=4, initial_energy=2.0, period=30.0, packet_bits=30.0,
                noise=NOISE, lam=1.0, runs=20, seed=1)
    base.update(overrides)
    return SimConfig(**base)


def chunked_draws(cfg, run, chunks):
    """A run's backlogs drawn in chunks of the given lengths, one row per
    period."""
    sizes = np.array(chunks)
    bits = np.random.Philox()
    return np.concatenate([
        _draw(cfg, bits, np.array([cfg.lam]), np.array([run]),
              np.array([start]), np.array([k]))
        for start, k in zip(np.cumsum(sizes) - sizes, sizes)])


def test_draws_are_reproducible_and_order_independent():
    cfg = paper_config()
    a = period_backlog(cfg, run=3, period=17).packets
    b = period_backlog(cfg, run=3, period=17).packets
    assert np.array_equal(a, b)
    c = chunked_draws(cfg, 3, (5, 12, 1))[17]
    assert np.array_equal(a, c)
    # one call that draws other runs before and after it
    d = _draw(cfg, np.random.Philox(), np.full(3, cfg.lam), np.array([9, 3, 4]),
              np.array([0, 17, 2]), np.array([1, 1, 3]))[1]
    assert np.array_equal(a, d)
    # different keys give different values
    assert not np.array_equal(a, period_backlog(cfg, run=4, period=17).packets)
    assert not np.array_equal(a, period_backlog(cfg, run=3, period=18).packets)


@pytest.mark.parametrize("n_nodes", [4, 5, 8])
def test_draws_do_not_repeat_across_periods(n_nodes):
    # Each Philox block gives 4 doubles; with more than 4 nodes a period's
    # draws must not reach into the blocks of the next period.  A run's
    # stream, read in chunks of any length, must give every period's keyed
    # draw, and so must the one-period-at-a-time oracle.
    cfg = paper_config(n_nodes=n_nodes)
    chunks = (1, 15, 16, 17, 51)
    periods = sum(chunks)
    for run in range(3):
        stream = chunked_draws(cfg, run, chunks)
        assert np.unique(stream).size == stream.size
        backlogs = np.stack([period_backlog(cfg, run, period).packets
                             for period in range(periods)])
        assert np.array_equal(backlogs, stream)
        oracle = oracles._run_backlogs(cfg, run)
        assert np.array_equal(
            np.stack([next(oracle).packets for _ in range(periods)]), stream)


def test_draw_backlogs_range_and_mean():
    rng = _period_rng(0, 0, 0, 1000)
    draws = np.concatenate([
        draw_backlogs(1.0, 100, 30.0, _period_rng(0, run, 0, 100)).packets
        for run in range(1000)])
    assert np.all(draws > 0.0) and np.all(draws <= 1.0)
    assert abs(draws.mean() - 0.5) < 0.01
    wide = draw_backlogs(2.0, 1000, 30.0, rng).packets
    assert np.all(wide > 0.0) and np.all(wide <= 2.0)


@pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0, -1.0])
def test_draw_backlogs_names_lam(lam):
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        draw_backlogs(lam, 4, 30.0, _period_rng(0, 0, 0, 4))


def _fixed_backlog_runs(monkeypatch, backlog, **overrides):
    """Every strategy's single run when every period has the same backlog."""
    monkeypatch.setattr(lifetime, "_draw",
                        lambda config, bits, lams, runs, first, sizes:
                        np.tile(backlog.packets, (sizes.sum(), 1)))
    results = simulate_lifetime(paper_config(runs=1, **overrides))
    return {s: runs[0] for s, runs in results.items()}


def test_depletion_rule(monkeypatch):
    # A period runs only if every node can pay its full share; paying to
    # exactly zero is allowed, and the failed period leaves the batteries
    # as they were.  Each strategy keeps its own ledger.
    backlog = Backlog(np.full(4, 0.01), 30.0)
    spent = period_energies(backlog, 30.0, NOISE)
    budget = float(spent["minmax"][0] * 2)
    results = _fixed_backlog_runs(monkeypatch, backlog, initial_energy=budget)
    mm = results["minmax"]
    assert mm.lifetime_periods == 2 and not mm.censored
    assert np.array_equal(mm.residual_energy,
                          budget - spent["minmax"] - spent["minmax"])
    for s in ("minicost", "tdma"):
        r = results[s]
        battery = np.full(4, budget)
        for _ in range(r.lifetime_periods):
            battery = battery - spent[s]
        assert np.array_equal(r.residual_energy, battery)
        assert not np.all(spent[s] <= battery)


def test_minicost_fails_where_minmax_survives(monkeypatch):
    noise = NoiseModel(1.0)
    backlog = Backlog(np.array([1.0, 2.0]), 30.0)
    spent = period_energies(backlog, 30.0, noise)
    assert spent["minicost"][1] == pytest.approx(1800.0, rel=1e-9)
    assert np.allclose(spent["minmax"], 945.0, atol=1e-6)
    results = _fixed_backlog_runs(monkeypatch, backlog, n_nodes=2,
                                  noise=noise, initial_energy=1700.0)
    assert results["minicost"].lifetime_periods == 0
    assert np.array_equal(results["minicost"].residual_energy, [1700.0] * 2)
    assert results["minmax"].lifetime_periods == 1
    assert np.allclose(results["minmax"].residual_energy, 755.0, atol=1e-6)
    assert results["minmax"].per_period_max_power == pytest.approx((31.5,))


def test_zero_energy_and_period_cap():
    dead = paper_config(initial_energy=0.0, runs=3)
    for results in simulate_lifetime(dead).values():
        assert all(r.lifetime_periods == 0 for r in results)

    immortal = paper_config(initial_energy=1e12, runs=2, period_cap=25)
    for results in simulate_lifetime(immortal).values():
        for r in results:
            assert r.lifetime_periods == 25
            assert r.censored


def test_energy_ledger():
    cfg = paper_config(runs=10)
    for s, results in simulate_lifetime(cfg).items():
        for run, result in enumerate(results):
            spent = 0.0
            energies = np.full(4, 2.0)
            for period in range(result.lifetime_periods):
                e = period_energies(period_backlog(cfg, run, period),
                                    cfg.period, cfg.noise)[s]
                assert np.all(e <= energies)
                energies = energies - e
                spent += e.sum()
            assert np.array_equal(energies, result.residual_energy)
            assert spent + result.residual_energy.sum() == pytest.approx(
                4 * 2.0, abs=1e-9)


def test_simulation_determinism():
    cfg = paper_config(runs=8)
    a = simulate_lifetime(cfg)
    b = simulate_lifetime(cfg)
    assert set(a) == set(STRATEGIES)
    for s in STRATEGIES:
        assert ([r.lifetime_periods for r in a[s]]
                == [r.lifetime_periods for r in b[s]])
        for x, y in zip(a[s], b[s]):
            assert np.array_equal(x.residual_energy, y.residual_energy)
            assert x.per_period_max_power == y.per_period_max_power


def test_compare_strategies_common_draws_and_ordering():
    cfg = paper_config(runs=30)
    table = compare_strategies(cfg)
    assert set(table.stats) == {"minmax", "minicost", "tdma"}
    # lifetimes match standalone simulations (identical draw keys)
    solo = simulate_lifetime(paper_config(runs=30))
    for s in STRATEGIES:
        assert np.array_equal(table.lifetimes[s],
                              [r.lifetime_periods for r in solo[s]])
    # per-run dominance under common random numbers
    assert np.all(table.lifetimes["minmax"] >= table.lifetimes["minicost"])
    assert table.stats["minmax"].mean_max_power <= (
        table.stats["minicost"].mean_max_power)


def test_lambda_monotonicity_smoke():
    means = []
    for lam in (0.4, 1.0):
        cfg = paper_config(runs=40, lam=lam)
        res = simulate_lifetime(cfg)["minmax"]
        means.append(np.mean([r.lifetime_periods for r in res]))
    assert means[0] > means[1]


def test_config_validation():
    with pytest.raises(ValueError):
        paper_config(runs=0)
    with pytest.raises(ValueError):
        paper_config(lam=0.0)


@pytest.mark.parametrize("overrides", [
    dict(initial_energy=np.inf), dict(period=np.inf), dict(packet_bits=np.inf),
    dict(lam=np.inf), dict(period_cap=0),
    dict(noise=NoiseModel(1e-3, gains=[1.0, 2.0, 4.0])),
], ids=["energy-inf", "period-inf", "bits-inf", "lam-inf", "cap0", "gains3"])
def test_config_rejects_non_finite_and_inconsistent_values(overrides):
    # An infinite battery would run every run to the period cap and a zero
    # cap would simulate nothing; either would give NaN means.
    with pytest.raises(ValueError):
        paper_config(**overrides)

def test_config_rejects_a_lam_whose_sum_power_overflows():
    # Every node at lam sums to 4 * lam bits per channel use here; at
    # -30 dB the sum power overflows past about 261.  The check is on the
    # config, so no run depends on which periods happen to be priced.
    with pytest.raises(ValueError, match="lam = 100 is too large"):
        paper_config(lam=100.0)
    with pytest.raises(ValueError, match="lam = 66 is too large"):
        paper_config(lam=66.0)
    paper_config(lam=65.0)
    with pytest.raises(ValueError, match="lam = 100 is too large"):
        paper_config(lam=100.0, noise=NoiseModel(1e-3, gains=[0.5, 1, 2, 4]))


@pytest.mark.parametrize("overrides", [
    dict(lam=0.6), dict(lam=1.0), dict(n_nodes=5, lam=0.6),
    dict(n_nodes=8, lam=0.4),
    dict(noise=NoiseModel(1e-3, gains=[0.5, 1.0, 2.0, 4.0]), lam=0.6),
    dict(initial_energy=0.0), dict(initial_energy=1e3, period_cap=25),
], ids=["lam0.6", "lam1.0", "n5", "n8", "gains", "no-energy", "cap25"])
def test_engine_matches_schedule_oracle(overrides):
    cfg = paper_config(**{"runs": 20, **overrides})
    engine = simulate_lifetime(cfg)
    for s in STRATEGIES:
        for ours, ref in zip(engine[s], oracles.simulate_with_schedules(cfg, s),
                             strict=True):
            assert ours.lifetime_periods == ref.lifetime_periods
            assert ours.censored == ref.censored
            assert np.allclose(ours.residual_energy, ref.residual_energy,
                               rtol=0.0, atol=1e-12)
            assert np.allclose(ours.per_period_max_power,
                               ref.per_period_max_power, rtol=1e-12, atol=0.0)


ORACLE_CASES = {
    "n4": dict(),
    "n5": dict(n_nodes=5),
    "n8": dict(n_nodes=8, initial_energy=4.0),
    "gains": dict(noise=NoiseModel(1e-3, gains=[0.5, 1.0, 2.0, 4.0])),
}


@pytest.mark.parametrize("cap", [1, 15, 16, 17, 33, None])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_engine_matches_run_oracle(case, cap):
    # The chunked engine against the one-period loop, exactly.  Lifetimes
    # of 5 to 40 periods and the caps put deaths and caps on, before and
    # after the chunk boundaries (the first chunk has FIRST_CHUNK = 16
    # periods).
    cap = {} if cap is None else {"period_cap": cap}
    for lam in (0.6, 1.0):
        cfg = paper_config(runs=8, lam=lam, **cap, **ORACLE_CASES[case])
        engine = simulate_lifetime(cfg)
        for run in range(cfg.runs):
            ref = oracles._simulate_run(cfg, run)
            for s in STRATEGIES:
                ours = engine[s][run]
                assert ours.lifetime_periods == ref[s].lifetime_periods
                assert ours.censored == ref[s].censored
                assert np.array_equal(ours.residual_energy,
                                      ref[s].residual_energy)
                assert ours.per_period_max_power == (
                    ref[s].per_period_max_power)


def test_engine_row_cap_splits_steps(monkeypatch):
    # Steps of at most 20 periods, one run's chunk at a time, give the same
    # runs as the loop.
    monkeypatch.setattr(lifetime, "MAX_CELLS", 20 * 4)
    cfg = paper_config(runs=6, lam=0.4)
    engine = simulate_lifetime(cfg)
    for run in range(cfg.runs):
        ref = oracles._simulate_run(cfg, run)
        for s in STRATEGIES:
            assert engine[s][run].lifetime_periods > 20
            assert engine[s][run].lifetime_periods == ref[s].lifetime_periods
            assert np.array_equal(engine[s][run].residual_energy,
                                  ref[s].residual_energy)
            assert engine[s][run].per_period_max_power == (
                ref[s].per_period_max_power)


def assert_same_runs(ours, ref):
    """Two ``{strategy: [RunResult, ...]}`` are equal bit for bit."""
    for s in STRATEGIES:
        for a, b in zip(ours[s], ref[s], strict=True):
            assert a.lifetime_periods == b.lifetime_periods
            assert a.censored == b.censored
            assert np.array_equal(a.residual_energy, b.residual_energy)
            assert a.per_period_max_power == b.per_period_max_power


SWEEP_CASES = {
    # Unsorted, one bound twice, and the config's own bound not swept.
    "unsorted-dup": (dict(lam=0.8), (1.0, 0.4, 1.0, 0.6)),
    "gains": (dict(noise=NoiseModel(1e-3, gains=[0.5, 1.0, 2.0, 4.0])),
              (0.6, 1.0, 0.45)),
    # Runs at 0.3 outlast the cap and end censored; at 1.0 they die first.
    "cap": (dict(period_cap=30), (0.3, 1.0, 0.5)),
    # After the first step, runs at 0.2 draw chunks of hundreds of periods
    # and runs at 1.0 chunks of tens, in the same step.
    "ragged": (dict(), (0.2, 1.0)),
}


@pytest.mark.parametrize("max_cells", [None, 40 * 4])
@pytest.mark.parametrize("case", SWEEP_CASES)
def test_sweep_pass_matches_each_lambda_and_the_oracle(monkeypatch, case,
                                                       max_cells):
    # One engine pass over every (lambda, run) against one engine call per
    # lambda and the one-period loop.  With MAX_CELLS at 160 a step holds
    # at most 40 periods: two first chunks (one step joins the last run of
    # a lambda and the first of the next), and the pass takes many steps.
    overrides, lams = SWEEP_CASES[case]
    if max_cells is not None:
        monkeypatch.setattr(lifetime, "MAX_CELLS", max_cells)
    steps = []
    chunks = lifetime._chunks

    def spy(*args):
        steps.append(chunks(*args))
        return steps[-1]

    monkeypatch.setattr(lifetime, "_chunks", spy)
    cfg = paper_config(runs=5, **overrides)
    bounds = list(dict.fromkeys(lams))
    sweep = _simulate(cfg, bounds)
    if case == "ragged":
        longest = 4 * min(steps[1]) if max_cells is None else max_cells // 4
        assert max(steps[1]) >= longest
    assert sweep.lifetimes.shape == (len(STRATEGIES), len(bounds), cfg.runs)
    for k, lam in enumerate(bounds):
        one = replace(cfg, lam=lam)
        ours = _results(sweep, k)
        assert_same_runs(ours, simulate_lifetime(one))
        oracle = [oracles._simulate_run(one, run) for run in range(cfg.runs)]
        assert_same_runs(ours, {s: [ref[s] for ref in oracle]
                                for s in STRATEGIES})
    if case == "cap":
        censored = [r.censored for k in range(len(bounds))
                    for r in _results(sweep, k)["tdma"]]
        assert any(censored) and not all(censored)


def test_compare_sweep_equals_compare_strategies_per_lambda():
    cfg = paper_config(runs=6, lam=0.8)
    tables = compare_sweep(cfg, [1.0, 0.4, 1.0, 0.6])
    assert list(tables) == [1.0, 0.4, 0.6]
    for lam, table in tables.items():
        solo = compare_strategies(replace(cfg, lam=lam))
        assert table.stats == solo.stats
        assert (table.seed, table.runs) == (solo.seed, solo.runs)
        for s in STRATEGIES:
            assert np.array_equal(table.lifetimes[s], solo.lifetimes[s])


@pytest.mark.parametrize("overrides", [
    dict(runs=5), dict(runs=5, initial_energy=0.0),
    dict(runs=4, initial_energy=1e3, period_cap=300),
    dict(runs=4, noise=NoiseModel(1e-3, gains=[0.5, 1.0, 2.0, 4.0])),
], ids=["paper", "no-energy", "cap", "gains"])
@pytest.mark.parametrize("max_cells", [None, 40 * 4])
def test_chunk_sizes_follow_the_per_unit_rule(monkeypatch, overrides,
                                              max_cells):
    # The array sizing gives every live unit the chunk the one-unit rule
    # gives it, including units with no completed period next to units
    # with many, empty batteries, and batteries that barely move.
    if max_cells is not None:
        monkeypatch.setattr(lifetime, "MAX_CELLS", max_cells)
    calls = []
    chunks = lifetime._chunks

    def spy(config, battery, alive, period, max_rows):
        sizes = chunks(config, battery, alive, period, max_rows)
        calls.append((battery.copy(), alive.copy(), period.copy(), max_rows,
                      sizes))
        return sizes

    monkeypatch.setattr(lifetime, "_chunks", spy)
    cfg = paper_config(**overrides)
    _simulate(cfg, [0.2, 1.0])
    assert calls
    for battery, alive, period, max_rows, sizes in calls:
        assert sizes.tolist() == [
            oracles.chunk(cfg, battery[:, u], alive[:, u], int(period[u]),
                          max_rows)
            for u in range(period.size)]


def assert_same_table(table, ref):
    """Two comparison tables are equal bit for bit (``repr``, since a mean
    over no run is nan)."""
    assert repr(table.stats) == repr(ref.stats)
    assert (table.seed, table.runs) == (ref.seed, ref.runs)
    assert list(table.lifetimes) == list(ref.lifetimes)
    for s in STRATEGIES:
        assert table.lifetimes[s].dtype == ref.lifetimes[s].dtype
        assert np.array_equal(table.lifetimes[s], ref.lifetimes[s])


STATS_CASES = {
    "unit-sweep": (dict(lam=0.8), (1.0, 0.4, 0.6)),
    "gains": (dict(noise=NoiseModel(1e-3, gains=[0.5, 1.0, 2.0, 4.0])),
              (0.6, 1.0)),
    "cap": (dict(period_cap=30), (0.3, 1.0)),
    "n7": (dict(n_nodes=7, initial_energy=4.0), (0.6, 1.0)),
    "one-run": (dict(runs=1), (0.6, 1.0)),
    "no-energy": (dict(initial_energy=0.0), (0.6, 1.0)),
}


@pytest.mark.parametrize("case", STATS_CASES)
def test_tables_equal_the_statistics_oracle(case):
    # The array statistics against the one-run-at-a-time statistics of the
    # one-period loop's runs, bit for bit.
    overrides, lams = STATS_CASES[case]
    cfg = paper_config(**{"runs": 6, **overrides})
    tables = compare_sweep(cfg, lams)
    assert list(tables) == list(lams)
    censored = []
    for lam in lams:
        one = replace(cfg, lam=lam)
        runs = [oracles._simulate_run(one, run) for run in range(cfg.runs)]
        censored += [r[s].censored for r in runs for s in STRATEGIES]
        ref = oracles.tabulate(one, {s: [r[s] for r in runs]
                                     for s in STRATEGIES})
        assert_same_table(tables[lam], ref)
        assert_same_table(compare_strategies(one), ref)
        for s in STRATEGIES:
            stats = tables[lam].stats[s]
            if case == "one-run":
                assert stats.std_lifetime == 0.0
            if case == "no-energy":
                assert not tables[lam].lifetimes[s].any()
                assert np.isnan(stats.mean_max_power)
                assert np.isnan(stats.mean_sum_energy)
    if case == "cap":
        assert any(censored) and not all(censored)


def test_sweep_statistics_build_no_run_results(monkeypatch):
    cfg = paper_config(runs=6,
                       noise=NoiseModel(1e-3, gains=[0.5, 1.0, 2.0, 4.0]))
    lams = (0.6, 1.0, 0.45)
    expected = compare_sweep(cfg, lams)

    def refuse(*args, **kwargs):
        raise AssertionError("a RunResult was built")

    monkeypatch.setattr(lifetime, "RunResult", refuse)
    tables = compare_sweep(cfg, lams)
    for lam in lams:
        assert_same_table(tables[lam], expected[lam])
    with pytest.raises(AssertionError, match="RunResult"):
        simulate_lifetime(cfg)
