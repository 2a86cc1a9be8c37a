"""Monte Carlo simulator: draws, period accounting, determinism, comparisons."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from macfair import (
    STRATEGIES,
    Backlog,
    NoiseModel,
    SimConfig,
    compare_sweep,
    lifetime,
    scheduling,
)
from macfair.lifetime import _draw, _simulate

NOISE = NoiseModel(1e-3)

# The paper's backlog bound, in packets.
LAM = 1.0


def paper_config(**overrides):
    base = dict(n_nodes=4, initial_energy=2.0, period=30.0, packet_bits=30.0,
                noise=NOISE, runs=20, seed=1)
    base.update(overrides)
    return SimConfig(**base)


def config_and_bound(**overrides):
    """``paper_config`` of the overrides other than ``lam``, and the bound
    ``lam`` (``LAM`` unless given)."""
    lam = overrides.pop("lam", LAM)
    return paper_config(**overrides), lam


def chunked_draws(cfg, lam, run, chunks):
    """A run's backlogs at bound ``lam`` drawn in chunks of the given
    lengths, one row per period."""
    bits = np.random.Philox()
    starts = np.cumsum(chunks) - chunks
    return np.concatenate([
        lam * _draw(cfg, bits, np.array([run]), int(start), k)[0]
        for start, k in zip(starts, chunks)])


def test_draws_are_reproducible_and_order_independent():
    cfg = paper_config()
    a = oracles.period_backlog(cfg, LAM, run=3, period=17).packets
    b = oracles.period_backlog(cfg, LAM, run=3, period=17).packets
    assert np.array_equal(a, b)
    c = chunked_draws(cfg, LAM, 3, (5, 12, 1))[17]
    assert np.array_equal(a, c)
    # one call that draws other runs before and after it
    d = LAM * _draw(cfg, np.random.Philox(), np.array([9, 3, 4]), 15, 3)
    assert np.array_equal(a, d[1, 2])
    # different keys give different values
    for run, period in ((4, 17), (3, 18)):
        assert not np.array_equal(
            a, oracles.period_backlog(cfg, LAM, run, period).packets)


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
        stream = chunked_draws(cfg, LAM, run, chunks)
        assert np.unique(stream).size == stream.size
        backlogs = np.stack([
            oracles.period_backlog(cfg, LAM, run, period).packets
            for period in range(periods)])
        assert np.array_equal(backlogs, stream)
        oracle = oracles._run_backlogs(cfg, LAM, run)
        assert np.array_equal(
            np.stack([next(oracle).packets for _ in range(periods)]), stream)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n_nodes=st.integers(1, 16), seed=st.integers(0, 2 ** 64 - 1),
       runs=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4,
                     unique=True),
       first=st.integers(0, 10 ** 6),
       chunks=st.lists(st.integers(1, 40), min_size=1, max_size=3))
def test_drawn_shapes_draw_the_keyed_periods(n_nodes, seed, runs, first,
                                             chunks):
    # For any n, runs and chunking of the periods from any first one, every
    # row of _draw is the one-period reference draw of its (run, period),
    # and no value repeats across (run, period, node).
    cfg = paper_config(n_nodes=n_nodes, seed=seed)
    starts = first + np.cumsum(chunks) - chunks
    rows = np.concatenate([_draw(cfg, np.random.Philox(), np.array(runs),
                                 int(start), k)
                           for start, k in zip(starts, chunks)], axis=1)
    assert rows.shape == (len(runs), sum(chunks), n_nodes)
    assert np.unique(rows).size == rows.size
    for run, periods in zip(runs, rows):
        for period, row in enumerate(periods, first):
            assert np.array_equal(
                row, oracles.period_backlog(cfg, 1.0, run, period).packets)


@pytest.mark.parametrize("max_cells", [None, 40 * 4])
@pytest.mark.parametrize("lams", [(1.0,), (1.0, 0.4), (0.2, 0.4, 0.6, 0.8, 1.0)],
                         ids=["one", "two", "five"])
def test_a_slice_draws_each_run_once(monkeypatch, lams, max_cells):
    # However many bounds a slice holds, it draws each of its runs once,
    # and each bound scales the same rows to its own backlogs.  With
    # MAX_CELLS at 160 the bounds of a run span several slices.
    if max_cells is not None:
        monkeypatch.setattr(lifetime, "MAX_CELLS", max_cells)
    calls = []
    draw = lifetime._draw

    def spy(config, bits, runs, first, size):
        calls.append((runs.copy(), first, draw(config, bits, runs, first,
                                                size)))
        return calls[-1][2]

    monkeypatch.setattr(lifetime, "_draw", spy)
    cfg = paper_config(runs=3)
    _simulate(cfg, list(lams))
    assert calls
    for runs, first, rows in calls:
        assert np.unique(runs).size == runs.size
        for lam in lams:
            for run, periods in zip(runs.tolist(), rows):
                for period, row in enumerate(periods, first):
                    assert np.array_equal(
                        lam * row,
                        oracles.period_backlog(cfg, lam, run, period).packets)


def test_draws_at_bound_one_range_and_mean():
    # The draws at bound 1 lie on (0, 1], never exactly zero; each unit
    # scales them by its bound (test_a_slice_draws_each_run_once).
    cfg = paper_config(n_nodes=100, seed=0)
    draws = _draw(cfg, np.random.Philox(), np.arange(1000), 0, 1)
    assert np.all(draws > 0.0) and np.all(draws <= 1.0)
    assert abs(draws.mean() - 0.5) < 0.01


@pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0, -1.0])
def test_simconfig_names_a_bad_lam(lam):
    # The engine draws at the bounds that compare_sweep has checked by
    # SimConfig's rule.
    with pytest.raises(ValueError,
                       match=r"^lam must be positive and finite$"):
        compare_sweep(paper_config(), [lam])


def _fixed_backlog_runs(monkeypatch, backlog, **overrides):
    """Every strategy's single run when every period has the same backlog
    (the bound is 1, so the draws at bound 1 are the backlogs)."""
    monkeypatch.setattr(lifetime, "_draw",
                        lambda config, bits, runs, first, size:
                        np.tile(backlog.packets, (runs.size, size, 1)))
    results = oracles.engine_runs(paper_config(runs=1, **overrides), 1.0)
    return {s: runs[0] for s, runs in results.items()}


def test_depletion_rule(monkeypatch):
    # A period runs only if every node can pay its full share; paying to
    # exactly zero is allowed, and the failed period leaves the batteries
    # as they were.  Each strategy keeps its own ledger.
    backlog = Backlog(np.full(4, 0.01), 30.0)
    spent = oracles.period_energies(backlog, 30.0, NOISE)
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
    spent = oracles.period_energies(backlog, 30.0, noise)
    assert spent["minicost"][1] == pytest.approx(1800.0, rel=1e-9)
    assert np.allclose(spent["minmax"], 945.0, atol=1e-6)
    results = _fixed_backlog_runs(monkeypatch, backlog, n_nodes=2,
                                  noise=noise, initial_energy=1700.0)
    assert results["minicost"].lifetime_periods == 0
    assert np.array_equal(results["minicost"].residual_energy, [1700.0] * 2)
    assert results["minmax"].lifetime_periods == 1
    assert np.allclose(results["minmax"].residual_energy, 755.0, atol=1e-6)
    assert results["minmax"].peak_sum == pytest.approx(31.5)


def test_zero_energy_and_period_cap():
    dead = paper_config(initial_energy=0.0, runs=3)
    for results in oracles.engine_runs(dead, LAM).values():
        assert all(r.lifetime_periods == 0 for r in results)

    immortal = paper_config(initial_energy=1e12, runs=2, period_cap=25)
    for results in oracles.engine_runs(immortal, LAM).values():
        for r in results:
            assert r.lifetime_periods == 25


def test_energy_ledger():
    cfg = paper_config(runs=10)
    for s, results in oracles.engine_runs(cfg, LAM).items():
        for run, result in enumerate(results):
            spent = 0.0
            energies = np.full(4, 2.0)
            for period in range(result.lifetime_periods):
                backlog = oracles.period_backlog(cfg, LAM, run, period)
                e = oracles.period_energies(backlog, cfg.period, cfg.noise)[s]
                assert np.all(e <= energies)
                energies = energies - e
                spent += e.sum()
            assert np.array_equal(energies, result.residual_energy)
            assert spent + result.residual_energy.sum() == pytest.approx(
                4 * 2.0, abs=1e-9)


def test_simulation_determinism():
    cfg = paper_config(runs=8)
    a = oracles.engine_runs(cfg, LAM)
    b = oracles.engine_runs(cfg, LAM)
    assert set(a) == set(STRATEGIES)
    for s in STRATEGIES:
        assert ([r.lifetime_periods for r in a[s]]
                == [r.lifetime_periods for r in b[s]])
        for x, y in zip(a[s], b[s]):
            assert np.array_equal(x.residual_energy, y.residual_energy)
            assert x.peak_sum == y.peak_sum


def test_compare_sweep_common_draws_and_ordering():
    cfg = paper_config(runs=30)
    table = compare_sweep(cfg, [LAM])[LAM]
    assert set(table.stats) == {"minmax", "minicost", "tdma"}
    # lifetimes match standalone simulations (identical draw keys)
    solo = oracles.engine_runs(paper_config(runs=30), LAM)
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
        cfg = paper_config(runs=40)
        means.append(compare_sweep(cfg, [lam])[lam].lifetimes["minmax"].mean())
    assert means[0] > means[1]


def test_config_validation():
    with pytest.raises(ValueError):
        paper_config(runs=0)
    with pytest.raises(ValueError):
        compare_sweep(paper_config(), [0.0])
    # numpy integers are integers.
    cfg = paper_config(n_nodes=np.int64(4), runs=np.int32(2),
                       seed=np.uint64(1), period_cap=np.int64(10))
    assert (cfg.n_nodes, cfg.runs, cfg.seed, cfg.period_cap) == (4, 2, 1, 10)


@pytest.mark.parametrize("overrides", [
    dict(initial_energy=np.inf), dict(period=np.inf), dict(packet_bits=np.inf),
    dict(lam=np.inf), dict(period_cap=0),
    dict(noise=NoiseModel(1e-3, gains=[1.0, 2.0, 4.0])),
    dict(n_nodes=4.0), dict(runs=2.5), dict(seed=1.5),
    dict(period_cap=10.5),
], ids=["energy-inf", "period-inf", "bits-inf", "lam-inf", "cap0", "gains3",
        "nodes-float", "runs-float", "seed-float", "cap-float"])
def test_config_rejects_non_finite_and_inconsistent_values(overrides):
    # An infinite battery would run every run to the period cap and a zero
    # cap would simulate nothing; either would give NaN means.  A float
    # seed would simulate its integer part, and a float run count or cap
    # would fail inside numpy.  compare_sweep checks the bound.
    with pytest.raises(ValueError):
        cfg, lam = config_and_bound(**overrides)
        compare_sweep(cfg, [lam])

def test_config_rejects_a_lam_whose_sum_power_overflows():
    # Every node at lam sums to 4 * lam bits per channel use here; at
    # -30 dB the sum power overflows past about 261.  compare_sweep checks
    # the bound against the config before it simulates, so no run depends
    # on which periods happen to be priced.
    with pytest.raises(ValueError) as err:
        compare_sweep(paper_config(), [100.0])
    assert str(err.value) == (
        "lam = 100 is too large: the rates sum to 400 bits per channel use; "
        "above about 261 the sum power overflows at this noise power")
    with pytest.raises(ValueError, match="lam = 66 is too large"):
        compare_sweep(paper_config(), [66.0])
    compare_sweep(paper_config(), [65.0])
    with pytest.raises(ValueError, match="lam = 100 is too large"):
        compare_sweep(paper_config(noise=NoiseModel(1e-3,
                                                    gains=[0.5, 1, 2, 4])),
                      [100.0])
    # 600 bits per channel use: past the 512 at which the rank in units of
    # a 1e-200 W noise power overflows.
    with pytest.raises(ValueError, match="lam = 1 is too large"):
        compare_sweep(paper_config(n_nodes=2, period=1.0, packet_bits=300.0,
                                   noise=NoiseModel(1e-200)), [1.0])


@pytest.mark.parametrize("overrides", [
    dict(lam=0.6), dict(lam=1.0), dict(n_nodes=5, lam=0.6),
    dict(n_nodes=8, lam=0.4),
    dict(noise=NoiseModel(1e-3, gains=[0.5, 1.0, 2.0, 4.0]), lam=0.6),
    dict(initial_energy=0.0), dict(initial_energy=1e3, period_cap=25),
], ids=["lam0.6", "lam1.0", "n5", "n8", "gains", "no-energy", "cap25"])
def test_engine_matches_schedule_oracle(overrides):
    cfg, lam = config_and_bound(**{"runs": 20, **overrides})
    engine = oracles.engine_runs(cfg, lam)
    for s in STRATEGIES:
        for ours, ref in zip(engine[s],
                             oracles.simulate_with_schedules(cfg, lam, s),
                             strict=True):
            assert ours.lifetime_periods == ref.lifetime_periods
            assert ours.censored == ref.censored
            assert np.allclose(ours.residual_energy, ref.residual_energy,
                               rtol=0.0, atol=1e-12)
            assert ours.peak_sum == pytest.approx(ref.peak_sum, rel=1e-12,
                                                  abs=0.0)


ORACLE_CASES = {
    "n4": dict(),
    "n5": dict(n_nodes=5),
    "n8": dict(n_nodes=8, initial_energy=4.0),
    "gains": dict(noise=NoiseModel(1e-3, gains=[0.5, 1.0, 2.0, 4.0])),
}


@pytest.mark.parametrize("cap", [1, 15, 16, 17, 33, 47, 48, 49, 143, 144, 145,
                                 None])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_engine_matches_run_oracle(case, cap):
    # The stepped engine against the one-period loop, exactly.  Steps end
    # after periods 16, 48 and 144.  The caps fall before, on and after
    # those ends, and lifetimes of 0 to about 230 periods put deaths there
    # too (at n = 4: 48 and 49 at lambda 0.6, 142, 144 and 146 at 0.3).
    cap = {} if cap is None else {"period_cap": cap}
    cfg = paper_config(runs=8, **cap, **ORACLE_CASES[case])
    for lam in (0.3, 0.6, 1.0):
        engine = oracles.engine_runs(cfg, lam)
        for run in range(cfg.runs):
            ref = oracles._simulate_run(cfg, lam, run)
            for s in STRATEGIES:
                ours = engine[s][run]
                assert ours.lifetime_periods == ref[s].lifetime_periods
                assert ours.censored == ref[s].censored
                assert np.array_equal(ours.residual_energy,
                                      ref[s].residual_energy)
                assert ours.peak_sum == ref[s].peak_sum


def test_engine_row_cap_splits_steps(monkeypatch):
    # Steps of at most 20 periods, one run at a time, give the same runs as
    # the loop.
    monkeypatch.setattr(lifetime, "MAX_CELLS", 20 * 4)
    cfg = paper_config(runs=6)
    engine = oracles.engine_runs(cfg, 0.4)
    for run in range(cfg.runs):
        ref = oracles._simulate_run(cfg, 0.4, run)
        for s in STRATEGIES:
            assert engine[s][run].lifetime_periods > 20
            assert engine[s][run].lifetime_periods == ref[s].lifetime_periods
            assert np.array_equal(engine[s][run].residual_energy,
                                  ref[s].residual_energy)
            assert engine[s][run].peak_sum == ref[s].peak_sum


def test_engine_memory_does_not_grow_with_the_periods():
    # Batteries of 200 J live twice the periods of 100 J (up to about 35,000
    # at bound 0.2), yet every array of a pass is bounded by MAX_CELLS or by
    # the number of units.
    peaks = []
    for energy in (100.0, 200.0):
        cfg = paper_config(runs=4, initial_energy=energy)
        tracemalloc.start()
        try:
            _simulate(cfg, [1.0, 0.2, 0.4, 0.6, 0.8])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def assert_same_runs(ours, ref):
    """Two ``{strategy: [oracles.Run, ...]}`` are equal bit for bit."""
    for s in STRATEGIES:
        for a, b in zip(ours[s], ref[s], strict=True):
            assert a.lifetime_periods == b.lifetime_periods
            assert a.censored == b.censored
            assert np.array_equal(a.residual_energy, b.residual_energy)
            assert a.peak_sum == b.peak_sum


SWEEP_CASES = {
    # Unsorted, and one bound twice.
    "unsorted-dup": (dict(), (1.0, 0.4, 1.0, 0.6)),
    "gains": (dict(noise=NoiseModel(1e-3, gains=[0.5, 1.0, 2.0, 4.0])),
              (0.6, 1.0, 0.45)),
    # Runs at 0.3 outlast the cap and end censored; at 1.0 they die first.
    "cap": (dict(period_cap=30), (0.3, 1.0, 0.5)),
    # Runs at 1.0 die within tens of periods and runs at 0.2 live for
    # hundreds, so the steps go on growing after most units have died.
    "ragged": (dict(), (0.2, 1.0)),
}


@pytest.mark.parametrize("max_cells", [None, 40 * 4])
@pytest.mark.parametrize("case", SWEEP_CASES)
def test_sweep_pass_matches_each_lambda_and_the_oracle(monkeypatch, case,
                                                       max_cells):
    # One engine pass over every (lambda, run) against one engine call per
    # lambda and the one-period loop.  With MAX_CELLS at 160 a step holds
    # at most 40 periods: two units share the first step's slices (one
    # slice joins two bounds of a run, or two runs), and the pass takes
    # many steps.
    overrides, lams = SWEEP_CASES[case]
    if max_cells is not None:
        monkeypatch.setattr(lifetime, "MAX_CELLS", max_cells)
    steps = []
    draw = lifetime._draw

    def spy(config, bits, runs, first, size):
        steps.append((first, size))
        return draw(config, bits, runs, first, size)

    monkeypatch.setattr(lifetime, "_draw", spy)
    cfg = paper_config(runs=5, **overrides)
    bounds = list(dict.fromkeys(lams))
    sweep = _simulate(cfg, bounds)
    if case == "ragged":
        # Every live unit is at the same period: each step is twice the
        # periods done (16 at first), up to the step's row limit.
        last = int(sweep.lifetimes.max())
        assert 144 <= last < 432
        expected = ([(0, 16), (16, 32), (48, 96), (144, 288)]
                    if max_cells is None else
                    [(0, 16), (16, 32)]
                    + [(first, 40) for first in range(48, last + 1, 40)])
        assert list(dict.fromkeys(steps)) == expected
    assert sweep.lifetimes.shape == (len(STRATEGIES), len(bounds), cfg.runs)
    for k, lam in enumerate(bounds):
        ours = oracles.sweep_runs(cfg, sweep, k)
        assert_same_runs(ours, oracles.engine_runs(cfg, lam))
        oracle = [oracles._simulate_run(cfg, lam, run)
                  for run in range(cfg.runs)]
        assert_same_runs(ours, {s: [ref[s] for ref in oracle]
                                for s in STRATEGIES})
    if case == "cap":
        censored = [r.censored for k in range(len(bounds))
                    for r in oracles.sweep_runs(cfg, sweep, k)["tdma"]]
        assert any(censored) and not all(censored)


def test_a_slice_replays_only_its_live_ledgers(monkeypatch):
    # Each slice replays one ledger per live (strategy, unit) pair, strategy
    # by strategy and unit by unit, priced on the unit's own backlogs, and
    # none for a strategy that has died in that unit.  At 1 J the
    # strategies of a unit die in different steps (minicost first), and
    # with MAX_CELLS at 160 a step's units span several slices.
    monkeypatch.setattr(lifetime, "MAX_CELLS", 40 * 4)
    calls, draw, replay = [], lifetime._draw, lifetime._replay

    def spy_draw(config, bits, runs, first, size):
        calls.append([first, size, None])
        return draw(config, bits, runs, first, size)

    def spy_replay(battery, spent):
        calls[-1][2] = spent.copy()
        return replay(battery, spent)

    monkeypatch.setattr(lifetime, "_draw", spy_draw)
    monkeypatch.setattr(lifetime, "_replay", spy_replay)
    cfg = paper_config(runs=3, initial_energy=1.0)
    lams = [0.2, 0.6, 1.0]
    sweep = _simulate(cfg, lams)
    # [strategy, unit], unit u being run u // 3 at bound lams[u % 3].
    life = sweep.lifetimes.swapaxes(1, 2).reshape(len(STRATEGIES), -1)
    energies = [energy for _, energy in scheduling._TABLE.values()]
    max_rows = lifetime.MAX_CELLS // cfg.n_nodes
    at = 0
    for first, size in dict.fromkeys((f, k) for f, k, _ in calls):
        # A ledger is live at the start of a step until the period it fails.
        live = np.flatnonzero((life >= first).any(axis=0))
        width = max(1, max_rows // size)
        for start in range(0, live.size, width):
            units = live[start:start + width]
            rows = [(s, u) for s in range(len(STRATEGIES))
                    for u in units.tolist() if life[s, u] >= first]
            assert calls[at][:2] == [first, size]
            spent = calls[at][2]
            at += 1
            assert spent.shape == (len(rows), size, cfg.n_nodes)
            for (s, u), ledger in zip(rows, spent):
                packets = lams[u % 3] * draw(cfg, np.random.Philox(),
                                             np.array([u // 3]), first,
                                             size)[0]
                assert np.array_equal(ledger, energies[s](
                    packets, cfg.packet_bits, cfg.period, cfg.noise))
    assert at == len(calls)
    # The step in which each ledger fails differs within some unit.
    step = np.searchsorted([f for f, _, _ in calls], life, "right")
    assert (step.min(axis=0) < step.max(axis=0)).any()


def test_compare_sweep_equals_a_sweep_per_lambda():
    cfg = paper_config(runs=6)
    tables = compare_sweep(cfg, [1.0, 0.4, 1.0, 0.6])
    assert list(tables) == [1.0, 0.4, 0.6]
    for lam, table in tables.items():
        solo = compare_sweep(cfg, [lam])[lam]
        assert table.stats == solo.stats
        for s in STRATEGIES:
            assert np.array_equal(table.lifetimes[s], solo.lifetimes[s])


GAINS = NoiseModel(1e-3, gains=[0.5, 1.0, 2.0, 4.0])


@pytest.mark.parametrize("noise", [NOISE, GAINS], ids=["paper", "gains"])
def test_no_strategy_outlives_the_offline_bound(noise):
    # T* bounds every schedule's lifetime on the same draws.  The bound is
    # met on some run at every point: with gains, minicost meets it on
    # every run at lambda 0.6.
    cfg = paper_config(runs=40, noise=noise)
    for lam, table in compare_sweep(cfg, (0.6, 1.0)).items():
        bound = np.array([oracles.offline_lifetime(cfg, lam, run)
                          for run in range(cfg.runs)])
        met = False
        for s in STRATEGIES:
            assert np.all(table.lifetimes[s] <= bound), (lam, s)
            met |= bool(np.any(table.lifetimes[s] == bound))
        assert met, lam


@pytest.mark.parametrize("noise, lams", [(NOISE, (0.2, 1.0)),
                                         (GAINS, (0.8, 1.0))],
                         ids=["paper", "gains"])
def test_simulation_scales_exactly_with_the_noise_power(noise, lams):
    # Powers are linear in the noise power, and a factor of 8 is exact in
    # floating point: with the batteries scaled too, every run lives as
    # long and every power and energy is exactly 8 times as large.  The
    # gains config prices its weighted min-max row by row, so it takes the
    # short-lived bounds.
    cfg = paper_config(runs=200, noise=noise)
    scaled = replace(cfg, initial_energy=8.0 * cfg.initial_energy,
                     noise=NoiseModel(8.0 * noise.sigma_sq, noise.gains))
    tables = compare_sweep(cfg, lams)
    for lam, table in compare_sweep(scaled, lams).items():
        for s in STRATEGIES:
            ref, stats = tables[lam].stats[s], table.stats[s]
            assert np.array_equal(table.lifetimes[s], tables[lam].lifetimes[s])
            assert stats.mean_max_power == 8.0 * ref.mean_max_power
            assert stats.mean_sum_energy == 8.0 * ref.mean_sum_energy


@pytest.mark.parametrize("lams", [
    [0.0], [0.6, -1.0], [np.inf], [0.6, np.nan], [100.0], [],
], ids=["zero", "negative", "inf", "nan", "overflow", "none"])
def test_compare_sweep_checks_every_bound_first(monkeypatch, lams):
    # Unchecked, a zero bound simulates every run to the period cap with a
    # NaN TDMA peak, a negative one fails in numpy, and no bounds at all
    # fail to unpack.  A bad bound after a good one is still caught before
    # anything is simulated.
    def no_simulation(*args):
        raise AssertionError("simulated before every bound was checked")

    monkeypatch.setattr(lifetime, "_simulate", no_simulation)
    cfg = paper_config(runs=2)
    if not lams:
        assert compare_sweep(cfg, lams) == {}
        return
    with pytest.raises(ValueError, match="lam"):
        compare_sweep(cfg, lams)


def assert_same_table(table, ref):
    """Two comparison tables are equal bit for bit (``repr``, since a mean
    over no run is nan)."""
    assert repr(table.stats) == repr(ref.stats)
    assert list(table.lifetimes) == list(ref.lifetimes)
    for s in STRATEGIES:
        assert table.lifetimes[s].dtype == ref.lifetimes[s].dtype
        assert np.array_equal(table.lifetimes[s], ref.lifetimes[s])


STATS_CASES = {
    "unit-sweep": (dict(), (1.0, 0.4, 0.6)),
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
        runs = [oracles._simulate_run(cfg, lam, run)
                for run in range(cfg.runs)]
        censored += [r[s].censored for r in runs for s in STRATEGIES]
        ref = oracles.tabulate(cfg, {s: [r[s] for r in runs]
                                     for s in STRATEGIES})
        assert_same_table(tables[lam], ref)
        assert_same_table(compare_sweep(cfg, [lam])[lam], ref)
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

