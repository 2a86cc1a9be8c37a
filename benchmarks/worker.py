"""One benchmark process: set up a workload, run it in a closed loop, check
every output, and print one JSON line with the measurements.

``run.py`` starts this file in a fresh interpreter for every measurement,
so set-up (interpreter start, importing ``macfair`` from this checkout's
``src``, making the inputs and one warm-up call) is paid in each process.
Usage::

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S
        --t-spawn T [--probe | --trace SPANS_JSON]

``--t-spawn`` is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is ``CLOCK_MONOTONIC``, shared by every
process, so ``setup_s`` spans process start-up too.  ``--probe`` stops once
set-up is done.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import NEST_TOL_S, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

# The output checks' tolerances, relative to the sum power (squared for the
# duality gap).  The largest residuals seen at the seed commit are about
# 2e-15; pruning weights below 1e-10 can leave a reconstruction error of up
# to about n * 1e-10.
REBUILD_RTOL = 1e-8
SUM_RTOL = 1e-9
GAP_RTOL = 1e-9

# Reference outputs are those of the first operation at the default seed.
DEFAULT_SEED = 0

# Every gated time is scaled to the machine speed at which the calibration
# kernel below takes CALIBRATION_REF_S (the units ``s``, ``ms_ref`` and
# ``1/s_ref`` of run.py).  On a shared machine the
# speed of the same code swings by 30% within seconds and drifts by as much
# over minutes; the kernel, run between operations at least every
# CALIBRATION_EVERY_S of timed work, slows down with it, so the scaled times
# move far less than the raw ones (which are reported beside them).
CALIBRATION_REF_S = 1e-3
CALIBRATION_EVERY_S = 0.05

# Operations per second of --seconds in a traced run.  They are constants,
# so the traced passes do the same work on every run with the same seed and
# --seconds.  At the seed commit a traced pass took about a third of
# --seconds, and a whole traced run (two processes of two passes each)
# about 1.5 times --seconds.
TRACE_OPS_PER_S = {"sim-sweep": 0.5, "sim-short": 1.8,
                   "solve-small": 200.0, "solve-large": 2.0}


def calibration_s() -> float:
    """Time of a fixed mix of interpreter work and small numpy calls, the
    two kinds of work macfair does."""
    x = np.arange(8.0)
    t0 = perf_counter()
    acc = 0.0
    for _ in range(300):
        acc += float((np.cumsum(x) * 1.0001)[-1]) + sum(range(30))
    return perf_counter() - t0


def speed_factor(samples: int = 3) -> float:
    """Scale from this moment's raw times to reported times."""
    return CALIBRATION_REF_S / statistics.median(
        calibration_s() for _ in range(samples))


def load_macfair():
    """Import ``macfair`` from this checkout, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import macfair
    import macfair.cli
    if Path(macfair.__file__).resolve().parent != SRC / "macfair":
        raise ImportError(f"macfair was imported from {macfair.__file__}, "
                          f"not from {SRC}")
    return macfair


class SimWorkload:
    """``macfair simulate`` run in-process on the paper configuration.

    The network is the paper's: 4 nodes, 2 J batteries, 30 s periods,
    30-bit packets, -30 dB noise.  n = 4 is the paper configuration, not a
    way round the known backlog-overlap defect at n > 4 (backlog draws of
    consecutive periods share Philox blocks); that defect has its own fix
    and test, and n <= 4 output is byte-stable under the fix, so the
    reference CSVs stay valid.
    """

    min_ops = 0

    def __init__(self, macfair, name: str, sweep: str | None, runs: int,
                 workdir: Path):
        self.cli = macfair.cli
        self.strategies = macfair.STRATEGIES
        self.name = name
        self.sweep = sweep
        self.runs = runs
        self.workdir = workdir
        self.lambdas = len(sweep.split(",")) if sweep else 1

    def config_text(self, seed: int, runs: int, sweep: str | None) -> str:
        lines = ["nodes = 4", "initial_energy_j = 2.0", "period_s = 30",
                 "packet_bits = 30", "noise_db = -30", "lambda_packets = 1.0",
                 f"runs = {runs}", f"seed = {seed}"]
        if sweep:
            lines.append(f"lambda_sweep = {sweep}")
        return "\n".join(lines) + "\n"

    def make_input(self, seed: int, i: int) -> Path:
        sim_seed = int(np.random.SeedSequence([seed, i]).generate_state(
            1, np.uint64)[0])
        path = self.workdir / "config.txt"
        path.write_text(self.config_text(sim_seed, self.runs, self.sweep))
        return path

    def warm_up(self) -> None:
        path = self.workdir / "config.txt"
        path.write_text(self.config_text(DEFAULT_SEED, 1, None))
        self.op(path)

    def op(self, path: Path) -> int:
        argv = ["simulate", "--config", str(path),
                "--out-dir", str(self.workdir / "figs")]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def read_fig6(self) -> list[tuple[float, str, float]]:
        with open(self.workdir / "figs" / "fig6.csv", newline="") as handle:
            rows = list(csv.reader(handle))[2:]
        return [(float(lam), s, float(life)) for lam, s, life in rows]

    def check(self, path: Path, code: int) -> tuple[bool, int, str]:
        """Exit code 0; at every lambda, min-max lives at least as long as
        minicost; every mean lifetime times the runs is a whole number of
        periods.  Returns the completed periods summed over strategies,
        lambdas and runs."""
        if code != 0:
            return False, 0, f"simulate exited with {code}"
        rows = self.read_fig6()
        if len(rows) != self.lambdas * len(self.strategies):
            return False, 0, f"fig6 has {len(rows)} rows"
        periods = 0
        by_lam: dict[float, dict[str, float]] = {}
        for lam, strategy, life in rows:
            total = life * self.runs
            if abs(total - round(total)) > 1e-6 * max(1.0, total):
                return False, 0, f"lifetime {life} x {self.runs} runs is " \
                                 f"not whole"
            periods += round(total)
            by_lam.setdefault(lam, {})[strategy] = life
        for lam, lives in by_lam.items():
            if lives["minmax"] < lives["minicost"]:
                return False, 0, f"minmax outlived by minicost at {lam}"
        return True, periods, ""

    def kind(self, i: int) -> str:
        return "simulate"

    def csv_bytes(self) -> int:
        return sum((self.workdir / "figs" / f"fig{k}.csv").stat().st_size
                   for k in (4, 5, 6))

    def reference_check(self) -> str:
        """Run the first operation of the default seed and compare its CSVs
        with the ones stored at the seed commit: fig6 byte for byte, fig4 and
        fig5 to 1e-12 relative.  Returns an error message or ''."""
        path = self.make_input(DEFAULT_SEED, 0)
        code = self.op(path)
        ok, _, why = self.check(path, code)
        if not ok:
            return why
        ref = REFERENCE / self.name
        got = self.workdir / "figs"
        try:
            figs = {fig: ((got / fig).read_text(), (ref / fig).read_text())
                    for fig in ("fig4.csv", "fig5.csv", "fig6.csv")}
        except OSError as exc:
            return f"cannot read the reference: {exc}"
        if figs["fig6.csv"][0] != figs["fig6.csv"][1]:
            return "fig6.csv differs from the reference"
        for fig in ("fig4.csv", "fig5.csv"):
            a, b = (list(csv.reader(io.StringIO(t))) for t in figs[fig])
            if len(a) != len(b) or a[:2] != b[:2]:
                return f"{fig} layout differs from the reference"
            for row_a, row_b in zip(a[2:], b[2:]):
                x, y = float(row_a[1]), float(row_b[1])
                if row_a[0] != row_b[0] or abs(x - y) > 1e-12 * abs(y):
                    return f"{fig} differs from the reference: {row_a} {row_b}"
        return ""


class SolveWorkload:
    """``macfair.solve`` with its default certificate.

    ``small``: symmetric channel, n uniform on 2..7, rates uniform on (0, 1],
    and one instance in eight has an exactly tied rate pair.  ``large``:
    n = 50, rates uniform on (0, 4/n], even operations symmetric and odd ones
    with gains log-uniform on [0.2, 5].  Noise is -30 dB in both.
    """

    def __init__(self, macfair, large: bool):
        self.mf = macfair
        self.large = large
        self.name = "solve-large" if large else "solve-small"
        # 150 solves per half of solve-large: more than ten beyond each p90,
        # and a median that moves less with the instances the seed draws.
        self.min_ops = 300 if large else 0
        self.noise = macfair.NoiseModel.from_db(-30.0)
        if macfair.solve is not macfair.minmax.solve:
            raise RuntimeError("macfair.solve is not macfair.minmax.solve")

    def make_input(self, seed: int, i: int):
        rng = np.random.default_rng([seed, i])
        if self.large:
            n = 50
            rates = (4.0 / n) * (1.0 - rng.random(n))
            noise = self.noise
            if i % 2:
                gains = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
                noise = self.mf.NoiseModel(self.noise.sigma_sq, gains=gains)
            return rates, noise
        n = int(rng.integers(2, 8))
        rates = 1.0 - rng.random(n)
        if rng.random() < 0.125:
            a, b = rng.choice(n, size=2, replace=False)
            rates[b] = rates[a]
        return rates, self.noise

    def warm_up(self) -> None:
        """One solve per input shape, so the lazily filled tables
        (``_all_orders``, ``_subset_bits``) are ready before timing."""
        if self.large:
            for i in range(2):
                self.op(self.make_input(DEFAULT_SEED, i))
            return
        for n in range(2, 8):
            self.op((np.linspace(1.0, 0.1, n), self.noise))

    def op(self, inp):
        rates, noise = inp
        return self.mf.minmax.solve(rates, noise)

    def kind(self, i: int) -> str:
        return "weighted" if self.large and i % 2 else "symmetric"

    def check(self, inp, sol) -> tuple[bool, int, str]:
        """The checks of ROADMAP aim 3, against the public polymatroid
        functions rather than the solver's internals."""
        mf = self.mf
        rates, noise = inp
        n = rates.size
        gains = noise.gains_for(n)
        total = mf.sum_power(rates, noise)
        weights = [w for _, w in sol.coefficients]
        if any(sorted(order) != list(range(n)) for order, _ in sol.coefficients):
            return False, 0, "a decoding order is not a permutation"
        if min(weights) <= 0.0 or abs(sum(weights) - 1.0) > 1e-12 * n:
            return False, 0, f"weights {weights} are not a convex combination"
        rebuilt = sum(w * mf.chain_received(rates, noise.sigma_sq, order)
                      for order, w in sol.coefficients)
        if np.max(np.abs(rebuilt - sol.received)) > REBUILD_RTOL * total:
            return False, 0, "received is not rebuilt by the coefficients"
        if abs(float(sol.received.sum()) - total) > SUM_RTOL * total:
            return False, 0, "received does not sum to the sum power"
        grad = gains * (sol.received - total / float(gains.sum()))
        _, vertex = mf.greedy_linear_min(grad, rates, noise)
        gap = float(grad @ (sol.received - noise.received(vertex)))
        if gap > GAP_RTOL * total * total:
            return False, 0, f"duality gap {gap / total ** 2:g} (relative)"
        if noise.gains is None and n <= 7:
            if not mf.is_lex_optimal_base(sol.transmit, rates, noise):
                return False, 0, "is_lex_optimal_base rejects the base"
        return True, 1, ""


def make_workload(macfair, name: str, workdir: Path):
    if name == "sim-sweep":
        return SimWorkload(macfair, name, "0.2,0.4,0.6,0.8,1.0", 2, workdir)
    if name == "sim-short":
        return SimWorkload(macfair, name, None, 20, workdir)
    if name == "solve-small":
        return SolveWorkload(macfair, large=False)
    if name == "solve-large":
        return SolveWorkload(macfair, large=True)
    raise ValueError(f"unknown workload {name!r}")


class Failures:
    """Counts failures and prints the first few to stderr.

    ``count`` is every failed operation; ``wrong`` only those whose output
    or counts were checked and found wrong (an operation that raises has no
    output to check).
    """

    def __init__(self):
        self.count = 0
        self.wrong = 0

    def add(self, what: str, wrong: bool = True) -> None:
        self.count += 1
        self.wrong += wrong
        if self.count <= 5:
            print(f"failed: {what}", file=sys.stderr)


def run_op(work, seed: int, i: int, failures: Failures, tracer=None):
    """Run operation ``i`` (traced when ``tracer`` is given), then check it
    outside the timed and traced interval.  Returns ``(seconds, units of
    work, kind)``; a failed operation does no work."""
    inp = work.make_input(seed, i)
    if tracer is not None:
        tracer.enabled = True
    t0 = perf_counter()
    try:
        out = work.op(inp)
    except Exception:  # an operation that raises counts as failed
        elapsed = perf_counter() - t0
        failures.add(f"op {i} raised\n{traceback.format_exc()}", wrong=False)
        return elapsed, 0, None
    finally:
        if tracer is not None:
            tracer.enabled = False
    elapsed = perf_counter() - t0
    ok, units, why = work.check(inp, out)
    if not ok:
        failures.add(f"op {i}: {why}")
        return elapsed, 0, None
    return elapsed, units, work.kind(i)


def latency_summary(samples: list[float]) -> dict:
    """Median, and the higher of p99 and p90 with ten samples beyond it."""
    out = {"count": len(samples), "p50_ms": 1e3 * statistics.median(samples)}
    for parts, key in ((100, "p99_ms"), (10, "p90_ms")):
        if len(samples) >= 10 * parts:
            cuts = statistics.quantiles(samples, n=parts, method="inclusive")
            out[key] = 1e3 * cuts[-1]
            break
    return out


def measure(work, seed: int, seconds: float) -> dict:
    """Closed loop: the next operation starts when the previous one (and its
    output check) has finished, until ``seconds`` have passed, checks and
    calibrations included, and ``work.min_ops`` operations have run (but at
    most three times ``seconds``).

    Each latency is scaled by the speed factor measured last before it or,
    for an operation longer than ``CALIBRATION_EVERY_S``, by the mean of the
    factors measured right before and right after it."""
    failures = Failures()
    latencies: list[float] = []
    raw_latencies: list[float] = []
    rates: list[float] = []
    raw_rates: list[float] = []
    by_kind: dict[str, list[float]] = {}
    raw_by_kind: dict[str, list[float]] = {}
    units = 0
    busy = 0.0
    raw_busy = 0.0
    calibrated_at = -math.inf
    i = 0
    start = perf_counter()
    while (wall := perf_counter() - start) < seconds or (
            i < work.min_ops and wall < 3 * seconds):
        if raw_busy - calibrated_at >= CALIBRATION_EVERY_S:
            factor = speed_factor()
            calibrated_at = raw_busy
        raw, done, kind = run_op(work, seed, i, failures)
        scale = factor
        if raw >= CALIBRATION_EVERY_S:
            factor = speed_factor()
            calibrated_at = raw_busy + raw
            scale = (scale + factor) / 2
        elapsed = raw * scale
        latencies.append(elapsed)
        raw_latencies.append(raw)
        rates.append(done / elapsed)
        raw_rates.append(done / raw)
        raw_busy += raw
        busy += elapsed
        units += done
        if kind is not None:
            by_kind.setdefault(kind, []).append(elapsed)
            raw_by_kind.setdefault(kind, []).append(raw)
        i += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if isinstance(work, SimWorkload):
        # The median call's periods per second, which moves less with the
        # machine's speed than the total over the run does.
        work_per_s = statistics.median(rates)
        raw_work_per_s = statistics.median(raw_rates)
        p50 = statistics.median(latencies)
        raw_p50 = statistics.median(raw_latencies)
        why = work.reference_check()
        if why:
            failures.add(f"reference check: {why}")
    else:
        work_per_s = units / busy
        raw_work_per_s = units / raw_busy
        # On solve-large the median is that of the symmetric half (the
        # weighted half is reported apart): a median over both halves falls
        # between their modes and moves with the seed far more.
        p50 = statistics.median(by_kind.get("symmetric", latencies))
        raw_p50 = statistics.median(raw_by_kind.get("symmetric",
                                                    raw_latencies))
    return {
        "attempted": i,
        "failed": failures.count,
        "wrong": failures.wrong,
        "busy_s": busy,
        "raw_busy_s": raw_busy,
        "work_units": units,
        "work_per_s": work_per_s,
        "p50_ms": 1e3 * p50,
        "peak_rss_mb": rss_mb,
        "raw": {"work_per_s": raw_work_per_s, "p50_ms": 1e3 * raw_p50},
        "latency": {k: latency_summary(v) for k, v in sorted(by_kind.items())},
    }


# Span name -> per-layer time metric its self time goes to.
LAYER_TIME = {
    "cli.main": "cli.self_s",
    "lifetime.compare_strategies": "lifetime.self_s",
    "lifetime.run_period": "lifetime.run_period.self_s",
    "scheduling.build_schedule": "scheduling.assembly.self_s",
    "scheduling.energy_report": "scheduling.energy_report.s",
    "minmax.solve": "minmax.solve.self_s",
    "polymatroid.lex_check": "polymatroid.lex_check.s",
    "polymatroid.dep": "polymatroid.lex_check.s",
}

# Largest time per operation that may fall outside every span: timing the
# operation, redirecting its stdout and entering the outermost wrapper.  At
# the seed commit it is about 5 us per solve and 45 us per simulate call
# (0.4% and 0.02% of the traced wall time); a simulate call whose cli.main
# span is lost leaves about 3 ms.  The glue is a fixed cost, so the bound
# is per operation, not a share that a faster program would exceed.
GLUE_MAX_PER_OP_S = 5e-4


def _on_schedule(tracer, args, kwargs, schedule):
    if args and args[0] == "minmax":
        tracer.counters["minmax_schedules"] += 1
        tracer.counters["minmax_epochs"] += len(schedule.epochs)


def _on_solve(tracer, args, kwargs, solution):
    tracer.counters["iterations"] += solution.iterations
    tracer.counters["support"] += len(solution.coefficients)


def install_tracer(macfair):
    """Wrap the public names at the module attribute each caller looks up."""
    tracer = Tracer()
    tracer.wrap(macfair.cli, "main", "cli.main")
    tracer.wrap(macfair.lifetime, "compare_strategies",
                "lifetime.compare_strategies")
    tracer.wrap(macfair.lifetime, "run_period", "lifetime.run_period")
    tracer.wrap(macfair.lifetime, "build_schedule",
                "scheduling.build_schedule", _on_schedule)
    tracer.wrap(macfair.lifetime, "energy_report", "scheduling.energy_report")
    tracer.wrap(macfair.minmax, "solve", "minmax.solve", _on_solve)
    tracer.wrap(macfair.minmax, "is_lex_optimal_base", "polymatroid.lex_check")
    tracer.wrap(macfair.polymatroid, "dep", "polymatroid.dep")
    return tracer


class TracedPass:
    """Per-layer numbers summed over the operations of one traced pass."""

    def __init__(self):
        self.wall = 0.0
        self.root_total = 0.0
        self.overruns = 0
        self.periods = 0
        self.csv_bytes = 0
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}

    def run(self, work, seed: int, i: int, failures: Failures, tracer):
        first = len(tracer.names)
        elapsed, units, _ = run_op(work, seed, i, failures, tracer)
        self.wall += elapsed
        if isinstance(work, SimWorkload):
            self.periods += units
            self.csv_bytes += work.csv_bytes()
        self_time, calls, root_total, overruns = tracer.summary(first)
        self.root_total += root_total
        self.overruns += overruns
        for total, part in ((self.self_time, self_time), (self.calls, calls),
                            (self.counters, tracer.take_counters())):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value

    def metrics(self, work, n_ops: int) -> dict:
        metrics = {name: 0.0 for name in set(LAYER_TIME.values())}
        for name, t in self.self_time.items():
            if name in LAYER_TIME:
                metrics[LAYER_TIME[name]] += t
        sims = isinstance(work, SimWorkload)
        calls, counters = self.calls, self.counters
        solves = calls.get("minmax.solve", 0)
        schedules = counters.get("minmax_schedules", 0)
        metrics.update({
            "lifetime.periods": self.periods,
            "lifetime.runs": (n_ops * work.runs * work.lambdas
                              * len(work.strategies)) if sims else 0,
            "scheduling.build_schedule.calls":
                calls.get("scheduling.build_schedule", 0),
            "scheduling.epochs_per_schedule":
                counters.get("minmax_epochs", 0) / schedules
                if schedules else 0.0,
            "minmax.solve.calls": solves,
            "minmax.iterations": counters.get("iterations", 0),
            "minmax.support_mean":
                counters.get("support", 0) / solves if solves else 0.0,
            "polymatroid.lex_check.calls":
                calls.get("polymatroid.lex_check", 0),
            "polymatroid.dep.calls": calls.get("polymatroid.dep", 0),
            "cli.csv_bytes": self.csv_bytes,
            "trace.wall_s": self.wall,
            "bench.glue_s": self.wall - self.root_total,
        })
        return metrics


def measure_traced(macfair, work, seed: int, seconds: float,
                   trace_out: Path) -> dict:
    """Each operation runs twice in a row, untraced and then traced, so
    machine load cannot drift between the two timings; the overhead is the
    traced wall time over the untraced one.

    The spans must account for the traced wall time: no span may have
    children that outlast it, every span must belong to a layer, and the
    glue outside every span must lie between 0 and ``GLUE_MAX_PER_OP_S``
    per operation.  ``run.py`` checks that the counts repeat in a second
    process.
    """
    n_ops = max(1, math.ceil(TRACE_OPS_PER_S[work.name] * seconds))
    failures = Failures()
    plain_wall = 0.0
    traced = TracedPass()
    tracer = install_tracer(macfair)
    try:
        for i in range(n_ops):
            plain_wall += run_op(work, seed, i, failures)[0]
            traced.run(work, seed, i, failures, tracer)
    finally:
        tracer.close()
    metrics = traced.metrics(work, n_ops)
    wall = traced.wall
    if traced.overruns:
        failures.add(f"{traced.overruns} spans have children that outlast "
                     f"them")
    unknown = sorted(set(traced.self_time) - set(LAYER_TIME))
    if unknown:
        failures.add(f"spans outside every layer: {unknown}")
    glue = metrics["bench.glue_s"]
    if not -NEST_TOL_S * n_ops <= glue <= GLUE_MAX_PER_OP_S * n_ops:
        failures.add(f"glue of {glue:.4g} s over {n_ops} operations is "
                     f"outside 0..{GLUE_MAX_PER_OP_S} s per operation")
    metrics["trace.overhead_frac"] = wall / plain_wall - 1.0
    if isinstance(work, SimWorkload):
        why = work.reference_check()
        if why:
            failures.add(f"reference check: {why}")
    tracer.dump(trace_out)
    return {"attempted": 2 * n_ops, "failed": failures.count,
            "wrong": failures.wrong,
            "per_layer": metrics, "trace_file": str(trace_out)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--t-spawn", type=float, default=None)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_JSON", default=None,
                        help="run traced, and write the spans to this file")
    args = parser.parse_args(argv)
    t_spawn = perf_counter() if args.t_spawn is None else args.t_spawn
    os.environ.pop("MACFAIR_SEED", None)  # would override the config seed

    macfair = load_macfair()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        work = make_workload(macfair, args.workload, workdir)
        work.warm_up()
        work.make_input(args.seed, 0)
        raw_setup_s = perf_counter() - t_spawn
        setup_s = raw_setup_s * speed_factor(samples=5)
        if args.probe:
            result = {}
        elif args.trace:
            result = measure_traced(macfair, work, args.seed, args.seconds,
                                    Path(args.trace))
        else:
            result = measure(work, args.seed, args.seconds)
        result["setup_s"] = setup_s
        result.setdefault("raw", {})["setup_s"] = raw_setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
