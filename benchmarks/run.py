"""macfair benchmark: one workload per call, or all of them.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all

Each measurement runs in a fresh ``worker.py`` process: one closed-loop
caller, the next call going out when the previous one has returned.  With
``--trace 0`` the run also starts ``SETUP_SAMPLES - 1`` processes that only
set up, and ``setup_s`` is the median over all of them.  With ``--trace 1``
two workers with the same seed wrap the layers' public functions; the first
gives the per-layer numbers, and their counts must be equal.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is not 0 when the program cannot be run (for example, when ``src/`` is
missing), and then no JSON line is printed.  See README.md for the
workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"

WORKLOADS = ("sim-sweep", "sim-short", "solve-small", "solve-large")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

# Times are scaled to a reference machine speed (see worker.py), hence the
# units ms_ref and 1/s_ref; setup_s is scaled too, but the benchmark format
# fixes its unit to s.  The unscaled values are printed beside them.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s_ref",
              "p50_ms": "ms_ref"}

PER_LAYER = {
    "lifetime.periods": "count", "lifetime.runs": "count",
    "lifetime.self_s": "s", "lifetime.run_period.self_s": "s",
    "scheduling.build_schedule.calls": "count",
    "scheduling.assembly.self_s": "s", "scheduling.energy_report.s": "s",
    "scheduling.epochs_per_schedule": "count",
    "minmax.solve.calls": "count", "minmax.solve.self_s": "s",
    "minmax.iterations": "count", "minmax.support_mean": "count",
    "polymatroid.lex_check.calls": "count", "polymatroid.lex_check.s": "s",
    "polymatroid.dep.calls": "count",
    "cli.self_s": "s", "cli.csv_bytes": "count",
    "trace.overhead_frac": "ratio", "trace.wall_s": "s", "bench.glue_s": "s",
}

# Counts that must repeat exactly in two traced processes with one seed.
EXACT_COUNTS = ("lifetime.periods", "lifetime.runs",
                "scheduling.build_schedule.calls",
                "scheduling.epochs_per_schedule", "minmax.solve.calls",
                "minmax.iterations", "minmax.support_mean",
                "polymatroid.lex_check.calls", "polymatroid.dep.calls",
                "cli.csv_bytes")

# The units of the unscaled values printed beside the scaled ones.
RAW_UNIT = {"setup_s": "s", "work_per_s": "1/s", "p50_ms": "ms"}

WORK_UNIT = {"sim-sweep": "periods", "sim-short": "periods",
             "solve-small": "solves", "solve-large": "solves"}


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line."""
    t_spawn = perf_counter()
    timeout = deadline - t_spawn
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--t-spawn", repr(t_spawn)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with "
                          f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    if trace:
        spans = OUT / f"trace-{name}-seed{seed}"
        out, again = (spawn(base + ["--seconds", str(seconds), "--trace",
                                    f"{spans}{suffix}.json"], deadline)
                      for suffix in ("", "-repeat"))
        differ = [k for k in EXACT_COUNTS
                  if out["per_layer"][k] != again["per_layer"][k]]
        if differ:
            print(f"failed: counts differ between two traced processes: "
                  f"{differ}", file=sys.stderr)
        out["attempted"] += again["attempted"]
        out["failed"] += again["failed"] + bool(differ)
        out["wrong"] += again["wrong"] + bool(differ)
        metrics = {k: out["per_layer"][k] for k in PER_LAYER}
        units = PER_LAYER
    else:
        probes = [spawn(base + ["--probe"], deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        out = spawn(base + ["--seconds", str(seconds)], deadline)
        runs = probes + [out]
        out["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        out["raw"]["setup_s"] = statistics.median(r["raw"]["setup_s"]
                                                  for r in runs)
        metrics = {k: out[k] for k in END_TO_END}
        units = END_TO_END
    return {
        "correct": out["wrong"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "detail": out,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    blas = {var: os.environ.get(var, "unset") for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy_version,
            "blas_threads": blas, "git_sha": git_sha(), "seed": seed}


def describe(name: str, result: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    out = result["detail"]
    attempted, failed = result["attempted"], result["failed"]
    lines = [f"[{name}] {'traced' if trace else 'untraced'}: "
             f"ops_failed_frac {failed / attempted:.4g} "
             f"({failed} of {attempted} operations)"]
    for key, m in result["metrics"].items():
        line = f"  {key} = {m['value']:.6g} {m['unit']}"
        if not trace and key in RAW_UNIT:
            line += f" (unscaled: {out['raw'][key]:.6g} {RAW_UNIT[key]})"
        lines.append(line)
    if not trace:
        lines.append(f"  ({WORK_UNIT[name]} per second of timed work; "
                     f"setup_s is the median of {SETUP_SAMPLES} processes)")
        lines.append(f"  timed work: {out['raw_busy_s']:.4g} s raw, "
                     f"{out['busy_s']:.4g} s scaled to the reference speed")
        for kind, lat in out["latency"].items():
            tail = ", ".join(f"{k} = {v:.6g} ms_ref" for k, v in lat.items()
                             if k.endswith("_ms"))
            lines.append(f"  {kind} latency: {tail} ({lat['count']} samples)")
    else:
        lines.append(f"  spans written to {out['trace_file']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="macfair benchmark")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed, a non-negative integer")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = perf_counter() + DEADLINE_S

    env = environment(args.seed)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), deadline)
            print("environment: " + json.dumps(env))
            print("\n".join(describe(args.workload, result, bool(args.trace))))
            line = {k: result[k] for k in
                    ("correct", "attempted", "failed", "metrics")}
        else:
            print("environment: " + json.dumps(env))
            runs = []
            for name in WORKLOADS:
                for trace in (False, True):
                    result = run_workload(name, args.seed, args.seconds,
                                          trace, perf_counter() + DEADLINE_S)
                    print("\n".join(describe(name, result, trace)))
                    runs.append(result)
            line = {"correct": all(r["correct"] for r in runs),
                    "attempted": sum(r["attempted"] for r in runs),
                    "failed": sum(r["failed"] for r in runs)}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
