"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 benchmarks/spread.py --workloads sim-sweep,solve-large \
        --seeds 1-10 [--seconds 20] [--traced] [--out benchmarks/baseline.json]

Measures each workload once per seed exactly as ``run.py --trace 0`` does,
in fresh worker processes, and prints for every metric the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and their distance as
a share of the median, next to the metric's bound in ``BENCHMARK.json``.
``--traced`` adds one traced run per workload at the first seed.  ``--out``
writes every run's metrics with their unscaled values, the summary and the
environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from time import perf_counter

from run import DEADLINE_S, RAW_UNIT, environment, run_workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bounds() -> dict[str, float]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run_once(workload: str, seed: int, seconds: float,
             trace: bool = False) -> dict:
    """The fields of run.py's JSON line, and the unscaled values of an
    untraced run."""
    result = run_workload(workload, seed, seconds, trace,
                          perf_counter() + DEADLINE_S)
    line = {k: result[k] for k in ("correct", "attempted", "failed",
                                   "metrics")}
    if not trace:
        raw = result["detail"]["raw"]
        line["unscaled"] = {k: {"value": raw[k], "unit": unit}
                            for k, unit in RAW_UNIT.items()}
    return line


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    limit = bounds()
    env = environment(0)
    del env["seed"]
    record: dict = {"environment": env, "seconds": args.seconds,
                    "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            line = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, **line})
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} "
                  + " ".join(f"{k}={m['value']:.5g}"
                             for k, m in line["metrics"].items()),
                  flush=True)
        summary = {}
        for key in runs[0]["metrics"]:
            summary[key] = summarize([r["metrics"][key]["value"]
                                      for r in runs])
            s = summary[key]
            bound = limit.get(key)
            print(f"  {key}: median {s['median']:.5g} quartiles "
                  f"{s['q1']:.5g}..{s['q3']:.5g} spread {s['spread']:.4f}"
                  + (f" (bound {bound}, spread/bound "
                     f"{s['spread'] / bound:.2f})" if bound else ""),
                  flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        if args.traced:
            seed = runs[0]["seed"]
            line = run_once(workload, seed, args.seconds, trace=True)
            record["workloads"][workload]["traced"] = {"seed": seed, **line}
            print(f"{workload} traced seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
