"""Command-line surface: solve single instances, emit schedules and run the
lifetime simulation.

Commands
--------
``solve``     print the min-max fair power allocation for one rate vector
``schedule``  write a per-epoch schedule CSV and print its energy report
``simulate``  run the Monte Carlo comparison and write fig4/fig5/fig6 CSVs

Exit codes: 0 success, 1 usage or parse error, 2 solver failure.

Wire formats
------------
Decoding orders are ``>``-joined 1-based node indices in chain order
(``2>1`` puts node 2 first on the chain, so the receiver decodes node 1
first).  Schedule CSVs have one row per epoch::

    fraction,decode_order,power_1..power_N,rate_1..rate_N

with shortest round-trip decimal numbers.  The ``simulate`` config is a flat
``key=value`` file; quantities carry explicit units in the key name
(``noise_db`` or ``noise_w``, ``period_s``, ``initial_energy_j``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import lifetime, minmax, scheduling
from .minmax import SolverFailureError
from .polymatroid import NoiseModel
from .scheduling import Backlog, Schedule, STRATEGIES

SEED_ENV_VAR = "MACFAIR_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting with its own code."""

    def error(self, message):
        raise UsageError(message)


def fmt(x: float) -> str:
    """Numeric rendering shared by human and JSON output (12 significant digits)."""
    return f"{float(x):.12g}"


def order_to_wire(order) -> str:
    return ">".join(str(int(i) + 1) for i in order)


def _parse_floats(text: str, flag: str) -> np.ndarray:
    """Comma-separated finite numbers: ranges are the library's to check."""
    try:
        values = np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise UsageError(f"could not parse {flag}={text!r} as numbers") from exc
    if not np.all(np.isfinite(values)):
        raise UsageError(f"{flag} entries must be finite")
    return values


def _noise_from_args(args) -> NoiseModel:
    if args.noise_db is not None and args.noise is not None:
        raise UsageError("give either --noise (linear watts) or --noise-db, not both")
    gains = None
    if args.gains is not None:
        gains = _parse_floats(args.gains, "--gains")
    if args.noise_db is not None:
        return NoiseModel.from_db(args.noise_db, gains=gains)
    return NoiseModel(args.noise if args.noise is not None else 1.0,
                      gains=gains)


def cmd_solve(args) -> int:
    rates = _parse_floats(args.rates, "--rates")
    noise = _noise_from_args(args)
    solution = minmax.solve(rates, noise)
    shares = [{"order": order_to_wire(o), "weight": float(fmt(w))}
              for o, w in solution.coefficients]
    if args.json:
        payload = {
            "case": solution.case.value,
            "received_power_w": [float(fmt(x)) for x in solution.received],
            "transmit_power_w": [float(fmt(x)) for x in solution.transmit],
            "distance": float(fmt(solution.distance)),
            "gap": float(fmt(solution.gap)),
            "iterations": solution.iterations,
            "time_sharing": shares,
        }
        print(json.dumps(payload))
        return EXIT_OK
    print(f"case: {solution.case.value}")
    print("received_power_w: " + " ".join(fmt(x) for x in solution.received))
    print("transmit_power_w: " + " ".join(fmt(x) for x in solution.transmit))
    print(f"distance: {fmt(solution.distance)}")
    print(f"gap: {fmt(solution.gap)}")
    print(f"iterations: {solution.iterations}")
    for share in shares:
        print(f"share: {share['order']} weight {fmt(share['weight'])}")
    return EXIT_OK


def schedule_rows(schedule: Schedule) -> list[list[str]]:
    n = schedule.n_nodes
    header = (["fraction", "decode_order"]
              + [f"power_{i + 1}" for i in range(n)]
              + [f"rate_{i + 1}" for i in range(n)])
    rows = [header]
    for e in schedule.epochs:
        rows.append([repr(float(e.duration_fraction)),
                     order_to_wire(e.decode_order)]
                    + [repr(float(p)) for p in e.powers]
                    + [repr(float(r)) for r in e.rates])
    return rows


def write_schedule_csv(schedule: Schedule, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerows(schedule_rows(schedule))


def cmd_schedule(args) -> int:
    backlogs = _parse_floats(args.backlogs, "--backlogs")
    noise = _noise_from_args(args)
    backlog = Backlog(packets=backlogs, packet_bits=args.packet_bits)
    schedule = scheduling.build_schedule(args.strategy, backlog, args.period,
                                         noise)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            write_schedule_csv(schedule, handle)
    else:
        write_schedule_csv(schedule, sys.stdout)
    report = scheduling.energy_report(schedule)
    print(f"per_node_energy_j: "
          + " ".join(fmt(e) for e in report.per_node_energy))
    print(f"max_power_w: {fmt(report.max_power)}")
    print(f"sum_energy_j: {fmt(report.sum_energy)}")
    return EXIT_OK


_CONFIG_KEYS = {
    "nodes", "initial_energy_j", "period_s", "packet_bits", "noise_db",
    "noise_w", "gains", "lambda_packets", "lambda_sweep", "runs", "seed",
    "period_cap", "out_dir",
}


def parse_experiment_config(text: str
                            ) -> tuple[lifetime.SimConfig, list[float], Path]:
    """Parse a `simulate` config into the simulation at ``lambda_packets``,
    the swept backlog bounds and the output directory.  The swept bounds are
    checked by :func:`~macfair.lifetime.compare_sweep`."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {lineno}: expected key=value, "
                             f"got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        if key in raw:
            raise UsageError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    def need(key: str) -> str:
        if key not in raw:
            raise UsageError(f"config is missing required key {key!r}")
        return raw[key]

    def parse(key: str, kind, value: str):
        try:
            return kind(value)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: bad value {value!r}") from exc

    if ("noise_db" in raw) == ("noise_w" in raw):
        raise UsageError("config must set exactly one of noise_db / noise_w")
    gains = None
    if "gains" in raw:
        gains = _parse_floats(raw["gains"], "gains")

    lam = parse("lambda_packets", float, need("lambda_packets"))
    sweep = [lam]
    if "lambda_sweep" in raw:
        sweep = _parse_floats(raw["lambda_sweep"], "lambda_sweep").tolist()

    try:
        if "noise_db" in raw:
            noise = NoiseModel.from_db(parse("noise_db", float, raw["noise_db"]),
                                       gains=gains)
        else:
            noise = NoiseModel(parse("noise_w", float, raw["noise_w"]),
                               gains=gains)
        config = lifetime.SimConfig(
            n_nodes=parse("nodes", int, need("nodes")),
            initial_energy=parse("initial_energy_j", float,
                                 need("initial_energy_j")),
            period=parse("period_s", float, need("period_s")),
            packet_bits=parse("packet_bits", float, need("packet_bits")),
            noise=noise,
            lam=lam,
            runs=parse("runs", int, need("runs")),
            seed=parse("seed", int, need("seed")),
            period_cap=parse("period_cap", int, raw["period_cap"])
            if "period_cap" in raw else lifetime.DEFAULT_PERIOD_CAP,
        )
    except ValueError as exc:
        raise UsageError(f"config: {exc}") from exc
    return config, sweep, Path(raw.get("out_dir", "."))


def _write_csv(path: Path, header_comment: str, header: list[str],
               rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(header_comment + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_simulate(args) -> int:
    config, sweep, out_dir = parse_experiment_config(
        Path(args.config).read_text())
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from exc
        config = dataclasses.replace(config, seed=seed)
    source = "config" if env_seed is None else f"env {SEED_ENV_VAR}"
    stamp = f"# seed={config.seed} source={source}"

    # compare_sweep checks every swept bound before it simulates, so a bad
    # bound is reported before the output directory is made.
    try:
        tables = lifetime.compare_sweep(config, [config.lam, *sweep])
    except ValueError as exc:
        raise UsageError(f"config: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    table = tables[config.lam]
    _write_csv(out_dir / "fig4.csv", stamp, ["strategy", "mean_max_power_w"],
               [[s, repr(table.stats[s].mean_max_power)] for s in STRATEGIES])
    _write_csv(out_dir / "fig5.csv", stamp, ["strategy", "mean_sum_energy_j"],
               [[s, repr(table.stats[s].mean_sum_energy)] for s in STRATEGIES])

    sweep_rows = [[repr(float(lam)), s, repr(tables[lam].stats[s].mean_lifetime)]
                  for lam in sweep for s in STRATEGIES]
    _write_csv(out_dir / "fig6.csv", stamp,
               ["lambda_packets", "strategy", "mean_lifetime_periods"],
               sweep_rows)

    print(stamp)
    print(f"runs: {config.runs}")
    for s in STRATEGIES:
        st = table.stats[s]
        print(f"{s}: mean_lifetime={fmt(st.mean_lifetime)} "
              f"mean_max_power_w={fmt(st.mean_max_power)} "
              f"mean_sum_energy_j={fmt(st.mean_sum_energy)}")
    print(f"wrote {out_dir / 'fig4.csv'}, {out_dir / 'fig5.csv'}, "
          f"{out_dir / 'fig6.csv'}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="macfair",
                     description="Min-max fair multi-access power scheduling")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_noise_flags(p):
        p.add_argument("--noise", type=float, default=None,
                       help="noise power in watts (linear scale)")
        p.add_argument("--noise-db", type=float, default=None,
                       help="noise power in dB (e.g. -30 for 1e-3 W)")
        p.add_argument("--gains", default=None,
                       help="comma-separated channel gains")

    p = sub.add_parser("solve", help="min-max fair allocation for one rate vector")
    p.add_argument("--rates", required=True,
                   help="comma-separated rates in bits per channel use")
    add_noise_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("schedule", help="emit a per-epoch schedule CSV")
    p.add_argument("--backlogs", required=True,
                   help="comma-separated packet counts")
    p.add_argument("--packet-bits", type=float, default=30.0)
    p.add_argument("--period", type=float, default=30.0,
                   help="collecting period in seconds")
    p.add_argument("--strategy", default="minmax", choices=list(STRATEGIES))
    add_noise_flags(p)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="Monte Carlo lifetime comparison")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out-dir", default=None,
                   help="override the config's out_dir")
    p.set_defaults(func=cmd_simulate)

    return parser


# Built on the first call of main and reused: building the argparse tree
# takes about 18 times as long as parsing one command line with it.
_parser: _Parser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except SolverFailureError as exc:
        print(f"solver failure: {exc} (gap {exc.gap:g})", file=sys.stderr)
        return EXIT_SOLVER
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
