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

Noise: the flags take at most one of ``--noise`` (watts) and ``--noise-db``
and default to 1 W; a config sets exactly one of ``noise_w`` and
``noise_db``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import lifetime, minmax, scheduling
from .minmax import SolverFailureError
from .polymatroid import NoiseModel
from .scheduling import Backlog, STRATEGIES

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


def _noise(db, watts, gains) -> NoiseModel:
    """The noise model of at most one of a dB and a watt noise power, 1 W
    when neither is given."""
    if db is not None and watts is not None:
        raise UsageError("give the noise power in watts (--noise, noise_w) "
                         "or in dB (--noise-db, noise_db), not both")
    if db is not None:
        return NoiseModel.from_db(db, gains=gains)
    return NoiseModel(1.0 if watts is None else watts, gains=gains)


def _noise_from_args(args) -> NoiseModel:
    gains = None if args.gains is None else _parse_floats(args.gains, "--gains")
    return _noise(args.noise_db, args.noise, gains)


def cmd_solve(args) -> int:
    rates = _parse_floats(args.rates, "--rates")
    solution = minmax.solve(rates, _noise_from_args(args))
    record = {
        "case": solution.case.value,
        "received_power_w": [float(fmt(x)) for x in solution.received],
        "transmit_power_w": [float(fmt(x)) for x in solution.transmit],
        "distance": float(fmt(solution.distance)),
        "gap": float(fmt(solution.gap)),
        "iterations": solution.iterations,
        "time_sharing": [{"order": order_to_wire(o), "weight": float(fmt(w))}
                         for o, w in solution.coefficients],
    }
    if args.json:
        print(json.dumps(record))
        return EXIT_OK
    # fmt(float(fmt(x))) == fmt(x) for every double, subnormals included, so
    # the text form prints the rounded record with the digits of the raw one.
    shares = record.pop("time_sharing")
    for key, value in record.items():
        if isinstance(value, float):
            value = fmt(value)
        elif isinstance(value, list):
            value = " ".join(map(fmt, value))
        print(f"{key}: {value}")
    for share in shares:
        print(f"share: {share['order']} weight {fmt(share['weight'])}")
    return EXIT_OK


def _write_csv(stream, rows, comment=None) -> None:
    if comment is not None:
        stream.write(comment + "\n")
    csv.writer(stream, lineterminator="\n").writerows(rows)


def _write_files(files: dict, comment=None) -> None:
    """Write each CSV ``files[path]`` over the file ``path`` in place, cut
    to its new length after the write: ext4 flushes a file truncated to
    zero on its close.  Every file is opened before any is written, so one
    that cannot be opened leaves the bytes of the others as they were.  An
    existing file is opened without ``O_CREAT`` and a missing one created
    with ``O_EXCL``, so a call that fails removes the files it created."""
    created = []
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path in files:
                try:
                    fd = os.open(path, os.O_WRONLY)
                except FileNotFoundError:
                    try:
                        fd = os.open(path, os.O_WRONLY | os.O_CREAT
                                     | os.O_EXCL, 0o666)
                        created.append(path)
                    except FileExistsError:  # a dangling symlink, or a race
                        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                try:
                    handles.append(stack.enter_context(
                        open(fd, "w", newline="")))
                except BaseException:
                    os.close(fd)
                    raise
            for handle, rows in zip(handles, files.values()):
                _write_csv(handle, rows, comment)
                # As O_TRUNC, cut a regular file only.
                if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                    handle.truncate()
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def cmd_schedule(args) -> int:
    backlogs = _parse_floats(args.backlogs, "--backlogs")
    backlog = Backlog(packets=backlogs, packet_bits=args.packet_bits)
    schedule = scheduling.build_schedule(args.strategy, backlog, args.period,
                                         _noise_from_args(args))
    nodes = range(1, schedule.n_nodes + 1)
    rows = [["fraction", "decode_order"] + [f"power_{i}" for i in nodes]
            + [f"rate_{i}" for i in nodes]]
    rows += [[repr(float(e.duration_fraction)), order_to_wire(e.decode_order)]
             + [repr(float(p)) for p in e.powers]
             + [repr(float(r)) for r in e.rates] for e in schedule.epochs]
    if args.out:
        _write_files({args.out: rows})
    else:
        _write_csv(sys.stdout, rows)
    report = scheduling.energy_report(schedule)
    print(f"per_node_energy_j: "
          + " ".join(fmt(e) for e in report.per_node_energy))
    print(f"max_power_w: {fmt(report.max_power)}")
    print(f"sum_energy_j: {fmt(report.sum_energy)}")
    return EXIT_OK


# Each config key read into a SimConfig field, or the backlog bound "lam":
# (field, type[, default]).
_SIM_KEYS = {
    "nodes": ("n_nodes", int),
    "initial_energy_j": ("initial_energy", float),
    "period_s": ("period", float),
    "packet_bits": ("packet_bits", float),
    "lambda_packets": ("lam", float),
    "runs": ("runs", int),
    "seed": ("seed", int),
    "period_cap": ("period_cap", int, lifetime.DEFAULT_PERIOD_CAP),
}
_CONFIG_KEYS = {*_SIM_KEYS, "noise_db", "noise_w", "gains", "lambda_sweep",
                "out_dir"}


def parse_experiment_config(text: str) -> tuple[
        lifetime.SimConfig, float, list[float], Path]:
    """Parse a `simulate` config into the simulation, the backlog bound
    ``lambda_packets``, the swept bounds and the output directory.  The
    bounds are checked by :func:`~macfair.lifetime.compare_sweep`."""
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

    def parse(key: str, kind):
        try:
            return kind(raw[key])
        except ValueError as exc:
            raise UsageError(
                f"config key {key!r}: bad value {raw[key]!r}") from exc

    if "noise_db" not in raw and "noise_w" not in raw:
        raise UsageError("config must set exactly one of noise_db / noise_w")
    fields = {}
    for key, (field, kind, *default) in _SIM_KEYS.items():
        if key not in raw and not default:
            raise UsageError(f"config is missing required key {key!r}")
        fields[field] = parse(key, kind) if key in raw else default[0]
    gains = _parse_floats(raw["gains"], "gains") if "gains" in raw else None
    lam = fields.pop("lam")
    sweep = [lam]
    if "lambda_sweep" in raw:
        sweep = _parse_floats(raw["lambda_sweep"], "lambda_sweep").tolist()

    db, watts = (parse(key, float) if key in raw else None
                 for key in ("noise_db", "noise_w"))
    try:
        config = lifetime.SimConfig(noise=_noise(db, watts, gains), **fields)
    except ValueError as exc:
        raise UsageError(f"config: {exc}") from exc
    return config, lam, sweep, Path(raw.get("out_dir", "."))


def cmd_simulate(args) -> int:
    config, lam, sweep, out_dir = parse_experiment_config(
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

    # compare_sweep checks every bound before it simulates, so a bad bound
    # is reported before the output directory is made.
    try:
        tables = lifetime.compare_sweep(config, [lam, *sweep])
    except ValueError as exc:
        raise UsageError(f"config: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = tables[lam].stats
    figs = {
        "fig4.csv": [["strategy", "mean_max_power_w"]]
        + [[s, repr(stats[s].mean_max_power)] for s in STRATEGIES],
        "fig5.csv": [["strategy", "mean_sum_energy_j"]]
        + [[s, repr(stats[s].mean_sum_energy)] for s in STRATEGIES],
        "fig6.csv": [["lambda_packets", "strategy", "mean_lifetime_periods"]]
        + [[repr(float(bound)), s,
            repr(tables[bound].stats[s].mean_lifetime)]
           for bound in sweep for s in STRATEGIES],
    }
    _write_files({out_dir / name: rows for name, rows in figs.items()}, stamp)

    print(stamp)
    print(f"runs: {config.runs}")
    for s in STRATEGIES:
        print(f"{s}: mean_lifetime={fmt(stats[s].mean_lifetime)} "
              f"mean_max_power_w={fmt(stats[s].mean_max_power)} "
              f"mean_sum_energy_j={fmt(stats[s].mean_sum_energy)}")
    print("wrote " + ", ".join(str(out_dir / name) for name in figs))
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
