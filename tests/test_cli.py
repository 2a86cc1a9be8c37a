"""Command-line surface: flags, wire formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from macfair import (
    STRATEGIES,
    NoiseModel,
    compare_sweep,
    is_lex_optimal_base,
    minmax,
    vertex,
)
from macfair import cli as cli_module
from macfair import lifetime
from macfair.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    fmt,
    main,
    order_to_wire,
    parse_experiment_config,
)
import paper_figs
from oracles import delivered_bits, read_schedule_csv, wire_to_order

CONFIG = """\
nodes = 4
initial_energy_j = 2.0
period_s = 30
packet_bits = 30
noise_db = -30
lambda_packets = 1.0
lambda_sweep = 0.6,1.0
runs = 12
seed = 3
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def source_env():
    """This process's environment for a child ``python -m macfair`` of the
    package under test, without MACFAIR_SEED."""
    env = dict(os.environ)
    env.pop("MACFAIR_SEED", None)
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_wire_format_round_trip():
    assert order_to_wire((1, 0)) == "2>1"
    assert wire_to_order("2>1", 2) == (1, 0)
    assert wire_to_order("3>1>2", 3) == (2, 0, 1)


def test_solve_interior(capsys):
    code, out, _ = run_cli(capsys, "solve", "--rates", "0.5,1.5", "--noise", "1")
    assert code == EXIT_OK
    assert "case: InteriorFeasible" in out
    assert "received_power_w: 7.5 7.5" in out


def test_solve_db_conversion(capsys):
    code, out, _ = run_cli(capsys, "solve", "--rates", "1,1", "--noise-db", "-30")
    assert code == EXIT_OK
    assert "0.0075 0.0075" in out


def test_solve_single_node(capsys):
    code, out, _ = run_cli(capsys, "solve", "--rates", "1")
    assert code == EXIT_OK
    assert "case: VertexCoincident" in out
    assert "received_power_w: 3" in out


# Runs that end in exit 0 and write nothing to stderr, where a rejected
# input writes its error line.  A silent node and unequal gains: min-max
# and minicost share one time-sharing builder.
@pytest.mark.parametrize("argv", [
    ["solve", "--rates", "1,1", "--gains", "4,1", "--noise", "1"],
    ["schedule", "--backlogs", "1,0,2", "--gains", "4,1,0.5", "--noise", "1",
     "--strategy", "minicost"],
    ["schedule", "--backlogs", "1,0,2", "--gains", "4,1,0.5", "--noise", "1"],
], ids=" ".join)
def test_clean_runs_write_nothing_to_stderr(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out


# Exit 0, nothing on stderr and one share.  The walk works in units of the
# noise power, so 1e-300 W alone leaves its excesses near 1e-34; rates of
# 1e-170 underflow them to zero, which the pieces priced in Python floats
# must divide as NumPy does (a float division by zero raises in Python).
# At zero rates the sum power is 0, and solve returns the one chain vertex
# at 0 W.
@pytest.mark.parametrize("rates, noise, iterations", [
    (",".join(["1e-17"] * 5), "1e-300", 3),
    (",".join(["1e-170"] * 5), "1", 3),
    ("0,0", "1", 0),
], ids=["noise-1e-300", "rates-1e-170", "zero-rates"])
def test_solve_degenerate_ranks(capsys, rates, noise, iterations):
    code, out, err = run_cli(capsys, "solve", "--rates", rates, "--noise", noise)
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert len([line for line in lines if line.startswith("share:")]) == 1
    assert f"iterations: {iterations}" in lines


@pytest.mark.parametrize("n", [4, 7, 13, 200, 2000])
def test_printed_base_passes_the_certificate(capsys, n):
    # solve certifies each base itself (exit 2 on a rejection); this
    # re-certifies the printed 12-digit base through the public function.
    # The walk prices the pieces of more than _LIST_PIECE (64) nodes on
    # arrays and the smaller ones in Python floats, so the n = 200 and 2000
    # blocks run both paths.
    rates = [4 / n * (1 + i % 7 / 7) for i in range(n)]
    code, out, err = run_cli(capsys, "solve", "--rates", ",".join(map(str, rates)),
                             "--noise-db", "-30", "--json")
    assert (code, err) == (EXIT_OK, "")
    transmit = json.loads(out)["transmit_power_w"]
    assert is_lex_optimal_base(transmit, rates, NoiseModel.from_db(-30)) is True


def test_solve_json_matches_human(capsys):
    code, human, _ = run_cli(capsys, "solve", "--rates", "0.3,1.1", "--noise", "1")
    assert code == EXIT_OK
    code, raw, _ = run_cli(capsys, "solve", "--rates", "0.3,1.1", "--noise", "1",
                           "--json")
    assert code == EXIT_OK
    payload = json.loads(raw)
    human_received = [
        line.split(": ")[1].split() for line in human.splitlines()
        if line.startswith("received_power_w")][0]
    assert [float(x) for x in human_received] == payload["received_power_w"]
    human_distance = [line.split(": ")[1] for line in human.splitlines()
                      if line.startswith("distance")][0]
    assert float(human_distance) == payload["distance"]


def test_fmt_digits_survive_the_json_rounding():
    # The text form of solve prints fmt of the --json record's floats,
    # float(fmt(x)), and must show the digits of fmt(x) itself.
    rng = np.random.default_rng(7)
    doubles = np.concatenate([
        rng.integers(0, 2**63, 20000, dtype=np.uint64).view(np.float64),
        rng.integers(1, 2**52, 20000, dtype=np.uint64).view(np.float64),
        [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         np.inf]])
    for x in doubles[~np.isnan(doubles)]:
        assert fmt(float(fmt(x))) == fmt(x), repr(x)


def test_solve_parse_error_names_field(capsys):
    code, _, err = run_cli(capsys, "solve", "--rates", "a,b")
    assert code == EXIT_USAGE
    assert "--rates" in err


def test_solver_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(minmax, "_lex_optimal_trusted", lambda *args: False)
    code, _, err = run_cli(capsys, "solve", "--rates", "1,1,1,1")
    assert code == EXIT_SOLVER
    assert "solver failure" in err
    # Past twelve nodes too: the certificate has no size cap.
    thirteen = ",".join(["0.1"] * 13)
    for argv in (["solve", "--rates", thirteen],
                 ["schedule", "--backlogs", thirteen]):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_SOLVER
        assert "solver failure" in err


@pytest.mark.parametrize("rates", ["nan,1", "inf,1", "1,-inf"])
def test_solve_rejects_non_finite_rates(capsys, rates):
    code, _, err = run_cli(capsys, "solve", "--rates", rates)
    assert code == EXIT_USAGE
    assert "--rates entries must be finite" in err


def test_solve_rejects_overflowing_sum_rate(capsys):
    code, _, err = run_cli(capsys, "solve", "--rates", "300,300")
    assert code == EXIT_USAGE
    assert "overflows" in err


def test_solver_flags_and_config_keys_are_gone(capsys):
    for flag in ("--backend", "--tol", "--max-iter"):
        code, _, err = run_cli(capsys, "solve", "--rates", "1,1", flag, "1")
        assert code == EXIT_USAGE
        assert flag in err
    for key in ("backend = auto", "tol = 1e-12", "max_iter = 10"):
        with pytest.raises(Exception) as raised:
            parse_experiment_config(CONFIG + key + "\n")
        assert "unknown key" in str(raised.value)


def test_solve_rejects_conflicting_noise(capsys):
    code, _, err = run_cli(capsys, "solve", "--rates", "1,1", "--noise", "1",
                           "--noise-db", "-30")
    assert code == EXIT_USAGE
    assert "noise" in err


def test_schedule_minmax_rows(tmp_path, capsys):
    out = tmp_path / "sched.csv"
    code, text, _ = run_cli(capsys, "schedule", "--backlogs", "1,2",
                            "--packet-bits", "30", "--period", "30",
                            "--noise", "1", "--strategy", "minmax",
                            "--out", str(out))
    assert code == EXIT_OK
    rows = out.read_text().splitlines()
    assert rows[0] == "fraction,decode_order,power_1,power_2,rate_1,rate_2"
    assert len(rows) == 3
    fractions = sorted(float(r.split(",")[0]) for r in rows[1:])
    assert np.allclose(fractions, [11 / 30, 19 / 30], atol=1e-9)
    assert "max_power_w: 31.5" in text


def test_schedule_minicost_single_row(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--backlogs", "1,2",
                           "--noise", "1", "--strategy", "minicost")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if "," in l and not l.startswith("per_")]
    assert len(lines) == 2  # header + one epoch


def test_schedule_tdma_silent_nodes(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "schedule", "--backlogs", "1,2", "--noise", "1",
                         "--strategy", "tdma", "--out", str(out))
    assert code == EXIT_OK
    sched = read_schedule_csv(out, "tdma", 30.0)
    assert len(sched.epochs) == 2
    for e in sched.epochs:
        assert int(np.count_nonzero(e.powers)) == 1


def test_schedule_round_trip_validates(tmp_path, capsys):
    out = tmp_path / "rt.csv"
    code, _, _ = run_cli(capsys, "schedule", "--backlogs", "0.7,1.9,0.4",
                         "--noise", "1", "--strategy", "minmax",
                         "--out", str(out))
    assert code == EXIT_OK
    sched = read_schedule_csv(out, "minmax", 30.0)
    fractions = [e.duration_fraction for e in sched.epochs]
    assert sum(fractions) == pytest.approx(1.0, abs=1e-10)
    bits = delivered_bits(sched)
    assert np.allclose(bits, np.array([0.7, 1.9, 0.4]) * 30.0, rtol=1e-6)
    # shortest round-trip numbers: re-serialized powers are bit-identical
    noise = NoiseModel(1.0)
    rates = np.array([0.7, 1.9, 0.4]) * 30.0 / 30.0
    for e in sched.epochs:
        assert np.array_equal(e.powers, vertex(rates, noise, e.decode_order))


def test_simulate_writes_deterministic_csvs(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(CONFIG)
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                           "--out-dir", str(tmp_path / "a"))
    assert code == EXIT_OK
    assert "seed=3" in out
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "b"))
    assert code == EXIT_OK
    for name in ("fig4.csv", "fig5.csv", "fig6.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    fig6 = (tmp_path / "a" / "fig6.csv").read_text().splitlines()
    assert fig6[1] == "lambda_packets,strategy,mean_lifetime_periods"
    assert len(fig6) == 2 + 2 * 3
    # min-max outlives minicost at every swept backlog bound
    means = {}
    for row in fig6[2:]:
        lam, strategy, lifetime = row.split(",")
        means[(lam, strategy)] = float(lifetime)
    for lam in ("0.6", "1.0"):
        assert means[(lam, "minmax")] > means[(lam, "minicost")]


def test_simulate_env_seed_echoed(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(CONFIG.replace("runs = 12", "runs = 2"))
    monkeypatch.setenv("MACFAIR_SEED", "77")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                           "--out-dir", str(tmp_path / "env"))
    assert code == EXIT_OK
    assert "seed=77" in out
    header = (tmp_path / "env" / "fig4.csv").read_text().splitlines()[0]
    assert "seed=77" in header and "MACFAIR_SEED" in header


PAPER_CONFIG = """\
nodes = 4
initial_energy_j = 2.0
period_s = 30
packet_bits = 30
noise_db = -30
lambda_packets = 1.0
lambda_sweep = 0.2,0.4,0.6,0.8,1.0
runs = 1000
seed = 1
"""


def assert_golden_figs(out, golden):
    for name in FIGS:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), \
            (name, golden.name)


def test_paper_config_figs_are_the_golden_bytes(tmp_path, capsys,
                                                monkeypatch):
    # fig4/5/6 of the paper config, byte for byte, against the set of the
    # NumPy dispatch family this process runs (tests/paper_figs.py); a
    # dispatch without a set fails.  A change that moves them on purpose
    # rewrites every set and says why.
    monkeypatch.delenv("MACFAIR_SEED", raising=False)
    golden = paper_figs.golden_dir()
    cfg = tmp_path / "paper.cfg"
    cfg.write_text(PAPER_CONFIG)
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_OK
    assert_golden_figs(tmp_path / "out", golden)


def test_paper_config_figs_of_the_x86_v3_dispatch(tmp_path):
    # The paper config in a child process whose environment alone disables
    # NumPy's AVX-512 dispatch: its figs are the X86_V3 set, so an AVX-512
    # machine checks both families.  Where NumPy found no AVX-512, the
    # child dispatches as this process does and repeats the default run.
    cfg = tmp_path / "paper.cfg"
    cfg.write_text(PAPER_CONFIG)
    env = source_env()
    if paper_figs.__cpu_features__.get("X86_V4"):
        env["NPY_DISABLE_CPU_FEATURES"] = paper_figs.NO_AVX512
        golden = paper_figs.SETS["X86_V3"]
    else:
        golden = paper_figs.golden_dir()
    child = subprocess.run(
        [sys.executable, "-m", "macfair", "simulate", "--config", str(cfg),
         "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stderr) == (EXIT_OK, "")
    assert_golden_figs(tmp_path / "out", golden)


# Full stdout of each run, and the CSV of a run with --out (written to the
# OUT placeholder), are the files <id>.txt and <id>.csv in
# tests/data/cli-golden.  A change that moves them on purpose rewrites the
# files and says why.
GOLDEN_RUNS = {
    "solve-unit": ["solve", "--rates", "0.5,1.5", "--noise", "1"],
    "solve-unit-json": ["solve", "--rates", "0.3,1.1,0.7", "--noise-db", "-30",
                        "--json"],
    "solve-gains": ["solve", "--rates", "1,1,0.5", "--gains", "4,1,0.5",
                    "--noise", "1"],
    "solve-gains-json": ["solve", "--rates", "1,1,0.5", "--gains", "4,1,0.5",
                         "--noise", "1", "--json"],
    "solve-zero-rates": ["solve", "--rates", "0,0", "--noise", "1"],
    "solve-zero-rates-json": ["solve", "--rates", "0,0", "--noise", "1",
                              "--json"],
    # Subnormal powers: the text form prints 12 digits of each, the JSON
    # form the float those 12 digits round to.
    "solve-noise-1e-300": ["solve", "--rates", ",".join(["1e-17"] * 5),
                           "--noise", "1e-300"],
    "solve-noise-1e-300-json": ["solve", "--rates", ",".join(["1e-17"] * 5),
                                "--noise", "1e-300", "--json"],
    "schedule-minmax": ["schedule", "--backlogs", "1,0,2", "--gains", "4,1,0.5",
                        "--noise", "1"],
    "schedule-minicost-out": ["schedule", "--backlogs", "1,0,2", "--gains",
                              "4,1,0.5", "--noise", "1", "--strategy",
                              "minicost", "--out", "OUT"],
    "schedule-tdma-out": ["schedule", "--backlogs", "1,2,0,3", "--noise-db",
                          "-30", "--strategy", "tdma", "--out", "OUT"],
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_cli_outputs_are_the_golden_bytes(tmp_path, capsys, name):
    golden = Path(__file__).parent / "data" / "cli-golden"
    out = tmp_path / "out.csv"
    argv = [str(out) if arg == "OUT" else arg for arg in GOLDEN_RUNS[name]]
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert stdout.encode() == (golden / f"{name}.txt").read_bytes()
    if "--out" in argv:
        assert out.read_bytes() == (golden / f"{name}.csv").read_bytes()


FIGS = ("fig4.csv", "fig5.csv", "fig6.csv")


@pytest.fixture
def umask_027():
    """A umask that tells 0o666 from 0o777 and from the default 0o022."""
    old = os.umask(0o027)
    yield 0o027
    os.umask(old)


def schedule_out(path):
    """A golden ``schedule --out`` run, writing to ``path``."""
    return [str(path) if arg == "OUT" else arg
            for arg in GOLDEN_RUNS["schedule-tdma-out"]]


def run_ok(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")


# An output file is rewritten in place: the same inode, so a hard link
# sees the new bytes, cut to the new length whether the old file was
# longer or shorter; a new file gets the mode open(path, "w") gave it.
@pytest.mark.parametrize("old", [b"x" * 5000, b""], ids=["longer", "empty"])
def test_simulate_rewrites_figs_in_place(tmp_path, capsys, monkeypatch,
                                         umask_027, old):
    monkeypatch.delenv("MACFAIR_SEED", raising=False)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(CONFIG.replace("runs = 12", "runs = 2"))
    argv = ["simulate", "--config", str(cfg), "--out-dir"]
    run_ok(capsys, [*argv, str(tmp_path / "fresh")])
    for name in FIGS:
        mode = (tmp_path / "fresh" / name).stat().st_mode & 0o777
        assert mode == 0o666 & ~umask_027, name
    out = tmp_path / "out"
    out.mkdir()
    inodes = {}
    for name in FIGS:
        (out / name).write_bytes(old)
        os.link(out / name, tmp_path / f"link-{name}")
        inodes[name] = (out / name).stat().st_ino
    run_ok(capsys, [*argv, str(out)])
    for name in FIGS:
        fresh = (tmp_path / "fresh" / name).read_bytes()
        assert (out / name).read_bytes() == fresh, name
        assert (tmp_path / f"link-{name}").read_bytes() == fresh, name
        assert (out / name).stat().st_ino == inodes[name], name


def test_schedule_out_rewrites_in_place(tmp_path, capsys, umask_027):
    fresh = tmp_path / "fresh.csv"
    run_ok(capsys, schedule_out(fresh))
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask_027
    out = tmp_path / "out.csv"
    out.write_bytes(b"x" * 5000)
    os.link(out, tmp_path / "link.csv")
    inode = out.stat().st_ino
    run_ok(capsys, schedule_out(out))
    assert out.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "link.csv").read_bytes() == fresh.read_bytes()
    assert out.stat().st_ino == inode


def test_schedule_out_to_a_fifo_is_not_cut(tmp_path, capsys):
    # open(path, "w") ignores O_TRUNC on a FIFO or a device; the writer
    # cuts only a regular file, as ftruncate fails on the rest.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        run_ok(capsys, schedule_out(fifo))
        written = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    golden = Path(__file__).parent / "data" / "cli-golden"
    assert written == (golden / "schedule-tdma-out.csv").read_bytes()


def test_unwritable_outputs_fail_cleanly(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(CONFIG.replace("runs = 12", "runs = 1"))
    (tmp_path / "out" / "fig5.csv").mkdir(parents=True)
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                           "--out-dir", str(tmp_path / "out"))
    assert_one_error_line(code, err)
    assert "fig5.csv" in err
    # fig4, which the call created before fig5 failed, is removed again.
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["fig5.csv"]
    code, _, err = run_cli(capsys, *schedule_out(tmp_path))
    assert_one_error_line(code, err)


def test_simulate_opens_every_fig_before_writing_any(tmp_path, capsys,
                                                    monkeypatch):
    # fig5 cannot be opened, so fig4 (opened before it) and fig6 (after
    # it) keep their old bytes and inodes: no mixed set of figs.
    monkeypatch.delenv("MACFAIR_SEED", raising=False)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(CONFIG.replace("runs = 12", "runs = 1"))
    out = tmp_path / "out"
    (out / "fig5.csv").mkdir(parents=True)
    old = {}
    for name in ("fig4.csv", "fig6.csv"):
        (out / name).write_bytes(b"older " + name.encode() + b"\n")
        old[name] = ((out / name).read_bytes(), (out / name).stat().st_ino)
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                           "--out-dir", str(out))
    assert_one_error_line(code, err)
    assert "fig5.csv" in err
    for name, (data, inode) in old.items():
        assert (out / name).read_bytes() == data, name
        assert (out / name).stat().st_ino == inode, name


def test_a_failed_simulate_removes_only_the_figs_it_created(tmp_path,
                                                           capsys,
                                                           monkeypatch):
    # fig6 cannot be opened (a directory) after fig4 was created and fig5,
    # which was there, was opened: fig4 is removed, and fig5 keeps its
    # bytes and inode.
    monkeypatch.delenv("MACFAIR_SEED", raising=False)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(CONFIG.replace("runs = 12", "runs = 1"))
    out = tmp_path / "out"
    (out / "fig6.csv").mkdir(parents=True)
    (out / "fig5.csv").write_bytes(b"older fig5\n")
    inode = (out / "fig5.csv").stat().st_ino
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                           "--out-dir", str(out))
    assert_one_error_line(code, err)
    assert "fig6.csv" in err
    assert sorted(p.name for p in out.iterdir()) == ["fig5.csv", "fig6.csv"]
    assert (out / "fig5.csv").read_bytes() == b"older fig5\n"
    assert (out / "fig5.csv").stat().st_ino == inode


def test_simulate_writes_through_a_dangling_symlink(tmp_path, capsys,
                                                    monkeypatch):
    # A missing file is created with O_EXCL, which refuses a dangling
    # symlink; the writer then creates the link's target, as O_CREAT does.
    monkeypatch.delenv("MACFAIR_SEED", raising=False)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(CONFIG.replace("runs = 12", "runs = 1"))
    run_ok(capsys, ["simulate", "--config", str(cfg), "--out-dir",
                    str(tmp_path / "fresh")])
    out = tmp_path / "out"
    out.mkdir()
    (out / "fig4.csv").symlink_to("target.csv")
    run_ok(capsys, ["simulate", "--config", str(cfg), "--out-dir", str(out)])
    assert (out / "fig4.csv").is_symlink()
    assert (out / "target.csv").read_bytes() == \
        (tmp_path / "fresh" / "fig4.csv").read_bytes()


def test_writer_closes_the_file_it_cannot_wrap(tmp_path, capsys,
                                               monkeypatch):
    fds = []

    def failing_open(fd, *args, **kwargs):
        fds.append(fd)
        raise OSError("cannot wrap")

    monkeypatch.setattr(cli_module, "open", failing_open, raising=False)
    code, _, err = run_cli(capsys, *schedule_out(tmp_path / "s.csv"))
    assert_one_error_line(code, err)
    assert len(fds) == 1
    with pytest.raises(OSError):
        os.fstat(fds[0])


def per_lambda_csvs(config_text):
    """fig4/5/6 as one `compare_sweep` call per lambda writes them."""
    config, lam, sweep, _ = parse_experiment_config(config_text)
    stamp = f"# seed={config.seed} source=config"
    table = compare_sweep(config, [lam])[lam]
    fig4 = [stamp, "strategy,mean_max_power_w"] + [
        f"{s},{table.stats[s].mean_max_power!r}" for s in STRATEGIES]
    fig5 = [stamp, "strategy,mean_sum_energy_j"] + [
        f"{s},{table.stats[s].mean_sum_energy!r}" for s in STRATEGIES]
    fig6 = [stamp, "lambda_packets,strategy,mean_lifetime_periods"]
    for bound in sweep:
        swept = compare_sweep(config, [bound])[bound]
        fig6 += [f"{bound!r},{s},{swept.stats[s].mean_lifetime!r}"
                 for s in STRATEGIES]
    return {name: "\n".join(lines) + "\n"
            for name, lines in (("fig4.csv", fig4), ("fig5.csv", fig5),
                                ("fig6.csv", fig6))}


@pytest.mark.parametrize("extra", [
    "", "gains = 0.5,1,2,4\n", "period_cap = 25\n",
], ids=["unit-gains", "gains", "cap"])
def test_simulate_sweep_equals_one_comparison_per_lambda(tmp_path, capsys,
                                                         extra):
    # Unsorted, one bound twice, and lambda_packets not in the sweep: fig6
    # keeps one row per listed bound, in the listed order.
    text = (CONFIG.replace("lambda_packets = 1.0", "lambda_packets = 0.8")
            .replace("lambda_sweep = 0.6,1.0", "lambda_sweep = 1.0,0.4,1.0,0.6")
            .replace("runs = 12", "runs = 6") + extra)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text)
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_OK
    for name, expected in per_lambda_csvs(text).items():
        assert (tmp_path / "out" / name).read_text() == expected
    lams = [row.split(",")[0] for row in
            (tmp_path / "out" / "fig6.csv").read_text().splitlines()[2:]]
    assert lams == [lam for lam in ("1.0", "0.4", "1.0", "0.6")
                    for _ in STRATEGIES]


def test_one_process_answers_like_fresh_ones(tmp_path, capsys):
    # The parser is built once per process and reused: a usage error, a
    # solve and a simulate in one process give the exit codes and output
    # of three fresh processes.  The solve's runs ``python -m macfair``.
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(CONFIG.replace("runs = 12", "runs = 2"))
    env = source_env()
    out = tmp_path / "out"
    calls = [
        ("macfair.cli", ["solve", "--rates"]),
        ("macfair", ["solve", "--rates", "0.5,1.5", "--noise", "1"]),
        ("macfair.cli",
         ["simulate", "--config", str(cfg), "--out-dir", str(out)]),
    ]

    def figs():
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    codes, parsers = [], set()
    for module, argv in calls:
        fresh = subprocess.run([sys.executable, "-m", module, *argv],
                               env=env, capture_output=True, text=True,
                               timeout=120)
        fresh_figs = figs()
        assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout,
                                          fresh.stderr)
        assert figs() == fresh_figs
        codes.append(fresh.returncode)
        parsers.add(id(cli_module._parser))
    assert codes == [EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert len(fresh_figs) == 3
    assert len(parsers) == 1


def assert_one_error_line(code, err, prefix="error: "):
    assert code == EXIT_USAGE
    assert err.startswith(prefix)
    assert len(err.splitlines()) == 1


def config_with(line):
    """CONFIG with ``key = value`` replacing (or adding) that key's line,
    one run and a 3-period cap, so a config that ought to be rejected but
    is simulated still ends quickly."""
    key = line.split("=")[0].strip()
    kept = [l for l in CONFIG.splitlines()
            if l.split("=")[0].strip() not in (key, "runs")]
    if key != "period_cap":
        kept.append("period_cap = 3")
    return "\n".join(kept + ["runs = 1", line]) + "\n"


def test_noise_db_past_the_largest_double_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "solve", "--rates", "1",
                             "--noise-db", "5000")
    assert_one_error_line(code, err)
    assert out == ""
    cfg = tmp_path / "loud.cfg"
    cfg.write_text(config_with("noise_db = 5000"))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg),
                             "--out-dir", str(tmp_path / "out"))
    assert_one_error_line(code, err, "error: config:")
    assert out == ""


def test_simulate_checks_every_swept_bound_before_output(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(CONFIG.replace("lambda_sweep = 0.6,1.0",
                                  "lambda_sweep = 1.0,-0.5"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg),
                             "--out-dir", str(out_dir))
    assert_one_error_line(code, err, "error: config:")
    assert out == ""
    assert list(out_dir.iterdir()) == []


def test_simulate_builds_one_config(tmp_path, capsys, monkeypatch):
    # The swept bounds are checked by compare_sweep's lam rule, not by a
    # SimConfig built for each of them.
    monkeypatch.delenv("MACFAIR_SEED", raising=False)
    built = []
    check = lifetime.SimConfig.__post_init__

    def counted(config):
        built.append(config)
        check(config)

    monkeypatch.setattr(lifetime.SimConfig, "__post_init__", counted)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config_with("lambda_sweep = 0.2,0.4,0.6,0.8,1.0"))
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                           "--out-dir", str(tmp_path / "out"))
    assert (code, err) == (EXIT_OK, "")
    assert len(built) == 1


TOO_LARGE = ("error: config: lam = 100 is too large: the rates sum to 400 "
             "bits per channel use; above about 261 the sum power overflows "
             "at this noise power\n")

# The full stderr of a config with a bad bound, whichever key gives it.
BAD_BOUND_ERRORS = {
    "lambda_packets = inf": "error: config: lam must be positive and finite\n",
    "lambda_packets = 100": TOO_LARGE,
    "lambda_sweep = 0.6,100": TOO_LARGE,
}


@pytest.mark.parametrize("line", [
    "initial_energy_j = inf", "period_s = inf", "packet_bits = inf",
    "lambda_packets = inf", "lambda_packets = 100", "period_cap = 0",
    "gains = 1,2,4", "lambda_sweep = 0.6,100",
])
def test_simulate_rejects_what_simconfig_rejects(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config_with(line))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg),
                             "--out-dir", str(out_dir))
    assert_one_error_line(code, err, "error: config:")
    if line in BAD_BOUND_ERRORS:
        assert err == BAD_BOUND_ERRORS[line]
    assert out == ""
    assert not out_dir.exists()


def test_schedule_rejects_infinite_period_before_output(capsys):
    code, out, err = run_cli(capsys, "schedule", "--backlogs", "1,2",
                             "--period", "inf")
    assert_one_error_line(code, err)
    assert out == ""


# Out-of-range inputs whose range the library checks, not the CLI: each
# must end in exit 1 with one `error:` line and no traceback.
@pytest.mark.parametrize("argv", [
    ["solve", "--rates=-1,2"],
    ["solve", "--rates", "1,1", "--gains", "1,0"],
    ["solve", "--rates", "1,1", "--gains", "1,2,3"],
    ["solve", "--rates", "1,1", "--noise", "0"],
    ["solve", "--rates", "600,1", "--gains", "1,2", "--noise", "1e-200"],
    ["solve", "--rates", "255.9,0.01", "--gains", "10,0.1", "--noise", "1"],
    ["solve", "--rates", "255.9,0.01", "--gains", "10,0.1", "--noise", "1",
     "--json"],
    ["solve", "--rates", "1,1", "--gains", "1e-300,1e300", "--noise", "1"],
    # Levels that cancel to a base off the dominant face.
    ["solve", "--rates", "0.21882621844318328,0,0.6395083053796081,0",
     "--gains", "1.2759526997277136e-193,5.231845357992601e-263,"
     "2.1847322165070256e-234,9.322092664104565e-148", "--noise", "1"],
    ["solve", "--rates", "1,,2"],
    ["schedule", "--backlogs", "1,,2"],
    ["schedule", "--backlogs", "0,0"],
    ["schedule", "--backlogs=1,-2"],
    ["schedule", "--backlogs", "1,2", "--packet-bits", "-3"],
    ["schedule", "--backlogs", "1,2", "--packet-bits", "nan"],
    ["schedule", "--backlogs", "1,2", "--period", "0"],
    ["schedule", "--backlogs", "1,2", "--gains", "1,2,3"],
    # Sum rates whose powers overflow, for every builder, and bits or
    # rates past the largest double.
    ["schedule", "--backlogs", "5,5", "--noise", "1", "--packet-bits", "300",
     "--period", "1", "--strategy", "tdma"],
    ["schedule", "--backlogs", "5,5", "--noise", "1", "--packet-bits", "300",
     "--period", "1", "--strategy", "minicost"],
    ["schedule", "--backlogs", "5,5", "--noise", "1", "--packet-bits", "300",
     "--period", "1", "--strategy", "minmax"],
    ["schedule", "--backlogs", "1e308,1e308"],
    ["schedule", "--backlogs", "1,2", "--period", "1e-320"],
    pytest.param(["simulate", CONFIG.replace("noise_db = -30", "noise_w = -1")],
                 id="config noise_w = -1"),
    pytest.param(["simulate", CONFIG + "gains = 1,2,4\n"],
                 id="config gains = 1,2,4"),
    pytest.param(["simulate", None], id="config missing"),
], ids=" ".join)
def test_rejection_parity(tmp_path, capsys, argv):
    if argv[0] == "simulate":
        cfg = tmp_path / "sim.cfg"
        if argv[1] is not None:
            cfg.write_text(argv[1])
        argv = ["simulate", "--config", str(cfg),
                "--out-dir", str(tmp_path / "out")]
    code, _, err = run_cli(capsys, *argv)
    assert_one_error_line(code, err)


def readme_config_block():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_parses():
    config, lam, sweep, _ = parse_experiment_config(readme_config_block())
    assert (config.n_nodes, lam, config.runs) == (4, 1.0, 1000)
    assert sweep == [0.2, 0.4, 0.6, 0.8, 1.0]


def test_readme_documents_every_config_key():
    lines = readme_config_block().splitlines()
    documented = {line.partition("=")[0].strip() for line in lines
                  if "=" in line and not line.startswith("#")}
    for line in lines:
        if line.startswith("# optional:"):
            documented.update(re.findall(r"\w+", line.partition(":")[2]))
    assert cli_module._CONFIG_KEYS <= documented


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(Exception) as err:
        parse_experiment_config(CONFIG + "bandwidth = 5\n")
    assert "bandwidth" in str(err.value)
    with pytest.raises(Exception) as err:
        parse_experiment_config(CONFIG.replace("noise_db = -30\n", ""))
    assert "noise" in str(err.value)
    with pytest.raises(Exception) as err:
        parse_experiment_config(CONFIG + "noise_w = 1e-3\n")
    assert "noise" in str(err.value)


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG + "bandwidth = 5\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert "bandwidth" in err


def test_usage_error_on_unknown_command(capsys):
    for command in ("frobnicate", "verify"):
        code, _, err = run_cli(capsys, command)
        assert code == EXIT_USAGE
        assert "invalid choice" in err
