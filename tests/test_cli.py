"""CLI harness: subcommands, CSV schema, precedence, and exit codes."""

import builtins
import concurrent.futures
import csv
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from admac import (analyze, cli, derive_timings, empirical_report,
                   make_params, run_simulation)
from admac.cli import config_hash, main, parse_seeds


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    """Run a fresh interpreter with the package's ``src`` on its path."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        comments = []
        data_lines = []
        for line in fh:
            if line.startswith("#"):
                comments.append(line[1:].strip())
            else:
                data_lines.append(line)
    return comments, list(csv.DictReader(data_lines))


# --- solve ---

def test_solve_row_matches_library_analysis(tmp_path):
    out = tmp_path / "solve.csv"
    code = main(["solve", "--n", "10", "--cbap-fraction", "0.4",
                 "--out", str(out)])
    assert code == 0
    comments, rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    report = analyze(make_params(n=10, cbap_slots=8000))
    assert float(row["u"]) == pytest.approx(report.aggregate_u, rel=1e-15)
    assert row["seed"] == ""
    assert row["num_bi"] == ""
    assert row["n"] == "10"
    assert row["cbap_fraction"] == "0.4"
    assert f"config_hash={row['config_hash']}" in comments
    assert "n=10" in comments
    assert "cbap_slots=8000" in comments


def test_solve_writes_to_stdout_by_default(capsys):
    assert main(["solve", "--n", "5"]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("#")
    assert "config_hash,seed,n,q,w0,m,cbap_fraction" in captured


@pytest.mark.parametrize("share", [f"{k / 10:.1f}" for k in range(1, 11)])
def test_single_sector_u_equals_sector_u(share, capsys):
    assert main(["solve", "--n", "10", "--q", "1", "--w0", "7",
                 "--cbap-fraction", share]) == 0
    lines = capsys.readouterr().out.splitlines()
    row, = csv.DictReader(line for line in lines if not line.startswith("#"))
    assert row["u"] == row["u_sectors"]


def test_parser_built_once_per_process(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    try:
        assert main(["solve", "--n", "4"]) == 0
        assert main(["solve", "--n", "5"]) == 0
        assert main(["--no-such-flag"]) == 1
    finally:
        cli._shared_parser.cache_clear()
    assert len(built) == 1


def test_beacon_length_flag_converts_to_slots(tmp_path):
    out = tmp_path / "solve.csv"
    assert main(["solve", "--n", "5", "--bi-ms", "100",
                 "--cbap-fraction", "0.4", "--out", str(out)]) == 0
    comments, _ = read_csv(out)
    assert "bi_slots=20000" in comments
    assert "cbap_slots=8000" in comments


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("n = 5\nw0 = 15\n")
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", str(cfg), "--n", "7",
                 "--out", str(out)]) == 0
    comments, rows = read_csv(out)
    assert "n=7" in comments
    assert "w0=15" in comments
    assert rows[0]["n"] == "7"
    assert rows[0]["w0"] == "15"


@pytest.mark.parametrize("command, config_flags, run_flags", [
    ("solve", ["--n", "12", "--q", "2", "--cbap-fraction", "0.4"], []),
    ("simulate", ["--n", "6", "--cbap-fraction", "0.5",
                  "--window-rule", "doubling-minus-one"],
     ["--seeds", "0", "--num-bi", "2"]),
])
def test_output_header_reads_back_as_its_config(tmp_path, command,
                                                config_flags, run_flags):
    first, cfg, second = (tmp_path / name for name in ("1.csv", "h.cfg",
                                                        "2.csv"))
    assert main([command, *config_flags, *run_flags, "--out", str(first)]) == 0
    text = first.read_text(encoding="utf-8")
    cfg.write_text("".join(line[2:] for line in text.splitlines(True)
                           if line.startswith("# ")
                           and not line.startswith("# config_hash=")),
                   encoding="utf-8")
    assert main([command, "--config", str(cfg), *run_flags,
                 "--out", str(second)]) == 0
    assert second.read_text(encoding="utf-8") == text


def test_unknown_config_file_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_flag_is_config_error(capsys):
    assert main(["solve", "--badflag"]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_window_rule_usage_error_is_pinned(capsys):
    assert main(["solve", "--window-rule", "bogus"]) == 1
    assert capsys.readouterr().err == (
        "config error: argument --window-rule: invalid choice: 'bogus' "
        "(choose from 'doubling', 'doubling-minus-one')\n")


WIDE_W0 = str(2 ** 1100)


@pytest.mark.parametrize("argv", [
    ["solve", "--m", "1100"],
    ["solve", "--w0", WIDE_W0],
    ["simulate", "--w0", WIDE_W0, "--seeds", "0", "--num-bi", "1"],
], ids=["solve-m", "solve-w0", "simulate-w0"])
def test_schedule_too_wide_for_a_float_is_config_error(argv, capsys):
    # these once ended in an OverflowError traceback from the model
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the widest window w0 * 2**")
    assert err.endswith(" does not fit a float\n")


def test_sweep_keeps_an_error_row_for_a_schedule_too_wide(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "w0", "--values", f"7,{WIDE_W0}",
                 "--mode", "analytic", "--out", str(out)]) == 0
    _, (good, bad) = read_csv(out)
    assert good["w0"] == "7" and good["error"] == ""
    assert 0.0 < float(good["u"]) < 1.0
    assert bad["w0"] == WIDE_W0 and bad["u"] == ""
    assert bad["error"] == "the widest window w0 * 2**5 does not fit a float"


def test_infeasible_window_is_model_error(capsys):
    # 0.0005 of the default interval is 10 slots, shorter than one exchange
    assert main(["solve", "--n", "5", "--cbap-fraction", "0.0005"]) == 2
    assert "model error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--cbap-fraction", "nan"],
    ["solve", "--cbap-fraction", "inf"],
    ["solve", "--bi-ms", "nan"],
    ["solve", "--bi-ms", "inf"],
    ["sweep", "--param", "cbap_fraction", "--values", "nan", "--mode",
     "analytic"],
    ["sweep", "--param", "cbap_fraction", "--values", "0.4,inf", "--mode",
     "analytic"],
    ["solve", "--cbap-fraction", "1e308"],
    ["solve", "--bi-ms", "1e308"],
], ids=["fraction-nan", "fraction-inf", "bi-nan", "bi-inf", "sweep-nan",
        "sweep-inf", "fraction-overflow", "bi-overflow"])
def test_non_finite_flags_are_config_errors(argv, capsys):
    # a finite flag whose slot count overflows is as unusable as an infinite one
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("line", ["data_rate = inf", "slot_time = nan"])
def test_non_finite_config_values_are_config_errors(line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["solve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


# parameter sets that once ended in an OverflowError traceback: a rate or a
# slot time so small that a success exchange is more slots than a float
# holds, and integers past the largest float
OVERFLOWING_EXCHANGES = ["control_rate = 1e-305", "data_rate = 1e-320",
                         "slot_time = 1e-320"]
OVERFLOWING_INTEGERS = ["msdu_bytes = 1" + "0" * 400, "bi_slots = 1" + "0" * 400]
OVERFLOW_IDS = ["control-rate", "data-rate", "slot-time", "msdu-bytes",
                "bi-slots"]


@pytest.mark.parametrize("line", OVERFLOWING_EXCHANGES + OVERFLOWING_INTEGERS,
                         ids=OVERFLOW_IDS)
@pytest.mark.parametrize("command", [
    ["solve"], ["simulate", "--seeds", "0", "--num-bi", "1"],
], ids=["solve", "simulate"])
def test_overflowing_parameter_is_config_error(command, line, tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(line + "\n")
    assert main([*command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("line", OVERFLOWING_EXCHANGES, ids=OVERFLOW_IDS[:3])
def test_sweep_keeps_an_error_row_for_an_overflowing_exchange(line, tmp_path):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--param", "n",
                 "--values", "5,10", "--seeds", "0", "--num-bi", "1",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [(row["n"], row["mode"]) for row in rows] == [
        ("5", "analytic"), ("5", "sim"), ("10", "analytic"), ("10", "sim")]
    for row in rows:
        assert row["u"] == ""
        assert row["error"].startswith("a success exchange of ")
        assert row["error"].endswith(" s slots")


@pytest.mark.parametrize("line, name", [
    (OVERFLOWING_INTEGERS[0], "msdu_bytes"), (OVERFLOWING_INTEGERS[1], "bi_slots"),
], ids=OVERFLOW_IDS[3:])
def test_sweep_refuses_a_base_integer_past_a_float(line, name, tmp_path, capsys):
    # no point of the sweep can be built, so it has no configuration to echo
    cfg = tmp_path / "big.cfg"
    cfg.write_text(line + "\n")
    assert main(["sweep", "--config", str(cfg), "--param", "n",
                 "--values", "5,10", "--mode", "analytic"]) == 1
    assert capsys.readouterr().err == \
        f"config error: {name} must be finite, got an integer of 1329 bits\n"


SHARE_PAST_A_FLOAT = ("cbap_fraction 0.4 gives cbap_slots = inf, not a finite "
                      "number of slots")


@pytest.mark.parametrize("command, message", [
    (["solve", "--cbap-fraction", "0.4"], SHARE_PAST_A_FLOAT),
    (["simulate", "--cbap-fraction", "0.4", "--seeds", "0", "--num-bi", "1"],
     SHARE_PAST_A_FLOAT),
    # no point can be built, so the sweep reports its base's error
    (["sweep", "--param", "cbap_fraction", "--values", "0.4,0.5"],
     "bi_slots must be finite, got an integer of 1329 bits"),
], ids=["solve", "simulate", "sweep"])
def test_share_of_an_interval_past_a_float_is_config_error(command, message,
                                                           tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(OVERFLOWING_INTEGERS[1] + "\n")
    assert main([*command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


NO_STATION = "every sector must hold at least one station"
NO_SLOT = "every sector service period must be >= 1 slot"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--n", "3", "--q", "4"], NO_STATION),
    (["simulate", "--n", "3", "--q", "4", "--seeds", "0"], NO_STATION),
    # a 4-slot interval, all of it contention, over five sectors
    (["solve", "--q", "5", "--bi-ms", "0.02", "--cbap-fraction", "1"],
     NO_SLOT),
], ids=["solve-above-n", "simulate-above-n", "above-cbap-slots"])
def test_sector_count_above_what_it_divides_is_config_error(
        argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("values, first_built", [("10,20", "10"),
                                                  ("2,20", "20")])
def test_sweep_runs_where_only_its_base_has_too_few_stations(
        values, first_built, tmp_path):
    # the provenance lines echo the first point that can be built
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "3", "--q", "4", "--param", "n",
                 "--values", values, "--mode", "analytic",
                 "--out", str(out)]) == 0
    comments, rows = read_csv(out)
    assert [row["n"] for row in rows] == values.split(",")
    built, = (row for row in rows if row["n"] == first_built)
    assert f"n={first_built}" in comments
    assert f"config_hash={built['config_hash']}" in comments
    for row in rows:
        if row["n"] == "2":
            assert row["error"] == NO_STATION and row["u"] == ""
        else:
            assert row["error"] == "" and 0.0 < float(row["u"]) < 1.0


SOLVE_DIGEST = (
    "4cec1d1cf58197051ed501f6947ecb21f1f83a09a2358b9715d11f78cd3195ee")


def test_solve_stdout_bytes_are_pinned(capsys):
    # a refactor leaves these bytes as they are; a deliberate change of the
    # model's numbers re-pins the digest
    assert main(["solve", "--n", "10", "--cbap-fraction", "0.4"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == SOLVE_DIGEST


THREE_SECTORS = ["--n", "7", "--q", "3", "--cbap-fraction", "0.5"]
THREE_SECTORS_DIGEST = (
    "cad1f311ca9425f239137b111c2e02f2025b165a726fadf526a094991d2353a4")


def test_multi_sector_solve_stdout_bytes_are_pinned(capsys):
    # pins the service-period weighting of the delay and drop across sectors
    assert main(["solve", *THREE_SECTORS]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == THREE_SECTORS_DIGEST


def compensated_sum(values):
    """``sum`` as Python 3.12 and later run it: a float total carries the
    rounding error of each addition (Neumaier) and adds it at the end."""
    items = iter(values)
    total = 0
    for item in items:
        total = total + item
        if isinstance(total, float):
            break
    else:
        return total
    error = 0.0
    for item in items:
        if not isinstance(item, float):
            total += item
            continue
        added = total + item
        if abs(total) >= abs(item):
            error += (total - added) + item
        else:
            error += (item - added) + total
        total = added
    return total + error if error and math.isfinite(error) else total


@pytest.mark.parametrize("argv, digest", [
    (["--n", "10", "--cbap-fraction", "0.4"], SOLVE_DIGEST),
    (THREE_SECTORS, THREE_SECTORS_DIGEST),
    # u reads 0.2707226255738779, and ...83 where sum compensates
    (["--n", "50", "--cbap-fraction", "0.4"],
     "cc40a3f4b701656fcf24d20eb572156801d20c983bb6ce63dbda0641cf7d2d26"),
], ids=["one-sector", "three-sectors", "fifty-stations"])
def test_solve_bytes_do_not_follow_the_pythons_float_sum(
        argv, digest, monkeypatch, capsys):
    # the numbers print the same bytes on every supported Python, though
    # ``sum`` compensates float rounding from 3.12 on
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert main(["solve", *argv]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


def test_solve_row_prints_the_reports_network_values(tmp_path):
    out = tmp_path / "solve.csv"
    assert main(["solve", *THREE_SECTORS, "--out", str(out)]) == 0
    _, (row,) = read_csv(out)
    report = analyze(make_params(n=7, q=3, cbap_slots=10000))
    assert row["mean_delay_s"] == repr(report.mean_delay)
    assert row["drop_prob"] == repr(report.drop_prob)


@pytest.mark.parametrize("slot_time, shown", [("0", "0.0"), ("-5e-6", "-5e-06")],
                         ids=["0", "-5e-6"])
def test_beacon_length_at_a_slot_time_of_zero_or_less_is_config_error(
        slot_time, shown, tmp_path, capsys):
    # the text ModelParams gives for the same slot time
    cfg = tmp_path / "slot.cfg"
    cfg.write_text(f"slot_time = {slot_time}\n")
    assert main(["solve", "--config", str(cfg), "--bi-ms", "100"]) == 1
    assert capsys.readouterr().err == \
        f"config error: slot_time must be > 0, got {shown}\n"
    assert main(["solve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == \
        f"config error: slot_time must be > 0, got {shown}\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--config", "{path}"],
    ["compare", "{path}", "s.csv"],
], ids=["config", "compare-input"])
def test_input_that_is_not_utf8_is_config_error(argv, tmp_path, capsys):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfen = 3\n")
    assert main([arg.format(path=path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {path}: not UTF-8")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--config", "{path}"],
    ["compare", "{path}", "s.csv"],
    ["solve", "--out", "{path}"],
], ids=["config", "compare-input", "out"])
def test_unopenable_path_is_config_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "file"
    assert main([arg.format(path=path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot open {path}: ")
    assert err.count("\n") == 1


# --- simulate ---

def test_simulate_output_is_byte_identical(tmp_path):
    args = ["simulate", "--n", "5", "--cbap-fraction", "0.4",
            "--seeds", "0-2", "--num-bi", "20"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_one_row_per_seed(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "5", "--cbap-fraction", "0.4",
                 "--seeds", "0,2,5", "--num-bi", "10",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [row["seed"] for row in rows] == ["0", "2", "5"]
    assert all(row["num_bi"] == "10" for row in rows)
    assert all(0.0 < float(row["u"]) < 1.0 for row in rows)
    hashes = {row["config_hash"] for row in rows}
    assert len(hashes) == 1


def test_multi_sector_simulate_stdout_bytes_are_pinned(capsys):
    assert main(["simulate", "--n", "12", "--q", "3", "--seeds", "0-1",
                 "--num-bi", "5"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "8736e4043f7e4bd4bb6f0f45b03a1d533639a6903acd53f72ef59d9147d5141a")


def test_simulate_row_prints_the_reports_network_values(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", *THREE_SECTORS, "--seeds", "3", "--num-bi", "10",
                 "--out", str(out)]) == 0
    _, (row,) = read_csv(out)
    params = make_params(n=7, q=3, cbap_slots=10000)
    stats = run_simulation(params, derive_timings(params), 3, 10)
    report = empirical_report(stats, params)
    assert row["mean_delay_s"] == repr(report.mean_delay)
    assert row["drop_prob"] == repr(report.drop_prob)


# --- seeds parsing ---

def test_parse_seed_lists_and_ranges():
    assert parse_seeds("0-3,7") == (0, 1, 2, 3, 7)
    assert parse_seeds("5") == (5,)
    assert parse_seeds("3,1,2,1") == (1, 2, 3)
    assert parse_seeds("0-6:3") == (0, 3, 6)


@pytest.mark.parametrize("text", ["", "a", "3-1", "-2", "1-"])
def test_parse_seeds_rejects_malformed(text):
    from admac import ConfigError
    with pytest.raises(ConfigError):
        parse_seeds(text)


@pytest.mark.parametrize("text", ["-2", "-3-5"])
def test_negative_seeds_are_bad_ranges(text, capsys):
    # any part holding "-" is read as a range, so no seed list reaches the
    # simulator with a negative seed
    assert main(["simulate", f"--seeds={text}"]) == 1
    assert capsys.readouterr().err == f"config error: bad seed range {text!r}\n"


@pytest.mark.parametrize("argv, what", [
    (["simulate", "--seeds", "0-100000000000"], "seed"),
    (["sweep", "--param", "n", "--values", "1-100000000000"], "sweep value"),
    (["sweep", "--param", "n", "--values", f"1-{10 ** 30}:3"], "sweep value"),
])
def test_overlong_lists_are_refused_before_they_are_built(argv, what, capsys):
    # a range is counted before it is spelled out, so a list past the
    # stated cap costs no memory in proportion to its length
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"config error: {what} list holds more than 1000000 values\n")


def test_list_cap_counts_every_part_and_repeat(monkeypatch):
    from admac import ConfigError
    monkeypatch.setattr(cli, "MAX_LIST_VALUES", 10)
    assert parse_seeds("0-9") == tuple(range(10))
    assert parse_seeds("0-4,5,6-9") == tuple(range(10))
    assert parse_seeds("0-18:2") == tuple(range(0, 20, 2))
    for text in ("0-10", "0-5,5-9", "0-9,3", "0-20:2", "0-18:2,1"):
        with pytest.raises(ConfigError, match="more than 10 values"):
            parse_seeds(text)


# --- sweep ---

def test_sweep_rows_sorted_by_value_mode_seed(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "n", "--values", "4,2",
                 "--mode", "both", "--seeds", "1,0", "--num-bi", "5",
                 "--bi-ms", "2.5", "--cbap-fraction", "0.8",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    got = [(row["n"], row["mode"], row["seed"]) for row in rows]
    assert got == [
        ("4", "analytic", ""), ("4", "sim", "0"), ("4", "sim", "1"),
        ("2", "analytic", ""), ("2", "sim", "0"), ("2", "sim", "1"),
    ]
    assert all(row["error"] == "" for row in rows)


def test_sweep_continues_past_infeasible_point(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "cbap_fraction",
                 "--values", "0.0005,0.4", "--mode", "analytic",
                 "--n", "5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2
    bad, good = rows
    assert bad["cbap_fraction"] == "0.0005"
    assert bad["error"] != ""
    assert bad["u"] == ""
    assert good["cbap_fraction"] == "0.4"
    assert good["error"] == ""
    assert 0.0 < float(good["u"]) < 1.0


def test_sweep_keeps_an_error_row_for_an_overflowing_share(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "cbap_fraction", "--values", "1e308,0.4",
                 "--mode", "analytic", "--out", str(out)]) == 0
    _, (bad, good) = read_csv(out)
    assert bad["cbap_fraction"] == "1e+308"
    assert "cbap_slots" in bad["error"]
    assert bad["u"] == ""
    assert good["error"] == ""


def test_large_population_solves_and_sweeps(tmp_path):
    # from n_k ~ 1175 up the after-collision odds pass the float range of expm1
    assert main(["solve", "--n", "1200", "--cbap-fraction", "0.4"]) in (0, 2)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "n", "--values", "10,2000",
                 "--mode", "analytic", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [row["n"] for row in rows] == ["10", "2000"]


def test_sweep_rejects_bad_value_text(capsys):
    assert main(["sweep", "--param", "n", "--values", "5-1"]) == 1
    assert main(["sweep", "--param", "n", "--values", "x"]) == 1
    assert main(["sweep", "--param", "q", "--values", ""]) == 1
    assert main(["sweep", "--param", "slot_time", "--values", "5"]) == 1
    assert main(["sweep", "--param", "n", "--values", "5", "--mode", "nope"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, digest", [
    (["--param", "n", "--values", "4,6", "--mode", "both", "--seeds", "0-1",
      "--num-bi", "3", "--cbap-fraction", "0.4"],
     "d484e28df7abc4e938d9fd22ae832ec0b9dc97f92ec3a4d658b40abbb58e8702"),
    (["--param", "cbap_fraction", "--values", "0.0005,0.4", "--mode", "both",
      "--n", "5", "--seeds", "0", "--num-bi", "3"],
     "6d97812f6500f32fda7738546540e7d154121833e961d6e9a8442344bfe1837a"),
], ids=["population", "share-with-infeasible-row"])
def test_sweep_stdout_bytes_are_pinned(argv, digest, capsys):
    assert main(["sweep", *argv]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


class RecordingExecutor:
    """Serial stand-in for ProcessPoolExecutor that records max_workers."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def set_cpus(monkeypatch, cpus, affinity):
    """This process sees ``cpus`` CPUs and, unless None, may run on
    ``affinity``; without it the platform has no ``sched_getaffinity``."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid: set(affinity), raising=False)


@pytest.mark.parametrize("cpus, affinity, expected", [
    (2, None, [2]), (1, None, []), (None, None, []),
    (8, {0, 1}, [2]), (8, {3}, []),
], ids=["two-cpus", "one-cpu", "unknown-cpus", "two-of-eight-usable",
        "one-of-eight-usable"])
def test_jobs_clamped_to_cpu_count(monkeypatch, tmp_path, cpus, affinity,
                                   expected):
    # the pool is a serial stand-in, so no test starts more workers than
    # the machine has
    set_cpus(monkeypatch, cpus, affinity)
    monkeypatch.setattr(RecordingExecutor, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    assert main(["simulate", "--n", "4", "--seeds", "0-2", "--num-bi", "2",
                 "--jobs", "64", "--out", str(tmp_path / "sim.csv")]) == 0
    assert RecordingExecutor.created == expected
    assert main(["sweep", "--param", "n", "--values", "4,6", "--mode",
                 "sim", "--seeds", "0", "--num-bi", "2", "--jobs", "64",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert RecordingExecutor.created == expected * 2


def test_one_task_starts_no_pool(monkeypatch, tmp_path):
    # a pool's workers cost more to start than one task takes to run
    set_cpus(monkeypatch, 2, {0, 1})
    monkeypatch.setattr(RecordingExecutor, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    assert main(["simulate", "--n", "4", "--seeds", "0", "--num-bi", "2",
                 "--jobs", "2", "--out", str(tmp_path / "sim.csv")]) == 0
    assert main(["sweep", "--param", "n", "--values", "4", "--mode", "sim",
                 "--seeds", "0", "--num-bi", "2", "--jobs", "2",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert RecordingExecutor.created == []
    assert main(["simulate", "--n", "4", "--seeds", "0-1", "--num-bi", "2",
                 "--jobs", "8", "--out", str(tmp_path / "two.csv")]) == 0
    assert RecordingExecutor.created == [2]


def test_two_jobs_write_the_bytes_of_one(monkeypatch, tmp_path):
    # each worker unpickles the parameters, which checks them again
    set_cpus(monkeypatch, 2, {0, 1})
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["simulate", "--n", "10", "--q", "2", "--seeds", "0-1",
                     "--num-bi", "5", "--jobs", jobs, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("argv", [
    ["simulate", "--jobs", "0"],
    ["simulate", "--jobs", "-2"],
    ["simulate", "--num-bi", "0"],
    ["sweep", "--param", "n", "--values", "4", "--jobs", "0"],
    ["sweep", "--param", "n", "--values", "4", "--mode", "sim", "--num-bi", "0"],
], ids=["simulate-jobs-0", "simulate-jobs-negative", "simulate-num-bi-0",
        "sweep-jobs-0", "sweep-num-bi-0"])
def test_jobs_and_num_bi_below_one_are_config_errors(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--n", "4", "--seeds", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "expected an integer >= 1" in err
    assert not out.exists()


# --- validate ---

VALIDATE_COLUMNS = ["w0", "m", "p", "p_h", "p_h_prime", "p_f", "b000_closed",
                    "b000_oracle", "b000_rel_err", "tau_closed", "tau_oracle",
                    "tau_rel_err"]


def test_validate_passes_default_grid(tmp_path):
    out = tmp_path / "validate.csv"
    assert main(["validate", "--out", str(out)]) == 0
    comments, rows = read_csv(out)
    errors = [float(row[key]) for row in rows
              for key in ("b000_rel_err", "tau_rel_err")]
    assert len(rows) == 108
    assert all(error <= 1e-6 for error in errors)
    assert comments == ["points=108", "tol=1e-06",
                        f"worst_rel_err={max(errors)!r}"]


def test_validate_stdout_bytes_are_pinned(tmp_path, capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "edd73d4ff09ae5c0fd2b253b427f73c86d7593fd4fa44eee112cdb8ed789a87d")
    assert main(["validate", "--out", str(tmp_path / "v.csv")]) == 0
    assert (tmp_path / "v.csv").read_bytes() == out


def test_validate_fails_at_impossible_tolerance(capsys):
    # the report is written before the failure
    assert main(["validate", "--tol", "1e-20"]) == 3
    captured = capsys.readouterr()
    assert "validation failure" in captured.err
    lines = captured.out.splitlines()
    assert lines[:2] == ["# points=108", "# tol=1e-20"]
    assert len(list(csv.DictReader(lines[3:]))) == 108


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_validate_tolerance_must_be_finite_and_non_negative(tol, capsys):
    # a NaN or infinite tolerance would pass any error
    assert main(["validate", "--tol", tol]) == 1
    assert capsys.readouterr().err.startswith("config error:")


# --- compare ---

def make_pair(tmp_path, n="5"):
    analytic_csv = tmp_path / f"a{n}.csv"
    sim_csv = tmp_path / f"s{n}.csv"
    assert main(["solve", "--n", n, "--cbap-fraction", "0.4",
                 "--out", str(analytic_csv)]) == 0
    assert main(["simulate", "--n", n, "--cbap-fraction", "0.4",
                 "--seeds", "0-2", "--num-bi", "20",
                 "--out", str(sim_csv)]) == 0
    return analytic_csv, sim_csv


def test_compare_joins_and_reports_relative_error(tmp_path):
    analytic_csv, sim_csv = make_pair(tmp_path)
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(analytic_csv), str(sim_csv),
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    u_a = float(row["u_analytic"])
    u_s = float(row["u_sim"])
    assert float(row["u_rel_err"]) == pytest.approx((u_s - u_a) / u_a,
                                                    rel=1e-12)
    assert row["n"] == "5"


def test_compare_without_join_is_config_error(tmp_path, capsys):
    analytic_csv, _ = make_pair(tmp_path, n="5")
    _, sim_csv = make_pair(tmp_path, n="6")
    assert main(["compare", str(analytic_csv), str(sim_csv)]) == 1
    assert "no joinable rows" in capsys.readouterr().err


def test_compare_skips_the_error_rows_of_a_sweep(tmp_path):
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "cbap_fraction", "--values", "0.0005,0.4",
                 "--n", "5", "--mode", "both", "--seeds", "0-1",
                 "--num-bi", "3", "--out", str(sweep)]) == 0
    _, rows = read_csv(sweep)
    assert [row["error"] != "" for row in rows] == [True] * 3 + [False] * 3
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(sweep), str(sweep), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2:] == [
        "5,1,7,5,0.4,0.35189902045704496,0.35031425000000005,"
        "-0.00450348072860965,0.0009293552617373276,0.000808905871281834,"
        "-0.1296053246960982"]


@pytest.mark.parametrize("header, row, column", [
    ("config_hash,q,w0,m,cbap_fraction,u,mean_delay_s",
     "{digest},1,7,5,0.4,0.33,0.0015", "'n'"),
    ("config_hash,n,q,w0,m,cbap_fraction,u,mean_delay_s",
     "{digest},10,1,7,5,0.4,high,0.0015", "u 'high'"),
    ("config_hash,n,q,w0,m,cbap_fraction,u,mean_delay_s",
     "{digest},10,1,7,5,0.4,0.33,1.5ms", "mean_delay_s '1.5ms'"),
], ids=["no-join-column", "u-not-a-number", "delay-not-a-number"])
def test_malformed_compare_input_is_config_error(header, row, column, tmp_path,
                                                 capsys):
    analytic_csv, sim_csv = tmp_path / "a.csv", tmp_path / "s.csv"
    assert main(["solve", "--n", "10", "--cbap-fraction", "0.4",
                 "--out", str(analytic_csv)]) == 0
    digest = config_hash(make_params(n=10, cbap_slots=8000))
    sim_csv.write_text(f"{header}\n{row.format(digest=digest)}\n",
                       encoding="utf-8")
    assert main(["compare", str(analytic_csv), str(sim_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {sim_csv}: ")
    assert column in err


def test_compare_input_the_csv_reader_refuses_is_config_error(tmp_path,
                                                              capsys):
    # a field over the csv module's 131 072-character limit once ended in
    # an _csv.Error traceback
    analytic_csv, sim_csv = tmp_path / "a.csv", tmp_path / "s.csv"
    assert main(["solve", "--n", "10", "--out", str(analytic_csv)]) == 0
    sim_csv.write_text("config_hash,n,q,w0,m,cbap_fraction,u\n"
                       f"abc,10,1,7,5,0.4,{'1' * 200_000}\n", encoding="utf-8")
    assert main(["compare", str(analytic_csv), str(sim_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {sim_csv}: field larger")


@pytest.mark.parametrize("first, second, wrong", [
    ("sim", "analytic", "sim"), ("sim", "sim", "sim"),
    ("analytic", "analytic", "analytic"),
], ids=["swapped", "sim-twice", "analytic-twice"])
def test_compare_refuses_rows_of_the_wrong_kind(first, second, wrong, tmp_path,
                                                capsys):
    # solve and simulate files have no mode column; the seed tells their kind
    files = dict(zip(("analytic", "sim"), make_pair(tmp_path)))
    capsys.readouterr()
    assert main(["compare", str(files[first]), str(files[second])]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: {files[wrong]}: has {wrong} rows where")


def test_compare_refuses_same_point_under_other_configuration(tmp_path, capsys):
    analytic_csv, sim_csv = tmp_path / "a.csv", tmp_path / "s.csv"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("msdu_bytes = 1000\n")
    point = ["--n", "10", "--cbap-fraction", "0.4"]
    assert main(["solve", *point, "--out", str(analytic_csv)]) == 0
    assert main(["simulate", *point, "--seeds", "0", "--num-bi", "5",
                 "--config", str(cfg), "--out", str(sim_csv)]) == 0
    capsys.readouterr()
    assert main(["compare", str(analytic_csv), str(sim_csv)]) == 1
    err = capsys.readouterr().err
    (_, (a_row,)), (_, (s_row,)) = read_csv(analytic_csv), read_csv(sim_csv)
    assert a_row["config_hash"] != s_row["config_hash"]
    assert a_row["config_hash"] in err and s_row["config_hash"] in err
    assert "msdu_bytes (7995 against 1000)" in err


def test_compare_names_no_parameters_for_sweep_rows(tmp_path, capsys):
    # a sweep's comment lines describe its base configuration (here n=6),
    # not the rows, so the message cannot say which parameters differ
    analytic_csv, sim_csv = tmp_path / "a.csv", tmp_path / "s.csv"
    assert main(["sweep", "--param", "n", "--values", "4,10", "--n", "6",
                 "--mode", "analytic", "--cbap-fraction", "0.4",
                 "--out", str(analytic_csv)]) == 0
    assert main(["simulate", "--n", "10", "--cbap-fraction", "0.4",
                 "--bi-ms", "50", "--seeds", "0", "--num-bi", "5",
                 "--out", str(sim_csv)]) == 0
    capsys.readouterr()
    assert main(["compare", str(analytic_csv), str(sim_csv)]) == 1
    err = capsys.readouterr().err
    assert "n=10 q=1 w0=7 m=5 cbap_fraction=0.4 has config_hash" in err
    assert "parameters differ" not in err


# --- every command ---

POINT_COLUMNS = ["config_hash", "seed", "n", "q", "w0", "m", "cbap_fraction",
                 "u_sectors", "u", "mean_delay_s", "drop_prob", "num_bi"]
COMPARE_COLUMNS = ["n", "q", "w0", "m", "cbap_fraction", "u_analytic", "u_sim",
                   "u_rel_err", "delay_analytic_s", "delay_sim_s",
                   "delay_rel_err"]


@pytest.mark.parametrize("argv, columns", [
    (["solve", "--n", "5"], POINT_COLUMNS),
    (["simulate", "--n", "5", "--seeds", "0-1", "--num-bi", "2"],
     POINT_COLUMNS),
    (["sweep", "--param", "n", "--values", "4,6", "--seeds", "0",
      "--num-bi", "2"], POINT_COLUMNS + ["mode", "error"]),
    (["compare"], COMPARE_COLUMNS),
    (["validate"], VALIDATE_COLUMNS),
], ids=["solve", "simulate", "sweep", "compare", "validate"])
def test_every_command_prints_csv(argv, columns, tmp_path, capsys):
    if argv == ["compare"]:
        argv = [*argv, *map(str, make_pair(tmp_path))]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    reader = csv.DictReader(line for line in lines if not line.startswith("#"))
    rows = list(reader)
    assert reader.fieldnames == columns
    assert rows and all(len(row) == len(columns) and None not in row.values()
                        for row in rows)


# --- packaging ---

def test_module_entry_point_smoke():
    proc = run_python("-m", "admac.cli", "solve", "--n", "4")
    assert proc.returncode == 0
    assert "config_hash" in proc.stdout


def test_analytic_and_simulate_paths_do_not_import_scipy():
    # no command needs scipy: run with scipy barred from import, solve,
    # simulate, validate and validation_report succeed with the bytes of a
    # run where it may load, and neither run loads it
    script = (
        "import sys\n"
        "if sys.argv[1] == 'barred':\n"
        "    sys.modules['scipy'] = None\n"
        "import admac\n"
        "from admac import cli\n"
        "assert cli.main(['solve', '--n', '10', '--cbap-fraction', '0.4']) == 0\n"
        "assert cli.main(['simulate', '--n', '4', '--seeds', '0',"
        " '--num-bi', '2']) == 0\n"
        "assert cli.main(['validate']) == 0\n"
        "print(admac.validation_report(admac.DEFAULT_GRID[:3]))\n"
        "print(sorted(name for name, module in sys.modules.items()\n"
        "             if name.partition('.')[0] == 'scipy' and module))\n"
    )
    barred = run_python("-c", script, "barred")
    free = run_python("-c", script, "free")
    assert barred.returncode == 0, barred.stderr
    assert free.returncode == 0, free.stderr
    assert barred.stdout == free.stdout
    assert "# worst_rel_err=" in free.stdout
    assert free.stdout.splitlines()[-1] == "[]"


def write_sim_csv(path, digest):
    """A one-row simulated CSV at n=10, share 0.4, written without numpy."""
    path.write_text(
        "config_hash,seed,n,q,w0,m,cbap_fraction,u_sectors,u,mean_delay_s,"
        "drop_prob,num_bi\n"
        f"{digest},0,10,1,7,5,0.4,0.33,0.33,0.0015,0.02,2\n", encoding="utf-8")


def test_analytic_and_compare_paths_do_not_import_numpy(tmp_path):
    # numpy serves only the oracle; importing it costs more than the rest
    # of the package's start-up
    analytic, sim = tmp_path / "a.csv", tmp_path / "s.csv"
    write_sim_csv(sim, config_hash(make_params(n=10, cbap_slots=8000)))
    script = (
        "import sys\n"
        "import admac\n"
        "from admac import cli\n"
        f"assert cli.main(['solve', '--n', '10', '--cbap-fraction', '0.4',"
        f" '--out', {str(analytic)!r}]) == 0\n"
        f"assert cli.main(['compare', {str(analytic)!r}, {str(sim)!r}]) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    # the records are NamedTuples; dataclasses, and the inspect it imports,
    # would cost a cold start more than building every record class
    analytic, sim = tmp_path / "a.csv", tmp_path / "s.csv"
    write_sim_csv(sim, config_hash(make_params(n=10, cbap_slots=8000)))
    script = (
        "import admac\n"
        "from admac import cli\n"
        f"assert cli.main(['solve', '--n', '10', '--cbap-fraction', '0.4',"
        f" '--out', {str(analytic)!r}]) == 0\n"
        "assert cli.main(['simulate', '--n', '4', '--seeds', '0-1',"
        " '--num-bi', '2']) == 0\n"
        "assert cli.main(['sweep', '--param', 'n', '--values', '4,6',"
        " '--mode', 'both', '--seeds', '0', '--num-bi', '2']) == 0\n"
        f"assert cli.main(['compare', {str(analytic)!r}, {str(sim)!r}]) == 0\n"
    )
    assert run_and_list_modules(script, ("dataclasses", "inspect")) == "[]"


def run_and_list_modules(script, modules):
    """Run ``script`` in a fresh interpreter; the ``modules`` it left loaded."""
    script += f"print([m for m in {list(modules)!r} if m in sys.modules])\n"
    proc = run_python("-c", "import sys\n" + script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_simulate_and_sim_sweep_do_not_import_numpy():
    # each station draws from the standard library's random.Random
    script = (
        "from admac import cli\n"
        "assert cli.main(['simulate', '--n', '10', '--seeds', '0-1',"
        " '--num-bi', '2']) == 0\n"
        "assert cli.main(['sweep', '--param', 'n', '--values', '4,6',"
        " '--mode', 'sim', '--seeds', '0-1', '--num-bi', '2']) == 0\n"
    )
    assert run_and_list_modules(script, ("numpy",)) == "[]"


def test_solve_and_compare_load_no_pool_simulator_or_oracle(tmp_path):
    # a worker pool, the simulator and the oracle load only for the
    # commands that run them
    analytic, sim = tmp_path / "a.csv", tmp_path / "s.csv"
    write_sim_csv(sim, config_hash(make_params(n=10, cbap_slots=8000)))
    script = (
        "import admac\n"
        "from admac import cli\n"
        f"assert cli.main(['solve', '--n', '10', '--cbap-fraction', '0.4',"
        f" '--out', {str(analytic)!r}]) == 0\n"
        f"assert cli.main(['compare', {str(analytic)!r}, {str(sim)!r}]) == 0\n"
    )
    loaded = run_and_list_modules(script, (
        "multiprocessing", "concurrent.futures.process", "admac.simulator",
        "admac.chain"))
    assert loaded == "[]"


def test_simulate_on_one_job_starts_no_pool():
    script = (
        "from admac import cli\n"
        "assert cli.main(['simulate', '--n', '4', '--seeds', '0-1',"
        " '--num-bi', '2', '--jobs', '1']) == 0\n"
    )
    loaded = run_and_list_modules(script, ("multiprocessing", "admac.simulator"))
    assert loaded == "['admac.simulator']"


def test_import_admac_loads_no_submodule():
    loaded = run_and_list_modules("import admac\n", (
        "admac.config", "admac.errors", "admac.markov", "admac.metrics",
        "admac.chain", "admac.simulator", "admac.cli"))
    assert loaded == "[]"


def test_every_exported_name_resolves_on_first_use():
    # in a fresh interpreter, so that no name is resolved beforehand
    script = (
        "import admac\n"
        "assert set(admac.__all__) <= set(dir(admac))\n"
        "namespace = {}\n"
        "exec('from admac import *', namespace)\n"
        "assert set(admac.__all__) <= set(namespace)\n"
        "assert all(getattr(admac, name) is namespace[name]"
        " for name in admac.__all__)\n"
        "from admac.metrics import analyze\n"
        "from admac.simulator import run_simulation\n"
        "assert namespace['analyze'] is analyze\n"
        "assert namespace['run_simulation'] is run_simulation\n"
        "try:\n"
        "    admac.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "module 'admac' has no attribute 'no_such_name'")


def test_config_hash_is_pinned():
    # compare joins on this digest: it must not move under a refactor
    assert config_hash(make_params(n=10, cbap_slots=8000)) == "1571e5b04353"


def test_config_hash_is_stable_and_sensitive():
    a = config_hash(make_params(n=10))
    b = config_hash(make_params(n=10))
    c = config_hash(make_params(n=11))
    assert a == b
    assert a != c
    assert len(a) == 12

