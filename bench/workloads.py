"""The benchmark's workloads: their operations and the checks on their output.

Each workload is a fixed list of operations that one client sends one at
a time (a closed loop).  ``--seed`` sets the order of the operations and,
for the simulator, the simulation seeds; it never changes which points are
computed.  Every operation returns CSV text, whose digest shows that two
runs of the same code produce byte-identical output.
"""

import contextlib
import csv
import io
import random
from dataclasses import dataclass
from typing import Callable

from admac import chain, cli, config, markov
from admac.errors import AdmacError

import checks

BI_SLOTS = 20000  # default beacon interval, in slots

# analytic-figures: utilization against n per (q, w0) at share 0.4, and
# delay against the contention share at n in {10, 30, 50}.
FIG_Q = (1, 2, 4, 8)
FIG_W0 = (7, 15, 31)
FIG_N_MAX = 64
FIG_SHARE = "0.4"
DELAY_N = (10, 30, 50)
DELAY_W0 = 7
DELAY_SHARES = tuple(f"{k / 10:.1f}" for k in range(1, 11))
SECTOR_GAIN_N = 30

# sim-crossval: (n, q, w0, share); every simulation covers the same number
# of contention slots, so that simulations of all configurations cost alike.
SIM_CONFIGS = (
    *((n, 1, w0, "0.4") for w0 in (7, 15, 31) for n in (10, 30, 50)),
    (50, 1, 7, "1.0"),
    (30, 4, 7, "0.4"),
    (16, 8, 7, "0.4"),
    (1, 1, 7, "0.4"),
)
SIM_SEEDS_PER_CONFIG = 8
SIM_CONTENTION_SLOTS = 40_000

# oracle-grid: DEFAULT_GRID plus the operating points of one sector at m = 5.
ORACLE_M = 5
ORACLE_W0 = (7, 15)
ORACLE_N = (1, 10, 30, 50)
ORACLE_SHARES = ("0.4", "1.0")
ORACLE_COLUMNS = ("w0", "m", "p", "p_h", "p_h_prime", "p_f",
                  "b000_closed", "b000_oracle", "tau_closed", "tau_oracle")


class OpFailed(Exception):
    """An operation that the program refused or could not complete."""


@dataclass(frozen=True)
class Op:
    """One operation of a workload; ``run`` returns its CSV output."""

    key: str
    run: Callable[[], str]


@dataclass(frozen=True)
class Workload:
    """Operations in the order the client sends them, and the output check."""

    ops: tuple
    check: Callable[[dict], None]


def csv_rows(text):
    """Data rows of CSV text, with ``#`` comment lines skipped."""
    return list(csv.DictReader(
        line for line in text.splitlines() if not line.startswith("#")))


def _admac(argv):
    """Run one ``admac`` command in process and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"admac {' '.join(argv)} exited with {code}")
    return out.getvalue()


def _config_argv(n, q, w0, share):
    return ["--n", str(n), "--q", str(q), "--w0", str(w0),
            "--cbap-fraction", share]


def _solve_key(n, q, w0, share):
    return f"solve n={n} q={q} w0={w0} share={share}"


def _solve_op(n, q, w0, share):
    argv = ["solve", *_config_argv(n, q, w0, share)]
    return Op(_solve_key(n, q, w0, share), lambda: _admac(argv))


def _simulate_op(n, q, w0, share, seed):
    num_bi = round(SIM_CONTENTION_SLOTS / (float(share) * BI_SLOTS))
    argv = ["simulate", *_config_argv(n, q, w0, share), "--seeds", str(seed),
            "--num-bi", str(num_bi), "--jobs", "1"]
    key = f"simulate n={n} q={q} w0={w0} share={share} seed={seed}"
    return Op(key, lambda: _admac(argv))


def _u(row):
    return float(row["u"])


def _check_row(row, what):
    checks.check_ranges(_u(row), float(row["drop_prob"]), what)


def _check_lone(row, w0, tol, what):
    for u in [_u(row), *(float(u) for u in row["u_sectors"].split(";"))]:
        checks.check_lone_station(u, w0, tol, what)


def _figure_points():
    points = [(n, q, w0, FIG_SHARE)
              for w0 in FIG_W0 for q in FIG_Q for n in range(q, FIG_N_MAX + 1)]
    points += [(n, 1, DELAY_W0, share)
               for n in DELAY_N for share in DELAY_SHARES]
    return list(dict.fromkeys(points))


def _check_figures(outputs):
    rows = {key: csv_rows(text)[0] for key, text in outputs.items()}
    for key, row in rows.items():
        _check_row(row, key)
    for w0 in FIG_W0:
        for q in FIG_Q:
            key = _solve_key(q, q, w0, FIG_SHARE)
            _check_lone(rows[key], w0, checks.ANALYTIC_LONE_TOL, key)
        for n in range(SECTOR_GAIN_N, FIG_N_MAX + 1):
            checks.check_sector_gain(
                _u(rows[_solve_key(n, 4, w0, FIG_SHARE)]),
                _u(rows[_solve_key(n, 1, w0, FIG_SHARE)]),
                f"n={n} w0={w0}")
    for n in DELAY_N:
        by_share = {share: rows[_solve_key(n, 1, DELAY_W0, share)]
                    for share in DELAY_SHARES}
        what = f"delay figure n={n}"
        checks.check_share_invariance(
            {s: row["u_sectors"] for s, row in by_share.items()}, what)
        checks.check_delay_rises(
            {float(s): float(row["mean_delay_s"])
             for s, row in by_share.items()}, what)


def analytic_figures(seed):
    ops = [_solve_op(*point) for point in _figure_points()]
    random.Random(seed).shuffle(ops)
    return Workload(tuple(ops), _check_figures)


def _sim_seeds(seed):
    return range(seed * SIM_SEEDS_PER_CONFIG,
                 (seed + 1) * SIM_SEEDS_PER_CONFIG)


def _check_crossval(outputs, seeds):
    analytic, simulated = {}, {}
    for n, q, w0, share in SIM_CONFIGS:
        key = _solve_key(n, q, w0, share)
        analytic[n, q, w0] = row = csv_rows(outputs[key])[0]
        _check_row(row, key)
        simulated[n, q, w0] = []
        for seed in seeds:
            what = f"simulate n={n} q={q} w0={w0} share={share} seed={seed}"
            sim = csv_rows(outputs[what])[0]
            _check_row(sim, what)
            checks.check_sim_vs_analytic(_u(sim), _u(row), what)
            simulated[n, q, w0].append(_u(sim))
            if n == q:
                _check_lone(sim, w0, checks.SIM_LONE_TOL, what)
        if n == q:
            _check_lone(row, w0, checks.ANALYTIC_LONE_TOL, key)
    for n, q, w0, share in SIM_CONFIGS:
        single = (n, 1, w0)
        if q > 1 and n >= SECTOR_GAIN_N and single in analytic:
            what = f"n={n} q={q} w0={w0}"
            checks.check_sector_gain(_u(analytic[n, q, w0]),
                                     _u(analytic[single]), f"analytic {what}")
            checks.check_sector_gain(
                sum(simulated[n, q, w0]) / len(seeds),
                sum(simulated[single]) / len(seeds), f"simulated {what}")


def sim_crossval(seed):
    seeds = _sim_seeds(seed)
    ops = []
    for config_point in SIM_CONFIGS:
        ops.append(_solve_op(*config_point))
        ops.extend(_simulate_op(*config_point, s) for s in seeds)
    random.Random(seed).shuffle(ops)
    return Workload(tuple(ops), lambda outputs: _check_crossval(outputs, seeds))


def _oracle_csv(rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ORACLE_COLUMNS)
    for row in rows:
        writer.writerow([repr(row[c]) for c in ORACLE_COLUMNS])
    return out.getvalue()


def _validate(point):
    try:
        return _oracle_csv(chain.validation_report([point]))
    except AdmacError as exc:
        raise OpFailed(f"validation_report at {point}: {exc}") from exc


def _operating_point(w0, n, share):
    """Oracle point of one sector: p from the chain-step fixed point."""
    try:
        params = config.make_params(n=n, w0=w0, m=ORACLE_M,
                                    cbap_slots=round(float(share) * BI_SLOTS))
        timings = config.derive_timings(params)
        sector = config.derive_sector_models(params, timings)[0]
        sol = markov.solve_fixed_point(sector, w0, ORACLE_M,
                                       window_rule=params.window_rule)
    except AdmacError as exc:
        raise OpFailed(f"operating point w0={w0} n={n}: {exc}") from exc
    return _validate((w0, ORACLE_M, sol.p, sector.p_h, sector.p_h_prime,
                      sector.p_f))


def _check_oracle(outputs):
    for key, text in outputs.items():
        for row in csv_rows(text):
            checks.check_oracle_row({c: float(row[c]) for c in ORACLE_COLUMNS},
                                    key)


def oracle_grid(seed):
    ops = [Op(f"grid {point}", lambda point=point: _validate(point))
           for point in chain.DEFAULT_GRID]
    ops += [Op(f"operating w0={w0} n={n} share={share}",
               lambda w0=w0, n=n, share=share: _operating_point(w0, n, share))
            for w0 in ORACLE_W0 for n in ORACLE_N for share in ORACLE_SHARES]
    random.Random(seed).shuffle(ops)
    return Workload(tuple(ops), _check_oracle)


WORKLOADS = {
    "analytic-figures": analytic_figures,
    "sim-crossval": sim_crossval,
    "oracle-grid": oracle_grid,
}
