"""Command-line front end: solve, simulate, sweep, validate, compare.

All outputs are CSV with the effective configuration echoed as ``#``
comment lines for provenance.  Row schema (stable):

    config_hash, seed, n, q, w0, m, cbap_fraction, u_sectors, u,
    mean_delay_s, drop_prob, num_bi

``u_sectors`` packs the per-sector utilizations into one semicolon-joined
field so the column count does not depend on the sector count.  Sweep
output appends ``mode`` and ``error`` columns; infeasible sweep points
emit a row with the error message instead of aborting the sweep.  Analytic
rows leave ``seed`` and ``num_bi`` empty; their ``mean_delay_s`` and
``drop_prob`` are service-period-weighted sector means, while simulated
rows report the all-packet mean delay and overall drop share.  Exit codes:
0 success, 1 config error, 2 infeasible model or solver failure,
3 validation failure.
"""

import argparse
import csv
import functools
import hashlib
import io
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from .chain import DEFAULT_GRID, validation_report
from .config import (DEFAULTS, ModelParams, derive_timings, make_params,
                     parse_config_file)
from .errors import AdmacError, ConfigError, ValidationError
from .metrics import analyze
from .simulator import empirical_report, run_simulation

BASE_COLUMNS = (
    "config_hash", "seed", "n", "q", "w0", "m", "cbap_fraction",
    "u_sectors", "u", "mean_delay_s", "drop_prob", "num_bi",
)
SWEEP_COLUMNS = BASE_COLUMNS + ("mode", "error")
SWEEP_PARAMS = ("n", "w0", "q", "cbap_fraction")


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a fixed base configuration."""

    param: str
    values: tuple
    base_overrides: dict
    modes: tuple
    seeds: tuple
    num_bi: int
    jobs: int

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ConfigError(f"cannot sweep {self.param!r}; "
                              f"choose one of {', '.join(SWEEP_PARAMS)}")
        if not self.values:
            raise ConfigError("sweep value list is empty")
        if not self.modes:
            raise ConfigError("sweep mode list is empty")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def config_hash(params):
    """Short stable digest of every effective parameter."""
    lines = []
    for f in sorted(fields(ModelParams), key=lambda f: f.name):
        value = getattr(params, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        else:
            rendered = repr(value)
        lines.append(f"{f.name}={rendered}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:12]


def parse_seeds(text):
    """Parse '0-9', '0,3,7', or combinations into a sorted seed tuple."""
    seeds = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            try:
                lo, hi = part.split("-")
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise ConfigError(f"bad seed range {part!r}")
            if hi < lo:
                raise ConfigError(f"bad seed range {part!r}")
            seeds.update(range(lo, hi + 1))
        else:
            try:
                seeds.add(int(part))
            except ValueError:
                raise ConfigError(f"bad seed {part!r}")
    if not seeds:
        raise ConfigError(f"no seeds in {text!r}")
    if min(seeds) < 0:
        raise ConfigError("seeds must be non-negative")
    return tuple(sorted(seeds))


def _collect_overrides(args):
    """Apply precedence: defaults < config file < CLI flags."""
    overrides = {}
    if args.config:
        overrides.update(parse_config_file(args.config))
    for name in ("n", "q", "w0", "m", "window_rule"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    merged = dict(DEFAULTS)
    merged.update(overrides)
    if getattr(args, "bi_ms", None) is not None:
        overrides["bi_slots"] = round(
            args.bi_ms * 1e-3 / merged["slot_time"]
        )
    if getattr(args, "cbap_fraction", None) is not None:
        bi_slots = overrides.get("bi_slots", merged["bi_slots"])
        overrides["cbap_slots"] = round(args.cbap_fraction * bi_slots)
    return overrides


def _analytic_row(params):
    report = analyze(params)
    weights = params.cbap_split
    total = sum(weights)
    delay = sum(d * c for d, c in zip(report.per_sector_delay, weights)) / total
    drop = sum(d * c for d, c in zip(report.per_sector_drop_prob, weights)) / total
    return {
        "config_hash": config_hash(params),
        "seed": None,
        "n": params.n,
        "q": params.q,
        "w0": params.w0,
        "m": params.m,
        "cbap_fraction": params.cbap_slots / params.bi_slots,
        "u_sectors": ";".join(str(u) for u in report.per_sector_u),
        "u": report.aggregate_u,
        "mean_delay_s": delay,
        "drop_prob": drop,
        "num_bi": None,
    }


def _sim_row(params, seed, num_bi):
    import numpy as np

    timings = derive_timings(params)
    stats = run_simulation(params, timings, seed, num_bi)
    report = empirical_report(stats, params)
    all_delays = np.concatenate(stats.delays) if stats.delays else np.array([])
    finished = sum(stats.successes) + sum(stats.dropped)
    return {
        "config_hash": config_hash(params),
        "seed": seed,
        "n": params.n,
        "q": params.q,
        "w0": params.w0,
        "m": params.m,
        "cbap_fraction": params.cbap_slots / params.bi_slots,
        "u_sectors": ";".join(str(u) for u in report.per_sector_u),
        "u": report.aggregate_u,
        "mean_delay_s": float(np.mean(all_delays)) if all_delays.size else None,
        "drop_prob": sum(stats.dropped) / finished if finished else None,
        "num_bi": num_bi,
    }


def _point_overrides(base_overrides, param, value):
    overrides = dict(base_overrides)
    if param == "cbap_fraction":
        merged = dict(DEFAULTS)
        merged.update(overrides)
        overrides["cbap_slots"] = round(value * merged["bi_slots"])
    else:
        overrides[param] = value
    return overrides


def _sweep_point(task):
    """Worker for one sweep row; returns (sort_key, row)."""
    base_overrides, param, index, value, mode, seed, num_bi = task
    row = {key: None for key in SWEEP_COLUMNS}
    row.update({"mode": mode, "error": None})
    try:
        params = make_params(**_point_overrides(base_overrides, param, value))
        if mode == "analytic":
            row.update(_analytic_row(params))
        else:
            row.update(_sim_row(params, seed, num_bi))
    except AdmacError as exc:
        row["error"] = str(exc)
        row[param] = value
        row["seed"] = seed
    sort_seed = -1 if seed is None else seed
    return (index, mode, sort_seed), row


def _workers(jobs):
    """Worker processes for ``--jobs``: at most one per CPU."""
    return min(jobs, os.cpu_count() or 1)


def run_sweep(spec):
    """All sweep rows, sorted by swept value, then mode, then seed."""
    tasks = []
    for index, value in enumerate(spec.values):
        for mode in spec.modes:
            if mode == "analytic":
                tasks.append((spec.base_overrides, spec.param, index, value,
                              mode, None, spec.num_bi))
            else:
                for seed in spec.seeds:
                    tasks.append((spec.base_overrides, spec.param, index,
                                  value, mode, seed, spec.num_bi))
    workers = _workers(spec.jobs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(task) for task in tasks]
    results.sort(key=lambda pair: pair[0])
    return [row for _, row in results]


def _render(value):
    if value is None:
        return ""
    return str(value)


def _write_csv(path, comment_lines, columns, rows):
    buffer = io.StringIO()
    for line in comment_lines:
        buffer.write(f"# {line}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_render(row[col]) for col in columns])
    text = buffer.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _config_comments(params):
    lines = []
    for f in sorted(fields(ModelParams), key=lambda f: f.name):
        value = getattr(params, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        else:
            rendered = repr(value)
        lines.append(f"{f.name}={rendered}")
    lines.append(f"config_hash={config_hash(params)}")
    return lines


def _cmd_solve(args):
    params = make_params(**_collect_overrides(args))
    _write_csv(args.out, _config_comments(params), BASE_COLUMNS,
               [_analytic_row(params)])
    return 0


def _cmd_simulate(args):
    params = make_params(**_collect_overrides(args))
    seeds = parse_seeds(args.seeds)
    workers = _workers(args.jobs)
    if workers > 1:
        tasks = [(params, seed, args.num_bi) for seed in seeds]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_simulate_star, tasks))
    else:
        rows = [_sim_row(params, seed, args.num_bi) for seed in seeds]
    _write_csv(args.out, _config_comments(params), BASE_COLUMNS, rows)
    return 0


def _simulate_star(task):
    return _sim_row(*task)


def _parse_sweep_values(param, text):
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if param == "cbap_fraction":
            try:
                values.append(float(part))
            except ValueError:
                raise ConfigError(f"bad sweep value {part!r}")
        elif "-" in part:
            try:
                span, step = part.split(":") if ":" in part else (part, "1")
                lo, hi = span.split("-")
                lo, hi, step = int(lo), int(hi), int(step)
            except ValueError:
                raise ConfigError(f"bad sweep range {part!r}")
            if hi < lo or step < 1:
                raise ConfigError(f"bad sweep range {part!r}")
            values.extend(range(lo, hi + 1, step))
        else:
            try:
                values.append(int(part))
            except ValueError:
                raise ConfigError(f"bad sweep value {part!r}")
    if not values:
        raise ConfigError(f"no sweep values in {text!r}")
    return tuple(values)


def _cmd_sweep(args):
    modes = ("analytic", "sim") if args.mode == "both" else (args.mode,)
    spec = SweepSpec(
        param=args.param,
        values=_parse_sweep_values(args.param, args.values),
        base_overrides=_collect_overrides(args),
        modes=modes,
        seeds=parse_seeds(args.seeds),
        num_bi=args.num_bi,
        jobs=args.jobs,
    )
    base_params = make_params(**spec.base_overrides)
    comments = [f"sweep_param={spec.param}",
                f"sweep_values={','.join(str(v) for v in spec.values)}"]
    comments.extend(_config_comments(base_params))
    _write_csv(args.out, comments, SWEEP_COLUMNS, run_sweep(spec))
    return 0


def _cmd_validate(args):
    rows = validation_report(DEFAULT_GRID)
    worst = 0.0
    lines = [
        f"{'w0':>3} {'m':>2} {'p':>4} {'p_h':>6} {'p_h_pr':>6} {'p_f':>4} "
        f"{'b000_closed':>14} {'b000_oracle':>14} {'b000_rel':>10} {'tau_rel':>10}"
    ]
    for row in rows:
        worst = max(worst, row["b000_rel_err"], row["tau_rel_err"])
        lines.append(
            f"{row['w0']:>3} {row['m']:>2} {row['p']:>4} {row['p_h']:>6} "
            f"{row['p_h_prime']:>6} {row['p_f']:>4} "
            f"{row['b000_closed']:>14.9e} {row['b000_oracle']:>14.9e} "
            f"{row['b000_rel_err']:>10.2e} {row['tau_rel_err']:>10.2e}"
        )
    lines.append(f"worst relative error: {worst:.3e} over {len(rows)} points")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if worst > args.tol:
        raise ValidationError(
            f"closed form vs oracle: worst relative error {worst:.3e} "
            f"exceeds {args.tol}"
        )
    return 0


def _read_csv_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


_JOIN_KEY = ("n", "q", "w0", "m", "cbap_fraction")


def _group_rows(rows, role):
    grouped = {}
    for row in rows:
        mode = row.get("mode")
        if mode and mode != role:
            continue
        if row.get("error"):
            continue
        if not row.get("u"):
            continue
        key = tuple(row[k] for k in _JOIN_KEY)
        grouped.setdefault(key, []).append(row)
    return grouped


def _mean_of(rows, column):
    values = [float(r[column]) for r in rows if r.get(column)]
    return sum(values) / len(values) if values else None


def _cmd_compare(args):
    analytic = _group_rows(_read_csv_rows(args.analytic_csv), "analytic")
    simulated = _group_rows(_read_csv_rows(args.sim_csv), "sim")
    shared = sorted(set(analytic) & set(simulated))
    if not shared:
        raise ConfigError("no joinable rows between the two CSV files")
    out_rows = []
    for key in shared:
        u_a = _mean_of(analytic[key], "u")
        u_s = _mean_of(simulated[key], "u")
        d_a = _mean_of(analytic[key], "mean_delay_s")
        d_s = _mean_of(simulated[key], "mean_delay_s")
        row = dict(zip(_JOIN_KEY, key))
        row.update({
            "u_analytic": u_a,
            "u_sim": u_s,
            "u_rel_err": (u_s - u_a) / u_a if u_a else None,
            "delay_analytic_s": d_a,
            "delay_sim_s": d_s,
            "delay_rel_err": (d_s - d_a) / d_a if d_a and d_s else None,
        })
        out_rows.append(row)
    columns = _JOIN_KEY + ("u_analytic", "u_sim", "u_rel_err",
                           "delay_analytic_s", "delay_sim_s", "delay_rel_err")
    _write_csv(args.out, [f"compare={args.analytic_csv} vs {args.sim_csv}"],
               columns, out_rows)
    return 0


def _add_config_flags(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--n", type=int, help="total stations")
    parser.add_argument("--q", type=int, help="number of sectors")
    parser.add_argument("--w0", type=int, help="base contention window")
    parser.add_argument("--m", type=int, help="maximum backoff stage")
    parser.add_argument("--cbap-fraction", type=float, dest="cbap_fraction",
                        help="contention share of the beacon interval")
    parser.add_argument("--bi-ms", type=float, dest="bi_ms",
                        help="beacon interval length in milliseconds")
    parser.add_argument("--window-rule", dest="window_rule",
                        choices=("doubling", "doubling-minus-one"),
                        help="contention window growth rule")
    parser.add_argument("--out", help="output path (default stdout)")


def build_parser():
    parser = _Parser(prog="admac",
                     description="Sectored CSMA/CA model and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="single analytical point")
    _add_config_flags(p_solve)

    p_sim = sub.add_parser("simulate", help="single simulated point")
    _add_config_flags(p_sim)
    p_sim.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,7")
    p_sim.add_argument("--num-bi", type=int, default=200, dest="num_bi")
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most one per CPU")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="e.g. 10-50:10 or 0.2,0.4,1.0")
    p_sweep.add_argument("--mode", default="both",
                         choices=("analytic", "sim", "both"))
    p_sweep.add_argument("--seeds", default="0-9")
    p_sweep.add_argument("--num-bi", type=int, default=200, dest="num_bi")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes, at most one per CPU")

    p_val = sub.add_parser("validate", help="closed form vs explicit chain")
    p_val.add_argument("--tol", type=float, default=1e-6)
    p_val.add_argument("--out", help="report path (default stdout)")

    p_cmp = sub.add_parser("compare", help="join analytic and sim CSVs")
    p_cmp.add_argument("analytic_csv")
    p_cmp.add_argument("sim_csv")
    p_cmp.add_argument("--out", help="output path (default stdout)")

    return parser


@functools.cache
def _shared_parser():
    """The parser of this process, built on first use."""
    return build_parser()


def main(argv=None):
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "solve": _cmd_solve,
            "simulate": _cmd_simulate,
            "sweep": _cmd_sweep,
            "validate": _cmd_validate,
            "compare": _cmd_compare,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 3
    except AdmacError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
