"""Command-line front end: solve, simulate, sweep, validate, compare.

Every output is CSV, with ``#`` comment lines for provenance: the
effective configuration, the two files ``compare`` joined, or the grid
``validate`` checked.  Row schema of the other three (stable):

    config_hash, seed, n, q, w0, m, cbap_fraction, u_sectors, u,
    mean_delay_s, drop_prob, num_bi

``u_sectors`` packs the per-sector utilizations into one semicolon-joined
field so the column count does not depend on the sector count.  Sweep
output appends ``mode`` and ``error`` columns; infeasible sweep points
emit a row with the error message instead of aborting the sweep.  Analytic
rows leave ``seed`` and ``num_bi`` empty.  ``u``, ``mean_delay_s`` and
``drop_prob`` print the ``PerformanceReport`` fields ``aggregate_u``,
``mean_delay`` and ``drop_prob``.  ``validate`` prints the rows of
``chain.validation_report``, also where it fails.  Exit codes: 0 success,
1 config error, 2 infeasible model or solver failure, 3 validation failure.
"""

import argparse
import csv
import functools
import hashlib
import io
import math
import os
import sys

from .config import (WINDOW_RULES, ModelParams, check_least, derive_timings,
                     make_params, open_text, parse_config_file, read_lines)
from .errors import AdmacError, ConfigError, ValidationError
from .metrics import analyze
from .numeric import left_sum

BASE_COLUMNS = (
    "config_hash", "seed", "n", "q", "w0", "m", "cbap_fraction",
    "u_sectors", "u", "mean_delay_s", "drop_prob", "num_bi",
)
SWEEP_COLUMNS = BASE_COLUMNS + ("mode", "error")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _provenance(params):
    """``name=value`` lines of every effective parameter, and their digest.

    The lines are sorted by name and end with ``config_hash=<digest>``.
    """
    lines = []
    for name in sorted(ModelParams._fields):
        value = getattr(params, name)
        text = ",".join(map(str, value)) if isinstance(value, tuple) else repr(value)
        lines.append(f"{name}={text}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]
    lines.append(f"config_hash={digest}")
    return lines, digest


def config_hash(params):
    """Short stable digest of every effective parameter."""
    return _provenance(params)[1]


def _parse_list(text, kind, what):
    """``kind`` of each ``what`` in a comma list; int lists take lo-hi[:step]."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if kind is int and "-" in part:
            try:
                span, step = part.split(":") if ":" in part else (part, "1")
                lo, hi = span.split("-")
                lo, hi, step = int(lo), int(hi), int(step)
            except ValueError:
                raise ConfigError(f"bad {what} range {part!r}")
            if hi < lo or step < 1:
                raise ConfigError(f"bad {what} range {part!r}")
            values.extend(range(lo, hi + 1, step))
        else:
            try:
                values.append(kind(part))
            except (ValueError, argparse.ArgumentTypeError):
                raise ConfigError(f"bad {what} {part!r}")
    if not values:
        raise ConfigError(f"no {what}s in {text!r}")
    return values


def parse_seeds(text):
    """Parse '0-9', '0-8:2', '0,3,7', or combinations into a sorted seed tuple."""
    return tuple(sorted(set(_parse_list(text, int, "seed"))))


def _with_flag(overrides, name, value):
    """``overrides`` with one flag set; ``bi_ms`` and ``cbap_fraction`` set
    ``bi_slots`` and ``cbap_slots`` at the effective slot time and interval."""
    defaults = ModelParams._field_defaults
    if name == "bi_ms":
        slot_time = overrides.get("slot_time", defaults["slot_time"])
        check_least("slot_time", slot_time)
        slots = value * 1e-3 / slot_time
        target = "bi_slots"
    elif name == "cbap_fraction":
        slots = value * overrides.get("bi_slots", defaults["bi_slots"])
        target = "cbap_slots"
    else:
        return {**overrides, name: value}
    if not math.isfinite(slots):
        raise ConfigError(f"{name} {value!r} gives {target} = {slots}, "
                          f"not a finite number of slots")
    return {**overrides, target: round(slots)}


def _collect_overrides(args):
    """Apply precedence: defaults < config file < CLI flags."""
    overrides = parse_config_file(args.config) if args.config else {}
    # bi_ms comes first, so that cbap_fraction is a share of the interval it sets
    for name in ("n", "q", "w0", "m", "window_rule", "bi_ms", "cbap_fraction"):
        value = getattr(args, name)
        if value is not None:
            overrides = _with_flag(overrides, name, value)
    return overrides


def _point_row(params, digest, seed=None, num_bi=None):
    """Base-column row of one point: analytic without a seed, which leaves
    ``seed`` and ``num_bi`` empty, else one simulated run of ``num_bi``
    beacon intervals."""
    if seed is None:
        report, num_bi = analyze(params), None
    else:
        from .simulator import empirical_report, run_simulation

        stats = run_simulation(params, derive_timings(params), seed, num_bi)
        report = empirical_report(stats, params)
    return {
        "config_hash": digest, "seed": seed, "n": params.n, "q": params.q,
        "w0": params.w0, "m": params.m,
        "cbap_fraction": params.cbap_slots / params.bi_slots,
        "u_sectors": ";".join(str(u) for u in report.per_sector_u),
        "u": report.aggregate_u, "mean_delay_s": report.mean_delay,
        "drop_prob": report.drop_prob, "num_bi": num_bi,
    }


def _sweep_point(base_overrides, param, num_bi, point):
    """Sweep row of one (value, mode, seed) point, analytic where the seed
    is None; a failure fills ``error``."""
    value, mode, seed = point
    row = {**dict.fromkeys(SWEEP_COLUMNS), "mode": mode}
    try:
        params = make_params(**_with_flag(base_overrides, param, value))
        row.update(_point_row(params, config_hash(params), seed, num_bi))
    except AdmacError as exc:
        row["error"] = str(exc)
        row[param] = value
        row["seed"] = seed
    return row


def _map(fn, tasks, jobs):
    """``fn`` of every task, in order, over at most one process per task
    and per CPU this process may run on.  A pool, and ``concurrent.futures``
    with ``multiprocessing``, start only for two or more workers.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs, cpus, len(tasks))
    if workers < 2:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _write_csv(path, comment_lines, columns, rows):
    """Write ``path``, or standard output without one, as CSV of ``rows``."""
    buffer = io.StringIO()
    for line in comment_lines:
        buffer.write(f"# {line}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row[col] is None else str(row[col])
                         for col in columns])
    if path is None:
        sys.stdout.write(buffer.getvalue())
    else:
        with open_text(path, "w", newline="") as fh:
            fh.write(buffer.getvalue())


def _cmd_point(args):
    """``solve``'s analytic row, or ``simulate``'s row of each seed."""
    params = make_params(**_collect_overrides(args))
    comments, digest = _provenance(params)
    seeds = (None,) if args.seeds is None else parse_seeds(args.seeds)
    run = functools.partial(_point_row, params, digest, num_bi=args.num_bi)
    _write_csv(args.out, comments, BASE_COLUMNS, _map(run, seeds, args.jobs))
    return 0


def _sweep_provenance(base_overrides, param, values):
    """Provenance lines of the sweep's base configuration or, where that
    cannot be built, of its first point that can; the base's error where
    no point can."""
    error = None
    for value in (None, *values):
        try:
            overrides = (base_overrides if value is None
                         else _with_flag(base_overrides, param, value))
            return _provenance(make_params(**overrides))[0]
        except ConfigError as exc:
            error = error or exc
    raise error


def _cmd_sweep(args):
    kind = _finite if args.param == "cbap_fraction" else int
    values = _parse_list(args.values, kind, "sweep value")
    base_overrides = _collect_overrides(args)
    seeds = parse_seeds(args.seeds)
    modes = ("analytic", "sim") if args.mode == "both" else (args.mode,)
    points = [(value, mode, seed) for value in values for mode in modes
              for seed in ((None,) if mode == "analytic" else seeds)]
    comments = [f"sweep_param={args.param}",
                f"sweep_values={','.join(str(v) for v in values)}",
                *_sweep_provenance(base_overrides, args.param, values)]
    run = functools.partial(_sweep_point, base_overrides, args.param,
                            args.num_bi)
    _write_csv(args.out, comments, SWEEP_COLUMNS, _map(run, points, args.jobs))
    return 0


def _cmd_validate(args):
    from .chain import validation_report

    rows = validation_report()
    worst = max(row[key] for row in rows
                for key in ("b000_rel_err", "tau_rel_err"))
    _write_csv(args.out, [f"points={len(rows)}", f"tol={args.tol!r}",
                          f"worst_rel_err={worst!r}"], list(rows[0]), rows)
    if worst > args.tol:
        raise ValidationError(f"closed form vs oracle: worst relative error "
                              f"{worst:.3e} exceeds {args.tol}")
    return 0


_JOIN_KEY = ("n", "q", "w0", "m", "cbap_fraction")


def _read_results(path, role):
    """A CSV's ``name=value`` comment pairs, and its rows of ``role`` with a
    result by ``config_hash``, with ``u`` and ``mean_delay_s`` as numbers.
    Without a ``mode`` column, an empty ``seed`` marks a row analytic and a
    seed marks it simulated; a row of the other role is an error."""
    lines = read_lines(path)
    comments = dict(line[1:].strip().partition("=")[::2]
                    for line in lines if line.startswith("#"))
    try:
        rows = list(csv.DictReader(
            line for line in lines if not line.startswith("#")))
    except csv.Error as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    grouped = {}
    for row in rows:
        kind = row.get("mode")
        if kind is None and row.get("seed") is not None:
            kind = "sim" if row["seed"] else "analytic"
            if kind != role:
                raise ConfigError(f"{path}: has {kind} rows where {role} rows "
                                  f"belong (an empty seed marks analytic)")
        if (kind or role) != role or row.get("error"):
            continue
        if not (row.get("u") and row.get("config_hash")):
            continue
        for column in _JOIN_KEY:
            if row.get(column) is None:
                raise ConfigError(f"{path}: a row has no {column!r} column")
        for column in ("u", "mean_delay_s"):
            try:
                row[column] = float(row[column]) if row.get(column) else None
            except ValueError:
                raise ConfigError(f"{path}: {column} {row[column]!r} "
                                  f"is not a number")
        grouped.setdefault(row["config_hash"], []).append(row)
    return comments, grouped


def _point(rows):
    return tuple(rows[0][k] for k in _JOIN_KEY)


def _check_same_configs(args, analytic, simulated, a_conf, s_conf):
    """Refuse a point that the two files hold under different configurations.

    ``a_conf`` and ``s_conf`` are the files' ``name=value`` comment lines;
    where they describe the unmatched rows, the message names the parameters
    that differ.
    """
    a_points, s_points = {}, {}
    for grouped, points in ((analytic, a_points), (simulated, s_points)):
        for digest, rows in grouped.items():
            points.setdefault(_point(rows), set()).add(digest)
    for point in sorted(a_points.keys() & s_points.keys()):
        a_hashes, s_hashes = a_points[point], s_points[point]
        if a_hashes == s_hashes:
            continue
        where = " ".join(f"{k}={v}" for k, v in zip(_JOIN_KEY, point))
        message = (f"{where} has config_hash {', '.join(sorted(a_hashes))} in "
                   f"{args.analytic_csv} but {', '.join(sorted(s_hashes))} in "
                   f"{args.sim_csv}")
        if (a_conf.get("config_hash") in a_hashes - s_hashes
                and s_conf.get("config_hash") in s_hashes - a_hashes):
            differ = [f"{name} ({a_conf.get(name)} against {s_conf.get(name)})"
                      for name in sorted(ModelParams._fields)
                      if a_conf.get(name) != s_conf.get(name)]
            message += f"; the parameters differ in {', '.join(differ)}"
        raise ConfigError(message)


def _mean_of(rows, column):
    values = [r[column] for r in rows if r[column] is not None]
    return left_sum(values) / len(values) if values else None


def _cmd_compare(args):
    a_conf, analytic = _read_results(args.analytic_csv, "analytic")
    s_conf, simulated = _read_results(args.sim_csv, "sim")
    _check_same_configs(args, analytic, simulated, a_conf, s_conf)
    shared = sorted(analytic.keys() & simulated.keys(),
                    key=lambda digest: (_point(analytic[digest]), digest))
    if not shared:
        raise ConfigError("no joinable rows between the two CSV files")
    out_rows = []
    for digest in shared:
        a_rows, s_rows = analytic[digest], simulated[digest]
        u_a, d_a = _mean_of(a_rows, "u"), _mean_of(a_rows, "mean_delay_s")
        u_s, d_s = _mean_of(s_rows, "u"), _mean_of(s_rows, "mean_delay_s")
        out_rows.append({
            **dict(zip(_JOIN_KEY, _point(a_rows))),
            "u_analytic": u_a,
            "u_sim": u_s,
            "u_rel_err": (u_s - u_a) / u_a if u_a else None,
            "delay_analytic_s": d_a,
            "delay_sim_s": d_s,
            "delay_rel_err": (d_s - d_a) / d_a if d_a and d_s else None,
        })
    columns = _JOIN_KEY + ("u_analytic", "u_sim", "u_rel_err",
                           "delay_analytic_s", "delay_sim_s", "delay_rel_err")
    _write_csv(args.out, [f"compare={args.analytic_csv} vs {args.sim_csv}"],
               columns, out_rows)
    return 0


def _finite(text):
    """Value of a float flag or sweep value: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text):
    """Value of ``--tol``: a finite number of 0 or more."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _add_config_flags(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--n", type=int, help="total stations")
    parser.add_argument("--q", type=int, help="number of sectors")
    parser.add_argument("--w0", type=int, help="base contention window")
    parser.add_argument("--m", type=int, help="maximum backoff stage")
    parser.add_argument("--cbap-fraction", type=_finite, dest="cbap_fraction",
                        help="contention share of the beacon interval")
    parser.add_argument("--bi-ms", type=_finite, dest="bi_ms",
                        help="beacon interval length in milliseconds")
    parser.add_argument("--window-rule", dest="window_rule",
                        choices=WINDOW_RULES,
                        help="contention window growth rule")
    parser.add_argument("--out", help="output path (default stdout)")


def _at_least_one(text):
    """Value of ``--num-bi`` or ``--jobs``: an integer of 1 or more."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _add_run_flags(parser):
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,7")
    parser.add_argument("--num-bi", type=_at_least_one, default=200,
                        dest="num_bi", help="beacon intervals per run")
    parser.add_argument("--jobs", type=_at_least_one, default=1,
                        help="worker processes, at most one per CPU")


def build_parser():
    parser = _Parser(prog="admac",
                     description="Sectored CSMA/CA model and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="single analytical point")
    p_solve.set_defaults(handler=_cmd_point, seeds=None, num_bi=None, jobs=1)
    _add_config_flags(p_solve)

    p_sim = sub.add_parser("simulate", help="single simulated point")
    p_sim.set_defaults(handler=_cmd_point)
    _add_config_flags(p_sim)
    _add_run_flags(p_sim)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter")
    p_sweep.set_defaults(handler=_cmd_sweep)
    _add_config_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         choices=("n", "w0", "q", "cbap_fraction"))
    p_sweep.add_argument("--values", required=True,
                         help="e.g. 10-50:10 or 0.2,0.4,1.0")
    p_sweep.add_argument("--mode", default="both",
                         choices=("analytic", "sim", "both"))

    p_val = sub.add_parser("validate", help="closed form vs explicit chain")
    p_val.set_defaults(handler=_cmd_validate)
    p_val.add_argument("--tol", type=_tolerance, default=1e-6)
    p_val.add_argument("--out", help="report path (default stdout)")

    p_cmp = sub.add_parser("compare", help="join analytic and sim CSVs")
    p_cmp.set_defaults(handler=_cmd_compare)
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
        return args.handler(args)
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
