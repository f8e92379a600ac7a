"""Benchmark of admac: one closed-loop workload per run, checked end to end.

Run from the repository root:

    python3 bench/run.py --workload analytic-figures --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds, and prints the per-layer metrics and
the tracing overhead.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Outputs go to
``.bench_out/`` at the repository root.  See bench/README.md.
"""

import os

# One BLAS thread, at most nproc: under OpenBLAS's default of one thread
# per CPU, the dense oracle solve now and then falls into a mode ten times
# slower (README "BLAS threads").  Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 11         # set-ups per run: this process plus ten probes
PROBE_TIMEOUT_S = 60


class Round(NamedTuple):
    """One pass over every operation of a workload."""

    wall: float         # seconds for the whole round
    times: list         # seconds per operation, in the order sent
    outputs: dict       # operation key -> CSV text, for those that succeeded
    failed: int
    first_span: int     # index of the round's first span, when traced


def setup(workload, seed):
    """Import the package and build the workload's inputs, timed."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    built = workloads.WORKLOADS[workload](seed)
    return built, time.perf_counter() - start


def probe_setup(workload, seed):
    """Set-up time of a fresh process, which imports everything anew."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        cwd=ROOT)
    return float(done.stdout.split()[-1])


def run_round(built, tracer=None):
    """Send every operation once, each after the previous one returned."""
    from workloads import OpFailed

    clock = time.perf_counter
    first_span = len(tracer.spans) if tracer else 0
    times, outputs, failed = [], {}, 0
    round_start = clock()
    for op in built.ops:
        if tracer:
            tracer.op = op.key
        t = clock()
        try:
            outputs[op.key] = op.run()
        except OpFailed as exc:
            print(f"failed: {op.key}: {exc}", file=sys.stderr)
            failed += 1
        times.append(clock() - t)
    return Round(clock() - round_start, times, outputs, failed, first_span)


def run_rounds(built, seconds):
    """Send whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(built))
    return rounds


def check_rounds(built, rounds):
    """Check the first round's outputs; later rounds must repeat them."""
    import checks

    first = rounds[0].outputs
    try:
        built.check(first)
    except (checks.CheckFailed, KeyError, IndexError, ValueError) as exc:
        print(f"check failed: {exc!r}", file=sys.stderr)
        return False
    for later in rounds[1:]:
        if later.outputs != first:
            print("check failed: outputs differ between rounds", file=sys.stderr)
            return False
    return True


def digest_outputs(workload, seed, outputs):
    """Write one sha256 per operation; return the digest over all of them."""
    lines = [f"{hashlib.sha256(text.encode()).hexdigest()}  {key}\n"
             for key, text in sorted(outputs.items())]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}.sha256").write_text("".join(lines))
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def end_to_end(rounds, setups):
    walls = [r.wall for r in rounds]
    times = [t for r in rounds for t in r.times]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(
            times, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def traced(built, seconds, workload, seed):
    """Untraced and traced rounds in turn; per-layer metrics of the latter.

    Alternating the two lets drift in the machine's speed hit both alike,
    so that their difference measures the tracing overhead.
    """
    import tracing

    tracer = tracing.Tracer()
    plain, spanned = [], []
    start = time.perf_counter()
    while not spanned or time.perf_counter() - start < seconds:
        plain.append(run_round(built))
        tracer.install()
        try:
            spanned.append(run_round(built, tracer))
        finally:
            tracer.uninstall()
    ends = [r.first_span for r in spanned[1:]] + [len(tracer.spans)]
    per_round = [tracing.layer_metrics(tracer.spans[r.first_span:end],
                                       r.first_span)
                 for r, end in zip(spanned, ends)]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}-seed{seed}.spans.jsonl")
    metrics = {name: (value, tracing.UNITS[name])
               for name, value in tracing.median_metrics(per_round).items()}
    traced_wall = statistics.median(r.wall for r in spanned)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(r.wall for r in plain), "s")
    for violation in tracer.violations:
        print(f"check failed: {violation}", file=sys.stderr)
    return plain + spanned, metrics, not tracer.violations


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("analytic-figures", "sim-crossval",
                                 "oracle-grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "admac").is_dir():
        print(f"no admac package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    built, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    if args.trace:
        rounds, metrics, conserved = traced(built, args.seconds,
                                            args.workload, args.seed)
    else:
        setups = [own_setup] + [probe_setup(args.workload, args.seed)
                                for _ in range(SETUP_RUNS - 1)]
        rounds = run_rounds(built, args.seconds)
        metrics, conserved = end_to_end(rounds, setups), True
    correct = check_rounds(built, rounds) and conserved
    digest = digest_outputs(args.workload, args.seed, rounds[0].outputs)
    attempted = len(rounds) * len(built.ops)
    failed = sum(r.failed for r in rounds)
    print(f"outputs sha256={digest} ops={len(built.ops)} rounds={len(rounds)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
