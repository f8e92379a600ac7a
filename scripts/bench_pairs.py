"""Compare two checkouts on one workload over alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--pairs 10] [--seconds 25] [--seed 0]

Each pair runs ``bench/run.py --trace 0`` once in each checkout, the parent
first in odd-numbered pairs and the change first in even-numbered ones, so
that a drift of the machine's speed falls on both sides alike.  Each run
imports ``admac`` from ``src/`` of its own checkout.  For every end-to-end
metric of the change's ``BENCHMARK.json`` the script prints each side's
median and quartiles, the relative change of the medians, and the change's
wins out of all pairs (a tie counts for neither side).  A gain is claimed
only where the claim rule holds: the change wins at least 9 pairs in 10,
and its median is better than the parent's by more than the parent's
interquartile distance.  Quartiles are interpolated between order
statistics (``statistics.quantiles``, method "inclusive").  The benchmark
keeps every round's outputs, so each run's round count is printed beside
its ``peak_rss_mb``.  The exit code is 1 unless every run reads
``correct`` with no failed operation.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_record import run_once


def quartiles(values):
    """First quartile, median and third quartile of ``values``."""
    return statistics.quantiles(values, n=4, method="inclusive")


def claim(parent, change, better):
    """The change's wins over paired runs, and whether the claim rule holds.

    ``parent`` and ``change`` hold one metric's values, pair by pair;
    ``better`` is "lower" or "higher".  The rule: wins in at least 9 of 10
    pairs, and medians apart, in the better direction, by more than the
    parent's interquartile distance.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0
               for p, c in zip(parent, change, strict=True))
    q1, median, q3 = quartiles(parent)
    gain = sign * (median - statistics.median(change))
    return wins, 10 * wins >= 9 * len(parent) and gain > q3 - q1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with open(args.change / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(args.workload, args.seconds, 0, root=sides[side],
                           seed=args.seed)
            runs[side].append(run)
        print(f"pair {pair + 1} ({order[0]} first): " + "  ".join(
            f"{side} rounds={runs[side][-1]['rounds']} peak_rss_mb="
            f"{runs[side][-1]['metrics']['peak_rss_mb']['value']:.2f}"
            for side in sides), flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s: median [q1, q3]")
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in sides}
        wins, holds = claim(values["parent"], values["change"],
                            metric["better"])
        shown = []
        for side in sides:
            q1, median, q3 = quartiles(values[side])
            shown.append(f"{side} {median:.4g} [{q1:.4g}, {q3:.4g}]")
        before = statistics.median(values["parent"])
        after = statistics.median(values["change"])
        print(f"  {name}: {'  '.join(shown)}  "
              f"{100.0 * (after - before) / before:+.1f}%  "
              f"wins {wins}/{args.pairs}  "
              f"claim {'holds' if holds else 'does not hold'}")
    ok = all(r["correct"] is True and r["failed"] == 0
             for side in sides for r in runs[side])
    for side in sides:
        print(f"{side} digests: "
              f"{' '.join(sorted({r['digest'] for r in runs[side]}))}")
    print(f"every run correct with 0 failed: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
