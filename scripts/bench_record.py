"""Record the benchmark of this checkout as one ``BENCH_<workload>.json`` each.

Run from anywhere inside the repository:

    python3 scripts/bench_record.py                 # 25 s per run
    python3 scripts/bench_record.py --seconds 0     # one round per run

For each workload of ``BENCHMARK.json`` it runs ``bench/run.py`` twice at
seed 0: with ``--trace 0`` for the end-to-end metrics and with
``--trace 1`` for the per-layer metrics.  From each run it reads the
``outputs sha256=... ops=... rounds=...`` line and the JSON object of the
last line.  The record holds the commit and whether the tracked files
differ from it, the seed, the run length, the Python version and the
usable CPU count, the outputs digest, ``correct`` and ``failed``, and each
run's metrics with its round count beside them: the benchmark keeps every
round's outputs, so ``peak_rss_mb`` grows with the rounds a run
completes.  The exit code is 1 unless both runs of every workload read
``correct``, fail no operation and print the same digest.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SEED = 0


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_once(workload, seconds, trace):
    """The last line's JSON of one run, with the digest and round count of
    the line before it."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    digest_line, last = done.stdout.splitlines()[-2:]
    fields = dict(part.split("=", 1) for part in digest_line.split()[1:])
    return {"digest": fields["sha256"], "rounds": int(fields["rounds"]),
            **json.loads(last)}


def record(workload, seconds, commit, dirty):
    """The record of one workload: an untraced and a traced run."""
    plain = run_once(workload, seconds, 0)
    traced = run_once(workload, seconds, 1)
    runs = {"end_to_end": plain, "per_layer": traced}
    return {
        "workload": workload,
        "commit": commit,
        "dirty": dirty,
        "seed": SEED,
        "seconds": seconds,
        "python": platform.python_version(),
        "cpus": _usable_cpus(),
        "digest": plain["digest"],
        "correct": (plain["correct"] is True and traced["correct"] is True
                    and plain["digest"] == traced["digest"]),
        "failed": plain["failed"] + traced["failed"],
        **{name: {"rounds": run["rounds"], "attempted": run["attempted"],
                  "metrics": run["metrics"]}
           for name, run in runs.items()},
    }


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    commit = _git("rev-parse", "HEAD")
    # the records themselves do not make the measured tree dirty
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no", "--",
                      ".", ":(exclude)BENCH_*.json"))
    ok = True
    for workload in names:
        rec = record(workload, args.seconds, commit, dirty)
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(rec, indent=2) + "\n", encoding="utf-8")
        print(f"{path.name}: correct={rec['correct']} failed={rec['failed']} "
              f"digest={rec['digest']}")
        ok = ok and rec["correct"] and rec["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
