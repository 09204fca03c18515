"""Time the two census search stages: the leader search and the right-table search.

Run from the repository root, optionally naming a JSON file to write:

    python bench/search.py [OUT.json]

For orders 3 and 4 (every semigroup representative) and 5 (every 10th), it
prints the best of 5 wall times of `enumeration._reps(n)`, with its cache
cleared, and of `enumeration._search(le, n, kind)` run over the
representatives' left tables for each pair kind, together with the tables
found.  OUT.json gets the same rows plus the commit, the Python version and
the CPU count.  The source measured is the `src/` next to this script.
"""
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dimonoids import enumeration  # noqa: E402

REPEATS = 5
STEPS = {3: 1, 4: 1, 5: 10}  # every step-th representative's right tables are searched
KINDS = ("dimonoid", "doppelsemigroup")


def best_of(fn):
    """(least wall time in seconds over REPEATS calls of fn, fn's result)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def reps_fresh(n):
    enumeration._reps.cache_clear()
    return enumeration._reps(n)


def right_tables(les, n, kind):
    return sum(1 for le in les for _ in enumeration._search(le, n, kind))


def commit():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() or None


def main(argv):
    rows = []
    for n, step in STEPS.items():
        seconds, reps = best_of(lambda: reps_fresh(n))
        rows.append({"stage": "reps", "order": n, "best_s": round(seconds, 4),
                     "tables": len(reps)})
        les = [le for le, _ in reps[::step]]
        for kind in KINDS:
            seconds, found = best_of(lambda: right_tables(les, n, kind))
            rows.append({"stage": "pair_search", "order": n, "kind": kind, "lefts": len(les),
                         "best_s": round(seconds, 4), "tables": found})
    for row in rows:
        print(f"{row['stage']:<12} order {row['order']} {row.get('kind', ''):<16}"
              f"{row['best_s']:8.4f} s  {row['tables']} tables")
    if argv:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        report = {"schema": "dimonoids.bench-search/1", "commit": commit(),
                  "python": platform.python_version(), "cpus": cpus, "repeats": REPEATS,
                  "rows": rows}
        Path(argv[0]).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
