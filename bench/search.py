"""Time `dimonoids` commands as cold subprocesses, with the stages each logs under -v.

Run from the repository root, optionally naming a JSON file to write:

    python bench/search.py [OUT.json]

Each row runs one command line in a fresh interpreter on the `src/` next to this
script, so each run starts cold and no cache of the package outlives it.  The rows:
- `-v classify --order n --kind k --format json` for n = 3, 4, 5 and each kind;
- `-v problem1` and `-v enumerate --order 4`;
- `-v aut F` and `-v iso F F` for F the null semigroup O_n and the left-zero
  semigroup LO_n (Aut(LO_n) is S_n), n = 6, 7, 8, each written once by
  `catalog build`.
Each command writes its output with `--out` to a temporary file.  After one
untimed warm-up run, which also fills the bytecode cache, a row keeps the least
wall time of REPEATS runs and the stages of that run: each stderr line ending
`in <seconds> s` is one stage, named by the text before that tail.  `logged_s`
sums the stages.  Each run is followed by a cold `import dimonoids.cli`, the
start-up every command pays; `import_s` is the least of those, and `share` is
`logged_s` over `best_s` less `import_s`: the part of the command's own time
that its stage lines account for.

The host's speed drifts, so the speed reference of the benchmark harness,
the basket of `perfbench/reference.py`, is sampled just before and just
after each timed row, SAMPLES times on each side.  A row records the median
of those samples as its `speed` (1.0 is the basket's nominal speed, 0.8 is
20% slower), their least and greatest as `speed_spread`, and its best time
at nominal speed, `nominal_s` = `best_s` * `speed`, the figure to compare
between runs.  OUT.json gets the same rows plus a sha256 of the
source measured, the Python version and the CPU count.  The source measured
is the `src/` next to this script; its digest covers the path and bytes of
each of its `.py` files, so it names the tree as measured, committed or not.
"""
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import reference  # noqa: E402

REPEATS = 5
SAMPLES = 3  # speed samples on each side of a timed row
KINDS = ("semigroup", "dimonoid", "doppelsemigroup")
CLI = "import sys; from dimonoids.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT = ["-c", "import dimonoids.cli"]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
STAGE = re.compile(r"INFO (.+) in (\d+\.\d+) s")

BASKET = {"memory": reference.Memory().step, "arithmetic": reference.arithmetic,
          "associativity": reference.associativity, "arguments": reference.arguments}


def speed():
    """The host's speed now, as `perfbench/reference.py` answers a sample: the geometric
    mean over its basket of each loop's rate over its nominal rate."""
    logs = [math.log(reference.rate(step) / reference.NOMINAL[name])
            for name, step in BASKET.items()]
    return math.exp(sum(logs) / len(logs))


def run(args, cwd):
    """(wall seconds, [[stage, seconds], ...]) of one fresh interpreter run with args in cwd."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=ENV,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{args[2:]} exited with {done.returncode}:\n{done.stderr}")
    return wall, [[m[1], float(m[2])] for m in map(STAGE.fullmatch, done.stderr.splitlines())
                  if m]


def timed(args, cwd):
    """A row for args run in cwd: its best wall time after a warm-up run, that run's stages,
    the best time of the imports between its runs, and the host's speed around the timed
    runs (the median of the samples and their range)."""
    run(args, cwd)
    samples = [speed() for _ in range(SAMPLES)]
    runs = [(run(args, cwd), run(IMPORT, cwd)[0]) for _ in range(REPEATS)]
    samples += [speed() for _ in range(SAMPLES)]
    (wall, stages), start_up = min(runs)[0], min(base for _, base in runs)
    logged, factor = sum(seconds for _, seconds in stages), statistics.median(samples)
    return {"command": " ".join(args[2:]), "best_s": round(wall, 4), "speed": round(factor, 3),
            "speed_spread": [round(min(samples), 3), round(max(samples), 3)],
            "nominal_s": round(wall * factor, 4), "stages": stages,
            "logged_s": round(logged, 4), "import_s": round(start_up, 4),
            "share": round(logged / (wall - start_up), 3)}


def commands(tmp):
    """The command line of each row after `dimonoids`, run in tmp, the outputs going there."""
    out = ["--out", "out"]
    for n in (3, 4, 5):
        for kind in KINDS:
            yield ["-v", "classify", "--order", str(n), "--kind", kind, "--format", "json", *out]
    yield ["-v", "problem1", *out]
    yield ["-v", "enumerate", "--order", "4", *out]
    for n in (6, 7, 8):
        for name in (f"O{n}", f"LO{n}"):
            table = f"{name}.txt"
            run(["-c", CLI, "catalog", "build", name, "--out", table], tmp)
            yield ["-v", "aut", table, *out]
            yield ["-v", "iso", table, table, *out]


def source_sha256():
    """sha256 over the relative path and bytes of each `.py` file under src/, sorted."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv):
    with tempfile.TemporaryDirectory() as tmp:
        rows = [timed(["-c", CLI, *cli_argv], tmp) for cli_argv in commands(tmp)]
    for row in rows:
        print(f"{row['command']:<70}{row['best_s']:8.4f} s at speed {row['speed']:.3f}: "
              f"{row['nominal_s']:8.4f} s nominal; {row['logged_s']:.4f} s logged, "
              f"{row['import_s']:.4f} s import, share {row['share']:.3f}")
        for stage, seconds in row["stages"]:
            print(f"    {seconds:8.4f} s  {stage}")
    if argv:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        report = {"schema": "dimonoids.bench-search/6", "src_sha256": source_sha256(),
                  "python": platform.python_version(), "cpus": cpus, "repeats": REPEATS,
                  "rows": rows}
        Path(argv[0]).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
