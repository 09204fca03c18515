"""Time `dimonoids` commands on the change against its parent, as cold subprocesses.

Run from a git checkout, optionally naming a JSON file to write:

    python bench/search.py [OUT.json]

The change is the `src/` next to this script, as it stands in the working
tree; the parent is HEAD's `src/`, unpacked from `git archive` into a
temporary directory.  Each tree writes its bytecode to its own
`PYTHONPYCACHEPREFIX` under a temporary directory, and PYTHONDONTWRITEBYTECODE
is not passed on, so neither tree reads a `__pycache__` the other or an
earlier run left.  On a clean tree both are HEAD, and the output reads the
harness's own noise.  Each row runs one command line in fresh interpreters:
- `-v classify --order n --kind k --format json` for n = 3, 4, 5 and each kind;
- `-v problem1` and `-v enumerate --order 4`;
- `-v aut F` and `-v iso F F` for F the null semigroup O_n and the left-zero
  semigroup LO_n (Aut(LO_n) is S_n), n = 6, 7, 8, each written once by the
  change's `catalog build`.
Each command writes its output with `--out` to a temporary file.  A row runs
one untimed warm-up per tree, which also fills that tree's bytecode cache,
then REPEATS pairs of runs, the parent first in the first pair and the trees
taking turns to go first after that, so that both see the same drift of the
host's speed.  Each stderr line ending `in <seconds> s` is one stage, named by
the text before that tail, and each run is followed by a cold
`import dimonoids.cli` on its tree, the start-up every command pays.  Per tree, a row holds the
median wall time, the median of each stage, the median import as `import_s`,
and `share`, the median over the runs of each run's summed stages over its
wall time less its own import: the part of the command's own time that its
stage lines account for.  `wins` counts the pairs the change ran faster.
OUT.json adds the parent commit, each tree's sha256 over the path and bytes of
its `.py` files, the bytecode condition, the Python version and the CPU count.
"""
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 5
TREES = ("parent", "change")
KINDS = ("semigroup", "dimonoid", "doppelsemigroup")
CLI = "import sys; from dimonoids.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT = ["-c", "import dimonoids.cli"]
STAGE = re.compile(r"INFO (.+) in (\d+\.\d+) s")
BYTECODE = "written to a PYTHONPYCACHEPREFIX per tree, filled by the warm-up"


def trees(parent, tmp):
    """(src, bytecode cache) of the parent and the change, in TREES order: the parent's
    `src/` under parent, the change's next to this script, each cache its own under tmp."""
    return [(str(Path(parent) / "src"), str(Path(tmp) / "pycache-parent")),
            (str(ROOT / "src"), str(Path(tmp) / "pycache-change"))]


def run(args, cwd, tree):
    """(wall seconds, stderr) of one fresh interpreter run of args in cwd on the package in
    tree's src, writing and reading its bytecode in tree's cache."""
    src, cache = tree
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=cwd,
                          env={**env, "PYTHONPATH": src, "PYTHONPYCACHEPREFIX": cache},
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{args[2:]} on {src} exited with {done.returncode}:\n{done.stderr}")
    return wall, done.stderr


def summary(runs):
    """The medians of one tree's runs, each (wall, [[stage, seconds], ...], import)."""
    walls, stage_lists, imports = zip(*runs)
    stages = [[column[0][0], round(median(s for _, s in column), 4)]
              for column in zip(*stage_lists)]
    # each run's share against its own import: medians of separate series can exceed 1
    shares = [sum(s for _, s in run_stages) / (wall - start_up)
              for wall, run_stages, start_up in runs]
    return {"wall_s": round(median(walls), 4), "stages": stages,
            "import_s": round(median(imports), 4), "share": round(median(shares), 3)}


def timed(args, cwd, pair):
    """A row for args run in cwd on the parent and the change, pair in TREES order."""
    for tree in pair:
        run(args, cwd, tree)
    runs = ([], [])
    for i in range(REPEATS):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            wall, err = run(args, cwd, pair[side])
            stages = [[m[1], float(m[2])] for m in map(STAGE.fullmatch, err.splitlines()) if m]
            runs[side].append((wall, stages, run(IMPORT, cwd, pair[side])[0]))
    return {"command": " ".join(args[2:]), "wins": sum(c[0] < p[0] for p, c in zip(*runs)),
            **{tree: summary(tree_runs) for tree, tree_runs in zip(TREES, runs)}}


def commands(tmp, tree):
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
            run(["-c", CLI, "catalog", "build", name, "--out", table], tmp, tree)
            yield ["-v", "aut", table, *out]
            yield ["-v", "iso", table, table, *out]


def unpack_head(tmp):
    """Unpack HEAD's `src/` under tmp and return HEAD's commit."""
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.check_output([*git, "rev-parse", "HEAD"], text=True).strip()
    archive = io.BytesIO(subprocess.check_output([*git, "archive", commit, "src"]))
    with tarfile.open(fileobj=archive) as tar:
        tar.extractall(tmp, filter="data")
    return commit


def source_sha256(src):
    """sha256 over the path below src's parent and the bytes of each `.py` file under src."""
    digest, src = hashlib.sha256(), Path(src)
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src.parent).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv):
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as tmp:
        commit, pair = unpack_head(parent), trees(parent, tmp)
        sha256 = {name: source_sha256(src) for name, (src, _) in zip(TREES, pair)}
        rows = [timed(["-c", CLI, *cli_argv], tmp, pair) for cli_argv in commands(tmp, pair[1])]
    for row in rows:
        p, c = row["parent"], row["change"]
        print(f"{row['command']:<70}{p['wall_s']:8.4f} s parent {c['wall_s']:8.4f} s change, "
              f"won {row['wins']}/{REPEATS}; import {p['import_s']:.4f} and "
              f"{c['import_s']:.4f} s, share {p['share']:.3f} and {c['share']:.3f}")
        for (name, ps), (_, cs) in zip(p["stages"], c["stages"]):
            print(f"    {ps:8.4f} s {cs:8.4f} s  {name}")
    if argv:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        report = {"schema": "dimonoids.bench-search/9", "parent": commit, "src_sha256": sha256,
                  "bytecode": BYTECODE, "python": platform.python_version(), "cpus": cpus,
                  "repeats": REPEATS, "rows": rows}
        Path(argv[0]).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
