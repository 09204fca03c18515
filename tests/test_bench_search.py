"""Tests for `bench/search.py`'s A/B rows, with its subprocess runner replaced by a fake."""
from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path
from statistics import median

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "search.py"
ARGS = ["-c", "main", "-v", "classify", "--order", "4"]
# wall seconds of each tree's timed command runs, in pair order
WALLS = {"P": [1.0, 1.4, 1.1, 1.3, 1.2, 1.05, 1.35, 1.15, 1.25, 1.45],
         "C": [0.9, 1.5, 1.0, 1.1, 1.25, 1.0, 1.4, 1.2, 1.2, 1.3]}
IMPORTS = {"P": [0.10, 0.30, 0.20, 0.50, 0.40, 0.15, 0.25, 0.35, 0.45, 0.05],
           "C": [0.20, 0.10, 0.30, 0.20, 0.10, 0.25, 0.15, 0.05, 0.35, 0.30]}
PAIR = [("P", "P-cache"), ("C", "C-cache")]  # (src, bytecode cache) per tree


@pytest.fixture
def search(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_search", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []
    timed = {tree: iter(walls) for tree, walls in WALLS.items()}
    imports = {tree: iter(walls) for tree, walls in IMPORTS.items()}

    def fake_run(args, cwd, tree):
        src, _ = tree
        if args == module.IMPORT:
            calls.append((src, "import"))
            return next(imports[src]), ""
        if (src, "warm-up") not in calls:  # each tree's first command run
            calls.append((src, "warm-up"))
            return 99.0, "INFO warm-up stage in 9.0000 s\n"
        calls.append((src, "timed"))
        wall = next(timed[src])
        # two stage lines, then an INFO line with no timing tail and a WARNING: no stages
        return wall, (f"INFO order 4: name map of 12 names in {wall / 10:.4f} s\n"
                      "INFO order 4: a line with no tail\nWARNING slow in 1.0000 s\n"
                      f"INFO output written to out in {wall / 100:.4f} s\n")

    monkeypatch.setattr(module, "run", fake_run)
    return module, calls


def test_row_warms_up_each_tree_then_alternates_pairs(search):
    module, calls = search
    module.timed(ARGS, "tmp", PAIR)
    pairs = [("P", "C"), ("C", "P")] * 5
    expected = [("P", "warm-up"), ("C", "warm-up")]
    for first, second in pairs:
        expected += [(first, "timed"), (first, "import"), (second, "timed"), (second, "import")]
    assert calls == expected
    assert module.REPEATS == len(pairs)


def test_row_holds_each_trees_medians_and_the_changes_wins(search):
    module, _ = search
    row = module.timed(ARGS, "tmp", PAIR)
    assert row["command"] == "-v classify --order 4"
    # 0.9 < 1.0, 1.0 < 1.1, 1.1 < 1.3, 1.0 < 1.05, 1.2 < 1.25, 1.3 < 1.45
    assert row["wins"] == 6
    for tree, side in (("parent", "P"), ("change", "C")):
        walls = WALLS[side]
        stages = [["order 4: name map of 12 names", round(median(round(w / 10, 4)
                                                                 for w in walls), 4)],
                  ["output written to out", round(median(round(w / 100, 4) for w in walls), 4)]]
        # each run's two stages over its own wall time less its own import
        shares = [(round(w / 10, 4) + round(w / 100, 4)) / (w - i)
                  for w, i in zip(walls, IMPORTS[side])]
        assert row[tree] == {"wall_s": round(median(walls), 4), "stages": stages,
                             "import_s": round(median(IMPORTS[side]), 4),
                             "share": round(median(shares), 3)}


def test_share_stays_at_most_1_when_the_imports_differ_between_runs(search):
    module, _ = search
    # each run's one stage is 95% of its wall time less its own import, but the imports
    # differ, so the stage median over wall_s less import_s would read 0.855 / 0.8 > 1
    runs = [(1.0, [["stage", 0.475]], 0.5), (1.1, [["stage", 0.95]], 0.1),
            (1.2, [["stage", 0.855]], 0.3)]
    row = module.summary(runs)
    assert (row["wall_s"], row["stages"], row["import_s"]) == (1.1, [["stage", 0.855]], 0.3)
    assert row["share"] == 0.95


def test_each_tree_writes_its_bytecode_to_its_own_cache(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_search", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    envs = []

    def fake_subprocess_run(argv, cwd, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(argv, 0, stderr="")

    monkeypatch.setattr(module.subprocess, "run", fake_subprocess_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    pair = module.trees("parent-dir", "tmp-dir")
    for tree in pair:
        module.run(module.IMPORT, "tmp", tree)
    assert [env["PYTHONPATH"] for env in envs] == [str(Path("parent-dir") / "src"),
                                                   str(module.ROOT / "src")]
    caches = [Path(env["PYTHONPYCACHEPREFIX"]) for env in envs]
    assert caches[0] != caches[1] and all(cache.parent == Path("tmp-dir") for cache in caches)
    # a warm-up that writes no bytecode would leave every timed run compiling from source
    assert not any("PYTHONDONTWRITEBYTECODE" in env for env in envs)
