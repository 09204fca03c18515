"""Time the census search stages, the dual keys that `classify` takes and a cold `aut`.

Run from the repository root, optionally naming a JSON file to write:

    python bench/search.py [OUT.json]

For orders 3 and 4 (every semigroup representative) and 5 (every 10th), it
prints the best of 5 wall times of `enumeration._reps(n)`, with its cache
cleared, and, for each pair kind over the representatives' left tables, of
the full right-table search `enumeration._search(le, n, kind)` and of the
search as the census runs it, over Aut(L) (`_search(le, n, kind, aut[1:])`),
together with the tables found: every right table, and one leader per
Aut(L)-orbit.  For doppelsemigroups it also times the set-up those searches
do before their first cell, the prefix masks of the rows and columns D2 and
D4 allow (`doppel.commutant_masks`, uncached), over the same left tables,
with the number of those maps; and it counts, for each pair kind, the
representatives the census searches and those it does not: for dimonoids
those whose columns are pairwise distinct, where D1 leaves R = L alone, and
for doppelsemigroups those it derives from their transposes.  For one
order-4 census of each pair kind it then times the canonical forms of one
class per dual pair, as `classify` takes them from the key bytes, with the
left-table coset cache cleared, and the exhaustive `_min_key` of
`tests/exhaustive.py` over all n! relabelings of the same pairs; and the stages after the search,
`enumeration._result` on the keys with their groups in the census's order,
`classify` and `render_json`, with the name map already built.  Before all
these, on the null semigroup O_n and the left-zero semigroup LO_n for n =
6, 7 and 8 (as pairs (T, T); Aut(LO_n) is S_n), it times what `dimonoids
aut` computes cold, with the `iso._perm_data`, `iso._left_coset` and
`iso._coset_reach` caches cleared: `automorphisms`, `identify_group` on
the group found and `canonical_form`, and, as the reference row, the same
with the n! permutation matcher `iso._matches` in place of `automorphisms`.

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
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

import reference  # noqa: E402
from dimonoids import (DiStructure, automorphisms, canonical_form, classify, doppel,  # noqa: E402
                       enumerate_structures, enumeration, identify_group, iso, left_zero,
                       null_semigroup, render_report)
from dimonoids.axioms import _pair_flags  # noqa: E402
from exhaustive import _min_key, trie_paths  # noqa: E402

REPEATS = 5
SAMPLES = 3  # speed samples on each side of a timed row
STEPS = {3: 1, 4: 1, 5: 10}  # every step-th representative's right tables are searched
KINDS = ("dimonoid", "doppelsemigroup")


BASKET = {"memory": reference.Memory().step, "arithmetic": reference.arithmetic,
          "associativity": reference.associativity, "arguments": reference.arguments}


def speed():
    """The host's speed now, as `perfbench/reference.py` answers a sample: the geometric
    mean over its basket of each loop's rate over its nominal rate."""
    logs = [math.log(reference.rate(step) / reference.NOMINAL[name])
            for name, step in BASKET.items()]
    return math.exp(sum(logs) / len(logs))


def best_of(fn):
    """(least wall time in seconds over REPEATS calls of fn, fn's result)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def timed(row, fn):
    """Fill row's best time of fn, the host's speed around it (the median of the samples
    before and after, and their range) and that time at nominal speed; return fn's result."""
    samples = [speed() for _ in range(SAMPLES)]
    seconds, result = best_of(fn)
    samples += [speed() for _ in range(SAMPLES)]
    factor = statistics.median(samples)
    row.update(best_s=round(seconds, 4), speed=round(factor, 3),
               speed_spread=[round(min(samples), 3), round(max(samples), 3)],
               nominal_s=round(seconds * factor, 4))
    return result


def reps_fresh(n):
    enumeration._reps.cache_clear()
    return enumeration._reps(n)


def right_tables(reps, n, kind, leaders):
    """Tables the right-table search yields over reps: every one, or one per Aut(L)-orbit."""
    return sum(1 for le, aut in reps
               for _ in enumeration._search(le, n, kind, aut[1:] if leaders else None))


def dual_pairs(n, kind):
    """The dual (transpose of R, transpose of L) of one class per dual pair of the
    order-n census, as `classify` reads it from the key bytes."""
    result = enumerate_structures(n, kind)
    report = classify(result)
    nn = n * n
    duals = []
    for key, row in zip(result.keys, report.rows):
        if row.dual_key >= row.key:
            *_, lt, rt = _pair_flags(key[:nn], key[nn:], n)
            duals.append((rt, lt))
    return duals


def translation_sets(reps, n):
    """Per left table of reps, the sets of its columns and of its rows, whose commuting
    maps are the rows and the columns D2 and D4 allow."""
    return [frozenset(maps) for le, _ in reps
            for maps in ({le[z::n] for z in range(n)}, {le[x * n:x * n + n] for x in range(n)})]


def translations(sets, n):
    """The prefix masks of the maps commuting with each of sets, built as the
    doppelsemigroup search builds them, each set afresh (the search keeps them per set
    and reuses repeated ones)."""
    return [doppel.commutant_masks.__wrapped__(maps, n) for maps in sets]


def coset_keys(n, duals):
    iso._left_coset.cache_clear()
    return len([iso._coset_reach(rt, lt, n) for rt, lt in duals])


def exhaustive_keys(n, duals):
    return len([_min_key(rt, lt, n) for rt, lt in duals])


def post_search(row, n, kind):
    """Time `_result`, `classify` and `render_json` into row, on the order-n census's
    classes in the order its search yields them, with the name map built; return the
    classes."""
    enumerate_structures(n, kind)  # keeps the right tables read below
    classes = [(bytes(le) + re, group) for le, aut in enumeration._reps(n)
               for re, group in enumeration._right_tables(le, aut, n, kind)]
    classify(enumeration._result(n, kind, classes))
    timed(row, lambda: render_report(classify(enumeration._result(n, kind, classes)), "json"))
    return len(classes)


def cold_aut(d, group):
    """`dimonoids aut`'s group, its name and the key of d, every relabeling cache cleared;
    return the group's order."""
    for cache in (iso._perm_data, iso._left_coset, iso._coset_reach):
        cache.cache_clear()
    auts = group(d)
    identify_group(auts)
    canonical_form(d)
    return len(auts)


def source_sha256():
    """sha256 over the relative path and bytes of each `.py` file under src/, sorted."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv):
    rows = []
    # first, while the heap is as small as a command's: the order-8 relabeling tables are
    # large, and the garbage collector's passes grow with what the censuses leave behind
    for n in (6, 7, 8):
        for name, table in (("O", null_semigroup(n)), ("LO", left_zero(n))):
            d = DiStructure(table, table)
            for stage, group in (("aut_cold", automorphisms),
                                 ("aut_cold_matcher", lambda d: tuple(iso._matches(d, d)))):
                row = {"stage": stage, "order": n, "input": f"{name}{n}"}
                found = timed(row, lambda: cold_aut(d, group))
                rows.append({**row, "automorphisms": found})
    for n, step in STEPS.items():
        row = {"stage": "reps", "order": n}
        reps = timed(row, lambda: reps_fresh(n))
        rows.append({**row, "tables": len(reps)})
        sample = reps[::step]
        for kind in KINDS:
            for stage, leaders in (("pair_search", False), ("leader_search", True)):
                row = {"stage": stage, "order": n, "kind": kind, "lefts": len(sample)}
                found = timed(row, lambda: right_tables(sample, n, kind, leaders))
                rows.append({**row, "tables": found})
        sets = translation_sets(sample, n)
        row = {"stage": "translations", "order": n, "kind": "doppelsemigroup",
               "lefts": len(sample)}
        timed(row, lambda: translations(sets, n))
        rows.append({**row, "tables": sum(len(trie_paths(*doppel.commutant_masks(maps, n), n))
                                            for maps in sets)})
        # representatives the census does not search: for dimonoids, those D1 decides
        decided = sum(enumeration._decided_by_d1(le, n, "dimonoid") for le, _ in reps)
        derived = len(doppel.transpose_partners(reps, n))
        for kind, how, skipped in (("dimonoid", "decided", decided),
                                   ("doppelsemigroup", "derived", derived)):
            rows.append({"stage": "census_reps", "order": n, "kind": kind,
                         "searched": len(reps) - skipped, how: skipped})
    for kind in KINDS:
        duals = dual_pairs(4, kind)
        for stage, fn in (("dual_keys_coset", coset_keys),
                          ("dual_keys_exhaustive", exhaustive_keys)):
            row = {"stage": stage, "order": 4, "kind": kind}
            found = timed(row, lambda: fn(4, duals))
            rows.append({**row, "tables": found})
        row = {"stage": "post_search", "order": 4, "kind": kind}
        found = post_search(row, 4, kind)
        rows.append({**row, "tables": found})
    for row in rows:
        label = row.get("kind", row.get("input", ""))
        head = f"{row['stage']:<21} order {row['order']} {label:<16}"
        if "searched" in row:
            how = "decided" if "decided" in row else "derived"
            print(f"{head}{row['searched']} searched, {row[how]} {how}")
        else:
            what = "tables" if "tables" in row else "automorphisms"
            print(f"{head}{row['best_s']:8.4f} s at speed {row['speed']:.3f}: "
                  f"{row['nominal_s']:8.4f} s nominal  {row[what]} {what}")
    if argv:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        report = {"schema": "dimonoids.bench-search/5", "src_sha256": source_sha256(),
                  "python": platform.python_version(), "cpus": cpus, "repeats": REPEATS,
                  "rows": rows}
        Path(argv[0]).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
