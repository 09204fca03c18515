"""Check the order-5 census counts of all three kinds against their known values.

Run from the repository root (about 26 s with two workers on a two-core machine):

    PYTHONPATH=src:tests python -X dev -W error .github/order5_census.py

It runs at order 5 the census checks of `tests/exhaustive.py`, which tier-1
runs at orders 1-4:
- `check_rep_groups` times the leader search for the 1,915 semigroup
  representatives and compares each one's group with its stabilizer among all
  120 relabelings; the sha256 of the representatives' repr is pinned below;
- `check_census_classes` compares every 97th class of each kind with the
  references: its census group and `automorphisms` with the permutation
  matcher's, its group name with `identify_group`'s, its key and dual key with
  the exhaustive keys over all 120 relabelings of both tables, and its dual key
  with the canonical form of its dual;
- `check_d1_decided` checks every 50th dimonoid representative whose columns
  are pairwise distinct: D1 leaves R = L as its only right table, so it is not
  searched;
- `check_translations` compares the two translation trees of every 97th
  representative, the rows and columns a doppelsemigroup right table may
  have, with a filter of all 3,125 maps of five elements;
- `check_transposed` compares every 97th doppelsemigroup representative, and
  every 97th one that takes its right tables from its transpose's instead of a
  search, with a direct search;
- `check_transpose_closure` keys the two images of every class of each kind,
  the transpose of both tables (τ) and the swap of the two (σ), by canonical
  form: the doppelsemigroup census must be closed under both, with 19,635
  ⟨σ, τ⟩-orbits and 2,917 σ-fixed classes, the semigroup census too, with its
  1,160 classes up to duality, and 7,313 dimonoid classes have a τ-image
  outside their census, which is closed under στ alone;
- `check_burnside` counts each pair kind's classes and labeled pairs by
  Burnside's lemma over the unpruned right tables, a second count that shares
  neither the leader test on right tables nor the D1 shortcut, transposition
  or pool with the census;
- `check_identity_intersection` searches every representative under D1-D4
  together, which no shipped kind does, and compares the 48,572 classes found
  with the keys the dimonoid and doppelsemigroup censuses share;
- `check_monoid_variants` compares the unpruned doppelsemigroup search of each
  of the 228 representatives with an identity with its 5 variants
  R[x][z] = L[L[x][a]][z], and the census's 1,008 classes over them with the
  orbits of their groups;
- `check_dual_names` checks each kind's report: its names are distinct, and
  dual partners are both unnamed or carry each other's dual names;
- `check_names_spelled` checks that each name of both pair kinds' name maps
  maps to a pair that spells it: a `left|right` pair has left's table on the
  left and a relabeling of right's on the right, and `(X)+0` adjoins its zero
  last to a pair that spells X;
- `check_pool_sizes` repeats both pair censuses with a pool of spawned workers
  and serially; both must agree with the first census, which ran in a pool
  started the platform's default way.

`classify` raises if its own checks fail: duality closure, the semigroup
classes up to duality against OEIS A001423, and the sum of 5!/|Aut(D)| against
the labeled count.  The counts, the unnamed counts of the order-5 catalog, the
sha256 of each kind's name map (its named rows' keys and names) and the sha256
of each pair kind's JSON report, the bytes of `dimonoids classify --order 5
--kind K --format json`, are compared with the values pinned below, and that
report, parsed, with its `to_json()`: order 5 is the only order whose census
runs in the pool, so `tests/cli_manifest.txt`, which stops at order 4, cannot
pin it.  Spawned workers import this file again, which is why the work runs
under the `__main__` guard.
"""
import hashlib
import json
import multiprocessing
import time

from dimonoids import enumerate_structures, render_report
from exhaustive import (check_burnside, check_census_classes, check_d1_decided,
                        check_dual_names, check_identity_intersection, check_monoid_variants,
                        check_names_spelled, check_pool_sizes, check_rep_groups,
                        check_translations, check_transpose_closure, check_transposed)

EXPECTED = {"semigroup": (183732, 1915), "dimonoid": (6488383, 55883),
            "doppelsemigroup": (7855432, 68177)}
# (classes, trivial ones) of the pairs that satisfy D1-D4: dimonoids and doppelsemigroups
SHARED = (48572, 1915)
# (orbits under transposing and swapping the tables, classes the swap fixes, classes whose
# transpose lies outside the census); orbits is None for a census that is not closed
CLOSURE = {"semigroup": (1160, 1915, 0), "dimonoid": (None, 2248, 7313),
           "doppelsemigroup": (19635, 2917, 0)}
# (representatives with an identity, and their doppelsemigroup classes)
MONOIDS = (228, 1008)
UNNAMED = {"dimonoid": 55609, "doppelsemigroup": 67442}
SAMPLE_STEP = 97
DECIDED_STEP = 50
# sha256 of repr(check_rep_groups(5)): the representatives and their groups, in order
REPS_SHA256 = "a27117805e3c6de9d54a6a6674c8cc157bfd9ddd722ed6eb58d711090e8f7254"
# (names, sha256 of repr(sorted((row.key, row.name) for each named row of the report)))
NAME_MAP_SHA256 = {
    "semigroup": (158, "ef1aa5316a540bdcb2ce2f1583bf35b332138c09197896703b2395c2d3cb1e11"),
    "dimonoid": (274, "beac04bfa9a55eed5b018cada2a07f8d94eb2e17c2baf750b96c8964c0896cdf"),
    "doppelsemigroup": (735, "26ff637c232230e5aceff61763e13e51607e4d7ffbc2134d448341c33c91b5d6"),
}

# sha256 of `dimonoids classify --order 5 --kind K --format json`
REPORT_JSON_SHA256 = {
    "dimonoid": "77be88fed523c9eb52b2b02b58feef260c5ade5f138b88f49c68798a9c623b32",
    "doppelsemigroup": "a42b3defc6de7a4b4f7d925897d01e47c2610ecda1f62a3d9b33662e0e80b7d8",
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_name_map(report):
    """Compare the named rows of report with their pinned count and sha256."""
    named = sorted((row.key, row.name) for row in report.rows
                   if not row.name.startswith("unnamed-"))
    if (len(named), sha256(repr(named))) != NAME_MAP_SHA256[report.kind]:
        raise SystemExit(f"order-5 {report.kind}: the name map ({len(named)} names) differs "
                         f"from the pinned sha256")
    print(f"order-5 {report.kind} name map: {len(named)} names agree with the pinned sha256")


def check_report(report):
    """Compare report's JSON rendering with the pinned sha256 and, parsed, with its
    `to_json`."""
    text = render_report(report, "json")
    if sha256(text) != REPORT_JSON_SHA256[report.kind]:
        raise SystemExit(f"order-5 {report.kind}: the JSON report differs from the pinned "
                         f"sha256")
    if json.loads(text) != report.to_json():
        raise SystemExit(f"order-5 {report.kind}: the JSON report does not parse to its "
                         f"to_json()")
    print(f"order-5 {report.kind} JSON report agrees with the pinned sha256 and parses to "
          f"its to_json()")


def main():
    start = time.perf_counter()
    reps = check_rep_groups(5)
    print(f"order-5 semigroup representatives and their groups in "
          f"{time.perf_counter() - start:.2f} s; {len(reps)} groups agree with the "
          f"stabilizers")
    if sha256(repr(reps)) != REPS_SHA256:
        raise SystemExit("the order-5 representatives or their groups differ from the pinned "
                         "sha256")
    censuses = {}
    for kind, counts in EXPECTED.items():
        start = time.perf_counter()
        result = censuses[kind] = enumerate_structures(5, kind)
        print(f"order-5 {kind} census (pair search and keys) in "
              f"{time.perf_counter() - start:.2f} s")
        if kind != "semigroup":
            start = time.perf_counter()
            check_burnside(result)
            print(f"order-5 {kind}: Burnside's lemma gives the census counts, in "
                  f"{time.perf_counter() - start:.2f} s")
        start = time.perf_counter()
        closure = check_transpose_closure(result)
        print(f"order-5 {kind}: {closure[0]} orbits under transposing and swapping the "
              f"tables, {closure[1]} classes fixed by the swap, {closure[2]} whose transpose "
              f"lies outside the census, in {time.perf_counter() - start:.2f} s")
        if closure != CLOSURE[kind]:
            raise SystemExit(f"order-5 {kind}: the closure check gives {closure}, expected "
                             f"{CLOSURE[kind]}")
        report = check_census_classes(result, SAMPLE_STEP)
        print(kind, -(-len(report.rows) // SAMPLE_STEP), "sampled classes agree with the "
              "references")
        summary = report.summary
        got = (summary["labeled"], summary["total"])
        print(kind, got, "trivial", summary["trivial"], "unnamed", summary["unnamed"])
        if got != counts or summary["trivial"] != 1915:
            raise SystemExit(f"order-5 {kind}: got {got}, expected {counts}")
        if kind in UNNAMED and summary["unnamed"] != UNNAMED[kind]:
            raise SystemExit(f"order-5 {kind}: {summary['unnamed']} unnamed, "
                             f"expected {UNNAMED[kind]}")
        check_name_map(report)
        named = check_dual_names(report)
        print(f"order-5 {kind}: {named} names are distinct and dual partners carry each "
              f"other's dual names")
        if kind == "semigroup":
            continue
        check_report(report)
        print(f"order-5 {kind}: each of {check_names_spelled(5, kind)} names maps to a pair "
              f"that spells it")
        if kind == "dimonoid":
            decided = check_d1_decided(5, DECIDED_STEP)
            print(f"order-5 {kind} representatives: {len(reps) - decided} searched, "
                  f"{decided} decided by D1; every {DECIDED_STEP}th decided one agrees with "
                  f"a search")
        else:
            start = time.perf_counter()
            checked = check_translations(5, SAMPLE_STEP)
            print(f"order-5 {kind}: the translation trees of {checked} representatives agree "
                  f"with a filter of every map, in {time.perf_counter() - start:.2f} s")
            searched, derived = check_transposed(5, SAMPLE_STEP)
            print(f"order-5 {kind} representatives: {searched} searched, {derived} derived "
                  f"by transposition; every {SAMPLE_STEP}th agrees with a search")
    start = time.perf_counter()
    shared = check_identity_intersection(5)
    print(f"order 5: the D1-D4 search finds {shared[0]} classes ({shared[1]} trivial), the "
          f"keys the dimonoid and doppelsemigroup censuses share, in "
          f"{time.perf_counter() - start:.2f} s")
    if shared != SHARED:
        raise SystemExit(f"order 5: D1-D4 gives {shared}, expected {SHARED}")
    start = time.perf_counter()
    monoids = check_monoid_variants(5)
    print(f"order 5: {monoids[0]} monoid representatives carry {monoids[1]} doppelsemigroup "
          f"classes, their right tables the variants L[L[x][a]][z], in "
          f"{time.perf_counter() - start:.2f} s")
    if monoids != MONOIDS:
        raise SystemExit(f"order 5: the monoid representatives give {monoids}, expected "
                         f"{MONOIDS}")
    multiprocessing.set_start_method("spawn", force=True)
    for kind in UNNAMED:
        result = censuses[kind]
        runs = check_pool_sizes(5, kind, (2, 1))
        if runs[0][:2] != (result.keys, result.labeled_count):
            raise SystemExit(f"order-5 {kind}: the spawned pool and the default pool differ")
        print(f"order-5 {kind}: default pool, spawned pool and serial census agree")


if __name__ == "__main__":
    main()
