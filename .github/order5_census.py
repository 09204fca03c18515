"""Check the order-5 census counts of all three kinds against their known values.

Run from the repository root (about 19 s with two workers on a two-core machine):

    PYTHONPATH=src:tests python .github/order5_census.py

The exhaustive references it compares with, `_min_key` and `_stabilizer`,
are the tests' own, from `tests/exhaustive.py`.

It first times the leader search, `enumeration._reps(5)`, checks the sha256
of its repr against the value pinned below, and checks that the
automorphism group it returns for each of the 1,915 representatives is the
stabilizer of the table among all 120 relabelings, in the same order.
`classify` raises if its own checks fail: duality closure, the semigroup
classes up to duality against OEIS A001423, and the sum of 5!/|Aut(D)|
against the labeled count.  Its keys and groups come from the leader search
over Aut(L) (each class keyed by the least right table of its Aut(L)-orbit,
Aut(D) the automorphisms the search kept) and its dual keys from
`iso._coset_reach` of each key's transposed blocks, which minimizes the
right table over the left table's coset only, once per dual pair.  So
every 97th class of both pair kinds has its group checked against the
permutation matcher, `iso._matches`, and against `automorphisms`, which
reads the group off the relabelings reaching the canonical key, and its key
and its dual's against `_min_key`, which scans all 120 relabelings of
both tables.  The time of
each census is printed.  The unnamed counts check the order-5 catalog built
on the census's right tables, and the sha256 of each kind's name map
(`classify._name_map`, canonical key -> name) is compared with the value
pinned below, so every name and the class it lands on stay fixed.  For both pair
kinds the sha256 of the JSON report, the bytes of `dimonoids classify --order 5
--kind K --format json`, is compared with the value pinned below: order 5 is
the only order whose census runs in the pool, so `tests/cli_manifest.txt`,
which stops at order 4, cannot pin it.  A doppelsemigroup representative whose
transpose is in the class of a smaller representative takes its right
tables from that one's, transposed and relabeled, instead of a search; the
script prints how many were searched and how many derived, and compares
every 97th derived one's leaders and groups with a direct search.  A
dimonoid representative whose columns are pairwise distinct has R = L as
its only right table (D1), so it is not searched either; the script prints
how many were searched and how many D1 decided, and checks that the
unpruned search over every 50th decided one yields exactly L.  On a
multi-core machine the searched right tables come from a process pool
started the platform's default way, so both pair censuses are repeated with
the pool's workers spawned and with the pool forced off, and all three must
agree.  Spawned workers import this file again, which is why the work runs
under the `__main__` guard.
"""
import hashlib
import multiprocessing
import time
from itertools import islice

from dimonoids import (CanonicalKey, Permutation, automorphisms, classify, doppel,
                       enumerate_structures, enumeration, identify_group, render_report)
from dimonoids.classify import _name_map
from dimonoids.iso import _matches, _perm_data, distructure_from_key
from exhaustive import _min_key, _stabilizer

EXPECTED = {"semigroup": (183732, 1915), "dimonoid": (6488383, 55883),
            "doppelsemigroup": (7855432, 68177)}
UNNAMED = {"dimonoid": 55609, "doppelsemigroup": 67442}
SAMPLE_STEP = 97
DECIDED_STEP = 50
# sha256 of repr(enumeration._reps(5)): the representatives and their groups, in order
REPS_SHA256 = "a27117805e3c6de9d54a6a6674c8cc157bfd9ddd722ed6eb58d711090e8f7254"
# (names, sha256 of repr(sorted((key.hex(), name) for key, name in _name_map(5, kind).items())))
NAME_MAP_SHA256 = {
    "semigroup": (158, "ef1aa5316a540bdcb2ce2f1583bf35b332138c09197896703b2395c2d3cb1e11"),
    "dimonoid": (274, "beac04bfa9a55eed5b018cada2a07f8d94eb2e17c2baf750b96c8964c0896cdf"),
    "doppelsemigroup": (735, "26ff637c232230e5aceff61763e13e51607e4d7ffbc2134d448341c33c91b5d6"),
}

# sha256 of `dimonoids classify --order 5 --kind K --format json`
REPORT_JSON_SHA256 = {
    "dimonoid": "54de62119f2ff20666f2001c5395ffaf9dfee01c18c96354ac1cfc62d0bb03ed",
    "doppelsemigroup": "5fed3d2e6485ef9b41856ff8b95aa5948f9c2e0ff062e5b1007c3c4bd3a5cc57",
}


def exhaustive_key(d):
    """The canonical key of d over all 120 relabelings of both tables, as hex."""
    return bytes(_min_key(d.left.entries, d.right.entries, 5)[0]).hex()


def check_sample(result, report):
    """Compare every SAMPLE_STEP-th class's census group and `automorphisms` with the
    matcher's, and its key and dual key with the exhaustive keys."""
    checked = 0
    for key, aut, row in islice(zip(result.keys, result.auts, report.rows),
                                0, None, SAMPLE_STEP):
        rep = distructure_from_key(CanonicalKey(5, key, Permutation.identity(5)))
        matched = tuple(_matches(rep, rep))
        if tuple(Permutation(p) for p, _ in aut) != matched or row.aut != identify_group(matched):
            raise SystemExit(f"order-5 {result.kind} {key.hex()}: census group {row.aut.name} "
                             f"differs from the matcher's")
        if automorphisms(rep) != matched:
            raise SystemExit(f"order-5 {result.kind} {key.hex()}: automorphisms differ from "
                             f"the matcher's")
        if row.key != exhaustive_key(rep):
            raise SystemExit(f"order-5 {result.kind} {key.hex()}: census key differs from the "
                             f"exhaustive key")
        if row.dual_key != exhaustive_key(rep.dual()):
            raise SystemExit(f"order-5 {result.kind} {key.hex()}: dual key differs from the "
                             f"exhaustive key of the dual")
        checked += 1
    return checked


def check_transposed():
    """Compare every SAMPLE_STEP-th derived doppelsemigroup representative's right tables
    with a direct search."""
    kind = "doppelsemigroup"
    reps = enumeration._reps(5)
    partners = doppel.transpose_partners(reps, 5)
    print(f"order-5 {kind} representatives: {len(reps) - len(partners)} searched, "
          f"{len(partners)} derived by transposition")
    derived = [(le, aut) for le, aut in reps if le in partners]
    for le, aut in derived[::SAMPLE_STEP]:
        searched = tuple((bytes(re), (aut[0], *group))
                         for re, group in enumeration._search(le, 5, kind, aut[1:]))
        if enumeration._RIGHT_TABLES[le, kind] != searched:
            raise SystemExit(f"order-5 {kind} representative {le}: the right tables derived "
                             f"by transposition differ from a search")
    print(len(derived[::SAMPLE_STEP]), "sampled derived representatives agree with a search")


def check_decided():
    """Compare every DECIDED_STEP-th dimonoid representative that D1 decides with the
    unpruned search and with the census's right tables."""
    kind = "dimonoid"
    reps = enumeration._reps(5)
    decided = [(le, aut) for le, aut in reps if len({le[w::5] for w in range(5)}) == 5]
    print(f"order-5 {kind} representatives: {len(reps) - len(decided)} searched, "
          f"{len(decided)} decided by D1")
    for le, aut in decided[::DECIDED_STEP]:
        if (list(enumeration._search(le, 5, kind)) != [le]
                or enumeration._RIGHT_TABLES[le, kind] != ((bytes(le), aut),)):
            raise SystemExit(f"order-5 {kind} representative {le}: its columns are distinct, "
                             f"but R = L is not its only right table")
    print(len(decided[::DECIDED_STEP]), "sampled D1-decided representatives agree with a search")


def census(kind, workers=None):
    """(class keys, labeled count) of the order-5 census of kind, searched afresh if workers
    is set."""
    if workers is not None:
        enumeration._pool_size = lambda n: workers
        enumeration._RIGHT_TABLES.clear()
    result = enumerate_structures(5, kind)
    return result.keys, result.labeled_count


def check_name_map(kind):
    """Compare the order-5 name map of kind with its pinned size and sha256."""
    names = _name_map(5, kind)
    digest = hashlib.sha256(repr(sorted((key.hex(), name) for key, name in names.items()))
                            .encode()).hexdigest()
    if (len(names), digest) != NAME_MAP_SHA256[kind]:
        raise SystemExit(f"order-5 {kind}: the name map ({len(names)} names) differs from the "
                         f"pinned sha256")
    print(f"order-5 {kind} name map: {len(names)} names agree with the pinned sha256")


def check_report_bytes(report):
    """Compare the sha256 of report's JSON rendering with the pinned value."""
    digest = hashlib.sha256(render_report(report, "json").encode("utf-8")).hexdigest()
    if digest != REPORT_JSON_SHA256[report.kind]:
        raise SystemExit(f"order-5 {report.kind}: the JSON report differs from the pinned "
                         f"sha256")
    print(f"order-5 {report.kind} JSON report agrees with the pinned sha256")


def check_rep_groups():
    """Time the order-5 leader search and compare its groups with the stabilizers."""
    start = time.perf_counter()
    reps = enumeration._reps(5)
    print(f"order-5 semigroup representatives and their groups in "
          f"{time.perf_counter() - start:.2f} s")
    if hashlib.sha256(repr(reps).encode()).hexdigest() != REPS_SHA256:
        raise SystemExit("the order-5 representatives or their groups differ from the pinned "
                         "sha256")
    perms = _perm_data(5)
    for t, aut in reps:
        if aut != _stabilizer(t, perms):
            raise SystemExit(f"order-5 representative {t}: the leader search's group "
                             f"differs from the stabilizer")
    print(len(reps), "representatives' groups agree with the stabilizers")


def main():
    check_rep_groups()
    workers = enumeration._pool_size(5)
    print("pool size at order 5:", workers)
    for kind, counts in EXPECTED.items():
        start = time.perf_counter()
        result = enumerate_structures(5, kind)
        print(f"order-5 {kind} census (pair search and keys) in "
              f"{time.perf_counter() - start:.2f} s")
        report = classify(result)
        summary = report.summary
        got = (summary["labeled"], summary["total"])
        print(kind, got, "trivial", summary["trivial"], "unnamed", summary["unnamed"])
        if got != counts or summary["trivial"] != 1915:
            raise SystemExit(f"order-5 {kind}: got {got}, expected {counts}")
        if kind in UNNAMED and summary["unnamed"] != UNNAMED[kind]:
            raise SystemExit(f"order-5 {kind}: {summary['unnamed']} unnamed, "
                             f"expected {UNNAMED[kind]}")
        check_name_map(kind)
        if kind != "semigroup":
            check_report_bytes(report)
            print(kind, check_sample(result, report), "sampled classes agree with the matcher")
        if kind == "dimonoid":
            check_decided()
        if kind == "doppelsemigroup":
            check_transposed()
    pooled = {kind: census(kind) for kind in UNNAMED}  # the right tables the first censuses kept
    multiprocessing.set_start_method("spawn", force=True)
    for kind, keys in pooled.items():
        if census(kind, max(workers, 2)) != keys:
            raise SystemExit(f"order-5 {kind}: the spawned and default pools differ")
        if census(kind, 1) != keys:
            raise SystemExit(f"order-5 {kind}: the pooled and serial censuses differ")
        print(f"order-5 {kind}: default pool, spawned pool and serial census agree")


if __name__ == "__main__":
    main()
