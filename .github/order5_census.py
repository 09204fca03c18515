"""Check the order-5 census counts of all three kinds against their known values.

Run from the repository root (about 25 s with two workers on a two-core machine):

    PYTHONPATH=src python .github/order5_census.py

`classify` raises if its own checks fail (the sum of 5!/|Aut(D)| from the
matcher, duality closure); the unnamed counts check the order-5 catalog built
on the census's right tables.  On a multi-core machine those right tables come
from a process pool started the platform's default way, so the dimonoid census
is repeated with the pool's workers spawned and with the pool forced off, and
all three must agree.  Spawned workers import this file again, which is why
the work runs under the `__main__` guard.
"""
import multiprocessing

from dimonoids import classify_order, enumerate_structures, enumeration

EXPECTED = {"semigroup": (183732, 1915), "dimonoid": (6488383, 55883),
            "doppelsemigroup": (7855432, 68177)}
UNNAMED = {"dimonoid": 55609, "doppelsemigroup": 67442}


def dimonoid_census(workers=None):
    """(class keys, labeled count) of the order-5 dimonoids, searched afresh if workers is set."""
    if workers is not None:
        enumeration._pool_size = lambda n: workers
        enumeration._RIGHT_TABLES.clear()
    result = enumerate_structures(5, "dimonoid")
    return [k.key for k, _ in result.class_reps], result.labeled_count


def main():
    workers = enumeration._pool_size(5)
    print("pool size at order 5:", workers)
    for kind, counts in EXPECTED.items():
        summary = classify_order(5, kind).summary
        got = (summary["labeled"], summary["total"])
        print(kind, got, "trivial", summary["trivial"], "unnamed", summary["unnamed"])
        if got != counts or summary["trivial"] != 1915:
            raise SystemExit(f"order-5 {kind}: got {got}, expected {counts}")
        if kind in UNNAMED and summary["unnamed"] != UNNAMED[kind]:
            raise SystemExit(f"order-5 {kind}: {summary['unnamed']} unnamed, "
                             f"expected {UNNAMED[kind]}")
    pooled = dimonoid_census()  # the right tables classify_order kept
    multiprocessing.set_start_method("spawn", force=True)
    spawned = dimonoid_census(max(workers, 2))
    if spawned != pooled:
        raise SystemExit("order-5 dimonoids: the spawned and default pools differ")
    if dimonoid_census(1) != pooled:
        raise SystemExit("order-5 dimonoids: the pooled and serial censuses differ")
    print("order-5 dimonoids: default pool, spawned pool and serial census agree")


if __name__ == "__main__":
    main()
