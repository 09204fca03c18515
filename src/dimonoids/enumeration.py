"""Exhaustive enumeration of semigroups, dimonoids, and doppelsemigroups.

Labeled associative tables are generated by backtracking over cells in
row-major order, pruning with every associativity triple that the filled
cells already decide.

Every pair is isomorphic to one whose left table is the first table, in
lexicographic order, of its S_n-orbit, so pairs are scanned only with
those left representatives against all right tables.  Pairs are
filtered D2 first (the axiom shared by both kinds), then D1 and D3 for
dimonoids or D4 for doppelsemigroups.  Relabeling carries the survivors
with left table L one-to-one onto the survivors with any other left table
of L's orbit, so the labeled count is the sum over representatives of
|orbit(L)| times the survivors of L.  Classes are deduplicated by
canonical key, so results are deterministic and independent of the
worker count: workers take interleaved shares of the representatives,
emit key sets, and the merge is a set union plus one global sort.

Orders 1..4 are fully supported; order 5 is attempted only when
allow_large is set, and larger orders are refused.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .axioms import DIMONOID, DOPPELSEMIGROUP, _pair_axioms_hold
from .iso import _min_key, _perm_data, canonical_form
from .tables import DiStructure, OpTable

SEMIGROUP = "semigroup"
ENUM_KINDS = (SEMIGROUP, DIMONOID, DOPPELSEMIGROUP)
HARD_MAX_ORDER = 4
BEST_EFFORT_ORDER = 5

_ASSOC_CACHE: dict = {}


def _check_order(n: int, allow_large: bool):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"order must be a positive integer, got {n!r}")
    if n <= HARD_MAX_ORDER:
        return
    if n == BEST_EFFORT_ORDER and allow_large:
        return
    if n == BEST_EFFORT_ORDER:
        raise ValueError(
            f"order {n} is best-effort only; pass allow_large=True (--allow-large) to attempt it")
    raise ValueError(f"order {n} exceeds the supported maximum {BEST_EFFORT_ORDER}")


def _generate_assoc_flat(n: int):
    """All associative flat tables of order n, lexicographically ascending."""
    nn = n * n
    t = [-1] * nn
    rng = range(n)
    out = []

    def consistent() -> bool:
        # check every triple whose four lookups are already filled
        for a in rng:
            an = a * n
            for b in rng:
                ab = t[an + b]
                bn = b * n
                for c in rng:
                    bc = t[bn + c]
                    if ab >= 0:
                        u = t[ab * n + c]
                        if u >= 0 and bc >= 0:
                            w = t[an + bc]
                            if w >= 0 and u != w:
                                return False
        return True

    def fill(k: int):
        if k == nn:
            out.append(tuple(t))
            return
        for v in rng:
            t[k] = v
            if consistent():
                fill(k + 1)
        t[k] = -1

    fill(0)
    return tuple(out)


def enumerate_associative_tables(n: int, allow_large: bool = False):
    """All labeled associative tables of order n, in lexicographic order."""
    _check_order(n, allow_large)
    if n not in _ASSOC_CACHE:
        _ASSOC_CACHE[n] = _generate_assoc_flat(n)
    return tuple(OpTable(n, e) for e in _ASSOC_CACHE[n])


def _assoc_flat(n: int, allow_large: bool):
    _check_order(n, allow_large)
    if n not in _ASSOC_CACHE:
        _ASSOC_CACHE[n] = _generate_assoc_flat(n)
    return _ASSOC_CACHE[n]


@dataclass(frozen=True)
class EnumerationResult:
    """Classes of one kind at one order, sorted by canonical key."""

    order: int
    kind: str
    labeled_count: int
    class_reps: tuple  # of (CanonicalKey, DiStructure)

    @property
    def class_count(self) -> int:
        return len(self.class_reps)

    def summary(self) -> dict:
        return {"schema": "dimonoids.enumeration/1", "order": self.order,
                "kind": self.kind, "labeled": self.labeled_count,
                "classes": self.class_count}


def _left_reps(tables, n: int):
    """(first table of each S_n-orbit, orbit size) over the sorted tables.

    Raises RuntimeError unless the orbit sizes sum to the number of tables,
    which holds exactly when every relabeling of a table is in the list.
    """
    perms = _perm_data(n)
    seen = set()
    reps = []
    for t in tables:
        if t in seen:
            continue
        orbit = {tuple(p[t[i]] for i in gather) for p, gather in perms}
        seen |= orbit
        reps.append((t, len(orbit)))
    covered = sum(size for _, size in reps)
    if covered != len(tables):
        raise RuntimeError(f"left-table orbits cover {covered} of {len(tables)} "
                           f"associative tables of order {n}")
    return tuple(reps)


def _pair_chunk(tables, n: int, kind: str, lefts):
    """Scan each (left table, orbit size) of lefts against all right tables.

    Returns (labeled survivor count over the left tables' whole orbits,
    set of canonical key bytes).
    """
    labeled = 0
    keys = set()
    for le, orbit_size in lefts:
        survivors = 0
        for re in tables:
            if not _pair_axioms_hold(le, re, n, kind):
                continue
            survivors += 1
            best, _ = _min_key(le, re, n)
            keys.add(bytes(best))
        labeled += orbit_size * survivors
    return labeled, keys


def _pair_chunk_args(args):
    return _pair_chunk(*args)


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get("DIMONOIDS_WORKERS", "1"))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _reps_from_keys(n: int, keys) -> tuple:
    out = []
    nn = n * n
    for kb in sorted(keys):
        vals = list(kb)
        rep = DiStructure(OpTable(n, tuple(vals[:nn])), OpTable(n, tuple(vals[nn:])))
        out.append((canonical_form(rep), rep))
    return tuple(out)


def _enumerate_pairs(n: int, kind: str, workers: int | None, allow_large: bool):
    tables = _assoc_flat(n, allow_large)
    workers = _resolve_workers(workers)
    reps = _left_reps(tables, n)
    if workers == 1 or len(reps) < 2 * workers:
        labeled, keys = _pair_chunk(tables, n, kind, reps)
    else:
        # per-representative work is uneven, so deal them out round-robin
        jobs = [(tables, n, kind, reps[i::workers]) for i in range(workers)]
        labeled = 0
        keys = set()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part_labeled, part_keys in pool.map(_pair_chunk_args, jobs):
                labeled += part_labeled
                keys |= part_keys
    return EnumerationResult(order=n, kind=kind, labeled_count=labeled,
                             class_reps=_reps_from_keys(n, keys))


def enumerate_semigroups(n: int, workers: int | None = None,
                         allow_large: bool = False) -> EnumerationResult:
    """Associative tables up to isomorphism, represented as trivial pairs."""
    tables = _assoc_flat(n, allow_large)
    keys = set()
    for e in tables:
        best, _ = _min_key(e, e, n)
        keys.add(bytes(best))
    return EnumerationResult(order=n, kind=SEMIGROUP, labeled_count=len(tables),
                             class_reps=_reps_from_keys(n, keys))


def enumerate_dimonoids(n: int, workers: int | None = None,
                        allow_large: bool = False) -> EnumerationResult:
    return _enumerate_pairs(n, DIMONOID, workers, allow_large)


def enumerate_doppelsemigroups(n: int, workers: int | None = None,
                               allow_large: bool = False) -> EnumerationResult:
    return _enumerate_pairs(n, DOPPELSEMIGROUP, workers, allow_large)


def enumerate_structures(n: int, kind: str, workers: int | None = None,
                         allow_large: bool = False) -> EnumerationResult:
    if kind == SEMIGROUP:
        return enumerate_semigroups(n, workers, allow_large)
    if kind == DIMONOID:
        return enumerate_dimonoids(n, workers, allow_large)
    if kind == DOPPELSEMIGROUP:
        return enumerate_doppelsemigroups(n, workers, allow_large)
    raise ValueError(f"unknown kind {kind!r}; expected one of {ENUM_KINDS}")


def class_lines(result: EnumerationResult):
    """One JSON line per class, sorted by key."""
    for key, rep in result.class_reps:
        yield json.dumps({
            "schema": "dimonoids.class/1",
            "order": result.order,
            "kind": result.kind,
            "key": key.hex,
            "left": [list(r) for r in rep.left.rows()],
            "right": [list(r) for r in rep.right.rows()],
        }, sort_keys=True)


def write_classes_jsonl(result: EnumerationResult, stream):
    for line in class_lines(result):
        stream.write(line + "\n")
