"""Exhaustive enumeration of semigroups, dimonoids, and doppelsemigroups.

One search core, `_search`, fills a right table cell by cell in row-major
order against a fixed left table.  It checks the identities of
`axioms.IDENTITIES` and associativity, each of the form
A[B[x][y]][z] = C[x][D[y][z]] over the left (L) and right (R) tables.
After each cell only the triples that look that cell up are checked,
and a branch is cut at the first identity a filled cell breaks.  With the
right table as its own left table and associativity alone, the search
yields the labeled associative tables.

Every pair is isomorphic to one whose left table is the first table, in
lexicographic order, of its S_n-orbit, so right tables are searched only
for those left representatives, under associativity with D1, D2 and D3
for dimonoids or D2 and D4 for doppelsemigroups.  Relabeling carries the
survivors with left table L one-to-one onto the survivors with any other
left table of L's orbit, so the labeled count is the sum over
representatives of |orbit(L)| times the survivors of L.  Classes are
deduplicated by canonical key, so results are deterministic and
independent of the worker count: workers take interleaved shares of the
representatives, emit key sets, and the merge is a set union plus one
global sort.

Orders 1..4 are fully supported; order 5 is attempted only when
allow_large is set, and larger orders are refused.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .axioms import ASSOCIATIVITY, DIMONOID, DOPPELSEMIGROUP, IDENTITIES, KIND_AXIOMS
from .iso import CanonicalKey, _min_key, _perm_data, distructure_from_key
from .tables import OpTable, Permutation

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


# Per kind, the letters of each identity A[B[x][y]][z] = C[x][D[y][z]] to keep;
# L is the fixed left table and R the right table being filled.
_AXIOMS = {kind: tuple(IDENTITIES[a] for a in KIND_AXIOMS.get(kind, ())) + (ASSOCIATIVITY,)
           for kind in ENUM_KINDS}


def _search(le, n: int, kind: str):
    """Yield every flat right table satisfying kind's axioms with left table le.

    Tables come in lexicographic order.  With le None (kind SEMIGROUP) the
    left table is the right table itself, so they are the associative tables.

    Cells are filled in row-major order; -1 marks an empty cell.  After cell
    (a, b) is set, only the triples with that cell among their four lookups
    are checked; a triple becomes decided exactly when its last lookup is
    filled, so every triple is checked once all of its lookups are known.
    """
    nn = n * n
    rng = range(n)
    t = [-1] * nn
    if le is None:
        le = t
    # cells (x, y) of each table by value (the right table's filled ones only),
    # to find the triples that reach the new cell through A or C
    t_cells = [[] for _ in rng]
    le_cells = t_cells if le is t else [[(x, y) for x in rng for y in rng if le[x * n + y] == v]
                                        for v in rng]
    plan = []
    for axiom in _AXIOMS[kind]:
        A, B, C, D = (t if c == "R" else le for c in axiom)
        plan.append((A, B, C, D, t_cells if B is t else le_cells, t_cells if D is t else le_cells))

    def holds(a, b, v):
        """Whether every decided triple that looks up the new cell (a, b) = v holds."""
        an, bn, vn = a * n, b * n, v * n
        for A, B, C, D, b_cells, d_cells in plan:
            if B is t:  # B[a][b]: triples (a, b, z)
                for z in rng:
                    yz = D[bn + z]
                    if yz >= 0:
                        u = A[vn + z]
                        w = C[an + yz]
                        if u != w and u >= 0 and w >= 0:
                            return False
            if D is t:  # D[a][b]: triples (x, a, b)
                for x in rng:
                    xn = x * n
                    xy = B[xn + a]
                    if xy >= 0:
                        u = A[xy * n + b]
                        w = C[xn + v]
                        if u != w and u >= 0 and w >= 0:
                            return False
            if A is t:  # A[a][b]: triples (x, y, b) with B[x][y] = a
                for x, y in b_cells[a]:
                    yz = D[y * n + b]
                    if yz >= 0:
                        w = C[x * n + yz]
                        if w != v and w >= 0:
                            return False
            if C is t:  # C[a][b]: triples (a, y, z) with D[y][z] = b
                for y, z in d_cells[b]:
                    xy = B[an + y]
                    if xy >= 0:
                        u = A[xy * n + z]
                        if u != v and u >= 0:
                            return False
        return True

    last = nn - 1
    k = 0
    while k >= 0:
        old = t[k]
        if old >= 0:
            t_cells[old].pop()
        v = old + 1
        if v == n:
            t[k] = -1
            k -= 1
            continue
        t[k] = v
        a, b = divmod(k, n)
        t_cells[v].append((a, b))
        if holds(a, b, v):
            if k == last:
                yield tuple(t)
            else:
                k += 1


def enumerate_associative_tables(n: int, allow_large: bool = False):
    """All labeled associative tables of order n, in lexicographic order."""
    return tuple(OpTable(n, e) for e in _assoc_flat(n, allow_large))


def _assoc_flat(n: int, allow_large: bool):
    _check_order(n, allow_large)
    if n not in _ASSOC_CACHE:
        _ASSOC_CACHE[n] = tuple(_search(None, n, SEMIGROUP))
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


def _pair_chunk(n: int, kind: str, lefts):
    """Search the right tables of each (left table, orbit size) of lefts.

    Returns (labeled survivor count over the left tables' whole orbits,
    set of canonical key bytes).
    """
    labeled = 0
    keys = set()
    for le, orbit_size in lefts:
        survivors = 0
        for re in _search(le, n, kind):
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
    """(CanonicalKey, rep) per canonical key, sorted by key.

    The identity is the lex-least permutation and already reaches a
    canonical serialization, so it is every key's witness.
    """
    identity = Permutation(tuple(range(n)))
    out = []
    for kb in sorted(keys):
        key = CanonicalKey(order=n, key=kb, witness=identity)
        out.append((key, distructure_from_key(key)))
    return tuple(out)


def _enumerate_pairs(n: int, kind: str, workers: int | None, allow_large: bool):
    workers = _resolve_workers(workers)
    reps = _left_reps(_assoc_flat(n, allow_large), n)
    if workers == 1 or len(reps) < 2 * workers:
        labeled, keys = _pair_chunk(n, kind, reps)
    else:
        # per-representative work is uneven, so deal them out round-robin
        jobs = [(n, kind, reps[i::workers]) for i in range(workers)]
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
    _resolve_workers(workers)
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
