"""Exhaustive enumeration of semigroups, dimonoids, and doppelsemigroups.

One search core, `_search`, fills a right table cell by cell in row-major
order against a fixed left table.  It checks the identities of
`axioms.IDENTITIES` and associativity, each of the form A[B[x][y]][z] =
C[x][D[y][z]] over the left (L) and right (R) tables.  After each cell
only the triples that look that cell up are checked, and a branch is cut
at the first identity a filled cell breaks.  A triple whose only empty
lookup is an outer R cell (A or C) forces that cell's value, so a
conflicting second value cuts the branch before the cell is reached, and a
forced cell is tried with that value alone.  D1 looks R up once, so it
becomes a domain per cell, read from an index of L's columns before the
search.  With the right table as its own left table and associativity
alone, the search yields the labeled associative tables; cutting also
every branch that some relabeling makes lexicographically smaller
(lex-leader symmetry breaking) leaves one table L per semigroup class, the
first of its n!/|Aut(L)|-table orbit.  Each live relabeling waits, with
its first position not yet shown equal, for the depth that decides that
position, so the test resumes where it stopped, and the survivors at a
leaf are Aut(L).  Every pair is isomorphic to one whose left table is such
an L, so right tables are searched only for those, under associativity
with D1, D2 and D3 for dimonoids or D2 and D4 for doppelsemigroups.  With
L associative, D1 gives L[x][R[y][z]] = L[L[x][y]][z] = L[x][L[y][z]] for
every x, so where L's columns are pairwise distinct, R = L is the only
dimonoid right table, and none is searched.  Aut(L) fixes L, so it carries
the right tables of L onto each other, and the same leader search over
Aut(L) yields the least right table R of each Aut(L)-orbit with its
automorphisms among Aut(L): the group Aut(D) of the pair D = (L, R).  A
canonical key serializes the left block first, so it is L followed by that
R; classes of different L never share a key, each class is found once, and
the labeled count is the sum of n!/|Aut(D)|.  The result keeps each group
beside its key, and `classify` names them.  Doppelsemigroups use two
more facts (see `doppel`): D2 and D4 confine the rows and the columns of R
to the translations of L, so the search takes each cell's values from
those and checks neither identity per cell, and (L, R) is a
doppelsemigroup iff (Lᵀ, Rᵀ) is one, so a representative whose transpose
lies in the class of a smaller one is not searched.  The leaders of each L
are searched once per process and kept, as bytes with their groups; the
catalog expands their Aut(L)-orbits onto its named left tables instead of
searching those again.  The search takes one worker process per 128
representatives, up to the CPUs the process may use, so only order 5 can
run a pool: its workers search the representatives that need a search,
16 to a task, and hand back each one's leaders with their groups, which
this process keeps as they come; it derives the rest.  Keys are then sorted
once, in this process, so results do not depend on the pool, and the
result keeps them as bytes: `classify` and the JSONL lines read each
class's tables from its key, and a caller that wants pair objects
decodes keys with `iso.distructure_from_key`.  Where workers are started
by spawn or forkserver (macOS, Windows, Linux from Python 3.14), each one
imports the caller's main module again, so a script must run an order-5
census under `if __name__ == "__main__":`; one read from standard input
(`python -`) fails with BrokenProcessPool.

Orders 1..5 are supported; larger orders are refused.
"""
from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from itertools import repeat
from math import factorial

from .axioms import ASSOCIATIVITY, DIMONOID, DOPPELSEMIGROUP, IDENTITIES, KIND_AXIOMS
from .iso import _perm_data
from .tables import OpTable, Record, log_info

SEMIGROUP = "semigroup"
ENUM_KINDS = (SEMIGROUP, DIMONOID, DOPPELSEMIGROUP)
# Per order: semigroup classes (OEIS A027851) and labeled associative tables (A023814)
_SEMIGROUP_COUNTS = {1: (1, 1), 2: (5, 8), 3: (24, 113), 4: (188, 3492), 5: (1915, 183732)}
# Per order: semigroup classes up to isomorphism or anti-isomorphism (OEIS A001423)
_SEMIGROUP_DUAL_CLASSES = {1: 1, 2: 4, 3: 18, 4: 126, 5: 1160}
MAX_ORDER = max(_SEMIGROUP_COUNTS)


def _check_order(n: int):
    if type(n) is not int or n < 1:  # bool is an int subclass, not an order
        raise ValueError(f"order must be a positive integer, got {n!r}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported maximum {MAX_ORDER}")


# Per kind, the letters of each identity A[B[x][y]][z] = C[x][D[y][z]] to keep;
# L is the fixed left table and R the right table being filled.
_AXIOMS = {kind: tuple(IDENTITIES[a] for a in KIND_AXIOMS.get(kind, ())) + (ASSOCIATIVITY,)
           for kind in ENUM_KINDS}


def _search(le, n: int, kind: str, perms=None):
    """Yield every flat right table satisfying kind's axioms with left table le.

    Tables come in lexicographic order.  With le None (kind SEMIGROUP) the
    left table is the right table itself, so they are the associative tables.
    Given perms, a sequence of relabelings (images, gather), possibly empty as
    at order 1, the search cuts every branch that one of them makes smaller
    and yields (table, the list of its automorphisms among perms) instead;
    with le given, the relabelings must fix le, so that they act on the
    right tables alone.

    Cells are filled in row-major order; -1 marks an empty cell.  After cell
    (a, b) is set, only the triples with that cell among their four lookups
    are checked; a triple becomes decided exactly when its last lookup is
    filled, so every triple is checked once all of its lookups are known.
    A triple decided but for an outer lookup of R, A[u][z] or C[x][w], forces
    that cell to the value of the other side: a second, different value fails
    at once, and a forced cell is tried with its one value only.  D1 (LLLR)
    looks R up only at R[y][z], so it confines each cell to a domain read
    from an index of L's columns before the search and is not checked per
    cell.  With both D2 and D4 (doppelsemigroups) each row of R must be a
    left translation of L and each column a right translation (see `doppel`);
    both sets are found before the search, and once a cell is set, the
    domain of the next cell is what the prefix trees of its row and its
    column allow, so neither identity is checked per cell and a row or
    column that cannot be completed is never entered.  The leader test
    resumes where each relabeling stopped: a live one waits, with its first
    position not yet shown equal, for the depth that fills both cells that
    position compares; those left at a leaf, in perms' order, are Aut.
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
    # per cell, the least value at or after each start value it may take (n: none)
    nxt = [tuple(range(n + 1))] * nn
    axioms = _AXIOMS[kind]
    translations = IDENTITIES["d2"] in axioms and IDENTITIES["d4"] in axioms
    plan = []
    for axiom in axioms:
        if axiom == IDENTITIES["d1"]:  # L[L[x][y]][z] = L[x][R[y][z]] for every x
            rows = {}  # per column of L, the least w at or after each start with that column
            for w in reversed(rng):
                rows.setdefault(tuple(le[w::n]), [n] * (n + 1))[:w + 1] = [w] * (w + 1)
            nxt = [rows.get(tuple(map(le[z::n].__getitem__, le[y::n])), (n,) * (n + 1))
                   for y in rng for z in rng]  # x -> L[L[x][y]][z]: L's column z at column y
            continue
        if translations and axiom in (IDENTITIES["d2"], IDENTITIES["d4"]):
            continue
        A, B, C, D = (t if c == "R" else le for c in axiom)
        plan.append((A, B, C, D, t_cells if B is t else le_cells, t_cells if D is t else le_cells))
    forced = [-1] * nn
    trails = [[] for _ in range(nn)]  # per depth, the cells it forced

    def force(c, w, trail):
        """Force empty cell c to w; False if it is forced otherwise or w is outside its domain."""
        f = forced[c]
        if f < 0:
            if nxt[c][w] != w:
                return False
            forced[c] = w
            trail.append(c)
            return True
        return f == w

    def holds(a, b, v, trail):
        """Whether every decided triple that looks up the new cell (a, b) = v holds,
        forcing the cell each triple decided but for an outer lookup needs."""
        an, bn, vn = a * n, b * n, v * n
        for A, B, C, D, b_cells, d_cells in plan:
            if B is t:  # B[a][b]: triples (a, b, z)
                for z in rng:
                    yz = D[bn + z]
                    if yz >= 0:
                        u = A[vn + z]
                        w = C[an + yz]
                        if u != w and not (force(vn + z, w, trail) if u < 0 else
                                           w < 0 and force(an + yz, u, trail)):
                            return False
            if D is t:  # D[a][b]: triples (x, a, b)
                for x in rng:
                    xn = x * n
                    xy = B[xn + a]
                    if xy >= 0:
                        u = A[xy * n + b]
                        w = C[xn + v]
                        if u != w and not (force(xy * n + b, w, trail) if u < 0 else
                                           w < 0 and force(xn + v, u, trail)):
                            return False
            if A is t:  # A[a][b]: triples (x, y, b) with B[x][y] = a
                for x, y in b_cells[a]:
                    yz = D[y * n + b]
                    if yz >= 0:
                        w = C[x * n + yz]
                        if w != v and not (w < 0 and force(x * n + yz, v, trail)):
                            return False
            if C is t:  # C[a][b]: triples (a, y, z) with D[y][z] = b
                for y, z in d_cells[b]:
                    xy = B[an + y]
                    if xy >= 0:
                        u = A[xy * n + z]
                        if u != v and not (u < 0 and force(xy * n + z, v, trail)):
                            return False
        return True

    # the values each cell may take: fixed per cell, or set for the next cell by holds
    dom = nxt
    if translations:
        from .doppel import commutant_masks, mask_nexts

        # rows commute with every right translation u -> L[u][z], the columns of L, and
        # columns with every left translation u -> L[x][u], the rows of L
        rmask, rchild = commutant_masks(frozenset(le[z::n] for z in rng), n)
        cmask, cchild = commutant_masks(frozenset(le[x * n:x * n + n] for x in rng), n)
        nexts = mask_nexts(n)
        rnode = [0] * nn  # per cell, the trie node of its row's and its column's prefix
        cnode = [0] * nn
        dom = [nexts[rmask[0] & cmask[0]]] * nn
        identities = holds

        def holds(a, b, v, trail):
            """The identities' `holds`, then the domain of the next cell: False if it is
            empty or leaves out the value forced there."""
            if not identities(a, b, v, trail):
                return False
            k = a * n + b + 1
            if k == nn:
                return True
            rn = rnode[k] = rchild[rnode[k - 1] * n + v] if b + 1 < n else 0
            cn = cnode[k] = cchild[cnode[k - n] * n + t[k - n]] if k >= n else 0
            d = dom[k] = nexts[rmask[rn] & cmask[cn]]
            f = forced[k]
            return d[0] < n if f < 0 else d[f] == f

    # per depth d, each live relabeling whose next position needs cell d, as (index in perms,
    # images, gather, first position not yet shown equal); at nn, the indices of those left
    wake = [[(j, p, g, 0) for j, (p, g) in enumerate(perms or ())]] + [[] for _ in range(nn)]
    filed = [[] for _ in range(nn)]  # per depth, the depths its leads filed relabelings under

    def leads(k):
        """Whether no relabeling p[t[gather[i]]] waking at depth k makes t[:k + 1] smaller;
        if so, file those it does not make larger under the depth deciding their next position."""
        for entry in wake[k]:
            j, p, gather, start = entry
            for i in range(start, nn):
                g = gather[i]
                d = g if g > i else i
                if d > k:
                    wake[d].append(entry if i == start else (j, p, gather, i))
                    filed[k].append(d)
                    break
                w = p[t[g]]
                if w != t[i]:
                    if w < t[i]:
                        return False
                    break
            else:
                wake[nn].append(j)
                filed[k].append(nn)
        return True

    last = nn - 1
    k = 0
    while k >= 0:
        trail = trails[k]
        filing = filed[k]
        while filing:
            wake[filing.pop()].pop()
        for c in trail:
            forced[c] = -1
        trail.clear()
        old = t[k]
        if old >= 0:
            t_cells[old].pop()
        f = forced[k]
        v = dom[k][old + 1] if f < 0 else n if old >= 0 else f
        if v == n:
            t[k] = -1
            k -= 1
            continue
        t[k] = v
        a, b = divmod(k, n)
        t_cells[v].append((a, b))
        if holds(a, b, v, trail) and (not perms or leads(k)):
            if k == last:
                yield tuple(t) if perms is None else (
                    tuple(t), [perms[j] for j in sorted(wake[nn])])
            else:
                k += 1


def enumerate_associative_tables(n: int):
    """All labeled associative tables of order n, in lexicographic order."""
    _check_order(n)
    return tuple(OpTable(n, e) for e in _search(None, n, SEMIGROUP))


@lru_cache(maxsize=None)
def _reps(n: int):
    """(first table of each semigroup class's S_n-orbit, its Aut as `_perm_data` items).

    Raises RuntimeError unless the classes and orbit sizes match the OEIS counts.
    """
    perms = _perm_data(n)
    reps = tuple((t, (perms[0], *aut)) for t, aut in _search(None, n, SEMIGROUP, perms[1:]))
    counts = (len(reps), sum(factorial(n) // len(aut) for _, aut in reps))
    if counts != _SEMIGROUP_COUNTS[n]:
        raise RuntimeError(f"order-{n} semigroup search found {counts[0]} classes of "
                           f"{counts[1]} tables, expected {_SEMIGROUP_COUNTS[n]}")
    return reps


def _logged_reps(n: int):
    """(`_reps(n)`, the clock after its stage line): the census's first stage."""
    start = time.perf_counter()
    reps = _reps(n)
    return reps, log_info(__name__, start, "order %d: %d semigroup representatives",
                          n, len(reps))


class EnumerationResult(Record):
    """Classes of one kind at one order, as their sorted canonical keys with their groups."""

    order: int
    kind: str
    labeled_count: int
    keys: tuple  # of bytes: the left table, then the right table, row by row
    auts: tuple  # per key, Aut of its pair as `_perm_data` items, identity first

    @property
    def class_count(self) -> int:
        return len(self.keys)

    def summary(self) -> dict:
        return {"schema": "dimonoids.enumeration/1", "order": self.order,
                "kind": self.kind, "labeled": self.labeled_count,
                "classes": self.class_count}


# (left table, kind) -> its Aut(L)-leaders with their groups, as `_right_tables` returns them
_RIGHT_TABLES: dict = {}


def _right_tables(le, aut, n: int, kind: str):
    """Per Aut(L)-orbit of le's right tables, (its least table as bytes, that pair's Aut).

    aut is Aut(le), identity first, as `_perm_data` items.  It fixes le, so
    relabeling R by it is an isomorphism of the pair, and the leader search
    over aut yields each orbit's least table, in lexicographic order, with
    its automorphisms among aut: Aut of the pair, in `_perm_data` order.
    Searched once per process: the census fills this for every
    representative, and the catalog then expands these orbits instead of
    searching its named tables again (nothing is where D1 leaves R = le alone).
    """
    rights = _RIGHT_TABLES.get((le, kind))
    if rights is None:
        rights = _RIGHT_TABLES[le, kind] = (
            ((bytes(le), aut),) if _decided_by_d1(le, n, kind) else
            tuple((bytes(re), (aut[0], *group)) for re, group in _search(le, n, kind, aut[1:])))
    return rights


def _decided_by_d1(le, n: int, kind: str) -> bool:
    """Whether kind has D1 and le, associative, has distinct columns: then R = le only."""
    return IDENTITIES["d1"] in _AXIOMS[kind] and len({le[w::n] for w in range(n)}) == n


def _pool_size(n: int) -> int:
    """Pool processes at order n: one per 128 semigroup classes, one per usable CPU at most."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, _SEMIGROUP_COUNTS[n][0] // 128))


def _result(n: int, kind: str, classes, start: float) -> EnumerationResult:
    """One class per (key, Aut) item, sorted by key; logs this keying stage, begun at start."""
    labeled = sum(factorial(n) // len(aut) for _, aut in classes)
    keys, auts = zip(*sorted(classes))  # keys are distinct, so no group is compared
    log_info(__name__, start, "order %d: %d %s classes (%d labeled) keyed",
             n, len(keys), kind, labeled)
    return EnumerationResult(order=n, kind=kind, labeled_count=labeled, keys=keys, auts=auts)


def _enumerate_pairs(n: int, kind: str):
    _check_order(n)
    reps, start = _logged_reps(n)
    undecided = [(le, aut) for le, aut in reps if not _decided_by_d1(le, n, kind)]
    missing = [item for item in undecided if (item[0], kind) not in _RIGHT_TABLES]
    partners = {}
    if kind == DOPPELSEMIGROUP:
        from .doppel import transpose_partners, transposed_right_tables

        # a representative takes its right tables from its transpose's representative
        # when that is another, smaller one, searched before it
        partners = transpose_partners(missing, n)
        missing = [item for item in missing if item[0] not in partners]
    workers = min(_pool_size(n), len(missing))
    if workers > 1:
        # imported here: a serial command should not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        lefts, auts = zip(*missing)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # 16 representatives a task: 4 and 64 ran no faster at order 5
            replies = pool.map(_right_tables, lefts, auts, repeat(n), repeat(kind),
                               chunksize=16)
            _RIGHT_TABLES.update(((le, kind), rights) for le, rights in zip(lefts, replies))
    # each leader R is its class's key after L
    classes = []
    for le, aut in reps:
        if le in partners:  # the partner came earlier in reps, so its right tables are kept
            partner, q = partners[le]
            _RIGHT_TABLES[le, kind] = transposed_right_tables(
                _RIGHT_TABLES[partner, kind], q, aut, n)
        head = bytes(le)
        classes += ((head + re, group) for re, group in _right_tables(le, aut, n, kind))
    start = log_info(__name__, start, "order %d: %s pair search over %d representatives (%d "
                     "searched by %d worker(s), %d decided by D1, %d derived by transposition)",
                     n, kind, len(reps), len(missing), max(workers, 1),
                     len(reps) - len(undecided), len(partners))
    return _result(n, kind, classes, start)


def enumerate_semigroups(n: int) -> EnumerationResult:
    """Associative tables up to isomorphism, each the trivial pair (L, L) of a representative."""
    _check_order(n)
    reps, start = _logged_reps(n)
    return _result(n, SEMIGROUP, [(bytes(le + le), aut) for le, aut in reps], start)


def enumerate_dimonoids(n: int) -> EnumerationResult:
    return _enumerate_pairs(n, DIMONOID)


def enumerate_doppelsemigroups(n: int) -> EnumerationResult:
    return _enumerate_pairs(n, DOPPELSEMIGROUP)


def enumerate_structures(n: int, kind: str) -> EnumerationResult:
    if kind == SEMIGROUP:
        return enumerate_semigroups(n)
    if kind not in KIND_AXIOMS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {ENUM_KINDS}")
    return _enumerate_pairs(n, kind)


def class_lines(result: EnumerationResult):
    """One JSON line per class, sorted by key, its rows read from the key's bytes."""
    n = result.order
    for key in result.keys:
        rows = [list(key[i:i + n]) for i in range(0, len(key), n)]  # L's n rows, then R's
        yield json.dumps({
            "schema": "dimonoids.class/1",
            "order": n,
            "kind": result.kind,
            "key": key.hex(),
            "left": rows[:n],
            "right": rows[n:],
        }, sort_keys=True)
