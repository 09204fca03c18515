"""Exhaustive enumeration of semigroups, dimonoids, and doppelsemigroups.

One search core, `_search`, fills a right table cell by cell in row-major
order against a fixed left table.  It takes the identities it enforces, each
of the form A[B[x][y]][z] = C[x][D[y][z]] over the left (L) and right (R)
tables (`_AXIOMS` per kind), and yields each table with its automorphisms
among the relabelings it is given.  After each cell
only the triples that look that cell up are checked, and a branch is cut
at the first identity a filled cell breaks.  The check is generated once
per process for each set of identities: straight-line code with one loop
per lookup of R, where lookups of L, which is full, need no guard and are
never forced.  Each cell keeps one mask of
the values it may still take, and every source of values narrows it: D1
looks R up once, so it gives each cell its starting mask, read from an
index of L's columns before the search, and a triple whose only empty
lookup is an outer R cell (A or C) forces that cell's value, so a value
outside the mask cuts the branch before the cell is reached, and a forced
cell is tried with that value alone.  With the right table as its own left
table and associativity alone, the search yields the labeled associative
tables; cutting also every branch that some relabeling makes
lexicographically smaller (lex-leader symmetry breaking) leaves one table
L per semigroup class, the first of its n!/|Aut(L)|-table orbit.  Each
live relabeling waits, with its first position not yet shown equal, for
the depth that decides that position, so the test resumes where it
stopped, and the survivors at a leaf are Aut(L).  Every pair is
isomorphic to one whose left table is such an L, so right tables are
searched only for those, under associativity with D1, D2 and D3 for
dimonoids or D2 and D4 for doppelsemigroups.  With
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
to the translations of L, so the search narrows each cell's mask by those
and checks neither identity per cell, and (L, R) is a
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
passes the key bytes to `iso.distructure_from_key`.  Where workers are
started by spawn or forkserver (macOS, Windows, Linux from Python 3.14),
each one imports the caller's main module again, so a script must run an
order-5 census under `if __name__ == "__main__":`; one read from standard
input (`python -`) fails with BrokenProcessPool.

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


@lru_cache(maxsize=None)
def _mask_nexts(n: int):
    """Per bitmask of values, the least value in it at or after each start value (n: none)."""
    return tuple(tuple(next((w for w in range(start, n) if m >> w & 1), n)
                       for start in range(n + 1)) for m in range(1 << n))


def _indent(lines, depth: int = 1):
    """Each line indented by depth levels of four spaces."""
    return ["    " * depth + line for line in lines]


# Kernel code narrowing the mask of the empty cell at index {cell} to {value} alone, and
# failing if {value} is not in it
_FORCE = """\
c = {cell}
m = mask[c]
bit = 1 << {value}
if m != bit:
    if not m & bit:
        return False
    trail.append((c, m))
    mask[c] = bit"""


def _agree(u: str, u_cell, w: str, w_cell):
    """Kernel lines that fail unless u == w.  A side whose cell index is given, a lookup
    of R, may be empty, and is then forced to the other; both empty would be equal."""
    arms = [(side, cell, other) for side, cell, other in ((u, u_cell, w), (w, w_cell, u))
            if cell]
    lines = []
    for i, (side, cell, other) in enumerate(arms):
        lines += [f"{'el' * bool(i)}if {side} < 0:",
                  *_indent(_FORCE.format(cell=cell, value=other).splitlines())]
    lines += ["else:", "    return False"] if arms else ["return False"]
    return [f"if {u} != {w}:", *_indent(lines)]


def _branches(letters: str):
    """Kernel lines checking the decided triples of the identity A[B[x][y]][z] =
    C[x][D[y][z]] that look up the new cell (a, b) = v: one loop per letter that is R.
    L is full, so its lookups are read without a guard and never forced."""
    A, B, C, D = ("t" if c == "R" else "le" for c in letters)
    in_r = dict(zip("ABCD", (c == "R" for c in letters)))

    def lookup(value, letter, body):  # body, once value, a lookup of letter's table, is set
        return [f"if {value} >= 0:", *_indent(body)] if in_r[letter] else body

    lines = []
    if in_r["B"]:  # B[a][b]: triples (a, b, z)
        lines += ["for z in rng:", *_indent([f"yz = {D}[bn + z]", *lookup("yz", "D", [
            f"u = {A}[vn + z]", f"w = {C}[an + yz]",
            *_agree("u", in_r["A"] and "vn + z", "w", in_r["C"] and "an + yz")])])]
    if in_r["D"]:  # D[a][b]: triples (x, a, b), x at row start xn = x * n
        lines += ["for xn in starts:", *_indent([f"xy = {B}[xn + a]", *lookup("xy", "B", [
            f"u = {A}[xy * n + b]", f"w = {C}[xn + v]",
            *_agree("u", in_r["A"] and "xy * n + b", "w", in_r["C"] and "xn + v")])])]
    if in_r["A"]:  # A[a][b]: triples (x, y, b) with B[x][y] = a
        lines += [f"for x, y in {B}_cells[a]:", *_indent([f"yz = {D}[y * n + b]", *lookup(
            "yz", "D", [f"w = {C}[x * n + yz]",
                        *_agree("w", in_r["C"] and "x * n + yz", "v", None)])])]
    if in_r["C"]:  # C[a][b]: triples (a, y, z) with D[y][z] = b
        lines += [f"for y, z in {D}_cells[b]:", *_indent([f"xy = {B}[an + y]", *lookup(
            "xy", "B", [f"u = {A}[xy * n + z]",
                        *_agree("u", in_r["A"] and "xy * n + z", "v", None)])])]
    return lines


# Kernel code of the translation-tree step: narrow the next cell's mask to what the
# prefix trees of its row and its column allow, and fail if nothing is left
_TREE_STEP = """\
k = an + b + 1
if k == nn:
    return True
rn = rnode[k] = rchild[rnode[k - 1] * n + v] if b + 1 < n else 0
cn = cnode[k] = cchild[cnode[k - n] * n + t[k - n]] if k >= n else 0
m = mask[k]
trail.append((k, m))
mask[k] = m = m & rmask[rn] & cmask[cn]
return m != 0"""

_BIND = """\
def bind(t, le, mask, t_cells, le_cells, n, trees):
    rng, nn = range(n), n * n
    starts = range(0, nn, n)
    if trees is not None:
        rnode, cnode, rchild, cchild, rmask, cmask = trees
    def holds(a, b, v, trail):
        an, bn, vn = a * n, b * n, v * n
{body}
    return holds"""


@lru_cache(maxsize=None)
def _kernel(plan: tuple, translations: bool):
    """The check `holds` of `_search` for plan, the letter strings of the identities
    checked per cell, ending with the translation-tree step if translations.

    holds(a, b, v, trail) is straight-line code with one loop per lookup of R.  The
    result is bind(t, le, mask, t_cells, le_cells, n, trees), which returns a holds over
    those arrays of a search; trees is (rnode, cnode, rchild, cchild, rmask, cmask) with
    translations, else None.
    """
    body = [line for letters in plan for line in _branches(letters)]
    body += _TREE_STEP.splitlines() if translations else ["return True"]
    source = _BIND.format(body="\n".join(_indent(body, 2)))
    namespace = {}
    exec(compile(source, f"<_search kernel {' '.join(plan)}{' trees' * translations}>",
                 "exec"), namespace)
    return namespace["bind"]


def _search(le, n: int, identities, perms=()):
    """Yield (flat right table, its automorphisms among perms) per table satisfying the
    identities, letter strings of `axioms.IDENTITIES`, with left table le.

    Tables come in lexicographic order.  With le None the left table is the
    right table itself, so under associativity alone they are the associative
    tables.  Given perms, relabelings (images, gather), the search cuts every
    branch that one of them makes smaller; with le given, they must fix le,
    so that they act on the right tables alone.  With no perms each group is [].

    Cells are filled in row-major order; -1 marks an empty cell.  After cell
    (a, b) is set, only the triples with that cell among their four lookups
    are checked; a triple becomes decided exactly when its last lookup is
    filled, so every triple is checked once all of its lookups are known.
    That check, `holds`, is a kernel built by `_kernel` for the identities
    checked per cell and kept per process: per identity it has one loop for
    each letter that is R, reads the lookups of L, which is full, without a
    guard, and forces only outer cells of R.
    Each cell has one bitmask of the values it may still take, and a cell is
    tried with those alone; every source of values narrows that mask, so
    they intersect.  D1 (LLLR) looks R up only at R[y][z], so it sets each
    cell's starting mask from an index of L's columns before the search and
    is not checked per cell; without D1 every value is allowed.  A triple
    decided but for an outer lookup of R, A[u][z] or C[x][w], forces that
    cell to the value of the other side: it fails unless the cell's mask
    holds that value, and narrows the mask to it.  With both D2 and D4 each
    row of R must be a left translation of L and each column a right
    translation (see `doppel`); both sets are found before the search, and
    once a cell is set and its triples hold, the next cell's mask is
    narrowed to what the prefix trees of its row and its column allow (the
    kernel's last step), so
    neither identity is checked per cell and a row or column that cannot be
    completed is never entered.  Each depth records every mask it narrows,
    as it was before, and restores them in reverse order when its cell
    changes.  The leader test resumes where each relabeling stopped: a live
    one waits, with its first position not yet shown equal, for the depth
    that fills both cells that position compares; those left at a leaf, in
    perms' order, are Aut.
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
    mask = [(1 << n) - 1] * nn  # per cell, bit w set iff the cell may still take w
    translations = IDENTITIES["d2"] in identities and IDENTITIES["d4"] in identities
    plan = []
    for axiom in identities:
        if axiom == IDENTITIES["d1"]:  # L[L[x][y]][z] = L[x][R[y][z]] for every x
            columns = {}  # per column of L, the values w with that column, as a mask
            for w in rng:
                column = tuple(le[w::n])
                columns[column] = columns.get(column, 0) | 1 << w
            mask = [columns.get(tuple(map(le[z::n].__getitem__, le[y::n])), 0)
                    for y in rng for z in rng]  # x -> L[L[x][y]][z]: L's column z at column y
            continue
        if translations and axiom in (IDENTITIES["d2"], IDENTITIES["d4"]):
            continue
        plan.append(ASSOCIATIVITY if le is t else axiom)  # with le None every lookup is R
    if translations:
        from .doppel import commutant_masks

        # rows commute with every right translation u -> L[u][z], the columns of L, and
        # columns with every left translation u -> L[x][u], the rows of L
        rmask, rchild = commutant_masks(frozenset(le[z::n] for z in rng), n)
        cmask, cchild = commutant_masks(frozenset(le[x * n:x * n + n] for x in rng), n)
        rnode = [0] * nn  # per cell, the trie node of its row's and its column's prefix
        cnode = [0] * nn
        mask[0] &= rmask[0] & cmask[0]
    nexts = _mask_nexts(n)
    trails = [[] for _ in range(nn)]  # per depth, each (cell, mask before) it narrowed
    holds = _kernel(tuple(plan), translations)(t, le, mask, t_cells, le_cells, n, (
        rnode, cnode, rchild, cchild, rmask, cmask) if translations else None)
    cells = [divmod(k, n) for k in range(nn)]  # per depth, its cell (a, b)

    # per depth d, each live relabeling whose next position needs cell d, as (index in perms,
    # images, gather, first position not yet shown equal); at nn, the indices of those left
    wake = [[(j, p, g, 0) for j, (p, g) in enumerate(perms)]] + [[] for _ in range(nn)]
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
        while trail:
            c, m = trail.pop()
            mask[c] = m
        old = t[k]
        if old >= 0:
            t_cells[old].pop()
        v = nexts[mask[k]][old + 1]
        if v == n:
            t[k] = -1
            k -= 1
            continue
        t[k] = v
        a, b = cell = cells[k]
        t_cells[v].append(cell)
        if holds(a, b, v, trail) and (not perms or leads(k)):
            if k == last:
                yield tuple(t), [perms[j] for j in sorted(wake[nn])]
            else:
                k += 1


def enumerate_associative_tables(n: int):
    """All labeled associative tables of order n, in lexicographic order."""
    _check_order(n)
    return tuple(OpTable(n, e) for e, _ in _search(None, n, _AXIOMS[SEMIGROUP]))


@lru_cache(maxsize=None)
def _reps(n: int):
    """(first table of each semigroup class's S_n-orbit, its Aut as `_perm_data` items).

    Raises RuntimeError unless the classes and orbit sizes match the OEIS counts.
    """
    perms = _perm_data(n)
    found = _search(None, n, _AXIOMS[SEMIGROUP], perms[1:])
    reps = tuple((t, (perms[0], *aut)) for t, aut in found)
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
            tuple((bytes(re), (aut[0], *group))
                  for re, group in _search(le, n, _AXIOMS[kind], aut[1:])))
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
