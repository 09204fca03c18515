"""Standard semigroup families, derived constructions, and the name grammar.

Index conventions (elements are always 0..n-1):

* +0, +1, ~1 place the adjoined element at the last index
* O(n,m) marks A = {0..m-1} with zero n-1
* LOB uses a = 0, c = 1
* LO(m<-n) marks A = {0..m-1} with sink a = 0
* LOt0(m<-s) lives on s+1 elements with A = {0..m-1} and zero s
* M(r,m) maps index i to the power a^(i+1)

Name grammar (semigroups):

    name      = base { "+0" | "+1" | "~1" } | "dual(" name ")"
    base      = "C" n | "C" n "^-1" | "O" n | "L" n | "LO" n | "RO" n
              | "LOB" n | "ROB" n | "M(" r "," m ")" | "O(" n "," m ")"
              | "LO(" m "<-" n ")" | "RO(" m "<-" n ")"
              | "LOt0(" m "<-" s ")" | "ROt0(" m "<-" s ")"

Pair names: `left|right` joins two semigroup names, `triv(s)` is the pair
(s, s), `plus0(d)` and the suffix form `(d)+0` adjoin a shared zero,
`dual(d)` is the dual pair.  Two curated pair names cover classes whose
coordinates are isomorphic semigroups: `Cn|Cn^-1` (cyclic group with its
variant at the generator's inverse) and `O(3,1)a|O(3,1)b` (two one-
idempotent zero semigroups marking different elements).
"""
from __future__ import annotations

import re
from functools import lru_cache

from .axioms import (NotAssociativeError, assoc_witness, check_structure, DIMONOID,
                     DOPPELSEMIGROUP)
from .enumeration import ENUM_KINDS, MAX_ORDER, SEMIGROUP, _check_order, _reps, _right_tables
from .iso import _coset_reach, _left_coset, _perm_data
from .tables import (DiStructure, OpTable, Permutation, _inverse, _relabeling, _table,
                     apply_permutation)


class ParameterError(ValueError):
    """A family parameter or catalog name is out of range or unknown."""


# Caps every catalog walk over orders: an alias `left|right` name tries all n!
# relabelings (order 7 takes about 2 s), and order 7 has 2,254 named semigroups
MAX_RELABEL_ORDER = 7
# Caps on names, checked before anything is built: the length bounds the nesting,
# and the order the size of the n² tables built
MAX_NAME_LENGTH = 256
MAX_NAME_ORDER = 64


# ---------------------------------------------------------------------------
# base families

def cyclic(n: int) -> OpTable:
    """Cyclic group: x*y = (x + y) mod n."""
    _require(n >= 1, f"cyclic order must be >= 1, got {n}")
    return OpTable.from_function(n, lambda x, y: (x + y) % n)


def shifted_cyclic(n: int, shift: int) -> OpTable:
    """Variant of the cyclic group at g = shift: x*y = (x + y + shift) mod n."""
    _require(n >= 1, f"order must be >= 1, got {n}")
    _require(0 <= shift < n, f"shift must lie in 0..{n - 1}, got {shift}")
    return OpTable.from_function(n, lambda x, y: (x + y + shift) % n)


def linear_semilattice(n: int) -> OpTable:
    """Chain semilattice: x*y = min(x, y)."""
    _require(n >= 1, f"order must be >= 1, got {n}")
    return OpTable.from_function(n, min)


def null_semigroup(n: int, zero: int = 0) -> OpTable:
    """Every product equals the zero."""
    _require(n >= 1, f"order must be >= 1, got {n}")
    _require(0 <= zero < n, f"zero must lie in 0..{n - 1}, got {zero}")
    return OpTable.from_function(n, lambda x, y: zero)


def monogenic(r: int, m: int) -> OpTable:
    """Monogenic semigroup of index r and period m; order r + m - 1.

    Index i stands for the power a^(i+1), so a^(r+m) = a^r folds high
    exponents back into the cycle.
    """
    _require(r >= 1, f"index must be >= 1, got {r}")
    _require(m >= 1, f"period must be >= 1, got {m}")
    n = r + m - 1

    def fold(x, y):
        e = x + y + 2
        if e > n:
            e = r + (e - r) % m
        return e - 1

    return OpTable.from_function(n, fold)


def idempotent_diagonal_at(n: int, marked, zero: int) -> OpTable:
    """x*y = x when x == y is marked, else the zero."""
    _require(n >= 1, f"order must be >= 1, got {n}")
    marked = frozenset(marked)
    _require(0 <= zero < n, f"zero must lie in 0..{n - 1}, got {zero}")
    _require(zero not in marked, f"zero {zero} cannot be marked")
    _require(all(0 <= a < n for a in marked), f"marked elements outside 0..{n - 1}")
    return OpTable.from_function(n, lambda x, y: x if x == y and x in marked else zero)


def idempotent_diagonal(n: int, m: int) -> OpTable:
    """O(n,m): elements 0..m-1 are idempotent, every other product is the zero n-1."""
    _require(n >= 2, f"order must be >= 2, got {n}")
    _require(1 <= m <= n - 1, f"marked count must lie in 1..{n - 1}, got {m}")
    return idempotent_diagonal_at(n, range(m), n - 1)


def left_zero(n: int) -> OpTable:
    """x*y = x."""
    _require(n >= 1, f"order must be >= 1, got {n}")
    return OpTable.from_function(n, lambda x, y: x)


def right_zero(n: int) -> OpTable:
    """x*y = y."""
    _require(n >= 1, f"order must be >= 1, got {n}")
    return OpTable.from_function(n, lambda x, y: y)


def left_zero_band(n: int) -> OpTable:
    """LOB: 0*0 = 0, 0*y = 1 for y != 0, and every other row is constant x."""
    _require(n >= 2, f"order must be >= 2, got {n}")
    return OpTable.from_function(n, lambda x, y: x if x != 0 else (0 if y == 0 else 1))


def left_zero_collapse(m: int, n: int) -> OpTable:
    """LO(m<-n): elements below m are left zeros, the rest collapse to 0."""
    _require(n >= 1, f"order must be >= 1, got {n}")
    _require(1 <= m <= n, f"left-zero count must lie in 1..{n}, got {m}")
    return OpTable.from_function(n, lambda x, y: x if x < m else 0)


def masked_left_zero(m: int, s: int) -> OpTable:
    """LOt0(m<-s) on s+1 elements: x*y = x when y < m, else the zero s."""
    _require(s >= 1, f"carrier size must be >= 1, got {s}")
    _require(0 <= m <= s, f"mask size must lie in 0..{s}, got {m}")
    return OpTable.from_function(s + 1, lambda x, y: x if y < m else s)


# ---------------------------------------------------------------------------
# derived constructions

def _require(cond: bool, message: str):
    if not cond:
        raise ParameterError(message)


def _adjoin(t: OpTable, absorbing: bool, square: int) -> OpTable:
    """t with a fresh element u at index n: u*s = s*u = u if absorbing, else s, and u*u = square,
    associative if t is (for ~1, square is t's identity e, and each product is t's with u as e)."""
    n, e = t.order, t.entries
    out = []
    for x in range(n):
        out += e[x * n:x * n + n]
        out.append(n if absorbing else x)
    out += [n] * n if absorbing else range(n)
    out.append(square)
    return _table(n + 1, tuple(out))


def adjoin_zero(t: OpTable) -> OpTable:
    """Add a fresh absorbing element at index n."""
    return _adjoin(t, True, t.order)


def adjoin_identity(t: OpTable) -> OpTable:
    """Add a fresh two-sided identity at index n."""
    return _adjoin(t, False, t.order)


def adjoin_tilde1(t: OpTable) -> OpTable:
    """Add u at index n with u*s = s*u = s and u*u = the existing identity.

    Requires t to be a monoid; the result never is one.
    """
    n = t.order
    e = next((c for c in range(n)
              if all(t.at(c, x) == x == t.at(x, c) for x in range(n))), None)
    _require(e is not None, "~1 requires a monoid, but the table has no identity")
    return _adjoin(t, False, e)


def dual_table(t: OpTable) -> OpTable:
    return t.transpose()


_DERIVATIONS = {"+0": adjoin_zero, "+1": adjoin_identity, "~1": adjoin_tilde1,
                "dual": dual_table}


def derive_semigroup(t: OpTable, construction: str) -> OpTable:
    try:
        fn = _DERIVATIONS[construction]
    except KeyError:
        raise ParameterError(f"unknown construction {construction!r}; "
                             f"expected one of {sorted(_DERIVATIONS)}")
    return fn(t)


# ---------------------------------------------------------------------------
# pair constructions

def trivial_dimonoid(t: OpTable) -> DiStructure:
    """The pair (t, t); requires t associative."""
    w = assoc_witness(t.entries, t.order)
    if w is not None:
        raise NotAssociativeError(w)
    return DiStructure(t, t)


def dual_dimonoid(d: DiStructure) -> DiStructure:
    return d.dual()


def adjoin_zero_dimonoid(d: DiStructure) -> DiStructure:
    """Adjoin one shared absorbing element to both tables.  Each identity d satisfies holds
    in the result, associativity too: both sides are the zero if x, y or z is, else d's."""
    return DiStructure(adjoin_zero(d.left), adjoin_zero(d.right))


# ---------------------------------------------------------------------------
# name grammar

# (pattern, builder, the order of the table the builder makes from the same parameters)
_BASE_PATTERNS = (
    (re.compile(r"^C(\d+)\^-1$"), lambda n: shifted_cyclic(n, n - 1), lambda n: n),
    (re.compile(r"^C(\d+)$"), cyclic, lambda n: n),
    (re.compile(r"^O(\d+)$"), null_semigroup, lambda n: n),
    (re.compile(r"^L(\d+)$"), linear_semilattice, lambda n: n),
    (re.compile(r"^LO(\d+)$"), left_zero, lambda n: n),
    (re.compile(r"^LOB(\d+)$"), left_zero_band, lambda n: n),
    (re.compile(r"^M\((\d+),(\d+)\)$"), monogenic, lambda r, m: r + m - 1),
    (re.compile(r"^O\((\d+),(\d+)\)$"), idempotent_diagonal, lambda n, m: n),
    (re.compile(r"^LO\((\d+)<-(\d+)\)$"), left_zero_collapse, lambda m, n: n),
    (re.compile(r"^LOt0\((\d+)<-(\d+)\)$"), masked_left_zero, lambda m, s: s + 1),
)

_SUFFIXES = ("+0", "+1", "~1")


def _inner(name: str, prefix: str, suffix: str):
    """The name that prefix and suffix wrap in name, or None unless it is nonempty and its
    parentheses balance."""
    if not (name.startswith(prefix) and name.endswith(suffix)):
        return None
    inner = name[len(prefix):len(name) - len(suffix)]
    depth = 0
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return None
    return inner if depth == 0 and inner else None


def _checked_name(name: str) -> str:
    """name within the length cap, without whitespace: no catalog name holds any."""
    name = name.strip()
    _require(len(name) <= MAX_NAME_LENGTH, f"the name has {len(name)} characters; catalog "
                                           f"names are capped at {MAX_NAME_LENGTH}")
    return "".join(name.split())


def _require_cap(name: str, extra: int, n: int):
    _require(n <= MAX_NAME_ORDER, f"{name!r} reaches {n} (adjoined elements: {extra}); catalog "
                                  f"names are capped at parameters and orders of {MAX_NAME_ORDER}")


def build_semigroup(name: str) -> OpTable:
    """Build the standard table for a semigroup name.

    Whitespace is ignored.  A name longer than MAX_NAME_LENGTH, or with a
    parameter or an order above MAX_NAME_ORDER, raises ParameterError before
    any table is built.
    """
    return _build_semigroup(_checked_name(name))


def _build_semigroup(name: str, extra: int = 0) -> OpTable:
    """build_semigroup of a checked name, to be grown by extra adjoined elements."""
    for suffix in _SUFFIXES:
        if (inner := _inner(name, "", suffix)) is not None:
            return derive_semigroup(_build_semigroup(inner, extra + 1), suffix)
    if (inner := _inner(name, "dual(", ")")) is not None:
        return dual_table(_build_semigroup(inner, extra))
    twin = name.startswith("RO")  # each RO family is the transpose of its LO twin
    for pattern, builder, order in _BASE_PATTERNS:
        m = pattern.match("L" + name[1:] if twin else name)
        if m:
            args = [int(g) for g in m.groups()]
            _require_cap(name, extra, max(args + [order(*args) + extra]))
            return builder(*args).transpose() if twin else builder(*args)
    raise ParameterError(f"unknown semigroup name {name!r}")


def _split_pair(name: str):
    """Split a top-level `left|right` name, or return None."""
    depth = 0
    for i, ch in enumerate(name):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth == 0:
            return name[:i], name[i + 1:]
    return None


# the curated pair names, matched without building: Cn|Cn^-1 (n in group 1), O(3,1)a|O(3,1)b
_SPECIAL_PAIR = re.compile(r"^C(\d+)\|C\1\^-1$|^O\(3,1\)a\|O\(3,1\)b$")


def _special_pair(name: str, extra: int = 0):
    m = _SPECIAL_PAIR.match(name)
    if m and m.group(1):
        n = int(m.group(1))
        _require_cap(name, extra, n + extra)
        return DiStructure(cyclic(n), shifted_cyclic(n, n - 1))
    if m:
        return DiStructure(idempotent_diagonal_at(3, (0,), 2),
                           idempotent_diagonal_at(3, (1,), 2))
    return None


def semigroup_dual_name(name: str) -> str:
    """Display name of the dual semigroup class (LO <-> RO, dual(X) -> X, others fixed)."""
    for suffix in _SUFFIXES:
        # adjoining a two-sided zero or identity commutes with duality
        if (inner := _inner(name, "", suffix)) is not None:
            return semigroup_dual_name(inner) + suffix
    if (inner := _inner(name, "dual(", ")")) is not None:
        return inner
    if name.startswith("RO"):
        return "LO" + name[2:]
    if name.startswith("LO"):
        return "RO" + name[2:]
    return name


def structure_dual_name(name: str) -> str:
    """Display name of the dual structure class: swap components, dualize each."""
    for prefix, suffix in (("(", ")+0"), ("plus0(", ")")):
        if (inner := _inner(name, prefix, suffix)) is not None:
            return f"{prefix}{structure_dual_name(inner)}{suffix}"
    if (inner := _inner(name, "triv(", ")")) is not None:
        return f"triv({semigroup_dual_name(inner)})"
    if (inner := _inner(name, "dual(", ")")) is not None:
        return inner
    if _SPECIAL_PAIR.match(name):
        return name  # curated specials denote classes isomorphic to their dual
    split = _split_pair(name)
    if split is None:
        return semigroup_dual_name(name)
    return f"{semigroup_dual_name(split[1])}|{semigroup_dual_name(split[0])}"


def build_structure(name: str, kind: str | None = None) -> DiStructure:
    """Build the pair a structure name denotes.

    Bare semigroup names give the trivial pair.  A `left|right` name
    resolves through `named_class_map` so it lands on the same class the
    classifier reports under that name (dimonoid first when kind is None,
    then doppelsemigroup).  Alias names outside the map fall back to
    relabeling the right component until the pair satisfies the kind's
    axioms, preferring an abelian pair, then relabeling order; above
    MAX_RELABEL_ORDER they raise ParameterError instead.  Names are capped
    as in `build_semigroup`, counting the zeros that (…)+0 and plus0 adjoin.
    """
    return _build_structure(_checked_name(name), kind, 0)


def _build_structure(name: str, kind: str | None, extra: int) -> DiStructure:
    """build_structure of a checked name, to be grown by extra adjoined zeros."""
    for prefix, suffix in (("(", ")+0"), ("plus0(", ")")):
        if (inner := _inner(name, prefix, suffix)) is not None:
            return adjoin_zero_dimonoid(_build_structure(inner, kind, extra + 1))
    if (inner := _inner(name, "triv(", ")")) is not None:
        return trivial_dimonoid(_build_semigroup(inner, extra))
    if (inner := _inner(name, "dual(", ")")) is not None:
        # for a bare semigroup name this equals the trivial pair of its dual
        return dual_dimonoid(_build_structure(inner, kind, extra))
    special = _special_pair(name, extra)
    if special is not None:
        return _checked_named_pair(special, name, kind)
    split = _split_pair(name)
    if split is None:
        return trivial_dimonoid(_build_semigroup(name, extra))
    kinds = _pair_kinds(name, kind)
    left = _build_semigroup(split[0], extra)
    right = _build_semigroup(split[1], extra)
    if left.order != right.order:
        raise ParameterError(f"components of {name!r} have different orders")
    if left.order <= MAX_ORDER:  # above it there is no catalog to resolve through
        for k in kinds:
            resolved = named_class_map(left.order, k)[0].get(name)
            if resolved is not None:
                return resolved
    if left.order > MAX_RELABEL_ORDER:
        raise ParameterError(f"{name!r} has order {left.order}; left|right names outside "
                             f"the catalog are resolved by trying every relabeling, which "
                             f"is capped at order {MAX_RELABEL_ORDER}")
    for k in kinds:
        first = None
        for p in Permutation.all_of_degree(left.order):
            d = DiStructure(left, apply_permutation(right, p))
            if d.left != d.right and check_structure(d, k).ok:
                if d.right == d.left.transpose():
                    return d
                first = first or d
        if first:
            return first
    raise ParameterError(f"no relabeling makes {name!r} a valid nontrivial pair")


def _pair_kinds(name: str, kind: str | None):
    """The kinds a `left|right` name is resolved under: kind, or both when None."""
    if kind is None:
        return DIMONOID, DOPPELSEMIGROUP
    if kind not in (DIMONOID, DOPPELSEMIGROUP):
        raise ParameterError(f"{name!r} is a left|right name; it needs kind {DIMONOID}, "
                             f"{DOPPELSEMIGROUP} or any, got {kind!r}")
    return (kind,)


def _checked_named_pair(d: DiStructure, name: str, kind: str | None) -> DiStructure:
    kinds = _pair_kinds(name, kind)
    for k in kinds:
        if check_structure(d, k).ok:
            return d
    raise ParameterError(f"{name!r} does not satisfy the {' or '.join(kinds)} axioms")


# ---------------------------------------------------------------------------
# named family lists; order encodes display-name priority (first match wins)

@lru_cache(maxsize=32)
def named_semigroups(n: int):
    """(name, table) pairs at order n, most canonical names first.

    The base names are built through the name grammar, then +0, +1 and ~1
    extend each order-(n-1) entry.  Later entries may repeat an earlier
    isomorphism class (for example M(2,1) repeats O2); matching keeps the
    first name.  Order 4 lists 118 entries (21 base) in 68 classes.
    """
    _require(n >= 1, f"order must be >= 1, got {n}")
    _require(n <= MAX_RELABEL_ORDER, f"order {n} exceeds {MAX_RELABEL_ORDER}, the largest "
                                     f"order the catalog lists")
    if n == 1:
        return (("C1", _build_semigroup("C1")),)
    names = [f"C{n}", f"O{n}", f"L{n}", *(f"M({r},{n - r + 1})" for r in range(2, n + 1)),
             *(f"O({n},{m})" for m in range(1, n)), f"LO{n}", f"RO{n}",
             *([f"LOB{n}", f"ROB{n}"] if n >= 3 else []),
             *(f"{side}O({m}<-{n})" for m in range(2, n) for side in "LR"),
             *(f"{side}Ot0({m}<-{n - 1})" for m in range(1, n - 1) for side in "LR")]
    out = [(name, _build_semigroup(name)) for name in names]
    for base_name, t in named_semigroups(n - 1):
        for suffix in _SUFFIXES:
            try:
                out.append((base_name + suffix, derive_semigroup(t, suffix)))
            except ParameterError:
                pass  # ~1 of a non-monoid
    return tuple(out)


def _right_tables_of(left, p, aut, n: int, kind: str, positions):
    """(right table, its leader) for the right tables in positions of the table t whose
    relabeling by p is left.

    left is the first table of t's relabeling orbit, the census's
    representative L of t's class, with Aut(L) given as aut, so t's right
    tables are the Aut(L)-orbits of L's leaders, relabeled by p⁻¹, and the
    canonical key of (t, R) is L followed by the leader of R's orbit.
    `enumeration._right_tables` holds the leaders after a census of this
    order and kind, and searches them only when none ran.  positions holds
    whole relabeling orbits, so a leader outside it is skipped with its orbit.
    """
    pinv, gather = _relabeling(_inverse(p))
    out = []
    for re, _ in _right_tables(left, aut, n, kind):
        if tuple(re) in positions:
            orbit = {tuple([q[re[j]] for j in g]) for q, g in aut}
            out += ((tuple([pinv[r[j]] for j in gather]), re) for r in orbit)
    return out


def named_structures(n: int, kind: str):
    """(name, pair) candidates at order n for one kind, priority first.

    Priority: trivial pairs, then +0 images of named smaller nontrivial
    classes, then curated same-component specials, then direct pairs of
    named semigroup classes over all relabelings of the right component.
    Direct pairs take each distinct named left table's right tables from the
    census, the Aut(L)-orbits of the leaders its class representative L
    keeps, relabeled onto it, and look them up among the relabeled named
    tables; a leader that is no relabeled named table is skipped unexpanded.
    Within one `left|right` name, candidates come in relabeling order (the
    first relabeling of the right table that gives each); each right table
    appears once.  Only candidates satisfying the kind's axioms
    appear.  One name can reach several isomorphism classes;
    `named_class_map` resolves that.  The semigroup kind lists the trivial
    pairs alone: a semigroup class is its pair (L, L).
    Raises ParameterError for a kind outside `ENUM_KINDS` and ValueError for
    an order the enumeration does not support.
    """
    return tuple(item[:2] for item in _named_candidates(n, kind))


@lru_cache(maxsize=32)
def _named_candidates(n: int, kind: str):
    """`named_structures(n, kind)` with each pair's canonical key as bytes: a trivial pair's
    is its table's least relabeling L twice, the +0 and curated pairs' come from a coset
    scan, and a direct pair's is L followed by its right table's leader in the census."""
    if kind not in ENUM_KINDS:
        raise ParameterError(f"unknown kind {kind!r}; expected one of {ENUM_KINDS}")
    _check_order(n)
    out = []
    classes: dict = {}  # (L, name, table, p carrying it onto L) of each class's first named table
    for name, t in named_semigroups(n):
        left, coset = _left_coset(t.entries, n)
        classes.setdefault(left, (left, name, t, coset[0][0]))
        out.append((name, DiStructure(t, t), bytes(left + left)))
    if n >= 2 and kind != SEMIGROUP:
        seen_inner, keyless = set(), []
        for name, d, key in _named_candidates(n - 1, kind):
            if d.left != d.right and key not in seen_inner:
                seen_inner.add(key)
                keyless.append((f"({name})+0", adjoin_zero_dimonoid(d)))
        for name in [f"C{n}|C{n}^-1"] + (["O(3,1)a|O(3,1)b"] if n == 3 else []):
            d = _special_pair(name)
            if check_structure(d, kind).ok:
                keyless.append((name, d))
        out += ((name, d, bytes(_coset_reach(d.left.entries, d.right.entries, n)[0]))
                for name, d in keyless)
        distinct = tuple(classes.values())
        left_auts = dict(_reps(n))
        for left, _, t, _ in distinct:  # t is associative iff L is a census table
            if left not in left_auts:
                raise NotAssociativeError(assoc_witness(t.entries, n))
        # index every relabeling of every distinct table by its entries, at the first
        # (table, relabeling) giving it
        positions: dict = {}
        for ri, (_, _, t, _) in enumerate(distinct):
            e = t.entries
            for pi, (p, gather) in enumerate(_perm_data(n)):
                positions.setdefault(tuple([p[e[j]] for j in gather]), (ri, pi))
        # both components are (relabeled) associative tables checked above, so
        # the right tables are exactly the relabelings that pass the pair
        # axioms; the trivial pair is already named by the bare tier
        for left, lname, lt, p in distinct:
            rights = _right_tables_of(left, p, left_auts[left], n, kind, positions)
            hits = sorted((positions[rt], rt, re) for rt, re in rights if rt != lt.entries)
            out.extend((f"{lname}|{distinct[ri][1]}", DiStructure(lt, _table(n, rt)),
                        bytes(left) + re) for (ri, _), rt, re in hits)
    return tuple(out)


def named_class_map(n: int, kind: str):
    """Resolve names to classes: (name -> pair, canonical key -> name).

    Each name lands on its first candidate in `named_structures` priority
    order whose class no earlier name took, so each class takes its first
    name and each name maps to a pair whose tables spell it.  No dual step
    is needed: the candidate order already gives named dual partners each
    other's dual names, which the tests check at orders 1-5.  Classes left
    over (two classes sharing every applicable name) stay out of the maps.
    Each call builds both dicts afresh from the cached candidates, so a
    caller may change what it is given.
    """
    by_name: dict = {}
    by_key: dict = {}
    for name, d, key in _named_candidates(n, kind):
        if name not in by_name and key not in by_key:
            by_key[key] = name
            by_name[name] = d
    return by_name, by_key
