"""Axiom checks and structural profiles for tables and table pairs.

Writing x -| y for the left operation and x |- y for the right one, the
pair axioms are

    D1: (x -| y) -| z = x -| (y |- z)
    D2: (x |- y) -| z = x |- (y -| z)
    D3: (x -| y) |- z = x |- (y |- z)
    D4: (x -| y) |- z = x -| (y |- z)

A dimonoid is a pair of associative tables satisfying D1-D3; a
doppelsemigroup is a pair of associative tables satisfying D2 and D4.

Each axiom, and associativity too, is an identity
A[B[x][y]][z] = C[x][D[y][z]] with each of A, B, C, D the left table (L)
or the right table (R); `IDENTITIES` spells D1-D4 in these letters and
one checker, `identity_witness`, tests any of them.  Witnesses are always
the lexicographically first failing triple (x, y, z).
"""
from __future__ import annotations

from .tables import DiStructure, OpTable, Record, _transposed, json_fields

DIMONOID = "dimonoid"
DOPPELSEMIGROUP = "doppelsemigroup"


class NotAssociativeError(ValueError):
    """An operation required to be associative is not; carries the witness."""

    def __init__(self, witness):
        super().__init__(f"not associative, witness (x, y, z) = {witness}")
        self.witness = witness


IDENTITIES = {"d1": "LLLR", "d2": "LRRL", "d3": "RLRR", "d4": "RLLR"}
ASSOCIATIVITY = "RRRR"
KIND_AXIOMS = {DIMONOID: ("d1", "d2", "d3"), DOPPELSEMIGROUP: ("d2", "d4")}


def identity_witness(letters: str, le, re, n: int):
    """First (x, y, z) breaking the identity letters on flat tables le, re, else None."""
    A, B, C, D = (le if c == "L" else re for c in letters)
    for x in range(n):
        xn = x * n
        for y in range(n):
            xy = B[xn + y]
            yn = y * n
            for z in range(n):
                if A[xy * n + z] != C[xn + D[yn + z]]:
                    return (x, y, z)
    return None


def assoc_witness(e, n: int):
    """First (x, y, z) with (x*y)*z != x*(y*z) in the flat table e, else None."""
    return identity_witness(ASSOCIATIVITY, e, e, n)


def is_associative(t: OpTable):
    """Return (flag, witness); witness is None when associative."""
    w = assoc_witness(t.entries, t.order)
    return (w is None, w)


class AxiomVerdict(Record):
    """Outcome of a dimonoid or doppelsemigroup check.

    Axioms outside the checked mode are None.  A flag is False exactly
    when witnesses holds a triple for it.
    """

    mode: str
    left_associative: bool
    right_associative: bool
    d1: bool | None
    d2: bool
    d3: bool | None
    d4: bool | None
    witnesses: dict

    @property
    def ok(self) -> bool:
        flags = (self.left_associative, self.right_associative,
                 self.d1, self.d2, self.d3, self.d4)
        return all(f for f in flags if f is not None)

    def failures(self):
        return tuple(sorted(self.witnesses.items()))

    def to_json(self) -> dict:
        return {**json_fields(self), "ok": self.ok}


def check_structure(d: DiStructure, kind: str) -> AxiomVerdict:
    """Both tables associative plus kind's pair axioms (KIND_AXIOMS)."""
    if kind not in KIND_AXIOMS:
        raise ValueError(f"unknown kind {kind!r}")
    n = d.order
    le, re = d.left.entries, d.right.entries
    witnesses = {}
    wl = assoc_witness(le, n)
    if wl is not None:
        witnesses["left_associative"] = wl
    wr = assoc_witness(re, n)
    if wr is not None:
        witnesses["right_associative"] = wr
    flags = dict.fromkeys(IDENTITIES)
    for name in KIND_AXIOMS[kind]:
        w = identity_witness(IDENTITIES[name], le, re, n)
        flags[name] = w is None
        if w is not None:
            witnesses[name] = w
    return AxiomVerdict(mode=kind, left_associative=wl is None,
                        right_associative=wr is None, witnesses=witnesses, **flags)


# ---------------------------------------------------------------------------
# profiles

class SemigroupProfile(Record):
    commutative: bool
    band: bool
    semilattice: bool
    right_commutative: bool
    idempotents: tuple
    left_identities: tuple
    right_identities: tuple
    identity: int | None
    left_zeros: tuple
    right_zeros: tuple
    zero: int | None
    monogenic: tuple | None  # (index r, period m) with r + m - 1 == order

    to_json = json_fields


def _monogenic_params(e, n):
    """(r, m) for the first generator of the whole carrier, else None."""
    for a in range(n):
        seen = {}
        powers = []
        x = a
        while x not in seen:
            seen[x] = len(powers)
            powers.append(x)
            x = e[x * n + a]
        if len(seen) == n:
            i = seen[x]  # a^(len+1) == a^(i+1)
            r = i + 1
            m = len(powers) - i
            return (r, m)
    return None


def semigroup_profile(t: OpTable) -> SemigroupProfile:
    """Structural profile of an associative table; raises NotAssociativeError otherwise."""
    n = t.order
    e = t.entries
    w = assoc_witness(e, n)
    if w is not None:
        raise NotAssociativeError(w)
    commutative = all(e[x * n + y] == e[y * n + x] for x in range(n) for y in range(x + 1, n))
    idempotents = tuple(x for x in range(n) if e[x * n + x] == x)
    band = len(idempotents) == n
    semilattice = band and commutative
    right_commutative = all(
        e[e[s * n + x] * n + y] == e[e[s * n + y] * n + x]
        for s in range(n) for x in range(n) for y in range(x + 1, n))
    left_identities = tuple(c for c in range(n) if all(e[c * n + x] == x for x in range(n)))
    right_identities = tuple(c for c in range(n) if all(e[x * n + c] == x for x in range(n)))
    identity = next((c for c in left_identities if c in right_identities), None)
    left_zeros = tuple(c for c in range(n) if all(e[c * n + x] == c for x in range(n)))
    right_zeros = tuple(c for c in range(n) if all(e[x * n + c] == c for x in range(n)))
    zero = next((c for c in left_zeros if c in right_zeros), None)
    monogenic = _monogenic_params(e, n)
    return SemigroupProfile(
        commutative=commutative, band=band, semilattice=semilattice,
        right_commutative=right_commutative, idempotents=idempotents,
        left_identities=left_identities, right_identities=right_identities,
        identity=identity, left_zeros=left_zeros, right_zeros=right_zeros,
        zero=zero, monogenic=monogenic)


class DimonoidProfile(Record):
    trivial: bool
    commutative: bool
    abelian: bool
    self_dual: bool

    to_json = json_fields


def _pair_flags(le, re, n: int, lt=None):
    """(trivial, commutative, abelian, Lᵀ, Rᵀ) of the flat tables le and re, both bytes or
    both tuples, with their transposes of the same type; lt, if given, is Lᵀ."""
    lt, rt = _transposed(le, n) if lt is None else lt, _transposed(re, n)
    return le == re, le == lt and re == rt, le == rt, lt, rt


def dimonoid_profile(d: DiStructure) -> DimonoidProfile:
    """Table-level flags for a pair; self_dual is abelian, as (Rᵀ, Lᵀ) = (L, R) iff L = Rᵀ."""
    trivial, commutative, abelian, _, _ = _pair_flags(d.left.entries, d.right.entries, d.order)
    return DimonoidProfile(trivial=trivial, commutative=commutative,
                           abelian=abelian, self_dual=abelian)
