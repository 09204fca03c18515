"""Isomorphism tests, canonical forms, automorphism groups.

Two pairs are isomorphic iff one relabeling carries both tables at once.
The canonical form of a pair is the lexicographically least flat
serialization (left block then right block) over all n! relabelings;
key equality is therefore the same relation as isomorphism.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import lcm

from .tables import DiStructure, OpTable, Permutation


@dataclass(frozen=True)
class CanonicalKey:
    """Minimal serialization of a pair plus the permutation that reaches it."""

    order: int
    key: bytes
    witness: Permutation

    @property
    def hex(self) -> str:
        return self.key.hex()

    def to_json(self) -> dict:
        return {"order": self.order, "key": self.hex, "witness": list(self.witness.images)}


@lru_cache(maxsize=8)
def _perm_data(n: int):
    """All (images, gather) pairs; gather[u*n+v] = pinv[u]*n + pinv[v]."""
    out = []
    for p in permutations(range(n)):
        pinv = [0] * n
        for i, v in enumerate(p):
            pinv[v] = i
        gather = tuple(pinv[u] * n + pinv[v] for u in range(n) for v in range(n))
        out.append((p, gather))
    return tuple(out)


def _min_key(le, re, n):
    """(best tuple, witness images) minimizing the relabeled serialization."""
    best = None
    best_perm = None
    for p, gather in _perm_data(n):
        cand = []
        undecided = best is not None
        k = 0
        abandoned = False
        for src in (le, re):
            for i in gather:
                v = p[src[i]]
                if undecided:
                    b = best[k]
                    if v > b:
                        abandoned = True
                        break
                    if v < b:
                        undecided = False
                cand.append(v)
                k += 1
            if abandoned:
                break
        if abandoned or undecided:
            continue  # worse than or equal to best; ties keep the earlier witness
        best = tuple(cand)
        best_perm = p
    return best, best_perm


def canonical_form(d: DiStructure) -> CanonicalKey:
    """Canonical key of a pair; witness is the lex-least permutation reaching it."""
    n = d.order
    best, perm = _min_key(d.left.entries, d.right.entries, n)
    return CanonicalKey(order=n, key=bytes(best), witness=Permutation(perm))


def canonical_table_key(t: OpTable) -> CanonicalKey:
    """Canonical key of a single table via its trivial pair."""
    return canonical_form(DiStructure(t, t))


def canonical_representative(d: DiStructure) -> DiStructure:
    """The relabeled copy of d whose serialization is the canonical key."""
    return d.relabel(canonical_form(d).witness)


def distructure_from_key(key: CanonicalKey) -> DiStructure:
    n = key.order
    vals = list(key.key)
    return DiStructure(OpTable(n, tuple(vals[:n * n])), OpTable(n, tuple(vals[n * n:])))


def _matches(d1: DiStructure, d2: DiStructure):
    """Permutations carrying d1 onto d2, of the same order, in lexicographic order."""
    n = d1.order
    l1, r1 = d1.left.entries, d1.right.entries
    l2, r2 = d2.left.entries, d2.right.entries
    for p in permutations(range(n)):
        ok = True
        for x in range(n):
            xn = x * n
            px = p[x] * n
            for y in range(n):
                if p[l1[xn + y]] != l2[px + p[y]] or p[r1[xn + y]] != r2[px + p[y]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield Permutation(p)


def are_isomorphic(d1: DiStructure, d2: DiStructure):
    """Lex-least permutation carrying d1 onto d2, or None."""
    if d1.order != d2.order:
        return None
    return next(_matches(d1, d2), None)


def automorphisms(d: DiStructure):
    """All permutations fixing both tables, in lexicographic order."""
    return tuple(_matches(d, d))


@dataclass(frozen=True)
class GroupId:
    """A finite group identified by order, abelianness, and element orders.

    The name distinguishes every group of order at most 7; larger or
    unrecognized groups fall back to a descriptive other(...) name.
    """

    order: int
    name: str
    abelian: bool
    element_orders: tuple

    def __str__(self):
        return self.name


def _perm_order(images) -> int:
    n = len(images)
    seen = [False] * n
    cycle_lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        cycle_lengths.append(length)
    return lcm(*cycle_lengths) if cycle_lengths else 1


def identify_group(perms) -> GroupId:
    """Name the group generated by a closed set of permutations.

    The input must already be a group (closed, with identity and
    inverses); anything else raises ValueError.
    """
    elems = {p.images for p in perms}
    if not elems:
        raise ValueError("empty set is not a group")
    degree = len(next(iter(elems)))
    if any(len(im) != degree for im in elems):
        raise ValueError("permutations of mixed degree")
    ident = tuple(range(degree))
    if ident not in elems:
        raise ValueError("identity missing: not a group")
    for a in elems:
        inv = [0] * degree
        for i, v in enumerate(a):
            inv[v] = i
        if tuple(inv) not in elems:
            raise ValueError("inverse missing: not a group")
        for b in elems:
            if tuple(a[v] for v in b) not in elems:
                raise ValueError("not closed under composition: not a group")
    order = len(elems)
    abelian = all(
        tuple(a[v] for v in b) == tuple(b[v] for v in a)
        for a in elems for b in elems)
    element_orders = tuple(sorted(_perm_order(im) for im in elems))
    name = None
    if order == 1:
        name = "C1"
    elif order == 2:
        name = "C2"
    elif order == 3:
        name = "C3"
    elif order == 4:
        name = "C4" if 4 in element_orders else "V4"
    elif order == 5:
        name = "C5"
    elif order == 6:
        name = "C6" if abelian else "S3"
    if name is None:
        kind = "abelian" if abelian else "nonabelian"
        name = f"other({order},{kind},orders={'+'.join(map(str, element_orders))})"
    return GroupId(order=order, name=name, abelian=abelian, element_orders=element_orders)
