"""Isomorphism tests, canonical forms, automorphism groups.

Two pairs are isomorphic iff one relabeling carries both tables at once.
The canonical form of a pair is the lexicographically least flat
serialization (left block then right block) over all n! relabelings;
key equality is therefore the same relation as isomorphism.  The left
block decides first, so the key is found through the left table's coset:
one scan of the n! relabelings finds the least relabeling of the left
table and the relabelings that reach it (a coset of its automorphism
group), kept per distinct left table in a bounded cache, and the right
table is minimized over that coset only.  The relabelings p that reach the
key are the coset p0·Aut(D), p0 the first, so `automorphisms` sorts p0⁻¹∘p.
`are_isomorphic` runs the permutation matcher `_matches`; the exhaustive
key over all n! relabelings of both tables lives with the tests.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import isqrt, lcm

from .tables import DiStructure, OpTable, Permutation, Record, _inverse, _relabeling

# Isomorphism tests try n! relabelings: cold `aut` took 0.68 s on O8, 7.2 s on O9 (2-core host)
MAX_ISO_ORDER = 8


def _capped(n: int) -> int:
    if n > MAX_ISO_ORDER:
        raise ValueError(f"order {n} exceeds the isomorphism tests' cap of {MAX_ISO_ORDER}")
    return n


class CanonicalKey(Record):
    """Minimal serialization of a pair plus the permutation that reaches it."""

    order: int
    key: bytes
    witness: Permutation

    @property
    def hex(self) -> str:
        return self.key.hex()


@lru_cache(maxsize=8)
def _perm_data(n: int):
    """`tables._relabeling` of every permutation of degree n, in lexicographic order."""
    return tuple(map(_relabeling, permutations(range(n))))


def _least(e, perms):
    """(least relabeling of the flat table e by the (images, gather) items of perms,
    the items reaching it in perms' order)."""
    best = None
    reach = []
    for item in perms:
        p, gather = item
        if best is not None:
            for i, b in zip(gather, best):
                v = p[e[i]]
                if v != b:
                    break
            else:
                reach.append(item)
                continue
            if v > b:
                continue
        best = tuple([p[e[i]] for i in gather])
        reach = [item]
    return best, reach


@lru_cache(maxsize=1024)
def _left_coset(le, n):
    """`_least(le, _perm_data(n))`: le's least relabeling and the coset reaching it.  Above
    order 6 the relabelings stream past once instead: `_perm_data(8)` is 28 MB."""
    perms = _perm_data(n) if n <= 6 else map(_relabeling, permutations(range(n)))
    best, coset = _least(le, perms)
    return best, tuple(coset)


@lru_cache(maxsize=1)  # `dimonoids aut` asks for a pair's group, then for its key
def _coset_reach(le, re, n):
    """((le, re)'s least serialization over `_perm_data(n)`, the items reaching it in order);
    le and re may be bytes or tuples, and `_left_coset` caches each left table as a tuple."""
    left, coset = _left_coset(tuple(le), n)
    right, reach = _least(tuple(re), coset)
    return left + right, reach


def canonical_form(d: DiStructure) -> CanonicalKey:
    """Canonical key of a pair; witness is the lex-least permutation reaching it."""
    best, reach = _coset_reach(d.left.entries, d.right.entries, _capped(d.order))
    return CanonicalKey(order=d.order, key=bytes(best), witness=Permutation(reach[0][0]))


def distructure_from_key(key: bytes) -> DiStructure:
    """The pair whose key bytes are key: 2n² bytes, the left table then the right, row by row."""
    n = isqrt(len(key) // 2)
    if 2 * n * n != len(key):  # OpTable refuses the order 0 of an empty key
        raise ValueError(f"a key holds 2n² bytes for its order n, got {len(key)}")
    return DiStructure(OpTable(n, tuple(key[:n * n])), OpTable(n, tuple(key[n * n:])))


def _matches(d1: DiStructure, d2: DiStructure):
    """Permutations carrying d1 onto d2, of the same order, in lexicographic order."""
    n = _capped(d1.order)
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
    """All permutations fixing both tables, in lex order: p0⁻¹∘p over the key's coset p0·Aut."""
    _, reach = _coset_reach(d.left.entries, d.right.entries, _capped(d.order))
    inv = _inverse(reach[0][0])
    return tuple(map(Permutation, sorted(tuple(map(inv.__getitem__, p)) for p, _ in reach)))


class GroupId(Record):
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


# Names by sorted element orders: the groups of order at most 6 differ in them, and a
# larger group's tuple is longer than each key here.
_GROUP_NAMES = {(1,): "C1", (1, 2): "C2", (1, 3, 3): "C3", (1, 2, 4, 4): "C4",
                (1, 2, 2, 2): "V4", (1, 5, 5, 5, 5): "C5", (1, 2, 3, 3, 6, 6): "C6",
                (1, 2, 2, 2, 3, 3): "S3"}


def identify_group(perms) -> GroupId:
    """Name the group formed by a closed set of permutations.

    The input must already be a group (closed, with identity and
    inverses); anything else raises ValueError.  Closure is checked by
    generating the group (Dimino's algorithm): walking the input in sorted
    order, each element g not yet generated becomes a generator, and the
    group H generated so far grows to <H, g> by whole cosets H*c, one for
    each product c of a coset representative and a generator outside the
    cosets so far, every element checked against the input.  So each
    element is made once, never by a scan over all pairs of elements, and
    there are at most log2|G| generators.  The group is abelian iff its
    generators commute pairwise.
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
    if any(_inverse(a) not in elems for a in elems):
        raise ValueError("inverse missing: not a group")
    gens = []
    generated = {ident}
    for g in sorted(elems):
        if g in generated:
            continue
        gens.append(g)
        subgroup = list(generated)  # H, generated by the earlier generators
        reps = [ident]
        for r in reps:  # grows: the representatives of the cosets H*r of <H, g>
            get = r.__getitem__
            for s in gens:
                c = tuple(map(get, s))
                if c in generated:
                    continue
                reps.append(c)
                for h in subgroup:
                    hc = tuple(map(h.__getitem__, c))
                    if hc not in elems:
                        raise ValueError("not closed under composition: not a group")
                    generated.add(hc)
    abelian = all(tuple(a[v] for v in b) == tuple(b[v] for v in a)
                  for i, a in enumerate(gens) for b in gens[:i])
    order = len(elems)
    element_orders = tuple(sorted(_perm_order(im) for im in elems))
    name = _GROUP_NAMES.get(element_orders)
    if name is None:
        kind = "abelian" if abelian else "nonabelian"
        name = f"other({order},{kind},orders={'+'.join(map(str, element_orders))})"
    return GroupId(order=order, name=name, abelian=abelian, element_orders=element_orders)
