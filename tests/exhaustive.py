"""Exhaustive references the tests, `.github/order5_census.py` and `bench/search.py`
compare the package's searches, relabeling and group naming with, and the
case-by-case `+0`, `+1` and `~1` builders the tests compare the catalog's tables
with.  None of them runs in a command.

Import with `tests/` on the path (pytest puts it there; scripts set
`PYTHONPATH=src:tests`).
"""
from __future__ import annotations

from dimonoids.axioms import IDENTITIES, KIND_AXIOMS, identity_witness
from dimonoids.iso import CanonicalKey, GroupId, _perm_data, _perm_order, distructure_from_key
from dimonoids.tables import OpTable, Permutation


def _pair_axioms_hold(le, re, n, kind) -> bool:
    """Whether flat tables le, re satisfy kind's pair axioms (not associativity)."""
    return all(identity_witness(IDENTITIES[a], le, re, n) is None for a in KIND_AXIOMS[kind])


def _stabilizer(e, perms):
    """The (images, gather) items of perms that fix the flat table e, in perms' order:
    the reference the tests compare the groups of the census searches with."""
    return tuple((p, g) for p, g in perms if tuple(p[e[j]] for j in g) == e)


def _min_key(le, re, n):
    """(best tuple, witness images) minimizing the serialization over all of
    `_perm_data(n)`, in lexicographic order: the exhaustive reference for
    `iso._coset_reach`, whose key and first witness it must equal."""
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


def relabel_reference(e, p) -> tuple:
    """The flat table e relabeled by the images p, each entry scattered to its cell:
    r[p(x)*n + p(y)] = p(e[x*n + y]), the reference for `tables._relabeling`'s gather."""
    n = len(p)
    out = [0] * (n * n)
    for x in range(n):
        for y in range(n):
            out[p[x] * n + p[y]] = p[e[x * n + y]]
    return tuple(out)


def class_reps(result) -> tuple:
    """(CanonicalKey, DiStructure) per class of an EnumerationResult, decoded from its
    key; the witness is the identity, which reaches a canonical key."""
    identity = Permutation.identity(result.order)
    keys = (CanonicalKey(order=result.order, key=k, witness=identity) for k in result.keys)
    return tuple((key, distructure_from_key(key)) for key in keys)


def adjoin_zero_reference(t):
    """t with a fresh absorbing element at index n, from the operation's cases."""
    n = t.order
    return OpTable.from_function(n + 1, lambda x, y: t.at(x, y) if x < n and y < n else n)


def adjoin_identity_reference(t):
    """t with a fresh two-sided identity at index n, from the operation's cases."""
    n = t.order

    def op(x, y):
        if x == n:
            return y
        if y == n:
            return x
        return t.at(x, y)

    return OpTable.from_function(n + 1, op)


def adjoin_tilde1_reference(t):
    """t with u at index n, u*s = s*u = s and u*u = t's identity; None if t has none."""
    n = t.order
    e = next((c for c in range(n)
              if all(t.at(c, x) == x == t.at(x, c) for x in range(n))), None)
    if e is None:
        return None

    def op(x, y):
        if x == n and y == n:
            return e
        if x == n:
            return y
        if y == n:
            return x
        return t.at(x, y)

    return OpTable.from_function(n + 1, op)


def adjoined_reference(named):
    """The +0, +1 and ~1 entries `catalog.named_semigroups(n)` derives from the (name,
    table) entries of order n - 1, in its order, built by the references above."""
    out = []
    for name, t in named:
        for suffix, build in (("+0", adjoin_zero_reference), ("+1", adjoin_identity_reference),
                              ("~1", adjoin_tilde1_reference)):
            table = build(t)
            if table is not None:
                out.append((name + suffix, table))
    return out


def identify_group_reference(perms) -> GroupId:
    """`iso.identify_group` by an all-pairs closure and commutation scan, O(|G|^2)."""
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
