"""What a doppelsemigroup census adds to the shared right-table search.

D2, L[R[x][y]][z] = R[x][L[y][z]], holds iff every row y -> R[x][y] of the
right table commutes with each right translation u -> L[u][z] of (S, L),
that is, is a left translation of (S, L) in the sense of Clifford and
Preston (The Algebraic Theory of Semigroups I, 1961).  D4,
R[L[x][y]][z] = L[x][R[y][z]], holds iff every column x -> R[x][z] commutes
with each left translation u -> L[x][u]: it is a right translation.
`commutant_masks` finds either set as a prefix tree, by one depth-first
search over a map's positions that decides each commutation check at the
last position it reads; `enumeration._search` narrows each cell's mask of
values by the trees, so a kind with both identities checks neither per cell.
Dimonoids keep D2 as a checked identity: there the row sets cut few nodes
and cost more than they save.

And (L, R) is a doppelsemigroup iff (Lᵀ, Rᵀ) is one.  So a representative
L whose transpose lies in the class of a smaller representative P is not
searched: `transpose_partners` finds those, and `transposed_right_tables`
carries P's right tables onto L's.  Only one representative per class up
to anti-isomorphism is searched.

`enumeration` imports this module only when it runs a doppelsemigroup
search, so other commands neither compile nor load it.
"""
from __future__ import annotations

from functools import lru_cache

from .iso import _least, _left_coset
from .tables import _inverse, _relabeling, _transposed


@lru_cache(maxsize=None)
def commutant_masks(maps: frozenset, n: int):
    """The prefix tree of the maps f of range(n) with f[T[u]] = T[f[u]] for each T in maps
    and each u, down to their last position: (mask, child), where node 0 is the empty
    prefix, mask[node] has bit v set iff some map continues that prefix with v, and
    child[node * n + v] is the node of the prefix so continued.  Kept per set of maps, since
    left tables share them: the 252 sets of the 126 searched order-4 representatives are
    180 distinct ones.  checks[u] holds each (x, T), T not the identity, whose check
    f[T[x]] = T[f[x]] the search first decides at position u = max(x, T[x])."""
    checks = [[] for _ in range(n)]
    for T in maps:
        if T != tuple(range(n)):
            for x in range(n):
                checks[max(x, T[x])].append((x, T))
    mask = [0]
    child = [0] * n
    _fill(checks, [0] * n, 0, 0, mask, child)
    return tuple(mask), tuple(child)


def _fill(checks, f, u, node, mask, child):
    """Fill the subtree of node, the prefix f[:u], and return whether it has a completion.
    A child node is made before the search descends, so nodes come in preorder, and is
    deleted with every node made under it if it has none.  A module function, not a
    closure over itself, so that a call leaves no reference cycle behind."""
    n = len(f)
    for v in range(n):
        f[u] = v
        for x, T in checks[u]:
            if f[T[x]] != T[f[x]]:
                break
        else:
            if u + 1 < n:
                k = len(mask)
                mask.append(0)
                child += [0] * n
                if not _fill(checks, f, u + 1, k, mask, child):
                    del mask[k:], child[k * n:]
                    continue
                child[node * n + v] = k
            mask[node] |= 1 << v
    return mask[node] != 0


def transpose_partners(reps, n: int):
    """{L: (P, q)} for each representative L of reps, `enumeration._reps` items, whose
    transpose is in the class of a smaller representative P: P is the least relabeling
    of Lᵀ and q the first `_perm_data` item that reaches it."""
    partners = {}
    for le, _ in reps:
        partner, coset = _left_coset(_transposed(le, n), n)
        if partner < le:
            partners[le] = (partner, coset[0])
    return partners


def transposed_right_tables(rights, q, aut, n: int):
    """`enumeration._right_tables` of L from those of P = q(Lᵀ), without a search.

    aut is Aut(L), identity first.  For each right table R of P, (Lᵀ, q⁻¹(R))
    is a pair of the kind, so (L, q⁻¹(Rᵀ)) is one; this carries P's Aut(P)-orbits
    of right tables onto L's Aut(L)-orbits, one to one.  Each leader R of P so
    gives the least Aut(L)-relabeling of q⁻¹(Rᵀ) as a leader of L, with the pair's
    group: the relabelings of aut that reach that least table from itself, which
    fix it.  Sorting them gives the order the search yields.
    """
    qinv, gather = _relabeling(_inverse(q[0]))
    transposed = _transposed(gather, n)  # reads q⁻¹(Rᵀ) off R
    out = []
    for re, _ in rights:
        leader = _least([qinv[re[j]] for j in transposed], aut)[0]
        out.append((bytes(leader), tuple(_least(leader, aut)[1])))
    return tuple(sorted(out))
