"""Exhaustive references the tests, `.github/order5_census.py` and `bench/search.py`
compare the package's searches with.  None of them runs in a command.

Import with `tests/` on the path (pytest puts it there; scripts set
`PYTHONPATH=src:tests`).
"""
from __future__ import annotations

from dimonoids.axioms import IDENTITIES, KIND_AXIOMS, identity_witness
from dimonoids.iso import CanonicalKey, _perm_data, distructure_from_key
from dimonoids.tables import Permutation


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


def class_reps(result) -> tuple:
    """(CanonicalKey, DiStructure) per class of an EnumerationResult, decoded from its
    key; the witness is the identity, which reaches a canonical key."""
    identity = Permutation.identity(result.order)
    keys = (CanonicalKey(order=result.order, key=k, witness=identity) for k in result.keys)
    return tuple((key, distructure_from_key(key)) for key in keys)
