"""Tests for axiom checks, witnesses, and structural profiles."""
from __future__ import annotations

from itertools import islice, product

import pytest

from dimonoids import (DIMONOID, DOPPELSEMIGROUP, DiStructure, NotAssociativeError,
                       OpTable, check_structure, cyclic, dimonoid_profile, enumerate_associative_tables,
                       is_associative, left_zero, linear_semilattice,
                       monogenic, null_semigroup, right_zero,
                       semigroup_profile, shifted_cyclic)
from dimonoids.axioms import IDENTITIES, _pair_flags, assoc_witness, identity_witness
from dimonoids.catalog import idempotent_diagonal, left_zero_collapse


def _all_tables(n: int):
    for entries in product(range(n), repeat=n * n):
        yield OpTable(n, entries)


def test_order2_associative_count():
    assoc = [t for t in _all_tables(2) if is_associative(t)[0]]
    assert len(assoc) == 8


def test_nor_table_witness():
    nor = OpTable(2, (1, 0, 0, 0))
    ok, witness = is_associative(nor)
    assert not ok
    # (0*0)*1 = 1*1 = 0 but 0*(0*1) = 0*0 = 1
    assert witness == (0, 0, 1)


def test_is_associative_on_groups():
    for n in (1, 2, 3, 4):
        ok, witness = is_associative(cyclic(n))
        assert ok and witness is None


def test_dimonoid_left_right_zero_pair():
    d = DiStructure(left_zero(3), right_zero(3))
    verdict = check_structure(d, DIMONOID)
    assert verdict.ok
    assert verdict.mode == "dimonoid"
    assert (verdict.d1, verdict.d2, verdict.d3) == (True, True, True)
    assert verdict.d4 is None
    assert verdict.failures() == ()


def test_doppel_fails_on_left_right_zero_pair():
    # (x -| y) |- z = z but x -| (y |- z) = x, first failure at z != x
    d = DiStructure(left_zero(3), right_zero(3))
    verdict = check_structure(d, DOPPELSEMIGROUP)
    assert not verdict.ok
    assert verdict.mode == "doppelsemigroup"
    assert verdict.d2 is True
    assert verdict.d4 is False
    assert verdict.d1 is None and verdict.d3 is None
    assert verdict.witnesses == {"d4": (0, 0, 1)}
    assert verdict.failures() == (("d4", (0, 0, 1)),)


def test_cyclic_with_shifted_inverse_pair():
    d = DiStructure(cyclic(3), shifted_cyclic(3, 2))
    assert check_structure(d, DOPPELSEMIGROUP).ok
    verdict = check_structure(d, DIMONOID)
    assert not verdict.ok
    assert verdict.witnesses["d1"] == (0, 0, 0)
    assert verdict.witnesses["d3"] == (0, 0, 0)
    assert verdict.left_associative and verdict.right_associative


def test_trivial_pair_of_any_semigroup_is_both_kinds():
    for t in (cyclic(3), linear_semilattice(3), null_semigroup(3), monogenic(2, 2)):
        d = DiStructure(t, t)
        assert check_structure(d, DIMONOID).ok
        assert check_structure(d, DOPPELSEMIGROUP).ok


def test_nonassociative_component_is_reported():
    nor = OpTable(2, (1, 0, 0, 0))
    d = DiStructure(nor, null_semigroup(2))
    verdict = check_structure(d, DIMONOID)
    assert not verdict.ok
    assert not verdict.left_associative
    assert verdict.right_associative
    assert verdict.witnesses["left_associative"] == (0, 0, 1)


def test_check_structure_dispatch():
    d = DiStructure(left_zero(2), right_zero(2))
    assert check_structure(d, "dimonoid").ok
    assert not check_structure(d, "doppelsemigroup").ok
    with pytest.raises(ValueError):
        check_structure(d, "monoid")


def test_verdict_to_json():
    d = DiStructure(left_zero(2), right_zero(2))
    obj = check_structure(d, DOPPELSEMIGROUP).to_json()
    assert obj["mode"] == "doppelsemigroup"
    assert obj["ok"] is False
    assert obj["witnesses"] == {"d4": [0, 0, 1]}
    assert obj["d1"] is None


def test_json_forms_are_pinned():
    # every field present and named as before, tuples as lists, in both modes
    d = DiStructure(left_zero(2), cyclic(2))
    flags = {"left_associative": True, "right_associative": True, "d2": True}
    assert check_structure(d, DIMONOID).to_json() == {
        "mode": "dimonoid", "ok": False, **flags, "d1": True, "d3": False, "d4": None,
        "witnesses": {"d3": [0, 1, 0]}}
    assert check_structure(d, DOPPELSEMIGROUP).to_json() == {
        "mode": "doppelsemigroup", "ok": False, **flags, "d1": None, "d3": None,
        "d4": False, "witnesses": {"d4": [0, 0, 1]}}
    plain = {"band": False, "semilattice": False, "commutative": True,
             "right_commutative": True}
    none = {"left_identities": [], "right_identities": [], "identity": None}
    assert semigroup_profile(cyclic(3)).to_json() == {
        **plain, "idempotents": [0], "left_identities": [0], "right_identities": [0],
        "identity": 0, "left_zeros": [], "right_zeros": [], "zero": None,
        "monogenic": [1, 3]}
    assert semigroup_profile(idempotent_diagonal(3, 1)).to_json() == {
        **plain, **none, "idempotents": [0, 2], "left_zeros": [2], "right_zeros": [2],
        "zero": 2, "monogenic": None}
    assert semigroup_profile(monogenic(2, 3)).to_json() == {
        **plain, **none, "idempotents": [2], "left_zeros": [], "right_zeros": [],
        "zero": None, "monogenic": [2, 3]}
    assert dimonoid_profile(DiStructure(left_zero(2), right_zero(2))).to_json() == {
        "trivial": False, "commutative": False, "abelian": True, "self_dual": True}


def test_profile_cyclic_group():
    p = semigroup_profile(cyclic(3))
    assert p.commutative
    assert not p.band and not p.semilattice
    assert p.idempotents == (0,)
    assert p.identity == 0
    assert p.zero is None
    assert p.monogenic == (1, 3)
    assert p.right_commutative  # commutative implies right-commutative


def test_profile_semilattice():
    p = semigroup_profile(linear_semilattice(3))
    assert p.semilattice and p.band and p.commutative
    assert p.idempotents == (0, 1, 2)
    assert p.identity == 2
    assert p.zero == 0
    assert p.monogenic is None


def test_profile_null_semigroup():
    p = semigroup_profile(null_semigroup(3))
    assert p.commutative and not p.band
    assert p.zero == 0
    assert p.identity is None
    assert p.monogenic is None
    two = semigroup_profile(null_semigroup(2))
    assert two.monogenic == (2, 1)  # the nonzero element generates O2


def test_profile_monogenic():
    p = semigroup_profile(monogenic(2, 2))
    assert p.monogenic == (2, 2)
    assert p.commutative
    p = semigroup_profile(monogenic(3, 1))
    assert p.monogenic == (3, 1)
    assert p.zero == 2


def test_profile_one_sided():
    p = semigroup_profile(left_zero(3))
    assert not p.commutative
    assert p.band and not p.semilattice
    assert p.left_zeros == (0, 1, 2)
    assert p.right_zeros == ()
    assert p.left_identities == ()
    assert p.right_identities == (0, 1, 2)
    assert p.identity is None and p.zero is None


def test_right_commutative_detection():
    # s*x*y lands on the collapse of s for row-constant collapse tables,
    # but on the collapse of the last factor for the transpose
    assert semigroup_profile(left_zero_collapse(2, 3)).right_commutative
    assert not semigroup_profile(left_zero_collapse(2, 3).transpose()).right_commutative
    assert semigroup_profile(left_zero(3)).right_commutative
    assert not semigroup_profile(right_zero(3)).right_commutative


def test_profile_rejects_nonassociative():
    nor = OpTable(2, (1, 0, 0, 0))
    with pytest.raises(NotAssociativeError) as exc:
        semigroup_profile(nor)
    assert exc.value.witness == (0, 0, 1)


def test_dimonoid_profile_flags():
    p = dimonoid_profile(DiStructure(cyclic(3), cyclic(3)))
    assert p.trivial and p.commutative and p.abelian and p.self_dual
    p = dimonoid_profile(DiStructure(left_zero(3), right_zero(3)))
    assert not p.trivial and not p.commutative
    assert p.abelian and p.self_dual
    p = dimonoid_profile(DiStructure(left_zero(2), null_semigroup(2)))
    assert not p.trivial and not p.commutative and not p.abelian


def _flags_by_cell(left, right):
    """(trivial, commutative, abelian) of a pair read cell by cell: trivial is L = R,
    commutative is both tables commutative, and abelian is x -| y = y |- x."""
    cells = list(product(range(left.order), repeat=2))
    return (all(left.at(x, y) == right.at(x, y) for x, y in cells),
            all(t.at(x, y) == t.at(y, x) for t in (left, right) for x, y in cells),
            all(left.at(x, y) == right.at(y, x) for x, y in cells))


def test_pair_flags_match_their_definitions():
    # all 256 order-2 pairs, and the pairs of a fixed slice of order-3 tables and their
    # transposes, built without OpTable.transpose so that abelian pairs occur
    order3 = list(islice(_all_tables(3), 0, None, 997))
    order3 += [OpTable.from_function(3, lambda x, y, t=t: t.at(y, x)) for t in order3]
    for tables in (list(_all_tables(2)), order3):
        for left, right in product(tables, repeat=2):
            trivial, commutative, abelian = _flags_by_cell(left, right)
            p = dimonoid_profile(DiStructure(left, right))
            # the dual (Rᵀ, Lᵀ) is the pair itself iff L = Rᵀ, that is, iff abelian
            assert (p.trivial, p.commutative, p.abelian, p.self_dual) == (
                trivial, commutative, abelian, abelian), (left, right)
            le, re = bytes(left.entries), bytes(right.entries)  # as classify passes them
            assert _pair_flags(le, re, left.order)[:3] == (trivial, commutative, abelian)


# The pair axioms as the module docstring writes them, with L(x, y) = x -| y
# and R(x, y) = x |- y: (left side, right side) of each identity.
_FORMULAS = {
    "d1": lambda L, R, x, y, z: (L(L(x, y), z), L(x, R(y, z))),
    "d2": lambda L, R, x, y, z: (L(R(x, y), z), R(x, L(y, z))),
    "d3": lambda L, R, x, y, z: (R(L(x, y), z), R(x, R(y, z))),
    "d4": lambda L, R, x, y, z: (R(L(x, y), z), L(x, R(y, z))),
}


def _first_failure(formula, left, right):
    for x, y, z in product(range(left.order), repeat=3):
        lhs, rhs = formula(left.at, right.at, x, y, z)
        if lhs != rhs:
            return (x, y, z)
    return None


def _letter_table_samples():
    """All 16 order-2 tables, then a fixed slice of order-3 tables."""
    order3 = [OpTable(3, e) for e in islice(product(range(3), repeat=9), 0, None, 997)]
    order3 += list(enumerate_associative_tables(3)[::6])
    return [list(_all_tables(2)), order3]


def test_identity_letters_match_the_written_axioms():
    holds = dict.fromkeys(_FORMULAS, 0)
    for tables in _letter_table_samples():
        for left in tables:
            for right in tables:
                for name, formula in _FORMULAS.items():
                    expected = _first_failure(formula, left, right)
                    assert identity_witness(IDENTITIES[name], left.entries, right.entries,
                                            left.order) == expected, (name, left, right)
                    holds[name] += expected is None
    assert all(holds.values())  # every identity both holds and fails somewhere


def test_assoc_witness_matches_the_written_law():
    def formula(L, R, x, y, z):
        return (L(L(x, y), z), L(x, L(y, z)))

    for tables in _letter_table_samples():
        for t in tables:
            assert assoc_witness(t.entries, t.order) == _first_failure(formula, t, t), t
