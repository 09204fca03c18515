"""Tests for the named families, derived constructions, and the name grammar."""
from __future__ import annotations

import hashlib
from itertools import product

import pytest

from dimonoids import catalog
from dimonoids import (DIMONOID, DOPPELSEMIGROUP, DiStructure, NotAssociativeError,
                       OpTable, ParameterError, adjoin_identity, adjoin_tilde1,
                       adjoin_zero, adjoin_zero_dimonoid, build_semigroup,
                       build_structure, canonical_form, check_structure, classify_order,
                       cyclic, dimonoid_profile,
                       dual_dimonoid, dual_table, derive_semigroup,
                       idempotent_diagonal, is_associative, left_zero,
                       left_zero_band, left_zero_collapse, linear_semilattice,
                       masked_left_zero, monogenic, named_class_map,
                       named_semigroups, named_structures, null_semigroup,
                       right_zero, semigroup_dual_name, shifted_cyclic,
                       structure_dual_name, trivial_dimonoid)
from dimonoids.axioms import IDENTITIES, identity_witness
from dimonoids.enumeration import ENUM_KINDS
from exhaustive import adjoined_reference, check_names_spelled


def test_base_family_tables():
    assert cyclic(3).rows() == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert shifted_cyclic(3, 2).rows() == ((2, 0, 1), (0, 1, 2), (1, 2, 0))
    assert linear_semilattice(3).rows() == ((0, 0, 0), (0, 1, 1), (0, 1, 2))
    assert null_semigroup(3).rows() == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert left_zero(3).rows() == ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    assert right_zero(3).rows() == ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    assert monogenic(3, 1).rows() == ((1, 2, 2), (2, 2, 2), (2, 2, 2))
    assert monogenic(2, 2).rows() == ((1, 2, 1), (2, 1, 2), (1, 2, 1))
    assert idempotent_diagonal(3, 1).rows() == ((0, 2, 2), (2, 2, 2), (2, 2, 2))
    assert idempotent_diagonal(3, 2).rows() == ((0, 2, 2), (2, 1, 2), (2, 2, 2))
    assert left_zero_band(3).rows() == ((0, 1, 1), (1, 1, 1), (2, 2, 2))
    assert left_zero_collapse(2, 3).rows() == ((0, 0, 0), (1, 1, 1), (0, 0, 0))
    assert masked_left_zero(1, 2).rows() == ((0, 2, 2), (1, 2, 2), (2, 2, 2))


def test_base_families_are_associative():
    tables = [cyclic(4), shifted_cyclic(4, 3), linear_semilattice(4),
              null_semigroup(4), left_zero(4), right_zero(4),
              left_zero_band(4), left_zero_collapse(2, 4),
              masked_left_zero(2, 3), monogenic(2, 3), monogenic(4, 1),
              idempotent_diagonal(4, 2)]
    for t in tables:
        ok, witness = is_associative(t)
        assert ok, witness


def test_family_parameter_errors():
    with pytest.raises(ParameterError):
        cyclic(0)
    with pytest.raises(ParameterError):
        shifted_cyclic(3, 3)
    with pytest.raises(ParameterError):
        null_semigroup(3, zero=3)
    with pytest.raises(ParameterError):
        monogenic(0, 2)
    with pytest.raises(ParameterError):
        idempotent_diagonal(3, 3)  # the zero cannot be marked
    with pytest.raises(ParameterError):
        left_zero_collapse(3, 2)
    with pytest.raises(ParameterError):
        masked_left_zero(3, 2)
    with pytest.raises(ParameterError):
        left_zero_band(1)


def test_adjoin_zero():
    t = adjoin_zero(cyclic(2))
    assert t.rows() == ((0, 1, 2), (1, 0, 2), (2, 2, 2))
    assert is_associative(t)[0]


def test_adjoin_identity():
    t = adjoin_identity(null_semigroup(2))
    assert t.rows() == ((0, 0, 0), (0, 0, 1), (0, 1, 2))
    assert is_associative(t)[0]


def test_adjoin_tilde1():
    t = adjoin_tilde1(cyclic(2))
    assert t.rows() == ((0, 1, 0), (1, 0, 1), (0, 1, 0))
    assert is_associative(t)[0]
    with pytest.raises(ParameterError):
        adjoin_tilde1(null_semigroup(2))  # no identity


def test_derive_semigroup_dispatch():
    assert derive_semigroup(left_zero(2), "dual") == right_zero(2)
    assert derive_semigroup(cyclic(2), "+0") == adjoin_zero(cyclic(2))
    with pytest.raises(ParameterError):
        derive_semigroup(cyclic(2), "+2")


def test_dual_table_is_transpose():
    assert dual_table(left_zero(3)) == right_zero(3)
    assert dual_table(cyclic(3)) == cyclic(3)


def test_trivial_dimonoid():
    d = trivial_dimonoid(cyclic(3))
    assert d.left == d.right == cyclic(3)
    with pytest.raises(NotAssociativeError):
        trivial_dimonoid(OpTable(2, (1, 0, 0, 0)))


def test_adjoin_zero_dimonoid():
    d = adjoin_zero_dimonoid(DiStructure(left_zero(2), right_zero(2)))
    assert d.order == 3
    assert d.left.rows() == ((0, 0, 2), (1, 1, 2), (2, 2, 2))
    assert d.right.rows() == ((0, 1, 2), (0, 1, 2), (2, 2, 2))
    assert check_structure(d, DIMONOID).ok


def test_constructions_keep_what_their_inputs_satisfy():
    # the constructions run no check of their own: +0, +1 and ~1 keep associativity, and a
    # shared zero keeps every identity of axioms.IDENTITIES and each table's associativity
    for n in (1, 2, 3, 4):
        for name, t in named_semigroups(n):
            assert is_associative(t)[0], name
            for suffix in ("+0", "+1", "~1"):
                try:
                    out = derive_semigroup(t, suffix)
                except ParameterError:
                    assert suffix == "~1"  # t is no monoid
                    continue
                assert is_associative(out) == (True, None), name + suffix
        for kind in (DIMONOID, DOPPELSEMIGROUP):
            for name, d in named_structures(n, kind):
                out = adjoin_zero_dimonoid(d)
                for letters in (*IDENTITIES.values(), "LLLL", "RRRR"):
                    if identity_witness(letters, d.left.entries, d.right.entries, n) is None:
                        assert identity_witness(letters, out.left.entries, out.right.entries,
                                                n + 1) is None, (name, letters)


def test_build_semigroup_round_trips_every_name():
    for n in (1, 2, 3, 4):
        for name, t in named_semigroups(n):
            assert build_semigroup(name) == t, name


def test_build_semigroup_grammar():
    assert build_semigroup("C3") == cyclic(3)
    assert build_semigroup("C3^-1") == shifted_cyclic(3, 2)
    assert build_semigroup("O3") == null_semigroup(3)
    assert build_semigroup("L3") == linear_semilattice(3)
    assert build_semigroup("LO3") == left_zero(3)
    assert build_semigroup("RO3") == right_zero(3)
    assert build_semigroup("LOB3") == left_zero_band(3)
    assert build_semigroup("ROB3") == left_zero_band(3).transpose()
    assert build_semigroup("M(3,1)") == monogenic(3, 1)
    assert build_semigroup("O(3,2)") == idempotent_diagonal(3, 2)
    assert build_semigroup("LO(2<-3)") == left_zero_collapse(2, 3)
    assert build_semigroup("RO(2<-3)") == left_zero_collapse(2, 3).transpose()
    assert build_semigroup("LOt0(1<-2)") == masked_left_zero(1, 2)
    assert build_semigroup("ROt0(1<-2)") == masked_left_zero(1, 2).transpose()
    assert build_semigroup("C2+0") == adjoin_zero(cyclic(2))
    assert build_semigroup("O2+1") == adjoin_identity(null_semigroup(2))
    assert build_semigroup("C2~1") == adjoin_tilde1(cyclic(2))
    assert build_semigroup("dual(LO3)") == right_zero(3)
    assert build_semigroup(" C3 ") == cyclic(3)
    with pytest.raises(ParameterError):
        build_semigroup("Q8")
    with pytest.raises(ParameterError):
        build_semigroup("LO")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_named_semigroups_adjoin_as_the_reference_does(n):
    # the base families first, then +0, +1 and ~1 of each order-(n-1) entry in turn
    named = named_semigroups(n)
    base = [(name, t) for name, t in named if not name.endswith(("+0", "+1", "~1"))]
    derived = adjoined_reference(named_semigroups(n - 1)) if n > 1 else []
    assert list(named) == base + derived


# sha256 of repr([(name, t.entries) for name, t in named_semigroups(n)]), recorded when
# named_semigroups called each family builder itself instead of building its base names
NAMED_SEMIGROUPS_SHA256 = {
    1: "4874b073bb0e8d010e5a89341121a0d62a4a416c87605800fd693a26d7c45121",
    2: "53dbabd4f604686b39cec82997e0c02e93ce621268ef02ff7079316b70691f19",
    3: "ec6341ed48fed3205a19c12bf8215f61e57ecdaf4752ef73db7d3c6f8f994e7f",
    4: "dd4e5241c4945efcac35d83149bf7934f48312d61517e3c37d8582ffe0180913",
    5: "e753171ef44a569f5443ebab7324ce2d60c1b8cb40cafba80a92512e18dd4b76",
    6: "9e17707fb5f01112decf7f79e19518c437580f8fbf6171b7f7d7fd38d51497a6",
    7: "ba10f9d4115db3a0b3816eb76cafa9c30d49adcfebee87d455fcafb6bf5da2e3",
}


@pytest.mark.parametrize("n", range(1, 8))
def test_named_semigroups_and_their_name_map_are_pinned(n):
    named = named_semigroups(n)
    got = hashlib.sha256(repr([(name, t.entries) for name, t in named]).encode()).hexdigest()
    assert got == NAMED_SEMIGROUPS_SHA256[n]
    if n <= 5:  # the orders classify reports
        # reference: the first name of each class, keyed by canonical_form
        expected: dict = {}
        for name, t in named:
            expected.setdefault(canonical_form(DiStructure(t, t)).key, name)
        assert named_class_map(n, "semigroup")[1] == expected


def test_named_semigroups_cover_all_order3_classes():
    keys = {canonical_form(DiStructure(t, t)).key for _, t in named_semigroups(3)}
    assert len(keys) == 24


def test_build_structure_trivial_and_derived():
    assert build_structure("C3") == trivial_dimonoid(cyclic(3))
    assert build_structure("triv(C3)") == trivial_dimonoid(cyclic(3))
    d = build_structure("(LO2|RO2)+0")
    assert d.order == 3 and check_structure(d, DIMONOID).ok
    assert build_structure("plus0(LO2|RO2)") == d
    assert build_structure("dual(O3)") == trivial_dimonoid(null_semigroup(3))


def test_build_structure_pairs():
    d = build_structure("LO3|RO3")
    assert d == DiStructure(left_zero(3), right_zero(3))
    d = build_structure("C3|C3^-1")
    assert d == DiStructure(cyclic(3), shifted_cyclic(3, 2))
    assert check_structure(d, DOPPELSEMIGROUP).ok
    d = build_structure("LO3|O3", kind="dimonoid")
    assert d.left == left_zero(3)
    assert check_structure(d, DIMONOID).ok
    with pytest.raises(ParameterError):
        build_structure("C2|C3")  # component orders differ
    with pytest.raises(ParameterError):
        build_structure("C3|C3^-1", kind="dimonoid")  # only a doppelsemigroup


def test_build_structure_caps_the_relabeling_search():
    with pytest.raises(ParameterError, match="order 8.*capped at order 7"):
        build_structure("LO8|O8", "dimonoid")


@pytest.mark.parametrize("name", ["O65", "M(40,40)", "LOt0(1<-64)", "O(65,1)", "O63+0+1",
                                  "dual(O64~1)", "C2" + " " * 255 + "+0"],
                         ids=lambda name: name if len(name) < 20 else "259-characters")
def test_build_semigroup_caps_names(name):
    with pytest.raises(ParameterError, match="capped at"):
        build_semigroup(name)


# an RO name is read as its LO twin and the table transposed; its errors quote it as given,
# and ROB1 fails with left_zero_band(1)'s message
@pytest.mark.parametrize("name, message", [
    ("RO", "unknown semigroup name 'RO'"), ("ROX3", "unknown semigroup name 'ROX3'"),
    ("RO(2<-65)", "'RO(2<-65)' reaches 65 (adjoined elements: 0); catalog names are capped"),
    ("ROt0(1<-64)", "'ROt0(1<-64)' reaches 65 (adjoined elements: 0); catalog names are capped"),
    ("ROB1", "order must be >= 2, got 1")])
def test_build_semigroup_quotes_ro_names_as_given(name, message):
    with pytest.raises(ParameterError) as error:
        build_semigroup(name)
    assert str(error.value).startswith(message)


def test_build_semigroup_at_the_caps():
    assert build_semigroup("M(32,33)").order == 64
    assert build_semigroup("LOt0(1<-63)").order == 64
    assert build_semigroup("O62+0+1").order == 64
    assert build_semigroup(" dual( " * 15 + "C2" + " ) " * 15) == cyclic(2)


@pytest.mark.parametrize("name", ["(C64|C64^-1)+0", "plus0(triv(O64))", "dual((O64|O64)+0)",
                                  "(" * 62 + "LO3|RO3" + ")+0" * 62],
                         ids=["special", "plus0", "dual", "nested-zeros"])
def test_build_structure_caps_names_with_their_zeros(name):
    with pytest.raises(ParameterError, match="capped at"):
        build_structure(name)


def test_named_semigroups_are_capped_at_order_7():
    with pytest.raises(ParameterError, match="order 8 exceeds 7"):
        named_semigroups(8)


def test_build_structure_dual_of_pair():
    d = build_structure("LO3|O3", kind="dimonoid")
    dd = build_structure("dual(LO3|O3)", kind="dimonoid")
    assert dd == dual_dimonoid(d)


def test_build_structure_prefers_abelian_twin():
    d = build_structure("LO(2<-3)|RO(2<-3)", kind="dimonoid")
    assert dimonoid_profile(d).abelian


def test_named_class_map_is_injective_both_ways():
    # pins the map however it finds its keys (the direct pairs' come from the census
    # leaders): each key is the canonical form of a pair of the kind that it names
    for kind in ("dimonoid", "doppelsemigroup"):
        for n in (1, 2, 3, 4):
            by_name, by_key = named_class_map(n, kind)
            assert len(by_name) == len(by_key)
            keys = {canonical_form(d).key for d in by_name.values()}
            assert keys == set(by_key)
            for name, d in by_name.items():
                assert by_key[canonical_form(d).key] == name
                assert check_structure(d, kind).ok, name


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("kind", ENUM_KINDS)
def test_each_name_maps_to_a_pair_that_spells_it(kind, n):
    # the first candidate of each name spells it: the left table is the named one, the
    # right a relabeling, and a +0 element comes last
    check_names_spelled(n, kind)


def test_each_call_returns_its_own_name_maps():
    names = {r.key: r.name for r in classify_order(3).rows}
    for mapping in named_class_map(3, "dimonoid"):
        mapping.clear()  # a caller's change must not reach the next call
    by_name, by_key = named_class_map(3, "dimonoid")
    assert len(by_name) == len(by_key) == 47
    assert {r.key: r.name for r in classify_order(3).rows} == names


def test_build_structure_agrees_with_named_class_map():
    # a pair name spaced around its bars builds the same class: its whitespace must not
    # send it past the map to the relabeling fallback
    for n, kind in product((3, 4), ("dimonoid", "doppelsemigroup")):
        by_name, _ = named_class_map(n, kind)
        for name, d in by_name.items():
            for spelling in {name, name.replace("|", " | ")}:
                built = build_structure(spelling, kind=kind)
                assert canonical_form(built).key == canonical_form(d).key, spelling


def test_semigroup_dual_name():
    assert semigroup_dual_name("LO3") == "RO3"
    assert semigroup_dual_name("RO3") == "LO3"
    assert semigroup_dual_name("C3") == "C3"
    assert semigroup_dual_name("LOt0(1<-2)") == "ROt0(1<-2)"
    assert semigroup_dual_name("RO(2<-3)") == "LO(2<-3)"
    assert semigroup_dual_name("LO2+0") == "RO2+0"
    assert semigroup_dual_name("RO2+1") == "LO2+1"
    assert semigroup_dual_name("O2+0") == "O2+0"


def test_structure_dual_name():
    assert structure_dual_name("LO3|O3") == "O3|RO3"
    assert structure_dual_name("LO(2<-3)|RO(2<-3)") == "LO(2<-3)|RO(2<-3)"
    assert structure_dual_name("(LO2|O2)+0") == "(O2|RO2)+0"
    assert structure_dual_name("C3|C3^-1") == "C3|C3^-1"
    assert structure_dual_name("O(3,1)a|O(3,1)b") == "O(3,1)a|O(3,1)b"
    assert structure_dual_name("LO3") == "RO3"
    assert structure_dual_name("triv(LO3)") == "triv(RO3)"
    assert structure_dual_name("plus0(LO3|O3)") == "plus0(O3|RO3)"
    assert structure_dual_name("dual(LO3|O3)") == "LO3|O3"
    assert structure_dual_name("triv(dual(LO3))") == "triv(LO3)"
    # the curated specials are recognized by name, without building them, past the order cap
    assert structure_dual_name("C65|C65^-1") == "C65|C65^-1"


def test_dual_name_matches_dual_table():
    # on semigroup names the display dual must be the transpose's class, also under dual()
    for n in (1, 2, 3, 4):
        for base, table in named_semigroups(n):
            for name, t in ((base, table), (f"dual({base})", table.transpose())):
                built = build_semigroup(semigroup_dual_name(name))
                d1 = DiStructure(t.transpose(), t.transpose())
                d2 = DiStructure(built, built)
                assert canonical_form(d1).key == canonical_form(d2).key, name


def test_named_structures_candidates_satisfy_axioms():
    from dimonoids import check_structure
    for kind in ("dimonoid", "doppelsemigroup"):
        for name, d in named_structures(2, kind):
            assert check_structure(d, kind).ok, name


def test_special_pair_tables():
    by_name, _ = named_class_map(3, "doppelsemigroup")
    d = by_name["O(3,1)a|O(3,1)b"]
    assert check_structure(d, DOPPELSEMIGROUP).ok
    left, right = d.left, d.right
    assert left != right
    assert canonical_form(DiStructure(left, left)).key == \
        canonical_form(DiStructure(right, right)).key


@pytest.mark.parametrize("kind", ["dimonoid", "doppelsemigroup"])
@pytest.mark.parametrize("n", [2, 3])
def test_direct_pair_tier_matches_full_axiom_check(n, kind):
    # reference: every relabeling of every distinct named right table,
    # kept when the full check (associativity included) passes
    from dimonoids import Permutation, apply_permutation, check_structure
    distinct = {}
    for name, t in named_semigroups(n):
        distinct.setdefault(canonical_form(DiStructure(t, t)).key, (name, t))
    expected = []
    for lname, lt in distinct.values():
        for rname, rt in distinct.values():
            block = [DiStructure(lt, apply_permutation(rt, p))
                     for p in Permutation.all_of_degree(n)]
            block = [d for d in block if d.left != d.right and check_structure(d, kind).ok]
            expected.extend((f"{lname}|{rname}", d) for d in block)
    expected = tuple(dict.fromkeys(expected))  # each relabeling of rt once
    names = named_structures(n, kind)
    assert names[len(names) - len(expected):] == expected


@pytest.mark.parametrize("kind", ["dimonoid", "doppelsemigroup"])
def test_direct_pair_tier_matches_brute_force_at_order4(kind):
    # reference: every relabeling of every distinct named right table against
    # every distinct named left table, kept when the pair axioms hold
    from dimonoids import Permutation, apply_permutation
    from exhaustive import _pair_axioms_hold
    distinct = {}
    for name, t in named_semigroups(4):
        distinct.setdefault(canonical_form(DiStructure(t, t)).key, (name, t))
    perms = tuple(Permutation.all_of_degree(4))
    expected = []
    for lname, lt in distinct.values():
        for rname, rt in distinct.values():
            block = [DiStructure(lt, rtp) for rtp in (apply_permutation(rt, p) for p in perms)
                     if rtp != lt and _pair_axioms_hold(lt.entries, rtp.entries, 4, kind)]
            expected.extend((f"{lname}|{rname}", d) for d in block)
    expected = tuple(dict.fromkeys(expected))  # each relabeling of rt once
    names = named_structures(4, kind)
    assert names[len(names) - len(expected):] == expected


@pytest.mark.parametrize("kind, candidates, named", [
    ("dimonoid", 307, 126),
    ("doppelsemigroup", 583, 274),
])
def test_order4_catalog_counts(kind, candidates, named):
    # the unnamed order-4 classes are pinned in test_classify.test_order4_flag_counts
    assert len(named_structures(4, kind)) == candidates
    assert len(set(named_structures(4, kind))) == candidates  # no (name, pair) twice
    assert len(named_class_map(4, kind)[0]) == named


@pytest.mark.parametrize("kind", ["dimonoid", "doppelsemigroup"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_relabeled_census_right_tables_equal_a_search(n, kind):
    # reference: a search of the named table itself; every associative table is a
    # position, so every leader's orbit is expanded
    from dimonoids import enumerate_associative_tables
    from dimonoids.enumeration import _AXIOMS, _reps, _search
    from exhaustive import _min_key
    tables = {t.entries for t in enumerate_associative_tables(n)}
    left_auts = dict(_reps(n))
    for name, t in named_semigroups(n):
        e = t.entries
        key, p = _min_key(e, e, n)
        rights = catalog._right_tables_of(key[:n * n], p, left_auts[key[:n * n]], n, kind,
                                          tables)
        assert sorted(rt for rt, _ in rights) == [
            re for re, _ in _search(e, n, _AXIOMS[kind])], name
        for rt, leader in rights:  # the pair's key is L followed by its right table's leader
            assert canonical_form(DiStructure(t, OpTable(n, rt))).key == \
                bytes(key[:n * n]) + leader, name


@pytest.mark.parametrize("kind", ["dimonoid", "doppelsemigroup"])
def test_catalog_reuses_the_census_right_tables(kind, monkeypatch):
    from dimonoids import enumerate_structures, enumeration
    enumeration._RIGHT_TABLES.clear()
    catalog._named_candidates.cache_clear()
    cold = named_structures(4, kind)  # searches each named table's class representative
    search = enumeration._search
    for workers in (1, 2):  # a serial census and one whose pool fills the store
        enumeration._RIGHT_TABLES.clear()
        catalog._named_candidates.cache_clear()
        named_structures(3, kind)
        monkeypatch.setattr(enumeration, "_pool_size", lambda n: workers)
        enumerate_structures(4, kind)
        searches = []
        monkeypatch.setattr(enumeration, "_search",
                            lambda *args: searches.append(args) or search(*args))
        warm = named_structures(4, kind)
        assert searches == []  # no order-4 left table searched again
        assert warm == cold


def test_named_structures_rejects_a_non_pair_kind():
    with pytest.raises(ParameterError, match="unknown kind 'monoid'"):
        named_structures(3, "monoid")
