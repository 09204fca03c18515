"""Acceptance suite: one test per criterion, run with pytest -v for the
one-line-per-criterion pass/fail report.

Two classification-table corrections are encoded here and explained next to
the assertions that pin them down: the collapse semigroup LO(2<-3) (rows
000/111/000) and every class built on it have trivial automorphism group,
not C2.  The labeled counts 113 and 267, which this package recomputes by
brute force, are only consistent with |Aut| = 1 for those classes, and a
direct scan of all six permutations confirms it.
"""
from __future__ import annotations

import random
import time
from math import factorial

from dimonoids import (DIMONOID, DiStructure, Permutation,
                       are_isomorphic, automorphisms, adjoin_zero_dimonoid,
                       canonical_form, check_structure,
                       classify_order, classify, dimonoid_profile,
                       enumerate_associative_tables, enumerate_dimonoids,
                       enumerate_doppelsemigroups, enumerate_semigroups,
                       left_zero_collapse, semigroup_profile, solve_problem1)

from exhaustive import class_reps
from test_classify import TABLE_ORDER2, TABLE_ORDER3_DOPPELS, TABLE_ORDER3_SEMIGROUPS


def _aut_names(report):
    return {r.name: r.aut.name for r in report.rows}


def _labeled_orbit_size(d: DiStructure) -> int:
    relabelings = {(d.relabel(p).left.entries, d.relabel(p).right.entries)
                   for p in Permutation.all_of_degree(d.order)}
    return len(relabelings)


def test_criterion_1_order2_dimonoid_classification():
    """8 classes: 3 commutative, 4 abelian, 5 trivial, 2 nonabelian dual
    pairs; automorphism groups (C1,C1,C1,C2,C2,C2,C1,C1) by name; < 1 s."""
    start = time.perf_counter()
    report = classify_order(2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    s = report.summary
    assert s["total"] == 8
    assert s["commutative"] == 3
    assert s["abelian"] == 4
    assert s["trivial"] == 5
    assert s["nonabelian"] == 4 and s["nonabelian_dual_pairs"] == 2
    auts = _aut_names(report)
    names = ("C2", "L2", "O2", "LO2", "RO2", "LO2|RO2", "LO2|O2", "O2|RO2")
    assert tuple(auts[name] for name in names) == \
        ("C1", "C1", "C1", "C2", "C2", "C2", "C1", "C1")
    assert auts == TABLE_ORDER2


def test_criterion_2_order3_semigroups_aut_corrected_for_collapse_class():
    """113 labeled tables, 24 classes, 12 commutative, 6 dual pairs; per-name
    automorphism groups as listed, with LO(2<-3) and RO(2<-3) at C1; < 5 s."""
    start = time.perf_counter()
    report = classify_order(3, "semigroup")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    s = report.summary
    assert s["labeled"] == 113
    assert s["total"] == 24
    assert s["commutative"] == 12
    assert s["nonabelian"] == 12 and s["nonabelian_dual_pairs"] == 6
    auts = _aut_names(report)
    assert auts["C3"] == "C2"
    assert auts["O(3,2)"] == "C2"
    assert auts["LO3"] == "S3"
    assert auts == TABLE_ORDER3_SEMIGROUPS
    # correction pinned three ways: the only permutations commuting with the
    # collapse table rows 000/111/000 are found by direct scan; its labeled
    # orbit has all 6 = 3!/1 relabelings; and the 24 orbit sizes must sum to
    # the labeled count 113, which fails if these two classes sat at C2
    collapse = left_zero_collapse(2, 3)
    pair = DiStructure(collapse, collapse)
    assert len(automorphisms(pair)) == 1
    assert _labeled_orbit_size(pair) == 6
    assert sum(factorial(3) // r.aut.order for r in report.rows) == 113


def test_criterion_3_order3_commutative_dimonoids():
    """Exactly 14 commutative classes: 12 trivial plus the dual pair of
    (monogenic nilpotent, null) pairs, all with the listed groups."""
    report = classify_order(3)
    commutative = [r for r in report.rows if r.commutative]
    assert len(commutative) == 14
    trivial = {r.name: r.aut.name for r in commutative if r.trivial}
    assert trivial == {name: aut for name, aut in TABLE_ORDER3_SEMIGROUPS.items()
                       if name in ("C3", "O3", "L3", "M(2,2)", "M(3,1)",
                                   "O(3,1)", "O(3,2)", "C2+0", "C2+1", "C2~1",
                                   "O2+0", "O2+1")}
    nontrivial = {r.name: r.aut.name for r in commutative if not r.trivial}
    assert nontrivial == {"M(3,1)|O3": "C1", "O3|M(3,1)": "C1"}
    a, b = (r for r in commutative if not r.trivial)
    assert a.dual_key == b.key and b.dual_key == a.key


def test_criterion_4_order3_abelian_dimonoids_aut_corrected_for_collapse_pair():
    """Exactly 17 abelian classes: 12 trivial plus 5 named nontrivial ones
    with groups (S3, C1, C1, C1, C2); the collapse pair sits at C1."""
    report = classify_order(3)
    abelian = [r for r in report.rows if r.abelian]
    assert len(abelian) == 17
    assert sum(1 for r in abelian if r.trivial) == 12
    nontrivial = {r.name: r.aut.name for r in abelian if not r.trivial}
    assert nontrivial == {
        "LO3|RO3": "S3",
        "LO(2<-3)|RO(2<-3)": "C1",
        "LOB3|ROB3": "C1",
        "LOt0(1<-2)|ROt0(1<-2)": "C1",
        "(LO2|RO2)+0": "C2",
    }
    # same correction as for the bare collapse semigroup: the abelian pair
    # over it admits only the identity, as its orbit of size 6 shows
    pair = DiStructure(left_zero_collapse(2, 3),
                       left_zero_collapse(2, 3).transpose())
    assert dimonoid_profile(pair).abelian
    assert len(automorphisms(pair)) == 1
    assert _labeled_orbit_size(pair) == 6


def test_criterion_5_order3_nonabelian_noncommutative_aut_corrected():
    """At least 26 nonabelian noncommutative classes (exactly 33): 6 trivial
    dual pairs, the 14 named nontrivial classes with their groups, and the
    exact nontrivial count 21; full enumeration < 60 s single-worker."""
    start = time.perf_counter()
    result = enumerate_dimonoids(3)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report = classify(result)
    cell = [r for r in report.rows if not r.abelian and not r.commutative]
    assert len(cell) == 33
    assert len(cell) >= 26
    trivial = [r for r in cell if r.trivial]
    assert len(trivial) == 12
    keys = {r.key: r for r in trivial}
    assert all(keys[r.dual_key] is not r for r in trivial)  # 6 dual pairs
    fourteen = {
        "LO3|O3": "C2", "O3|RO3": "C2",
        "LO3|RO(2<-3)": "C1", "LO(2<-3)|RO3": "C1",
        "LO3|LO(2<-3)": "C1", "RO(2<-3)|RO3": "C1",
        "LO(2<-3)|O3": "C1", "O3|RO(2<-3)": "C1",
        "LOB3|O(3,1)": "C1", "O(3,1)|ROB3": "C1",
        "LOt0(1<-2)|O(3,1)": "C1", "O(3,1)|ROt0(1<-2)": "C1",
        "(LO2|O2)+0": "C1", "(O2|RO2)+0": "C1",
    }
    auts = _aut_names(report)
    for name, aut in fourteen.items():
        assert auts[name] == aut, name
    # the four classes with one collapse coordinate are pinned at C1 the same
    # way as in the semigroup table: orbit sizes over all 52 classes must sum
    # to the labeled count 267
    assert sum(factorial(3) // r.aut.order for r in report.rows) == 267
    for name in ("LO3|RO(2<-3)", "LO(2<-3)|RO3", "LO3|LO(2<-3)", "RO(2<-3)|RO3"):
        row = report.row_by_name(name)
        rep = next(rep for key, rep in class_reps(result) if key.hex == row.key)
        assert len(automorphisms(rep)) == 1
        assert _labeled_orbit_size(rep) == 6
    answer = solve_problem1()
    assert answer.summary["total"] == 21
    assert answer.summary["dual_pairs"] == 10
    assert answer.summary["self_paired"] == 1


def test_criterion_6_order3_doppelsemigroup_commutative_table():
    """The commutative nontrivial subset has exactly 29 classes whose names
    and automorphism groups match the listed table."""
    report = classify_order(3, "doppelsemigroup")
    subset = {r.name: r.aut.name for r in report.rows
              if r.commutative and not r.trivial}
    assert len(subset) == 29
    assert subset == TABLE_ORDER3_DOPPELS


def _is_null(table) -> bool:
    return len(set(table.entries)) == 1


def _right_triples_hit_only(table, z) -> bool:
    n = table.order
    e = table.entries
    return all(e[x * n + e[y * n + w]] == z
               for x in range(n) for y in range(n) for w in range(n))


def _proposition_checks(d: DiStructure):
    lp = semigroup_profile(d.left)
    rp = semigroup_profile(d.right)
    trivial = d.left == d.right
    # a left identity for the left table or a right identity for the right
    # table forces the two tables to coincide
    if lp.left_identities or rp.right_identities:
        assert trivial
    # every left zero of the right table is a left zero of the left table
    assert set(rp.left_zeros) <= set(lp.left_zeros)
    # every right zero of the left table is a right zero of the right table
    assert set(lp.right_zeros) <= set(rp.right_zeros)
    # in the commutative case the two-sided zeros agree
    if lp.commutative and rp.commutative:
        assert lp.zero == rp.zero
    # a right zero left table or a left zero right table forces coincidence
    n = d.order
    if len(lp.right_zeros) == n or len(rp.left_zeros) == n:
        assert trivial


def test_criterion_7_property_suites():
    """Duality involution, abelian = self-dual, one-sided zero and identity
    propositions, right-commutative pair characterization, null-coordinate
    dimonoid criterion, and the automorphism invariances; zero violations."""
    all_reps = []
    for n in (1, 2, 3):
        for result in (enumerate_dimonoids(n), enumerate_doppelsemigroups(n)):
            for _, rep in class_reps(result):
                all_reps.append((result.kind, rep))

    for kind, rep in all_reps:
        # duality is an involution and preserves the axioms
        dd = rep.dual()
        assert dd.dual() == rep
        assert check_structure(dd, kind).ok
        # abelian, self-dual, and transposed-components all coincide
        profile = dimonoid_profile(rep)
        assert profile.abelian == profile.self_dual
        assert profile.abelian == (rep.right == rep.left.transpose())
        # automorphisms of the dual are the same permutation set
        assert {p.images for p in automorphisms(rep)} == \
            {p.images for p in automorphisms(dd)}
        # adjoining a shared zero never changes the automorphism group
        assert len(automorphisms(adjoin_zero_dimonoid(rep))) == \
            len(automorphisms(rep))

    # one-sided zero and identity propositions on every dimonoid class
    for kind, rep in all_reps:
        if kind == "dimonoid":
            _proposition_checks(rep)

    # (t, transpose of t) is a dimonoid exactly when t is right-commutative,
    # over every associative table of orders 2 and 3 and all of order 4
    for n in (2, 3, 4):
        for t in enumerate_associative_tables(n):
            expected = semigroup_profile(t).right_commutative
            assert check_structure(DiStructure(t, t.transpose()), DIMONOID).ok == expected

    # a doppelsemigroup with a null coordinate is a dimonoid exactly when
    # the triple products of the other operation all land on the zero
    null_left = null_right = 0
    for kind, rep in all_reps:
        if kind != "doppelsemigroup":
            continue
        if _is_null(rep.left):
            null_left += 1
            z = rep.left.entries[0]
            assert check_structure(rep, DIMONOID).ok == _right_triples_hit_only(rep.right, z)
        if _is_null(rep.right):
            null_right += 1
            z = rep.right.entries[0]
            assert check_structure(rep, DIMONOID).ok == _right_triples_hit_only(rep.left, z)
    assert null_left >= 10 and null_right >= 10  # the premise is well fed

    # sampled order-4 structures: shared-zero extensions of every order-3
    # class, plus trivial and transposed pairs of sampled associative tables
    rng = random.Random(20260816)
    samples = []
    for kind, rep in all_reps:
        if rep.order == 3 and kind == "dimonoid":
            samples.append(adjoin_zero_dimonoid(rep))
    tables4 = enumerate_associative_tables(4)
    for t in rng.sample(tables4, 120):
        samples.append(DiStructure(t, t))
        if semigroup_profile(t).right_commutative:
            samples.append(DiStructure(t, t.transpose()))
    for d in samples:
        assert d.dual().dual() == d
        profile = dimonoid_profile(d)
        assert profile.abelian == profile.self_dual
        if check_structure(d, DIMONOID).ok:
            _proposition_checks(d)
        assert {p.images for p in automorphisms(d)} == \
            {p.images for p in automorphisms(d.dual())}
        assert len(automorphisms(adjoin_zero_dimonoid(d))) == \
            len(automorphisms(d))


def test_criterion_8_oracle_equivalence():
    """Canonical-key deduplication agrees with pairwise-isomorphism testing
    on all enumerations of order at most 3 and on 500 random order-4 pairs."""
    for n in (1, 2, 3):
        for result in (enumerate_semigroups(n), enumerate_dimonoids(n),
                       enumerate_doppelsemigroups(n)):
            reps = [rep for _, rep in class_reps(result)]
            for i, d1 in enumerate(reps):
                for d2 in reps[i + 1:]:
                    assert are_isomorphic(d1, d2) is None
            # relabeled copies come back to the same class under both oracles
            for rep in reps[::5]:
                p = Permutation(tuple(random.Random(n).sample(range(n), n)))
                other = rep.relabel(p)
                assert are_isomorphic(rep, other) is not None
                assert canonical_form(other).key == canonical_form(rep).key

    rng = random.Random(99)

    def random_pair():
        def table():
            from dimonoids import OpTable
            return OpTable(4, tuple(rng.randrange(4) for _ in range(16)))
        return DiStructure(table(), table())

    perms4 = list(Permutation.all_of_degree(4))
    disagreements = 0
    for i in range(500):
        d1 = random_pair()
        if i % 2 == 0:
            d2 = d1.relabel(rng.choice(perms4))
        else:
            d2 = random_pair()
        by_key = canonical_form(d1).key == canonical_form(d2).key
        by_search = are_isomorphic(d1, d2) is not None
        if by_key != by_search:
            disagreements += 1
    assert disagreements == 0
