"""Tests for canonical forms, isomorphism, automorphisms, group naming."""
from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from dimonoids import (DiStructure, OpTable, Permutation, are_isomorphic,
                       automorphisms, canonical_form, cyclic, enumerate_structures,
                       identify_group, left_zero, linear_semilattice,
                       null_semigroup, right_zero, shifted_cyclic)
from dimonoids import iso
from dimonoids.enumeration import ENUM_KINDS
from dimonoids.iso import distructure_from_key
from exhaustive import class_reps, identify_group_reference


def _random_pair(rng, n: int) -> DiStructure:
    def table():
        return OpTable(n, tuple(rng.randrange(n) for _ in range(n * n)))
    return DiStructure(table(), table())


def test_relabelings_are_isomorphic():
    rng = random.Random(1)
    for n in (2, 3, 4):
        d = _random_pair(rng, n)
        for p in Permutation.all_of_degree(n):
            other = d.relabel(p)
            assert are_isomorphic(d, other) is not None
            assert canonical_form(d).key == canonical_form(other).key


def test_iso_witness_is_valid_and_lex_least():
    d1 = DiStructure(cyclic(3), cyclic(3))
    perm = are_isomorphic(d1, d1)
    assert perm.images == (0, 1, 2)  # lex-least automorphism is the identity
    d2 = d1.relabel(Permutation((2, 0, 1)))
    perm = are_isomorphic(d1, d2)
    assert d1.relabel(perm) == d2


def test_not_isomorphic():
    d1 = DiStructure(cyclic(3), cyclic(3))
    d2 = DiStructure(linear_semilattice(3), linear_semilattice(3))
    assert are_isomorphic(d1, d2) is None
    d3 = DiStructure(cyclic(2), cyclic(2))
    assert are_isomorphic(d1, d3) is None  # different orders


def test_left_and_right_zero_are_not_isomorphic():
    # transposed tables need not be isomorphic as single structures
    d1 = DiStructure(left_zero(2), left_zero(2))
    d2 = DiStructure(right_zero(2), right_zero(2))
    assert are_isomorphic(d1, d2) is None
    assert canonical_form(d1).key != canonical_form(d2).key


def test_key_equality_matches_isomorphism():
    rng = random.Random(2)
    pool = [_random_pair(rng, 3) for _ in range(12)]
    pool += [pool[0].relabel(Permutation((1, 2, 0))),
             pool[1].relabel(Permutation((2, 1, 0)))]
    for d1 in pool:
        for d2 in pool:
            same_key = canonical_form(d1).key == canonical_form(d2).key
            assert same_key == (are_isomorphic(d1, d2) is not None)


def test_canonical_representative_idempotent():
    rng = random.Random(3)
    for _ in range(10):
        d = _random_pair(rng, 3)
        rep = d.relabel(canonical_form(d).witness)
        assert are_isomorphic(d, rep) is not None
        assert rep.relabel(canonical_form(rep).witness) == rep
        key = canonical_form(rep)
        assert key.witness.images == (0, 1, 2)
        assert key.key == canonical_form(d).key


def test_canonical_key_fields():
    d = DiStructure(left_zero(2), right_zero(2))
    key = canonical_form(d)
    assert key.order == 2
    assert len(key.key) == 8  # both flat tables
    assert key.hex == key.key.hex()
    assert distructure_from_key(key.key) == d.relabel(key.witness)


def test_census_key_bytes_decode_to_their_pairs():
    # a key's order is read from its length, 2n²
    for n in (1, 2, 3):
        for kind in ENUM_KINDS:
            for key in enumerate_structures(n, kind).keys:
                assert canonical_form(distructure_from_key(key)).key == key
    with pytest.raises(ValueError, match="2n² bytes"):
        distructure_from_key(bytes(7))


def test_automorphisms_form_a_group():
    rng = random.Random(4)
    for _ in range(8):
        d = _random_pair(rng, 3)
        auts = automorphisms(d)
        images = {p.images for p in auts}
        assert (0, 1, 2) in images
        for p in auts:
            assert p.inverse().images in images
            for q in auts:
                assert p.compose(q).images in images
        identify_group(auts)  # must not raise


def test_automorphisms_known_groups():
    auts = automorphisms(DiStructure(left_zero(3), left_zero(3)))
    assert identify_group(auts).name == "S3"
    auts = automorphisms(DiStructure(cyclic(3), cyclic(3)))
    group = identify_group(auts)
    assert group.name == "C2"
    assert {p.images for p in auts} == {(0, 1, 2), (0, 2, 1)}
    auts = automorphisms(DiStructure(cyclic(4), cyclic(4)))
    assert identify_group(auts).name == "C2"
    auts = automorphisms(DiStructure(cyclic(5), cyclic(5)))
    assert identify_group(auts).name == "C4"
    auts = automorphisms(DiStructure(null_semigroup(3), null_semigroup(3)))
    assert identify_group(auts).name == "C2"  # may permute the two nonzero elements


def test_automorphisms_of_pair_refine_components():
    d = DiStructure(left_zero(3), null_semigroup(3))
    pair_auts = {p.images for p in automorphisms(d)}
    left_auts = {p.images for p in automorphisms(DiStructure(d.left, d.left))}
    right_auts = {p.images for p in automorphisms(DiStructure(d.right, d.right))}
    assert pair_auts == left_auts & right_auts


def test_automorphisms_equal_the_matcher():
    # reference: the n! permutation matcher, in its lexicographic order; the named
    # families reach S5 and S6, and the relabeled census pairs have a first witness
    # p0 other than the identity, where p0⁻¹ ∘ p and p ∘ p0⁻¹ differ
    pairs = [DiStructure(t, t) for n in range(2, 7)
             for t in (null_semigroup(n), left_zero(n), right_zero(n), cyclic(n),
                       linear_semilattice(n))]
    rng = random.Random(19)
    for kind in ("dimonoid", "doppelsemigroup"):
        for n in range(1, 5):
            for _, rep in class_reps(enumerate_structures(n, kind)):
                pairs.append(rep.relabel(Permutation(rng.sample(range(n), n))))
    for d in pairs:
        assert automorphisms(d) == tuple(iso._matches(d, d))


def test_left_coset_streams_the_relabelings_above_order_6():
    # above order 6 the scan reads each relabeling once and caches no table of all n!,
    # and finds what the scan over that table finds
    rng = random.Random(35)
    tables = [null_semigroup(7).entries, left_zero(7).entries,
              tuple(rng.randrange(7) for _ in range(49))]
    iso._perm_data.cache_clear()
    iso._left_coset.cache_clear()
    streamed = [iso._left_coset(le, 7) for le in tables]
    assert iso._perm_data.cache_info().currsize == 0
    for le, (best, coset) in zip(tables, streamed):
        assert (best, list(coset)) == iso._least(le, iso._perm_data(7))
    assert [len(coset) for _, coset in streamed] == [720, 5040, 1]


def test_public_entry_points_refuse_orders_above_8():
    d = DiStructure(null_semigroup(9), null_semigroup(9))
    for entry in (canonical_form, automorphisms, lambda d: are_isomorphic(d, d)):
        with pytest.raises(ValueError, match="cap of 8"):
            entry(d)


def test_identify_group_on_explicit_sets():
    def group_of(images_list):
        return identify_group([Permutation(im) for im in images_list])

    assert group_of([(0, 1)]).name == "C1"
    assert group_of([(0, 1), (1, 0)]).name == "C2"
    assert group_of([(0, 1, 2), (1, 2, 0), (2, 0, 1)]).name == "C3"
    rot4 = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    assert group_of(rot4).name == "C4"
    v4 = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    assert group_of(v4).name == "V4"
    rot5 = [tuple((i + k) % 5 for i in range(5)) for k in range(5)]
    assert group_of(rot5).name == "C5"
    rot6 = [tuple((i + k) % 6 for i in range(6)) for k in range(6)]
    assert group_of(rot6).name == "C6"
    s3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    g = group_of(s3)
    assert g.name == "S3"
    assert not g.abelian
    assert g.element_orders == (1, 2, 2, 2, 3, 3)
    rot8 = [tuple((i + k) % 8 for i in range(8)) for k in range(8)]
    assert group_of(rot8).name.startswith("other(8,abelian")


def test_identify_group_rejects_non_groups():
    with pytest.raises(ValueError):
        identify_group([])
    with pytest.raises(ValueError):
        identify_group([Permutation((1, 0, 2))])  # identity missing
    with pytest.raises(ValueError):
        identify_group([Permutation((0, 1, 2)), Permutation((1, 2, 0))])  # not closed
    with pytest.raises(ValueError):
        identify_group([Permutation((0, 1)), Permutation((0, 1, 2))])  # mixed degree


def test_canonical_key_smaller_relabeling_wins():
    # the canonical representative serialization is minimal over all relabelings
    rng = random.Random(6)
    for _ in range(5):
        d = _random_pair(rng, 3)
        key = canonical_form(d).key
        for p in Permutation.all_of_degree(3):
            rel = d.relabel(p)
            serial = bytes(rel.left.entries + rel.right.entries)
            assert key <= serial


def test_shifted_cyclic_is_isomorphic_to_cyclic():
    d1 = DiStructure(cyclic(3), cyclic(3))
    d2 = DiStructure(shifted_cyclic(3, 1), shifted_cyclic(3, 1))
    assert are_isomorphic(d1, d2) is not None


def _assert_matches_reference(perms):
    """identify_group equals the reference, or both raise ValueError."""
    try:
        expected = identify_group_reference(perms)
    except ValueError:
        with pytest.raises(ValueError):
            identify_group(perms)
    else:
        assert identify_group(perms) == expected


def _generated(gens):
    """The group the images in gens generate, by repeated multiplication."""
    ident = tuple(range(len(gens[0])))
    group = {ident}
    frontier = [ident]
    while frontier:
        new = {tuple(a[v] for v in g) for a in frontier for g in gens} - group
        group |= new
        frontier = list(new)
    return [Permutation(im) for im in sorted(group)]


def test_group_name_table_names_each_group_of_order_at_most_6():
    groups = {f"C{n}": [tuple(range(1, n)) + (0,)] for n in range(1, 7)}  # an n-cycle
    groups["V4"] = [(1, 0, 2, 3), (0, 1, 3, 2)]
    groups["S3"] = [(1, 0, 2), (1, 2, 0)]
    assert sorted(iso._GROUP_NAMES.values()) == sorted(groups)
    for name, gens in groups.items():
        group = identify_group(_generated(gens))
        assert group.name == name
        assert iso._GROUP_NAMES[group.element_orders] == name


@pytest.mark.parametrize("kind", ["semigroup", "dimonoid", "doppelsemigroup"])
def test_identify_group_matches_reference_on_class_aut_groups(kind):
    for n in (1, 2, 3, 4):
        for _, rep in class_reps(enumerate_structures(n, kind)):
            _assert_matches_reference(automorphisms(rep))


def test_identify_group_matches_reference_on_every_subset_of_s3():
    s3 = [Permutation(p) for p in permutations(range(3))]
    for size in range(len(s3) + 1):
        for subset in combinations(s3, size):
            _assert_matches_reference(subset)


def test_identify_group_matches_reference_on_two_generator_subgroups_of_s4():
    s4 = list(permutations(range(4)))
    groups = {tuple(p.images for p in _generated([a, b])) for a in s4 for b in s4}
    assert len(groups) == 30  # every subgroup of S4 is generated by two elements
    for group in groups:
        _assert_matches_reference([Permutation(im) for im in group])


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
def test_identify_group_matches_reference_on_random_subgroups(gens):
    _assert_matches_reference(_generated([tuple(g) for g in gens]))


def test_identify_group_matches_reference_on_unions_and_deletions():
    # a union of two subgroups holds the identity and all inverses, so only the closure
    # check can refuse it; a group less or plus one element fails it or the inverse check
    rng = random.Random(24)
    for _ in range(80):
        n = rng.randint(3, 5)
        h, k = ([tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 2))]
                for _ in range(2))
        h, k = _generated(h), _generated(k)
        _assert_matches_reference(h)
        _assert_matches_reference(sorted(set(h) | set(k), key=lambda p: p.images))
        if len(h) > 1:
            _assert_matches_reference(h[:1] + rng.sample(h[1:], len(h) - 2))
        outside = Permutation(tuple(rng.sample(range(n), n)))
        if outside not in h:
            _assert_matches_reference(h + [outside])


def test_identify_group_names_the_full_symmetric_group_of_degree_7():
    group = identify_group([Permutation(p) for p in permutations(range(7))])
    assert group.order == 5040
    assert not group.abelian
