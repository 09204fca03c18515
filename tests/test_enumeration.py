"""Tests for exhaustive enumeration: counts, determinism, output schema."""
from __future__ import annotations

import gc
import json
import multiprocessing
import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import combinations, product
from math import factorial
from pathlib import Path

import pytest

import dimonoids
from dimonoids import (DIMONOID, DOPPELSEMIGROUP, canonical_form, check_structure,
                       enumerate_associative_tables, enumerate_dimonoids,
                       enumerate_doppelsemigroups, enumerate_semigroups,
                       enumerate_structures, is_associative)
from dimonoids import enumeration
from dimonoids.axioms import ASSOCIATIVITY, IDENTITIES, assoc_witness, identity_witness
from dimonoids.doppel import commutant_masks
from dimonoids.enumeration import (_AXIOMS, ENUM_KINDS, _SEMIGROUP_DUAL_CLASSES, _reps,
                                   _search, class_lines)
from dimonoids.iso import _perm_data
from exhaustive import (D1_D4, _min_key, _pair_axioms_hold, _stabilizer, check_burnside,
                        check_d1_decided, check_identity_intersection, check_monoid_variants,
                        check_pool_sizes, check_rep_groups, check_transpose_closure,
                        check_transposed, check_translation_trees, check_translations,
                        class_reps)

KINDS = ("dimonoid", "doppelsemigroup")


@lru_cache(maxsize=None)
def all_tables(n):
    """Flat entries of every labeled associative table, from the unpruned search."""
    return tuple(t.entries for t in enumerate_associative_tables(n))


def orbit_leaders(tables, n):
    """Reference for the leader search: (first table of each S_n-orbit, orbit size).

    Sweeps the sorted tables and collects each unseen table's whole orbit.
    """
    seen = set()
    leaders = []
    for t in tables:
        if t in seen:
            continue
        orbit = {tuple(p[t[i]] for i in gather) for p, gather in _perm_data(n)}
        seen |= orbit
        leaders.append((t, len(orbit)))
    return leaders


def brute_force_pairs(n, kind):
    """Reference census: every labeled left x right pair of associative tables.

    Returns (labeled survivor count, set of canonical key bytes).
    """
    tables = all_tables(n)
    labeled = 0
    keys = set()
    for le in tables:
        for re in tables:
            if not _pair_axioms_hold(le, re, n, kind):
                continue
            labeled += 1
            keys.add(bytes(_min_key(le, re, n)[0]))
    return labeled, keys


def test_labeled_associative_counts():
    assert len(enumerate_associative_tables(1)) == 1
    assert len(enumerate_associative_tables(2)) == 8
    assert len(enumerate_associative_tables(3)) == 113
    assert len(enumerate_associative_tables(4)) == 3492


def test_associative_tables_are_sorted_and_valid():
    tables = enumerate_associative_tables(3)
    entries = [t.entries for t in tables]
    assert entries == sorted(entries)
    assert len(set(entries)) == len(entries)
    for t in tables[:20]:
        assert is_associative(t)[0]


def test_semigroup_class_counts():
    assert enumerate_semigroups(1).class_count == 1
    two = enumerate_semigroups(2)
    assert (two.class_count, two.labeled_count) == (5, 8)
    three = enumerate_semigroups(3)
    assert (three.class_count, three.labeled_count) == (24, 113)
    five = enumerate_semigroups(5)
    assert (five.class_count, five.labeled_count) == (1915, 183732)


def test_dimonoid_class_counts():
    one = enumerate_dimonoids(1)
    assert (one.class_count, one.labeled_count) == (1, 1)
    two = enumerate_dimonoids(2)
    assert (two.class_count, two.labeled_count) == (8, 13)
    three = enumerate_dimonoids(3)
    assert (three.class_count, three.labeled_count) == (52, 267)


def test_doppelsemigroup_class_counts():
    two = enumerate_doppelsemigroups(2)
    assert (two.class_count, two.labeled_count) == (8, 14)
    three = enumerate_doppelsemigroups(3)
    assert (three.class_count, three.labeled_count) == (77, 413)


def test_class_reps_are_canonical_and_sorted():
    # keys minimized over Aut(left rep) only equal the minimum over all n!
    for n in (3, 4):
        for kind in ENUM_KINDS:
            result = enumerate_structures(n, kind)
            keys = [key.key for key, _ in class_reps(result)]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            for key, rep in class_reps(result):
                assert key.witness.images == tuple(range(n))  # reps are already canonical
                assert canonical_form(rep) == key


def test_class_reps_satisfy_their_axioms():
    for key, rep in class_reps(enumerate_dimonoids(3)):
        assert check_structure(rep, DIMONOID).ok
    for key, rep in class_reps(enumerate_doppelsemigroups(3)):
        assert check_structure(rep, DOPPELSEMIGROUP).ok
    for key, rep in class_reps(enumerate_semigroups(3)):
        assert rep.left == rep.right
        assert is_associative(rep.left)[0]


def test_order2_families_overlap_in_trivial_pairs():
    dim = set(enumerate_dimonoids(2).keys)
    dop = set(enumerate_doppelsemigroups(2).keys)
    triv = set(enumerate_semigroups(2).keys)
    assert triv <= dim and triv <= dop
    assert dim & dop == triv
    assert len(dim | dop) == 11


def test_order_gates():
    with pytest.raises(ValueError, match="maximum"):
        enumerate_structures(6, "dimonoid")
    with pytest.raises(ValueError, match="maximum"):
        enumerate_associative_tables(6)
    with pytest.raises(ValueError):
        enumerate_structures(0, "dimonoid")
    with pytest.raises(ValueError):
        enumerate_structures(3, "ring")
    with pytest.raises(ValueError, match="positive integer, got True"):
        enumerate_structures(True, "dimonoid")  # bool is an int subclass
    with pytest.raises(ValueError, match="positive integer, got True"):
        enumerate_associative_tables(True)


def test_summary_schema():
    result = enumerate_dimonoids(2)
    assert result.summary() == {
        "schema": "dimonoids.enumeration/1",
        "order": 2,
        "kind": "dimonoid",
        "labeled": 13,
        "classes": 8,
    }


def test_class_lines_schema():
    result = enumerate_dimonoids(2)
    lines = list(class_lines(result))
    assert len(lines) == 8
    for line, (key, rep) in zip(lines, class_reps(result)):
        obj = json.loads(line)
        assert obj["schema"] == "dimonoids.class/1"
        assert obj["order"] == 2
        assert obj["kind"] == "dimonoid"
        assert obj["key"] == key.hex
        assert obj["left"] == [list(r) for r in rep.left.rows()]
        assert obj["right"] == [list(r) for r in rep.right.rows()]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_left_rep_scan_matches_brute_force(n, kind):
    result = enumerate_structures(n, kind)
    labeled, keys = brute_force_pairs(n, kind)
    assert result.labeled_count == labeled
    assert set(result.keys) == keys


@pytest.mark.parametrize("n, reps, labeled", [(1, 1, 1), (2, 5, 8), (3, 24, 113), (4, 188, 3492)])
def test_left_reps_are_semigroup_classes(n, reps, labeled):
    # OEIS A027851 (classes) and A023814 (labeled)
    lefts = [(t, factorial(n) // len(aut)) for t, aut in _reps(n)]
    assert lefts == orbit_leaders(all_tables(n), n)
    assert len(lefts) == reps
    assert sum(size for _, size in lefts) == labeled


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_left_rep_groups_are_their_stabilizers(n):
    # the search's surviving relabelings, identity first, in `_perm_data` order
    assert check_rep_groups(n) == _reps(n)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_right_table_leaders_and_their_groups(n, kind, monkeypatch):
    # reference: the unpruned search, its right tables grouped into Aut(L)-orbits
    monkeypatch.setattr(enumeration, "_RIGHT_TABLES", {})
    for le, aut in _reps(n):
        leaders = sorted({min(tuple(p[re[j]] for j in g) for p, g in aut)
                          for re, _ in _search(le, n, _AXIOMS[kind])})
        kept = enumeration._right_tables(le, aut, n, kind)
        assert [tuple(re) for re, _ in kept] == leaders
        assert [group for _, group in kept] == [_stabilizer(re, aut) for re in leaders]


def test_left_reps_raise_on_counts_off_oeis(monkeypatch):
    monkeypatch.setitem(enumeration._SEMIGROUP_COUNTS, 2, (5, 9))
    with pytest.raises(RuntimeError, match="expected"):
        _reps.__wrapped__(2)


@pytest.mark.parametrize("kind, labeled, classes",
                         [("dimonoid", 15277, 734), ("doppelsemigroup", 26028, 1217)])
def test_order4_census(kind, labeled, classes):
    result = enumerate_structures(4, kind)
    assert (result.labeled_count, result.class_count) == (labeled, classes)


def test_order3_tables_match_filtering_every_table():
    # all 3^9 tables, in lexicographic order, filtered by the triple checker
    expected = [e for e in product(range(3), repeat=9) if assoc_witness(e, 3) is None]
    assert [t.entries for t in enumerate_associative_tables(3)] == expected


@pytest.mark.parametrize("kind", KINDS)
def test_order4_search_matches_filtering_every_right_table(kind):
    tables = all_tables(4)
    for le, _ in _reps(4)[::10]:
        expected = [re for re in tables if _pair_axioms_hold(le, re, 4, kind)]
        assert [re for re, _ in _search(le, 4, _AXIOMS[kind])] == expected


# every order-2 left table and 20 seeded order-3 ones, associative or not
ARBITRARY_LEFTS = ([(2, le) for le in product(range(2), repeat=4)]
                   + [(3, tuple(random.Random(seed).choices(range(3), k=9)))
                      for seed in range(20)])


# every subset of D1-D4, each with associativity: every kernel `_search` can build, e.g.
# D4 without D2 checks D4 per cell, and D2 with D4 takes the translation trees instead
SUBSETS = [names for size in range(5) for names in combinations(IDENTITIES, size)]
PLAN_IDS = {_AXIOMS[kind]: kind for kind in KINDS} | {D1_D4: "d1-d4"}
LETTERS = (*IDENTITIES.values(), ASSOCIATIVITY)


@lru_cache(maxsize=None)
def broken_identities(n, le):
    """(every order-n table, per table a mask of the LETTERS that le and it break)."""
    tables = list(product(range(n), repeat=n * n))
    return tables, [sum(1 << i for i, letters in enumerate(LETTERS)
                        if identity_witness(letters, le, re, n) is not None) for re in tables]


@pytest.mark.parametrize("identities", [
    pytest.param(plan, id=PLAN_IDS.get(plan, "+".join(names) or "associativity"))
    for names in SUBSETS
    for plan in [tuple(IDENTITIES[name] for name in names) + (ASSOCIATIVITY,)]])
def test_search_matches_filtering_every_right_table_for_arbitrary_left_tables(identities):
    # forced cells, D1's masks and the translation trees must agree with the plain
    # identities even where L breaks them itself, e.g. a value forced outside the values
    # D1 allows a cell is refused; D1-D4 narrows cells by D1 and the trees together
    needed = sum(1 << LETTERS.index(letters) for letters in identities)
    for n, le in ARBITRARY_LEFTS:
        tables, broken = broken_identities(n, le)
        expected = [re for re, mask in zip(tables, broken) if not mask & needed]
        assert [re for re, _ in _search(le, n, identities)] == expected, le


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_translations_match_filtering_every_map(n):
    assert check_translations(n) == len(_reps(n))


# non-associative left tables of orders 4 and 5, where many prefixes have no completion
ARBITRARY_TRANSLATION_LEFTS = [(n, tuple(random.Random(seed).choices(range(n), k=n * n)))
                               for n in (4, 5) for seed in range(10)]


def test_translations_of_arbitrary_left_tables():
    for n, le in ARBITRARY_LEFTS + ARBITRARY_TRANSLATION_LEFTS:
        check_translation_trees(le, n)


def test_commutant_leaves_no_garbage():
    # a reference cycle would keep each call's frames and lists until the cyclic collector ran
    gc.collect()
    gc.disable()
    try:
        assert commutant_masks.__wrapped__(frozenset([(0, 0, 1, 2), (1, 1, 1, 3),
                                                      (0, 1, 2, 3)]), 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transposed_right_tables_equal_a_search(n, monkeypatch):
    # one representative searched per class up to anti-isomorphism (OEIS A001423)
    monkeypatch.setattr(enumeration, "_RIGHT_TABLES", {})
    enumerate_structures(n, "doppelsemigroup")
    searched = _SEMIGROUP_DUAL_CLASSES[n]
    assert check_transposed(n) == (searched, len(_reps(n)) - searched)


@pytest.mark.parametrize("kind, counts", [
    # (⟨σ, τ⟩-orbits, σ-fixed classes, classes whose τ-image lies outside) at n = 1..4
    ("semigroup", ((1, 1, 0), (4, 5, 0), (18, 24, 0), (126, 188, 0))),
    ("dimonoid", ((1, 1, 0), (None, 5, 3), (None, 24, 26), (None, 195, 407))),
    ("doppelsemigroup", ((1, 1, 0), (6, 6, 0), (41, 31, 0), (491, 267, 0))),
])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_closure_under_transposing_and_swapping(n, kind, counts):
    # τ transposes both tables and σ swaps them: doppelsemigroups are closed under both,
    # semigroups too (their orbits are the classes up to duality, OEIS A001423), while
    # dimonoids are closed under στ alone
    assert check_transpose_closure(enumerate_structures(n, kind)) == counts[n - 1]
    if kind == "semigroup":
        assert counts[n - 1][0] == _SEMIGROUP_DUAL_CLASSES[n]


@pytest.mark.parametrize("n, decided", [(1, 1), (2, 3), (3, 12), (4, 80)])
def test_distinct_columns_leave_only_r_equal_l(n, decided):
    assert check_d1_decided(n) == decided


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_pool_sizes_agree(n, kind):
    # A dimonoid representative is searched only if two of its columns are equal (D1
    # decides the others), 108 of 188 at order 4.  A doppelsemigroup representative is
    # searched only if no smaller one is in the class of its transpose: one per class up
    # to anti-isomorphism (OEIS A001423), 126 of 188 at order 4.  With a pool every
    # search runs in a worker process
    searched = {2: 2, 3: 12, 4: 108}[n] if kind == "dimonoid" else _SEMIGROUP_DUAL_CLASSES[n]
    assert [run[3] for run in check_pool_sizes(n, kind, (1, 2, 3))] == [searched, 0, 0]


@pytest.mark.parametrize("kind, n, classes, labeled", [
    ("dimonoid", 1, 1, 1), ("dimonoid", 2, 8, 13), ("dimonoid", 3, 52, 267),
    ("dimonoid", 4, 734, 15277), ("doppelsemigroup", 1, 1, 1), ("doppelsemigroup", 2, 8, 14),
    ("doppelsemigroup", 3, 77, 413), ("doppelsemigroup", 4, 1217, 26028)])
def test_burnside_counts_equal_the_census(kind, n, classes, labeled):
    assert check_burnside(enumerate_structures(n, kind)) == (classes, labeled)


@pytest.mark.parametrize("n, classes, trivial", [(1, 1, 1), (2, 5, 5), (3, 26, 24),
                                                  (4, 327, 188)])
def test_identity_intersection_equals_the_shared_census_keys(n, classes, trivial):
    assert check_identity_intersection(n) == (classes, trivial)


@pytest.mark.parametrize("n, monoids, classes", [(1, 1, 1), (2, 2, 4), (3, 7, 18),
                                                 (4, 35, 121)])
def test_monoid_right_tables_are_the_variants(n, monoids, classes):
    assert check_monoid_variants(n) == (monoids, classes)


# sets the start method, then checks a census with the pool forced against a serial one,
# and prints how many searches the pooled one ran in this process (none) and its count
POOLED_VS_SERIAL = """
import multiprocessing, sys
from exhaustive import check_pool_sizes

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    for kind in ("dimonoid", "doppelsemigroup"):
        pooled, _ = check_pool_sizes(3, kind, (2, 1))
        print(kind, pooled[3], pooled[1])
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_under_start_method(method):
    # spawned workers import dimonoids afresh; the default on macOS and Windows (spawn)
    # and on Linux from Python 3.14 (forkserver)
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not available on this platform")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        (str(Path(dimonoids.__file__).parents[1]), str(Path(__file__).parent)))}
    done = subprocess.run([sys.executable, "-c", POOLED_VS_SERIAL, method], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "dimonoid 0 267\ndoppelsemigroup 0 413\n"


@pytest.mark.parametrize("cpus", [1, 2, 8, 64])
def test_pool_size_rule(cpus, monkeypatch):
    # one worker per 128 semigroup classes, at most one per usable CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert [enumeration._pool_size(n) for n in range(1, 6)] == [1, 1, 1, 1, min(cpus, 14)]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert enumeration._pool_size(5) == min(cpus, 14)
