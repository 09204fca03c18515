"""Property tests: duality, canonical forms and the text codec on random inputs."""
from __future__ import annotations

from hypothesis import given, settings, strategies as st

from dimonoids import (DiStructure, OpTable, Permutation, canonical_form,
                       format_distructure, format_table, parse_structure,
                       parse_table)
from dimonoids.enumeration import _reps
from dimonoids.iso import _coset_reach
from dimonoids.tables import apply_permutation
from exhaustive import _min_key

# derandomized: every run draws the same examples, so a failure always reproduces
_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def _table(n: int):
    return st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(
        lambda entries: OpTable(n, tuple(entries)))


def _pair(n: int):
    return st.builds(DiStructure, _table(n), _table(n))


def _pairs(max_order: int):
    return st.integers(1, max_order).flatmap(_pair)


def _relabeled_pairs(max_order: int):
    """(pair, relabeling of its carrier) of one order."""
    return st.integers(1, max_order).flatmap(
        lambda n: st.tuples(_pair(n), st.permutations(range(n)).map(Permutation)))


@_SETTINGS
@given(_pairs(4))
def test_dual_is_an_involution(d):
    assert d.dual().dual() == d


@_SETTINGS
@given(_relabeled_pairs(5))
def test_canonical_form_is_invariant_under_relabeling(case):
    d, p = case
    assert canonical_form(d.relabel(p)).key == canonical_form(d).key


@_SETTINGS
@given(st.integers(1, 6).flatmap(_table))
def test_table_text_round_trips(t):
    assert parse_table(format_table(t)) == t


@_SETTINGS
@given(_pairs(6))
def test_pair_text_round_trips(d):
    assert parse_structure(format_distructure(d)) == d


def _few_valued_table(n: int):
    """Flat tables of order n with at most two distinct values, so relabelings often tie."""
    return st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True).flatmap(
        lambda values: st.lists(st.sampled_from(values), min_size=n * n, max_size=n * n)
    ).map(tuple)


def _associative_table(n: int):
    """A semigroup class representative of order n, relabeled."""
    return st.tuples(st.sampled_from(_reps(n)), st.permutations(range(n)).map(Permutation)).map(
        lambda case: apply_permutation(OpTable(n, case[0][0]), case[1]).entries)


def _key_case(n: int):
    table = st.one_of(_few_valued_table(n), _associative_table(n))
    return st.tuples(st.just(n), table, table)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(1, 5).flatmap(_key_case))
def test_coset_key_equals_the_exhaustive_key(case):
    # the key and the lex-least witness, against the scan of all n! relabelings of both tables
    n, le, re = case
    best, reach = _coset_reach(le, re, n)
    assert (best, reach[0][0]) == _min_key(le, re, n)
