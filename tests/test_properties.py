"""Property tests: duality, canonical forms and the text and JSON codecs on random inputs."""
from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from dimonoids import (DiStructure, OpTable, Permutation, canonical_form,
                       format_distructure, format_table, parse_distructure,
                       parse_table)
from dimonoids.tables import (distructure_from_json, distructure_to_json,
                              table_from_json, table_to_json)

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
def test_table_text_and_json_round_trips(t):
    assert parse_table(format_table(t)) == t
    assert table_from_json(json.loads(json.dumps(table_to_json(t)))) == t


@_SETTINGS
@given(_pairs(6))
def test_pair_text_and_json_round_trips(d):
    assert parse_distructure(format_distructure(d)) == d
    assert distructure_from_json(json.loads(json.dumps(distructure_to_json(d)))) == d
