"""Tests for tables: validation, relabeling, duality, the text codec."""
from __future__ import annotations

import copy
import pickle
import random
from itertools import permutations

import pytest

from dimonoids import (DIMONOID, AxiomVerdict, CanonicalKey, ClassificationReport, ClassRow,
                       DimonoidProfile, DiStructure, EnumerationResult, GroupId,
                       OpTable, OrderMismatchError, Permutation, SemigroupProfile,
                       TableFormatError, apply_permutation, automorphisms,
                       canonical_form, check_structure, classify_order,
                       dimonoid_profile, enumerate_dimonoids, format_distructure,
                       format_table, identify_group, left_zero, parse_structure,
                       parse_table, right_zero, semigroup_profile)
from dimonoids.tables import _blocks, _inverse, _relabeling, _transposed
from exhaustive import relabel_reference


def _random_table(rng, n: int) -> OpTable:
    return OpTable(n, tuple(rng.randrange(n) for _ in range(n * n)))


def test_optable_construction():
    t = OpTable(2, (0, 1, 1, 0))
    assert t.order == 2
    assert t.entries == (0, 1, 1, 0)
    assert t.at(1, 0) == 1
    assert t.rows() == ((0, 1), (1, 0))
    t2 = OpTable.from_function(2, lambda x, y: (x + y) % 2)
    assert t == t2


def test_optable_validation():
    with pytest.raises(ValueError):
        OpTable(2, (0, 1, 2, 0))  # entry out of range
    with pytest.raises(ValueError):
        OpTable(2, (0, 1, 0))  # wrong length
    with pytest.raises(ValueError):
        OpTable(0, ())


def test_optable_refuses_bool_entries():
    # True == 1 and False == 0, so without the check these would equal int tables
    with pytest.raises(ValueError, match="True"):
        OpTable(2, (True, False, False, True))
    with pytest.raises(ValueError, match="order must be a positive integer, got True"):
        OpTable(True, (0,))
    with pytest.raises(ValueError):
        OpTable(2, (0, 1, 1, False))
    with pytest.raises(ValueError):
        OpTable.from_function(2, lambda x, y: x == y)
    with pytest.raises(ValueError):
        OpTable(2, (0.0, 1, 1, 0))
    assert OpTable.from_function(2, lambda x, y: int(x == y)).entries == (1, 0, 0, 1)


def test_transpose():
    t = OpTable(3, (0, 0, 0, 1, 1, 1, 2, 2, 2))
    tt = t.transpose()
    assert tt.rows() == ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    assert tt.transpose() == t
    for x in range(3):
        for y in range(3):
            assert tt.at(x, y) == t.at(y, x)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transposed_keeps_tuples_and_bytes(n):
    # at n = 1 the cached column-major getter must still give a table, not a bare entry
    e = tuple(random.Random(n).choices(range(n), k=n * n))
    expected = tuple(e[y * n + x] for x in range(n) for y in range(n))
    assert _transposed(e, n) == expected
    assert _transposed(bytes(e), n) == bytes(expected)


def test_permutation_basics():
    p = Permutation((1, 2, 0))
    assert p.degree == 3
    assert p(0) == 1 and p(2) == 0
    assert p.inverse().images == (2, 0, 1)
    assert p.inverse().compose(p).images == (0, 1, 2)
    assert Permutation.identity(4).images == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_refuses_bool_images():
    with pytest.raises(ValueError):
        Permutation((True, False))
    with pytest.raises(ValueError):
        Permutation((0, True, 2))


def test_permutation_compose_convention():
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    pq = p.compose(q)
    assert pq.images == (1, 0, 2)
    for x in range(3):
        assert pq(x) == p(q(x))
    with pytest.raises(OrderMismatchError):
        p.compose(Permutation((1, 0)))


def test_all_of_degree_lexicographic():
    perms = list(Permutation.all_of_degree(3))
    assert len(perms) == 6
    assert perms[0].images == (0, 1, 2)
    assert perms[-1].images == (2, 1, 0)
    images = [p.images for p in perms]
    assert images == sorted(images)


def test_apply_permutation_hand_example():
    # t(0,0)=0, t(0,1)=0, t(1,0)=1, t(1,1)=0 relabeled by the swap:
    # t'(p(x), p(y)) = p(t(x, y)) gives rows (1,0),(1,1)
    t = OpTable(2, (0, 0, 1, 0))
    out = apply_permutation(t, Permutation((1, 0)))
    assert out.rows() == ((1, 0), (1, 1))


def test_apply_permutation_cyclic_shift():
    from dimonoids import cyclic, shifted_cyclic
    out = apply_permutation(cyclic(3), Permutation((1, 2, 0)))
    assert out == shifted_cyclic(3, 2)


def test_apply_permutation_properties():
    rng = random.Random(7)
    for n in (2, 3, 4):
        t = _random_table(rng, n)
        ident = Permutation.identity(n)
        assert apply_permutation(t, ident) == t
        perms = list(Permutation.all_of_degree(n))
        p = rng.choice(perms)
        q = rng.choice(perms)
        once = apply_permutation(apply_permutation(t, p), q)
        assert once == apply_permutation(t, q.compose(p))
        assert apply_permutation(apply_permutation(t, p), p.inverse()) == t
    with pytest.raises(OrderMismatchError):
        apply_permutation(_random_table(rng, 3), Permutation((1, 0)))


def test_relabeling_gathers_what_the_scatter_loop_puts():
    rng = random.Random(7)
    perms = [p for n in range(1, 5) for p in permutations(range(n))]
    perms += [tuple(rng.sample(range(n), n)) for n in (5, 6) for _ in range(30)]
    for p in perms:
        images, gather = _relabeling(p)
        assert images == p
        for _ in range(3):
            e = _random_table(rng, len(p)).entries
            assert tuple(p[e[j]] for j in gather) == relabel_reference(e, p)


def test_inverse_composes_to_the_identity():
    for n in range(1, 7):
        for p in permutations(range(n)):
            inv = _inverse(p)
            assert tuple(inv[v] for v in p) == tuple(range(n)) == tuple(p[v] for v in inv)


def test_distructure_basics():
    left = OpTable(2, (0, 0, 1, 1))
    right = OpTable(2, (0, 1, 0, 1))
    d = DiStructure(left, right)
    assert d.order == 2
    with pytest.raises(OrderMismatchError):
        DiStructure(left, OpTable(1, (0,)))


def test_dual_formula_and_involution():
    left = OpTable(2, (0, 0, 1, 1))
    right = OpTable(2, (0, 0, 0, 0))
    d = DiStructure(left, right)
    dd = d.dual()
    n = d.order
    for x in range(n):
        for y in range(n):
            assert dd.left.at(x, y) == right.at(y, x)
            assert dd.right.at(x, y) == left.at(y, x)
    assert dd.dual() == d
    rng = random.Random(11)
    for _ in range(20):
        d = DiStructure(_random_table(rng, 3), _random_table(rng, 3))
        assert d.dual().dual() == d


def test_relabel_matches_apply_permutation():
    rng = random.Random(3)
    d = DiStructure(_random_table(rng, 3), _random_table(rng, 3))
    p = Permutation((2, 0, 1))
    out = d.relabel(p)
    assert out.left == apply_permutation(d.left, p)
    assert out.right == apply_permutation(d.right, p)


def test_format_table():
    t = OpTable(3, (0, 1, 2, 1, 2, 0, 2, 0, 1))
    assert format_table(t) == "0 1 2\n1 2 0\n2 0 1"
    assert str(t) == format_table(t)


def test_parse_table_round_trip():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            t = _random_table(rng, n)
            assert parse_table(format_table(t)) == t


def test_parse_distructure_round_trip():
    rng = random.Random(9)
    for n in (1, 2, 3):
        d = DiStructure(_random_table(rng, n), _random_table(rng, n))
        text = format_distructure(d)
        assert parse_structure(text) == d
        assert str(d) == text


def test_parse_table_tolerates_whitespace():
    assert parse_table("\n  0 1 \n 1 0\n\n") == OpTable(2, (0, 1, 1, 0))


def test_parse_errors_carry_position():
    with pytest.raises(TableFormatError) as exc:
        parse_table("0 1\n1 x")
    assert exc.value.row == 2
    assert exc.value.column == 2
    with pytest.raises(TableFormatError) as exc:
        parse_table("0 1\n1")
    assert exc.value.row == 2
    with pytest.raises(TableFormatError) as exc:
        parse_table("0 2\n1 0")
    assert "outside" in str(exc.value)
    with pytest.raises(TableFormatError, match="expected one table block, found 0"):
        parse_table("")
    with pytest.raises(TableFormatError, match="expected one table block, found 2"):
        parse_table("0 1\n1 0\n\n0 1\n1 0")  # two blocks
    with pytest.raises(TableFormatError, match="expected two table blocks"):
        parse_structure("0\n\n0\n\n0")  # three blocks
    with pytest.raises(TableFormatError):
        parse_structure("0 1\n1 0\n\n0 1 2\n1 2 0\n2 0 1")  # width mismatch


@pytest.mark.parametrize("text, blocks", [
    ("", []),
    (" \n\t\n", []),
    ("\n\n0 1\n1 0\n\n\n", [(["0 1", "1 0"], 3)]),  # leading and trailing blank lines
    ("0\n \t \n1", [(["0"], 1), (["1"], 3)]),  # a whitespace-only separator
    ("0\n\n\n\n1\n", [(["0"], 1), (["1"], 5)]),  # a run of blank lines
    ("0 1\r\n1 0\r\n\r\n1 0\r\n0 1\r\n", [(["0 1", "1 0"], 1), (["1 0", "0 1"], 4)]),
    ("0\t1\n\t1 0\n", [(["0\t1", "\t1 0"], 1)]),  # tabs stay in the lines
])
def test_blocks_group_nonblank_lines_with_their_first_line_number(text, blocks):
    assert _blocks(text) == blocks


def test_parse_error_rows_count_blank_and_whitespace_lines():
    text = "\n \n0 1\r\n1 0\r\n\t\n\n\n0 1\n1 x\n"
    with pytest.raises(TableFormatError) as exc:
        parse_structure(text)
    assert (exc.value.row, exc.value.column) == (9, 2)


def test_parse_structure_detects_shape():
    single = parse_structure("0 0\n1 1")
    assert isinstance(single, OpTable)
    pair = parse_structure("0 0\n1 1\n\n0 1\n0 1")
    assert isinstance(pair, DiStructure)


# a float, a string and a bool, which int() would coerce, and where they sit
BAD_ENTRIES = [((0, 1.9, 1, 0), "1.9"), ((0, 1, 1, "0"), "'0'"), ((0, 1, True, 0), "True")]


def test_from_rows_refuses_non_integers():
    # the constructor refuses them, bools included
    for entries, entry in BAD_ENTRIES:
        with pytest.raises(ValueError) as caught:
            OpTable(2, entries)
        assert str(caught.value) == f"entry {entry} is not an int in 0..1"


# every immutable value type of the package, with its fields in order and a sample
_PAIR = DiStructure(left_zero(2), right_zero(2))
RECORDS = [
    (OpTable, ("order", "entries"), lambda: _PAIR.left),
    (DiStructure, ("left", "right"), lambda: _PAIR),
    (Permutation, ("images",), lambda: Permutation((1, 0))),
    (AxiomVerdict, ("mode", "left_associative", "right_associative", "d1", "d2", "d3",
                    "d4", "witnesses"), lambda: check_structure(_PAIR, DIMONOID)),
    (SemigroupProfile, ("commutative", "band", "semilattice", "right_commutative",
                        "idempotents", "left_identities", "right_identities", "identity",
                        "left_zeros", "right_zeros", "zero", "monogenic"),
     lambda: semigroup_profile(_PAIR.left)),
    (DimonoidProfile, ("trivial", "commutative", "abelian", "self_dual"),
     lambda: dimonoid_profile(_PAIR)),
    (CanonicalKey, ("order", "key", "witness"), lambda: canonical_form(_PAIR)),
    (GroupId, ("order", "name", "abelian", "element_orders"),
     lambda: identify_group(automorphisms(_PAIR))),
    (EnumerationResult, ("order", "kind", "labeled_count", "keys", "auts"),
     lambda: enumerate_dimonoids(2)),
    (ClassRow, ("key", "name", "trivial", "commutative", "abelian", "aut", "dual_key"),
     lambda: classify_order(2, "dimonoid").rows[-1]),
    (ClassificationReport, ("order", "kind", "rows", "summary"),
     lambda: classify_order(2, "dimonoid")),
]


@pytest.mark.parametrize("cls, fields, sample", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, sample):
    x = sample()
    values = tuple(getattr(x, name) for name in fields)
    assert cls(*values) == x == cls(**dict(zip(fields, values)))
    assert repr(x) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in zip(fields, values))})"
    # equal fields are not enough: the class must match too
    twin = type("Twin", (cls,), {})(*values)
    assert x != twin and twin != x and x != values
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x and repr(y) == repr(x)
    try:
        expected = hash(values)
    except TypeError:  # a dict field, as in AxiomVerdict and ClassificationReport
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(copy.copy(x)) == expected
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in fields) == values
    kwargs = dict(zip(fields, values))
    bad_calls = [
        (values[:-1], {}),  # missing
        (values + values[:1], {}),  # surplus
        (values, {fields[0]: values[0]}),  # repeated
        ((), {**kwargs, "extra": None}),  # unknown
        ((), {k: v for k, v in kwargs.items() if k != fields[-1]}),  # missing keyword
    ]
    for args, kw in bad_calls:
        with pytest.raises(TypeError):
            cls(*args, **kw)


def test_record_repr_text():
    key = CanonicalKey(order=2, key=b"\x00", witness=Permutation((1, 0)))
    assert repr(OpTable(2, (0, 1, 1, 0))) == "OpTable(order=2, entries=(0, 1, 1, 0))"
    assert repr(key) == "CanonicalKey(order=2, key=b'\\x00', witness=Permutation(images=(1, 0)))"
