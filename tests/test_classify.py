"""Tests for classification reports, display names, and renderers."""
from __future__ import annotations

import csv
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

import dimonoids
from dimonoids import (DiStructure, EnumerationResult, Permutation,
                       automorphisms, canonical_form, classify, classify_order, cyclic,
                       enumerate_dimonoids, enumerate_semigroups, enumerate_structures,
                       identify_group, left_zero, left_zero_collapse, render_report,
                       right_zero, solve_problem1)
from dimonoids import enumeration, iso
from dimonoids.enumeration import ENUM_KINDS
from exhaustive import check_census_classes, check_dual_names, class_reps

# the package's `classify` attribute is the function, which hides the module
classify_module = importlib.import_module("dimonoids.classify")

# automorphism groups of the two-element classes
TABLE_ORDER2 = {
    "C2": "C1", "L2": "C1", "O2": "C1",
    "LO2": "C2", "RO2": "C2",
    "LO2|RO2": "C2", "LO2|O2": "C1", "O2|RO2": "C1",
}

# automorphism groups of the three-element semigroup classes
TABLE_ORDER3_SEMIGROUPS = {
    "C3": "C2", "O3": "C2", "O(3,2)": "C2",
    "M(2,2)": "C1", "C2+1": "C1", "C2~1": "C1", "M(3,1)": "C1",
    "O2+1": "C1", "O2+0": "C1", "L3": "C1", "C2+0": "C1", "O(3,1)": "C1",
    "LO3": "S3", "RO3": "S3",
    "LO2+0": "C2", "RO2+0": "C2", "LO2+1": "C2", "RO2+1": "C2",
    "LOt0(1<-2)": "C1", "ROt0(1<-2)": "C1", "LOB3": "C1", "ROB3": "C1",
    # LO(2<-3) has only the identity automorphism: every automorphism must
    # fix the unique collapse sink 0 and the unique surviving left zero 1
    "LO(2<-3)": "C1", "RO(2<-3)": "C1",
}

# nontrivial three-element dimonoid classes
TABLE_ORDER3_DIMONOIDS = {
    "M(3,1)|O3": "C1", "O3|M(3,1)": "C1",
    "LO3|RO3": "S3", "LO(2<-3)|RO(2<-3)": "C1", "LOB3|ROB3": "C1",
    "LOt0(1<-2)|ROt0(1<-2)": "C1", "(LO2|RO2)+0": "C2",
    "LO3|O3": "C2", "O3|RO3": "C2",
    "LO3|RO(2<-3)": "C1", "LO(2<-3)|RO3": "C1",
    "LO3|LO(2<-3)": "C1", "RO(2<-3)|RO3": "C1",
    "LO(2<-3)|O3": "C1", "O3|RO(2<-3)": "C1",
    "LOB3|O(3,1)": "C1", "O(3,1)|ROB3": "C1",
    "LOt0(1<-2)|O(3,1)": "C1", "O(3,1)|ROt0(1<-2)": "C1",
    "(LO2|O2)+0": "C1", "(O2|RO2)+0": "C1",
    "LOB3|ROt0(1<-2)": "C1", "LOt0(1<-2)|ROB3": "C1",
}

# nontrivial commutative three-element doppelsemigroup classes
TABLE_ORDER3_DOPPELS = {
    "C3|C3^-1": "C1",
    "O3|M(3,1)": "C1", "O3|O2+1": "C1", "O3|O2+0": "C1", "O3|L3": "C1",
    "O3|C2+0": "C1", "O3|O(3,1)": "C1", "O3|O(3,2)": "C2",
    "M(2,2)|C2+1": "C1", "M(2,2)|C2~1": "C1",
    "C2+1|C2~1": "C1", "C2+1|M(2,2)": "C1",
    "C2~1|M(2,2)": "C1", "C2~1|C2+1": "C1",
    "M(3,1)|O2+1": "C1", "M(3,1)|O3": "C1",
    "O2+1|M(3,1)": "C1", "O2+1|O3": "C1",
    "(O2|L2)+0": "C1", "O2+0|O3": "C1", "L3|O3": "C1", "(L2|O2)+0": "C1",
    "(C2|C2^-1)+0": "C1", "C2+0|O3": "C1",
    "O(3,2)|O3": "C2", "O(3,2)|O(3,1)": "C1",
    "O(3,1)a|O(3,1)b": "C1", "O(3,1)|O(3,2)": "C1", "O(3,1)|O3": "C1",
}


def _aut_names(report):
    return {r.name: r.aut.name for r in report.rows}


def test_order2_dimonoid_report():
    report = classify_order(2)
    assert report.summary == {
        "total": 8, "labeled": 13, "trivial": 5, "commutative": 3,
        "abelian": 4, "nonabelian": 4, "nonabelian_dual_pairs": 2,
        "nonabelian_self_paired": 0, "unnamed": 0,
    }
    assert _aut_names(report) == TABLE_ORDER2
    abelian_names = {r.name for r in report.rows if r.abelian}
    assert abelian_names == {"C2", "L2", "O2", "LO2|RO2"}


def test_order2_doppelsemigroup_report():
    report = classify_order(2, "doppelsemigroup")
    assert report.summary["total"] == 8
    assert report.summary["labeled"] == 14
    assert report.summary["unnamed"] == 0
    names = {r.name for r in report.rows}
    assert names == {"C2", "L2", "O2", "LO2", "RO2",
                     "C2|C2^-1", "O2|L2", "L2|O2"}
    row = report.row_by_name("C2|C2^-1")
    assert row.commutative and not row.abelian
    assert row.dual_key == row.key  # commutative nontrivial, yet self-paired


def test_order3_semigroup_report():
    report = classify_order(3, "semigroup")
    assert report.summary["total"] == 24
    assert report.summary["labeled"] == 113
    assert report.summary["commutative"] == 12
    assert report.summary["nonabelian_dual_pairs"] == 6
    assert report.summary["unnamed"] == 0
    assert _aut_names(report) == TABLE_ORDER3_SEMIGROUPS


def test_order3_dimonoid_report():
    report = classify_order(3)
    assert report.summary == {
        "total": 52, "labeled": 267, "trivial": 24, "commutative": 14,
        "abelian": 17, "nonabelian": 35, "nonabelian_dual_pairs": 17,
        "nonabelian_self_paired": 1, "unnamed": 5,
    }
    named = {r.name: r.aut.name for r in report.rows
             if not r.trivial and not r.name.startswith("unnamed-")}
    assert named == TABLE_ORDER3_DIMONOIDS
    trivial = {r.name: r.aut.name for r in report.rows if r.trivial}
    assert trivial == TABLE_ORDER3_SEMIGROUPS
    for r in report.rows:
        if r.name.startswith("unnamed-"):
            assert r.aut.name == "C1"
            assert not r.trivial and not r.commutative and not r.abelian


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("kind", ENUM_KINDS)
def test_names_are_unique_and_dual_consistent(kind, n):
    # the name map's candidate order alone gives named dual partners each other's dual names
    report = classify_order(n, kind)
    assert check_dual_names(report) == len(report.rows) - report.summary["unnamed"]


def test_order3_orbit_sizes_sum_to_labeled_count():
    for kind, labeled in (("semigroup", 113), ("dimonoid", 267),
                          ("doppelsemigroup", 413)):
        report = classify_order(3, kind)
        total = sum(factorial(3) // r.aut.order for r in report.rows)
        assert total == labeled


def test_self_paired_nonabelian_dimonoid_coordinates():
    report = classify_order(3)
    twins = [r for r in report.rows if not r.abelian and r.dual_key == r.key]
    assert len(twins) == 1
    row = twins[0]
    assert row.name.startswith("unnamed-")
    rep = next(rep for key, rep in class_reps(enumerate_dimonoids(3))
               if key.hex == row.key)
    # coordinates are the collapse semigroup and its transpose, like the
    # abelian class named LO(2<-3)|RO(2<-3), but no relabeling transposes
    # one table onto the other
    for t, collapse in ((rep.left, left_zero_collapse(2, 3)),
                        (rep.right, left_zero_collapse(2, 3).transpose())):
        assert canonical_form(DiStructure(t, t)).key == \
            canonical_form(DiStructure(collapse, collapse)).key


def test_order3_doppelsemigroup_report():
    report = classify_order(3, "doppelsemigroup")
    assert report.summary["total"] == 77
    assert report.summary["labeled"] == 413
    assert report.summary["trivial"] == 24
    assert report.summary["commutative"] == 41
    assert report.summary["abelian"] == 12
    assert report.summary["unnamed"] == 0
    comm_nontrivial = {r.name: r.aut.name for r in report.rows
                       if r.commutative and not r.trivial}
    assert comm_nontrivial == TABLE_ORDER3_DOPPELS


def test_problem1_summary():
    report = solve_problem1()
    assert report.summary == {
        "subset": "noncommutative nonabelian nontrivial",
        "total": 21,
        "dual_pairs": 10,
        "self_paired": 1,
        "named": 16,
        "unnamed": 5,
        "nonabelian_noncommutative_total": 33,
        "order_3_dimonoid_classes": 52,
    }
    assert len(report.rows) == 21
    for r in report.rows:
        assert not r.trivial and not r.commutative and not r.abelian


def test_match_names():
    # a structure, relabeled or not, gets the name of the report row keyed by its canonical key
    names = {kind: {r.key: r.name for r in classify_order(3, kind).rows}
             for kind in ("semigroup", "dimonoid")}
    c3, d = DiStructure(cyclic(3), cyclic(3)), DiStructure(left_zero(3), right_zero(3))
    assert names["semigroup"][canonical_form(c3).hex] == "C3"
    assert names["dimonoid"][canonical_form(d).hex] == "LO3|RO3"
    assert names["dimonoid"][canonical_form(d.relabel(Permutation((2, 0, 1)))).hex] == "LO3|RO3"
    assert names["dimonoid"][canonical_form(c3).hex] == "C3"


def test_row_by_name_raises_on_unknown():
    report = classify_order(2)
    with pytest.raises(KeyError):
        report.row_by_name("Q8")


def test_render_markdown():
    report = classify_order(2)
    text = render_report(report)
    assert "LO2\\|RO2" in text  # pipe in names must be escaped in table cells
    assert "| Aut(D) |" in text
    assert "- total: 8" in text
    assert "classes of order 2" in text


def test_render_csv():
    report = classify_order(2)
    rows = list(csv.reader(io.StringIO(render_report(report, "csv"))))
    assert rows[0] == ["key", "name", "trivial", "commutative", "abelian",
                       "aut", "dual_key"]
    assert len(rows) == 9
    by_name = {r[1]: r for r in rows[1:]}
    assert by_name["LO2|RO2"][5] == "C2"
    assert by_name["LO2|RO2"][4] == "1"


def test_render_json():
    report = classify_order(2)
    obj = json.loads(render_report(report, "json"))
    assert obj["schema"] == "dimonoids.report/1"
    assert obj["order"] == 2
    assert len(obj["rows"]) == 8
    assert obj["summary"]["labeled"] == 13
    assert report.to_json() == obj


def test_class_row_json_form_is_pinned():
    row = classify_order(3).row_by_name("LO3|RO3")
    key = "000000010101020202000102000102000102"
    assert row.to_json() == {
        "key": key, "name": "LO3|RO3", "trivial": False, "commutative": False,
        "abelian": True, "dual_key": key,
        "aut": {"order": 6, "name": "S3", "abelian": False,
                "element_orders": [1, 2, 2, 2, 3, 3]}}


def test_render_json_equals_the_compact_dump():
    reports = [classify_order(n, kind) for n in range(1, 5) for kind in ENUM_KINDS]
    reports.append(solve_problem1())
    reports.append(classify_module.ClassificationReport(order=3, kind="dimonoid", rows=(),
                                                        summary={"total": 0}))
    # names that JSON escapes, and a group named other(...)
    other = identify_group(automorphisms(DiStructure(left_zero(4), left_zero(4))))
    c2 = identify_group(automorphisms(DiStructure(left_zero(2), left_zero(2))))
    assert other.name.startswith("other(") and c2.name == "C2"
    names = ['quo"te', "back\\slash", "pi|pe", "n\u00e4me \u2192 \U0001d49f", '"aut": 0, "x},\n{']
    rows = tuple(classify_module.ClassRow(key="00", name=name, trivial=True, commutative=False,
                                          abelian=i % 2 == 0, aut=(other, c2)[i % 2],
                                          dual_key="01")
                 for i, name in enumerate(names))
    reports.append(classify_module.ClassificationReport(
        order=4, kind="dimonoid", rows=rows, summary={"total": 5, 'sub"set': "a\\b|\u00e9"}))
    for report in reports:
        assert render_report(report, "json") == json.dumps(report.to_json(), sort_keys=True) + "\n"


def test_classify_builds_no_per_class_objects(monkeypatch):
    results = {(n, kind): enumerate_structures(n, kind) for n in (3, 4) for kind in ENUM_KINDS}
    reports = {nk: classify(result) for nk, result in results.items()}  # warms the name maps

    def refuse(*args):
        raise AssertionError("classify built a per-class pair, dual or canonical form")

    monkeypatch.setattr(iso, "canonical_form", refuse)
    monkeypatch.setattr(iso, "distructure_from_key", refuse)
    monkeypatch.setattr(DiStructure, "dual", refuse)
    for nk, result in results.items():
        assert classify(result) == reports[nk]


def test_render_unknown_format():
    report = classify_order(2)
    with pytest.raises(ValueError):
        render_report(report, "yaml")


def test_classify_accepts_enumeration_result():
    report = classify(enumerate_semigroups(2))
    assert {r.name for r in report.rows} == {"C2", "L2", "O2", "LO2", "RO2"}
    assert all(r.trivial for r in report.rows)


def test_classify_rejects_inconsistent_census():
    result = enumerate_dimonoids(2)
    with pytest.raises(RuntimeError, match="labeled count"):
        classify(EnumerationResult(result.order, result.kind, result.labeled_count + 1,
                                   result.keys, result.auts))
    report = classify(result)
    nonabelian = next(i for i, r in enumerate(report.rows)
                      if r.dual_key != r.key)
    keys = result.keys[:nonabelian] + result.keys[nonabelian + 1:]
    auts = result.auts[:nonabelian] + result.auts[nonabelian + 1:]
    with pytest.raises(RuntimeError, match="duality"):
        classify(EnumerationResult(result.order, result.kind, result.labeled_count, keys, auts))


@pytest.mark.parametrize("kind, flags", [
    ("dimonoid", {"trivial": 188, "commutative": 101, "abelian": 103, "unnamed": 608}),
    ("doppelsemigroup", {"commutative": 345, "abelian": 62, "unnamed": 943}),
])
def test_order4_flag_counts(kind, flags):
    summary = classify_order(4, kind).summary
    assert {k: summary[k] for k in flags} == flags


@pytest.mark.parametrize("kind", ENUM_KINDS)
def test_census_groups_and_dual_keys_match_the_matcher(kind):
    # reference: the n! permutation matcher, the exhaustive keys and a canonical form of
    # each class's dual
    for n in range(1, 5):
        check_census_classes(enumerate_structures(n, kind))


@pytest.mark.parametrize("kind", ["dimonoid", "doppelsemigroup"])
def test_classify_reads_the_groups_from_the_result(kind, monkeypatch):
    # with the name map built, classify needs neither the kept right tables nor a search
    result = enumerate_structures(4, kind)
    report = classify(result)

    def refuse(*args):
        raise AssertionError("classify searched right tables")

    monkeypatch.setattr(enumeration, "_RIGHT_TABLES", {})
    monkeypatch.setattr(enumeration, "_search", refuse)
    assert classify(result) == report


def test_order_must_not_be_a_bool():
    with pytest.raises(ValueError, match="positive integer, got True"):
        classify_order(True)


def test_classify_runs_without_the_exhaustive_key_or_stabilizer(monkeypatch):
    # the census keys each leader as it is and keeps its group, so the exhaustive
    # references live in tests/exhaustive.py and no package module defines them
    reports = [classify_order(3, kind) for kind in ENUM_KINDS]
    for info in pkgutil.iter_modules(dimonoids.__path__, "dimonoids."):
        module = importlib.import_module(info.name)
        for fn in ("_min_key", "_stabilizer", "_pair_axioms_hold"):
            assert not hasattr(module, fn), f"{info.name} defines {fn}"
    monkeypatch.setattr(enumeration, "_RIGHT_TABLES", {})
    assert [classify_order(3, kind) for kind in ENUM_KINDS] == reports


def test_classify_runs_without_the_matcher(monkeypatch):
    # the census keeps each class's group, so classify runs neither the permutation
    # matcher nor `automorphisms`
    reports = [classify_order(3, kind) for kind in ENUM_KINDS]

    def refuse(*args):
        raise AssertionError("classify ran the permutation matcher or automorphisms")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dimonoids":
            for fn in ("_matches", "automorphisms"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
    assert [classify_order(3, kind) for kind in ENUM_KINDS] == reports


def test_one_dual_canonical_form_per_dual_pair(monkeypatch):
    results = [enumerate_structures(3, kind) for kind in ENUM_KINDS]
    for result in results:
        classify(result)  # fills the cached name maps, which take canonical forms too
    calls = []

    def counted(le, re, n):
        calls.append((le, re))
        return iso._coset_reach(le, re, n)

    monkeypatch.setattr(classify_module, "_coset_reach", counted)
    for result in results:
        calls.clear()
        report = classify(result)
        self_paired = sum(1 for r in report.rows if r.dual_key == r.key)
        assert len(calls) == (len(report.rows) + self_paired) // 2


def test_semigroup_dual_pairs_checked_against_oeis(monkeypatch):
    # OEIS A001423: 24 classes with 12 self-dual make 18 up to anti-isomorphism
    report = classify(enumerate_semigroups(3))
    assert sum(1 for r in report.rows if r.dual_key == r.key) == 12
    monkeypatch.setitem(enumeration._SEMIGROUP_DUAL_CLASSES, 3, 17)
    with pytest.raises(RuntimeError, match="18 up to duality, expected 17"):
        classify(enumerate_semigroups(3))


# counts the full-S_n scans `iso._left_coset` makes, per left table as a tuple
COSET_SCANS = """
import sys
from collections import Counter
from dimonoids import classify_order, iso
scans, least = Counter(), iso._least
def counted(e, perms):
    if perms is iso._perm_data(len(perms[0][0])):
        scans[tuple(e)] += 1
    return least(e, perms)
iso._least = counted
classify_order(4, sys.argv[1])
print(len(scans), max(scans.values()))
"""


@pytest.mark.parametrize("kind", ["dimonoid", "doppelsemigroup"])
def test_cold_classify_scans_each_left_table_once(kind):
    # the census's dual keys arrive as key bytes and the catalog's tables as tuples; one
    # cache entry per table means no table's coset is found twice
    env = {**os.environ, "PYTHONPATH": str(Path(dimonoids.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", COSET_SCANS, kind], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    tables, most = map(int, done.stdout.split())
    assert tables > 100 and most == 1
