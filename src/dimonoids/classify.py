"""Classification reports, read from the census's key bytes: names, flags, Aut groups, duals."""
from __future__ import annotations

import io
import json
import time
from math import factorial

from .catalog import named_class_map
from .enumeration import (EnumerationResult, SEMIGROUP, _SEMIGROUP_DUAL_CLASSES,
                          enumerate_dimonoids, enumerate_structures)
from .axioms import DIMONOID, _pair_flags
from .iso import GroupId, _coset_reach, identify_group
from .tables import Permutation, Record, _transposed, json_fields, log_info


class ClassRow(Record):
    key: str  # canonical key, hex
    name: str
    trivial: bool
    commutative: bool
    abelian: bool
    aut: GroupId
    dual_key: str

    def __init__(self, key, name, trivial, commutative, abelian, aut, dual_key):
        # the fields in sorted order, the order of the JSON report's keys
        self.__dict__.update(abelian=abelian, aut=aut, commutative=commutative,
                             dual_key=dual_key, key=key, name=name, trivial=trivial)

    to_json = json_fields


class ClassificationReport(Record):
    order: int
    kind: str
    rows: tuple  # of ClassRow, sorted by canonical key
    summary: dict

    def row_by_name(self, name: str) -> ClassRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def to_json(self) -> dict:
        return {"schema": "dimonoids.report/1", **json_fields(self)}


def _check_census(result: EnumerationResult, rows) -> None:
    """Raise RuntimeError unless the class list is consistent with itself.

    The classes must be closed under duality; abelian pairs are table-equal
    to their dual, hence self-paired (the converse fails: a nonabelian class
    can be isomorphic to its dual).  Semigroup classes, counted once per
    dual pair, must match OEIS A001423, an outside count that checks the
    dual keys.  By orbit-stabilizer the orbit sizes
    n!/|Aut(D)| must sum to the labeled count.  The groups travel with the
    result, which sums the labeled count over them, so the sums agree when
    every row names its own key's group; the tests compare the leaders and
    groups with an unpruned search and its stabilizers, the groups with the
    permutation matcher, and the counts with brute force.
    """
    n = result.order
    known = {r.key for r in rows}
    if not all(r.dual_key in known for r in rows):
        raise RuntimeError(f"order-{n} {result.kind} classes not closed under duality")
    if not all(r.dual_key == r.key for r in rows if r.abelian):
        raise RuntimeError(f"order-{n} {result.kind}: an abelian class is not self-paired")
    if result.kind == SEMIGROUP:
        self_dual = sum(1 for r in rows if r.dual_key == r.key)
        if len(rows) + self_dual != 2 * _SEMIGROUP_DUAL_CLASSES[n]:
            raise RuntimeError(f"order-{n} semigroups: {len(rows)} classes with {self_dual} "
                               f"self-dual make {(len(rows) + self_dual) / 2:g} up to duality, "
                               f"expected {_SEMIGROUP_DUAL_CLASSES[n]}")
    orbits = sum(factorial(n) // r.aut.order for r in rows)
    if orbits != result.labeled_count:
        raise RuntimeError(f"order-{n} {result.kind}: class orbit sizes sum to "
                           f"{orbits}, but the labeled count is {result.labeled_count}")


def classify(result: EnumerationResult) -> ClassificationReport:
    """Name, flag, and group every class of an enumeration result, read from its key.

    Each distinct automorphism group is named once, and each dual key is
    found once per dual pair and given to both classes.  The name map, the
    groups, the dual keys and the rows are each logged as a stage.
    """
    n, kind = result.order, result.kind
    nn = n * n
    start = time.perf_counter()
    names = named_class_map(n, kind)[1]
    start = log_info(__name__, start, "order %d: %s name map of %d names", n, kind, len(names))
    groups = {aut: identify_group([Permutation(p) for p, _ in aut])
              for aut in dict.fromkeys(result.auts)}  # Aut(D) -> its GroupId
    start = log_info(__name__, start, "order %d: %d distinct Aut groups named", n, len(groups))
    flags = []
    dual_keys: dict = {}  # key -> dual key, the partner's filled with its own
    le = None
    for key in result.keys:
        if key[:nn] != le:  # sorted keys bring each left table's classes together
            le = key[:nn]
            lt = _transposed(le, n)
        *flag, _, rt = _pair_flags(le, key[nn:], n, lt)
        flags.append(flag)
        if key not in dual_keys:
            dual_key = dual_keys[key] = bytes(_coset_reach(rt, lt, n)[0])
            dual_keys[dual_key] = key
    start = log_info(__name__, start, "order %d: dual keys of %d classes", n, len(flags))
    rows = []
    unnamed_seq = 0
    for key, aut, (trivial, commutative, abelian) in zip(result.keys, result.auts, flags):
        name = names.get(key)
        if name is None:
            unnamed_seq += 1
            name = f"unnamed-{n}-{unnamed_seq}"
        rows.append(ClassRow(key.hex(), name, trivial, commutative, abelian, groups[aut],
                             dual_keys[key].hex()))
    rows = tuple(rows)
    _check_census(result, rows)
    trivial, commutative, abelian = map(sum, zip((0, 0, 0), *flags))  # columns of flags
    nonabelian = len(rows) - abelian
    self_paired = sum(1 for r in rows if not r.abelian and r.dual_key == r.key)
    summary = {"total": len(rows), "labeled": result.labeled_count, "trivial": trivial,
               "commutative": commutative, "abelian": abelian, "nonabelian": nonabelian,
               "nonabelian_dual_pairs": (nonabelian - self_paired) // 2,
               "nonabelian_self_paired": self_paired, "unnamed": unnamed_seq}
    log_info(__name__, start, "order %d: %d %s rows built and checked", n, len(rows), kind)
    return ClassificationReport(order=n, kind=kind, rows=rows, summary=summary)


def classify_order(n: int, kind: str = DIMONOID) -> ClassificationReport:
    return classify(enumerate_structures(n, kind))


def solve_problem1() -> ClassificationReport:
    """Noncommutative nonabelian nontrivial dimonoid classes of order 3.

    The full order-3 enumeration is filtered down to the cell whose exact
    size the classification tables leave open; the summary carries the
    answer as summary["total"].
    """
    full = classify(enumerate_dimonoids(3))
    rows = tuple(r for r in full.rows
                 if not r.commutative and not r.abelian and not r.trivial)
    summary = {
        "subset": "noncommutative nonabelian nontrivial",
        "total": len(rows),
        "dual_pairs": sum(1 for r in rows if r.dual_key > r.key),
        "self_paired": sum(1 for r in rows if r.dual_key == r.key),
        "named": sum(1 for r in rows if not r.name.startswith("unnamed-")),
        "unnamed": sum(1 for r in rows if r.name.startswith("unnamed-")),
        "nonabelian_noncommutative_total": sum(
            1 for r in full.rows if not r.commutative and not r.abelian),
        "order_3_dimonoid_classes": full.summary["total"],
    }
    return ClassificationReport(order=3, kind=DIMONOID, rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# rendering

_MD_COLUMNS = 8


def _md_escape(name: str) -> str:
    return name.replace("|", "\\|")


def render_markdown(report: ClassificationReport) -> str:
    lines = [f"Classification: {report.kind} classes of order {report.order}.", ""]
    for start in range(0, len(report.rows), _MD_COLUMNS):
        chunk = report.rows[start:start + _MD_COLUMNS]
        lines.append("| D | " + " | ".join(_md_escape(r.name) for r in chunk) + " |")
        lines.append("|" + " --- |" * (len(chunk) + 1))
        lines.append("| Aut(D) | " + " | ".join(r.aut.name for r in chunk) + " |")
        lines.append("")
    lines.append("Summary:")
    for k, v in report.summary.items():
        lines.append(f"- {k}: {v}")
    return "\n".join(lines) + "\n"


def render_csv(report: ClassificationReport) -> str:
    import csv  # only here: csv costs every other command its import time

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ClassRow._fields)
    for r in report.rows:
        writer.writerow([r.key, r.name, int(r.trivial), int(r.commutative),
                         int(r.abelian), r.aut.name, r.dual_key])
    return buf.getvalue()


def render_json(report: ClassificationReport) -> str:
    """`json.dumps(report.to_json(), sort_keys=True)` and a newline, from dicts already in
    sorted key order: each row's fields as `ClassRow` keeps them, each distinct group's JSON
    made once, and the report's head (its summary holds no dict), so the C encoder sorts none."""
    distinct = {id(r.aut): r.aut for r in report.rows}  # by identity: a group's hash is slow
    groups = {i: dict(sorted(json_fields(aut).items())) for i, aut in distinct.items()}
    head = ClassificationReport(report.order, report.kind, (),
                                dict(sorted(report.summary.items()))).to_json()
    return json.dumps(dict(sorted({**head, "rows": report.rows}.items())), check_circular=False,
                      default=lambda v: groups[id(v)] if type(v) is GroupId else v.__dict__) + "\n"


_RENDERERS = {"markdown": render_markdown, "csv": render_csv, "json": render_json}


def render_report(report: ClassificationReport, fmt: str = "markdown") -> str:
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(_RENDERERS)}")
    start = time.perf_counter()
    text = renderer(report)
    log_info(__name__, start, "order %d: %s report rendered as %s", report.order, report.kind, fmt)
    return text
