"""Independent checks of dimonoids outputs.

Nothing here imports dimonoids: every verdict is recomputed by brute force
over flat row-major tables (entries[x*n + y] == x*y) and all n! relabelings,
or compared with a published constant.
"""
from __future__ import annotations

import csv
import io
import json
from itertools import permutations
from math import factorial

# Class and labeled counts pinned by outside sources: the semigroup rows are
# OEIS A027851 (classes) and A023814 (labeled); orders 3 are the README's
# census; the order-4 pair rows are the brute-force counts in ROADMAP.md.
CENSUS = {
    (3, "semigroup"): {"total": 24, "labeled": 113},
    (3, "dimonoid"): {"total": 52, "labeled": 267},
    (3, "doppelsemigroup"): {"total": 77, "labeled": 413},
    (4, "semigroup"): {"total": 188, "labeled": 3492},
    (4, "dimonoid"): {"total": 734, "labeled": 15277, "trivial": 188,
                      "commutative": 101, "abelian": 103},
    (4, "doppelsemigroup"): {"total": 1217, "labeled": 26028,
                             "commutative": 345, "abelian": 62},
}
PROBLEM1_TOTAL = 21

# Orders of the groups dimonoids names at order <= 3.
GROUP_ORDERS = {"C1": 1, "C2": 2, "C3": 3, "S3": 6}

# (A, B, C, D) in A[B[x][y]][z] == C[x][D[y][z]], with L the left table.
IDENTITIES = {"d1": "LLLR", "d2": "LRRL", "d3": "RLRR", "d4": "RLLR"}


def relabel(t, n, p):
    """Table r with r[p(x)][p(y)] == p(t[x][y])."""
    out = [0] * (n * n)
    for x in range(n):
        for y in range(n):
            out[p[x] * n + p[y]] = p[t[x * n + y]]
    return tuple(out)


def transpose(t, n):
    return tuple(t[y * n + x] for x in range(n) for y in range(n))


def dual(le, re, n):
    return transpose(re, n), transpose(le, n)


def identity_holds(a, b, c, d, n):
    """a[b[x][y]][z] == c[x][d[y][z]] for all x, y, z."""
    return all(a[b[x * n + y] * n + z] == c[x * n + d[y * n + z]]
               for x in range(n) for y in range(n) for z in range(n))


def associative(t, n):
    return identity_holds(t, t, t, t, n)


def axioms(le, re, n):
    """Map axiom name -> holds, for both associativities and d1..d4."""
    tab = {"L": le, "R": re}
    out = {"left_associative": associative(le, n),
           "right_associative": associative(re, n)}
    for name, spec in IDENTITIES.items():
        out[name] = identity_holds(*(tab[c] for c in spec), n)
    return out


def satisfies(le, re, n, kind):
    ax = axioms(le, re, n)
    names = ("d1", "d2", "d3") if kind == "dimonoid" else ("d2", "d4")
    return ax["left_associative"] and ax["right_associative"] and all(ax[a] for a in names)


def flags(le, re, n):
    return {"trivial": le == re,
            "commutative": le == transpose(le, n) and re == transpose(re, n),
            "abelian": le == transpose(re, n)}


def automorphism_count(le, re, n):
    """Number of relabelings fixing both tables."""
    cells = [(x * n + y, x, y) for x in range(n) for y in range(n)]
    return sum(1 for p in permutations(range(n))
               if all(p[t[i]] == t[p[x] * n + p[y]] for t in (le, re) for i, x, y in cells))


def min_key(le, re, n):
    """(lex-least relabeled left+right serialization, |Aut|)."""
    own = tuple(le) + tuple(re)
    best = None
    aut = 0
    for p in permutations(range(n)):
        cand = relabel(le, n, p) + relabel(re, n, p)
        aut += cand == own
        if best is None or cand < best:
            best = cand
    return best, aut


def decode_key(hexkey, n):
    vals = tuple(bytes.fromhex(hexkey))
    if len(vals) != 2 * n * n or any(v >= n for v in vals):
        raise ValueError(f"key {hexkey!r} is not an order-{n} pair")
    return vals[:n * n], vals[n * n:]


def check_rows(rows, n, kind, problems):
    """Recompute every row of a report from its key alone.

    rows: dicts with key, dual_key, trivial, commutative, abelian and aut
    (an order).  Returns the recomputed flag counts and sum of n!/|Aut|.
    """
    keys = [r["key"] for r in rows]
    if len(set(keys)) != len(keys):
        problems.append("duplicate class keys")
    known = set(keys)
    counts = {"trivial": 0, "commutative": 0, "abelian": 0}
    orbit_sum = 0
    for r in rows:
        try:
            le, re = decode_key(r["key"], n)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        if kind == "semigroup":
            ok = le == re and associative(le, n)
        else:
            ok = satisfies(le, re, n, kind)
        if not ok:
            problems.append(f"class {r['key']} fails the {kind} axioms")
        best, aut = min_key(le, re, n)
        if bytes(best).hex() != r["key"]:
            problems.append(f"class {r['key']} is not its lex-least relabeling")
        if aut != r["aut"]:
            problems.append(f"class {r['key']}: |Aut| {r['aut']} != brute force {aut}")
        orbit_sum += factorial(n) // aut
        dl, dr = dual(le, re, n)
        if bytes(min_key(dl, dr, n)[0]).hex() != r["dual_key"]:
            problems.append(f"class {r['key']}: wrong dual key")
        if r["dual_key"] not in known:
            problems.append(f"class {r['key']}: dual class missing")
        for name, value in flags(le, re, n).items():
            if value != r[name]:
                problems.append(f"class {r['key']}: {name} flag wrong")
            counts[name] += value
    return counts, orbit_sum


def check_counts(n, kind, total, labeled, counts, orbit_sum, problems):
    expect = CENSUS[(n, kind)]
    got = dict(counts, total=total, labeled=labeled)
    for name, value in expect.items():
        if got[name] != value:
            problems.append(f"{name} {got[name]} != {value}")
    if orbit_sum != labeled:
        problems.append(f"sum of {n}!/|Aut| is {orbit_sum}, labeled is {labeled}")


def check_report_json(text, n, kind):
    """Problems found in `dimonoids classify --format json` output."""
    problems = []
    report = json.loads(text)
    if (report.get("order"), report.get("kind")) != (n, kind):
        return [f"report is for order {report.get('order')} kind {report.get('kind')}"]
    rows = [dict(r, aut=r["aut"]["order"]) for r in report["rows"]]
    counts, orbit_sum = check_rows(rows, n, kind, problems)
    summary = report["summary"]
    for name, value in dict(counts, total=len(rows)).items():
        if summary.get(name) != value:
            problems.append(f"summary {name} {summary.get(name)} != rows {value}")
    check_counts(n, kind, len(rows), summary.get("labeled"), counts, orbit_sum, problems)
    return problems


def check_report_csv(text, n, kind):
    problems = []
    records = list(csv.DictReader(io.StringIO(text)))
    rows = []
    for rec in records:
        if rec["aut"] not in GROUP_ORDERS:
            problems.append(f"unexpected group {rec['aut']!r} at order {n}")
            continue
        rows.append({"key": rec["key"], "dual_key": rec["dual_key"],
                     "aut": GROUP_ORDERS[rec["aut"]],
                     **{f: rec[f] == "1" for f in ("trivial", "commutative", "abelian")}})
    counts, orbit_sum = check_rows(rows, n, kind, problems)
    # csv carries no labeled count; the orbit sum must equal the constant
    check_counts(n, kind, len(rows), CENSUS[(n, kind)]["labeled"], counts,
                 orbit_sum, problems)
    return problems


def _markdown_summary(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("- ") and ": " in line:
            k, v = line[2:].split(": ", 1)
            out[k] = v
    return out


def _markdown_groups(text):
    groups = []
    for line in text.splitlines():
        if line.startswith("| Aut(D) |"):
            groups += [c.strip() for c in line.split("|")[2:-1]]
    return groups


def check_report_markdown(text, n, kind):
    problems = []
    summary = _markdown_summary(text)
    groups = _markdown_groups(text)
    expect = CENSUS[(n, kind)]
    if summary.get("total") != str(expect["total"]) or len(groups) != expect["total"]:
        problems.append(f"total {summary.get('total')} / {len(groups)} groups, "
                        f"expected {expect['total']}")
    if summary.get("labeled") != str(expect["labeled"]):
        problems.append(f"labeled {summary.get('labeled')} != {expect['labeled']}")
    if any(g not in GROUP_ORDERS for g in groups):
        problems.append("unexpected group name")
    elif sum(factorial(n) // GROUP_ORDERS[g] for g in groups) != expect["labeled"]:
        problems.append("sum of n!/|Aut| differs from the labeled count")
    return problems


def check_problem1(text, fmt):
    """`dimonoids problem1` must report exactly 21 classes."""
    if fmt == "json":
        report = json.loads(text)
        got = (report["summary"]["total"], len(report["rows"]))
        rows = [dict(r, aut=r["aut"]["order"]) for r in report["rows"]]
        bad = [r["key"] for r in rows
               if r["commutative"] or r["abelian"] or r["trivial"]]
    elif fmt == "csv":
        records = list(csv.DictReader(io.StringIO(text)))
        got = (len(records), len(records))
        bad = [r["key"] for r in records
               if "1" in (r["commutative"], r["abelian"], r["trivial"])]
    else:
        first = text.splitlines()[0] if text else ""
        head, _, total = first.rpartition(": ")
        total = int(total) if head.startswith("Noncommutative") and total.isdigit() else -1
        got = (total, len(_markdown_groups(text)))
        bad = []
    problems = []
    if got != (PROBLEM1_TOTAL, PROBLEM1_TOTAL):
        problems.append(f"problem1 reports {got}, expected {PROBLEM1_TOTAL}")
    if bad:
        problems.append(f"problem1 lists excluded classes {bad}")
    return problems


CHECK_REPORT = {"json": check_report_json, "csv": check_report_csv,
                "markdown": check_report_markdown}
