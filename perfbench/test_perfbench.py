"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`.

They run every workload in smoke size, check that the metric names match
BENCHMARK.json, and feed each oracle wrong answers that it must reject.
"""
from __future__ import annotations

import json
import sys
from itertools import permutations
from pathlib import Path

import pytest

import oracle
import queries
import run
import tracer

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    record, result = run.run(workload, seed=7, seconds=0, trace=trace, smoke=True)
    assert result["failed"] == 0, record["info"]
    assert result["attempted"] >= 1
    want = {m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == want
    assert record["src_sha256"] and record["nproc"] >= 1
    if trace:
        spans = tracer.read_spans(run.ROOT / record["info"]["spans"])
        assert len(spans) == result["metrics"]["trace.spans"]


def test_units_in_benchmark_json_match_the_output():
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]


def test_query_times_take_the_factor_of_the_samples_around_them():
    res = {"latencies": [1.0, 1.0, 1.0], "loop_s": 3.0, "setup_s": 2.0,
           "stops": [[0, 0.0], [2, 2.0]]}
    # before start, at the stop after set-up, at the stop after two requests, after exit
    speeds = [1.0, 1.0, 2.0, 4.0]
    latencies, busy_s, setup_s = run.at_nominal_speed(res, speeds)
    assert latencies == [1.5, 1.5, 3.0]
    assert busy_s == 6.0 and setup_s == 2.0
    with pytest.raises(run.BenchError):
        run.at_nominal_speed(res, speeds[:-1])


def test_tail_is_capped_at_p98_and_needs_ten_samples_beyond():
    assert run.tail(list(range(1, 201))) == ("p95", 190)
    assert run.tail(list(range(1, 501))) == ("p98", 490)
    assert run.tail(list(range(1, 5001)))[0] == "p98"
    assert run.tail(list(range(1, 101))) == ("p90", 90)
    assert run.tail(list(range(1, 40))) == ("p50", 20)
    assert run.tail([3.0, 1.0, 2.0]) == ("p50", 2.0)


# ---------------------------------------------------------------------------
# oracles reject wrong answers

def _report(kind, fmt):
    from dimonoids import classify_order, render_report
    return render_report(classify_order(3, kind), fmt)


def test_report_oracles_accept_the_program_and_reject_corruptions():
    for kind in queries.KINDS:
        for fmt, check in oracle.CHECK_REPORT.items():
            assert check(_report(kind, fmt), 3, kind) == [], (kind, fmt)
    good = json.loads(_report("dimonoid", "json"))

    def corrupt(edit):
        report = json.loads(json.dumps(good))
        edit(report)
        return oracle.check_report_json(json.dumps(report), 3, "dimonoid")

    assert corrupt(lambda r: r["summary"].update(labeled=268))
    assert corrupt(lambda r: r["rows"].pop())
    assert corrupt(lambda r: r["rows"][5].update(commutative=not r["rows"][5]["commutative"]))
    assert corrupt(lambda r: r["rows"][0]["aut"].update(order=5))
    assert corrupt(lambda r: r["rows"][1].update(dual_key=r["rows"][2]["key"]))
    assert corrupt(lambda r: r["rows"][3].update(key=r["rows"][3]["key"][::-1]))
    csv_text = _report("doppelsemigroup", "csv")
    assert oracle.check_report_csv(csv_text.replace(",S3,", ",C2,", 1), 3, "doppelsemigroup")
    md = _report("semigroup", "markdown")
    assert oracle.check_report_markdown(md.replace("- total: 24", "- total: 25"), 3,
                                        "semigroup")


def test_problem1_oracle_needs_exactly_21(tmp_path):
    from dimonoids import cli
    out = tmp_path / "p1.txt"
    texts = {}
    for fmt in queries.FORMATS:
        assert cli.main(["problem1", "--format", fmt, "--out", str(out)]) == 0
        texts[fmt] = out.read_text(encoding="utf-8")
        assert oracle.check_problem1(texts[fmt], fmt) == []
    assert oracle.check_problem1(texts["markdown"].replace(": 21", ": 20", 1), "markdown")
    bad = json.loads(texts["json"])
    bad["rows"].pop()
    assert oracle.check_problem1(json.dumps(bad), "json")


def test_query_oracles_reject_wrong_answers(tmp_path):
    items = queries.Requests(seed=3, workdir=str(tmp_path), smoke=True).items

    def first(cmd, cond=lambda r: True):
        return next(r for r in items if r["cmd"] == cmd and cond(r))

    rigid = first("iso", lambda r: r["iso"] and r["witness"])
    wrong = next(p for p in permutations(range(rigid["n"])) if p != rigid["witness"])
    assert queries.check_iso(rigid, 0, "isomorphic via " + " ".join(map(str, wrong)))
    assert queries.check_iso(first("iso", lambda r: not r["iso"]), 0, "isomorphic via 0 1 2")
    aut = first("aut", lambda r: r["aut"] > 1)
    identity = " ".join(map(str, range(aut["n"])))
    assert queries.check_aut(aut, 0, f"{identity}\ngroup: C1 (order 1)\ncanonical key: 00\n", {})
    dual = first("dual", lambda r: r["right"] is not None
                 and (r["left"], r["right"]) != oracle.dual(r["left"], r["right"], r["n"]))
    assert queries.check_dual(dual, 0, queries.text_of(dual["left"], dual["right"], dual["n"]))
    check = first("check", lambda r: r["right"] is not None)
    holds = oracle.satisfies(check["left"], check["right"], check["n"], check["kind"])
    lie = "dimonoid: {0}\ndoppelsemigroup: {0}\n".format("no" if holds else "yes")
    assert queries.check_check(dict(check, json=False), 1 if holds else 0, lie)
    build = first("build", lambda r: r["name"] == "C3")
    assert queries.check_build(build, 0, "0 0 0\n0 0 0\n0 0 0\n")


def test_tracer_restores_functions_and_nests_spans():
    from dimonoids import cli, iso
    original = iso.canonical_form
    t = tracer.Tracer()
    t.install()
    try:
        t.request = "r"
        assert cli.main(["classify", "--order", "2", "--format", "csv",
                         "--out", str(Path(run.OUT, "test-trace.csv"))]) == 0
    finally:
        t.uninstall()
    assert iso.canonical_form is original
    names = [s[0] for s in t.spans]
    assert names[0] == "cli.main" and "classify.classify" in names
    assert all(s[3] < i for i, s in enumerate(t.spans))  # parents open first
    metrics = tracer.summarize(t.spans, tracer.facts_for(t.spans), {"r": 1.0})
    assert metrics["enumeration.classes"] == 8
    assert metrics["trace.spans"] == len(t.spans)
