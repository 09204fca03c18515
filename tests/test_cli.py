"""End-to-end tests for the command line interface, run in process."""
from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cli_manifest
import dimonoids
from dimonoids import (DiStructure, format_distructure, format_table, left_zero,
                       null_semigroup, right_zero)
from dimonoids.cli import main

C3 = "0 1 2\n1 2 0\n2 0 1\n"
NOR = "1 0\n0 0\n"
LO3_RO3 = "0 0 0\n1 1 1\n2 2 2\n\n0 1 2\n0 1 2\n0 1 2\n"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _python(code, *argv, timeout=20):
    """Run code in a fresh interpreter; a hang fails the test instead of stalling the run."""
    env = {**os.environ, "PYTHONPATH": str(Path(dimonoids.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=timeout, env=env)


CLI = "import sys; from dimonoids.cli import main; sys.exit(main(sys.argv[1:]))"


def test_check_semigroup(tmp_path, capsys):
    f = _write(tmp_path / "c3.txt", C3)
    assert main(["check", f]) == 0
    out = capsys.readouterr().out
    assert "associative: yes" in out
    assert "monogenic: (1, 3)" in out
    assert "identity: 0" in out


def test_check_nonassociative(tmp_path, capsys):
    f = _write(tmp_path / "nor.txt", NOR)
    assert main(["check", f]) == 1
    out = capsys.readouterr().out
    assert "associative: no" in out
    assert "witness: (0, 0, 1)" in out


def test_check_pair_verdicts(tmp_path, capsys):
    f = _write(tmp_path / "pair.txt", LO3_RO3)
    assert main(["check", f]) == 0
    out = capsys.readouterr().out
    assert "dimonoid: yes" in out
    assert "doppelsemigroup: no" in out
    assert "d4 fails at (x, y, z) = (0, 0, 1)" in out
    assert "abelian: yes" in out
    assert main(["check", f, "--kind", "doppelsemigroup"]) == 1


def test_check_json_output(tmp_path, capsys):
    f = _write(tmp_path / "pair.txt", LO3_RO3)
    assert main(["check", f, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile"]["abelian"] is True
    assert payload["verdicts"]["dimonoid"]["ok"] is True
    assert payload["verdicts"]["doppelsemigroup"]["witnesses"]["d4"] == [0, 0, 1]


def test_check_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(C3))
    assert main(["check", "-"]) == 0
    assert "associative: yes" in capsys.readouterr().out


def test_check_malformed_table(tmp_path, capsys):
    f = _write(tmp_path / "bad.txt", "0 2\n1 0\n")
    assert main(["check", f]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "row" in err


def test_catalog_build_semigroup(capsys):
    assert main(["catalog", "build", "C3"]) == 0
    assert capsys.readouterr().out == C3


def test_catalog_build_pair(capsys):
    assert main(["catalog", "build", "LO3|RO3"]) == 0
    assert capsys.readouterr().out == LO3_RO3


def test_catalog_build_unknown_name(capsys):
    assert main(["catalog", "build", "Q8"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name, unknown", cli_manifest.MALFORMED_WRAPPED_NAMES.items())
def test_catalog_build_malformed_wrapped_names(capsys, name, unknown):
    assert main(["catalog", "build", name]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown semigroup name {unknown!r}\n"
    assert captured.out == ""


def test_catalog_build_kind_mismatch(capsys):
    assert main(["catalog", "build", "C3|C3^-1", "--kind", "dimonoid"]) == 2
    assert "error:" in capsys.readouterr().err


def test_catalog_build_pair_name_needs_a_pair_kind(capsys):
    assert main(["catalog", "build", "LO3|RO3", "--kind", "semigroup"]) == 2
    err = capsys.readouterr().err
    assert "needs kind dimonoid, doppelsemigroup or any, got 'semigroup'" in err


def test_catalog_above_the_supported_order_answers_at_once():
    done = _python(CLI, "catalog", "list", "--order", "6", "--kind", "dimonoid")
    assert done.returncode == 2
    assert "exceeds the supported maximum" in done.stderr
    # above the supported orders a pair name is resolved by relabeling alone
    done = _python(CLI, "catalog", "build", "LO6|RO6")
    assert done.returncode == 0
    assert done.stdout == format_distructure(DiStructure(left_zero(6), right_zero(6))) + "\n"


def test_catalog_build_caps_the_relabeling_search():
    # above order 7 a left|right name would need n! relabelings, so it is refused at once
    done = _python(CLI, "catalog", "build", "LO9|O9", "--kind", "dimonoid", timeout=20)
    assert done.returncode == 2
    assert "order 9" in done.stderr and "order 7" in done.stderr


@pytest.mark.parametrize("name", ["dual(" * 1200 + "O2" + ")" * 1200, "O2" + "+0" * 1200,
                                  "O2000+1"], ids=["nested-duals", "suffix-chain", "order-2001"])
def test_catalog_build_refuses_names_past_the_caps(name):
    # too deep for the recursion limit, too many suffixes, and an O(n³) check at order 2001
    done = _python(CLI, "catalog", "build", name)
    assert done.returncode == 2
    assert "capped at" in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("order, message", [("0", "must be >= 1"), ("8", "exceeds 7")])
def test_catalog_list_order_out_of_range(capsys, order, message):
    for kind in ("semigroup", "any"):
        assert main(["catalog", "list", "--order", order, "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


def test_import_loads_no_pool_dataclasses_or_csv():
    # the pool is imported only when a command runs with more than one worker, csv only
    # by the csv renderer; dataclasses (with inspect, ast and dis) is not used at all
    done = _python("import sys, dimonoids.cli; "
                   "print([m for m in ('multiprocessing', 'concurrent.futures.process', "
                   "'dataclasses', 'inspect', 'ast', 'dis', 'csv') if m in sys.modules])")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# the public names of `import dimonoids` besides its modules: adding a name to the package,
# or taking one away, means editing this list
PUBLIC_NAMES = [
    "AxiomVerdict", "CanonicalKey", "ClassRow", "ClassificationReport", "DIMONOID",
    "DOPPELSEMIGROUP", "DiStructure", "DimonoidProfile", "EnumerationResult", "GroupId",
    "NotAssociativeError", "OpTable", "OrderMismatchError", "ParameterError", "Permutation",
    "SEMIGROUP", "SemigroupProfile", "TableFormatError", "adjoin_identity", "adjoin_tilde1",
    "adjoin_zero", "adjoin_zero_dimonoid", "apply_permutation", "are_isomorphic",
    "automorphisms", "build_semigroup", "build_structure", "canonical_form",
    "check_structure", "classify", "classify_order", "cyclic", "derive_semigroup",
    "dimonoid_profile", "dual_dimonoid", "dual_table", "enumerate_associative_tables",
    "enumerate_dimonoids", "enumerate_doppelsemigroups", "enumerate_semigroups",
    "enumerate_structures", "format_distructure", "format_table", "idempotent_diagonal",
    "identify_group", "is_associative", "left_zero", "left_zero_band", "left_zero_collapse",
    "linear_semilattice", "masked_left_zero", "monogenic", "named_class_map",
    "named_semigroups", "named_structures", "null_semigroup", "parse_structure",
    "parse_table", "render_report", "right_zero", "semigroup_dual_name", "semigroup_profile",
    "shifted_cyclic", "solve_problem1", "structure_dual_name", "trivial_dimonoid"]


def test_public_names_are_pinned():
    assert sorted(name for name, value in vars(dimonoids).items() if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)) == PUBLIC_NAMES


def test_classify_without_verbose_leaves_logging_unloaded():
    # nothing is logged without -v, so the command never needs the logging package
    done = _python("import io, sys, contextlib; from dimonoids.cli import main\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    main(['classify', '--order', '3'])\n"
                   "print('logging' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_verbose_logs_each_stage():
    done = _python(CLI, "-v", "classify", "--order", "3", "--kind", "dimonoid")
    assert done.returncode == 0, done.stderr
    assert [line.rsplit(" in ", 1)[0] for line in done.stderr.splitlines()] == [
        "INFO order 3: 24 semigroup classes (113 tables)",
        "INFO order 3: dimonoid pair search found 267 labeled",
        "INFO order 3: 52 dimonoid classes keyed",
        # the catalog's order-2 tier expands the leaders of the order-2 representatives
        "INFO order 2: 5 semigroup classes (8 tables)",
        "INFO order 3: 52 dimonoid classes classified"]


def test_catalog_list(capsys):
    assert main(["catalog", "list", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "# C2" in out and "# RO2" in out


def test_catalog_list_pairs(capsys):
    assert main(["catalog", "list", "--order", "2", "--kind", "dimonoid"]) == 0
    assert "# LO2|RO2" in capsys.readouterr().out


def test_iso_verdicts(tmp_path, capsys):
    f1 = _write(tmp_path / "a.txt", "0 0 0\n1 1 1\n0 0 0\n")
    f2 = _write(tmp_path / "b.txt", "0 0 0\n0 0 0\n2 2 2\n")  # relabeled copy
    f3 = _write(tmp_path / "c.txt", C3)
    assert main(["iso", f1, f2]) == 0
    out = capsys.readouterr().out
    assert out.startswith("isomorphic via ")
    assert main(["iso", f1, f3]) == 1
    assert "not isomorphic" in capsys.readouterr().out
    f4 = _write(tmp_path / "d.txt", "0 0\n1 1\n")
    assert main(["iso", f1, f4]) == 1
    assert "different orders" in capsys.readouterr().out


def test_aut(tmp_path, capsys):
    f = _write(tmp_path / "lo3.txt", "0 0 0\n1 1 1\n2 2 2\n")
    assert main(["aut", f]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "group: S3 (order 6)" in out
    assert sum(1 for line in out if line[0].isdigit()) == 6
    assert any(line.startswith("canonical key: ") for line in out)


def test_aut_of_a_pair_with_the_full_symmetric_group_of_degree_7(tmp_path):
    f = _write(tmp_path / "lo7ro7.txt",
               format_distructure(DiStructure(left_zero(7), right_zero(7))) + "\n")
    done = _python(CLI, "aut", f, timeout=30)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sum(1 for line in lines if line[0].isdigit()) == 5040
    assert any(line.startswith("group: ") and line.endswith("(order 5040)") for line in lines)


def test_aut_and_iso_refuse_orders_above_8(tmp_path, capsys):
    f = _write(tmp_path / "o9.txt", format_table(null_semigroup(9)) + "\n")
    assert main(["aut", f]) == 2
    assert main(["iso", f, f]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: order 9 exceeds the isomorphism tests' cap of 8"] * 2
    f = _write(tmp_path / "o8.txt", format_table(null_semigroup(8)) + "\n")
    assert main(["aut", f]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for line in lines if line[0].isdigit()) == 5040  # fixing the zero


def test_dual(tmp_path, capsys):
    f = _write(tmp_path / "lo3.txt", "0 0 0\n1 1 1\n2 2 2\n")
    assert main(["dual", f]) == 0
    assert capsys.readouterr().out == "0 1 2\n0 1 2\n0 1 2\n"
    f = _write(tmp_path / "pair.txt", LO3_RO3)
    assert main(["dual", f]) == 0
    assert capsys.readouterr().out == LO3_RO3  # this pair is self-dual


def test_enumerate(capsys):
    assert main(["enumerate", "--order", "2", "--kind", "dimonoid"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    summary = json.loads(lines[-1])
    assert summary["classes"] == 8 and summary["labeled"] == 13
    classes = [json.loads(line) for line in lines[:-1]]
    assert all(obj["schema"] == "dimonoids.class/1" for obj in classes)


def test_enumerate_order_gates(capsys):
    assert main(["enumerate", "--order", "6"]) == 2
    assert "maximum" in capsys.readouterr().err
    assert main(["enumerate", "--order", "0"]) == 2
    assert "positive" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--order", "5", "--allow-large"])
    assert exc.value.code == 2


def test_classify_markdown(capsys):
    assert main(["classify", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "| Aut(D) |" in out
    assert "- labeled: 13" in out


def test_classify_csv(capsys):
    assert main(["classify", "--order", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("key,name,")


def test_classify_json_semigroups(capsys):
    assert main(["classify", "--order", "3", "--kind", "semigroup",
                 "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["summary"]["total"] == 24
    auts = {row["name"]: row["aut"]["name"] for row in obj["rows"]}
    assert auts["LO3"] == "S3"


def test_cli_manifest_bytes(tmp_path, monkeypatch):
    # every command of tests/cli_manifest.txt keeps its exit code and its output bytes
    files = cli_manifest.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = cli_manifest.parse(cli_manifest.MANIFEST.read_text(encoding="utf-8"))
    assert [argv for argv, _ in expected] == cli_manifest.commands(files)
    changed = [cli_manifest.line(argv, got) for argv, want in expected
               if (got := cli_manifest.run(argv)) != want]
    assert not changed, (f"{len(changed)} of {len(expected)} commands differ from the "
                         f"manifest:\n" + "\n".join(changed[:20]))


# sha256 of `classify --order 4 --kind K --format json`, pinned when the report was
# first rendered by `json.dumps(..., indent=2)`, before `render_json` laid it out itself
ORDER4_JSON_SHA256 = {
    "dimonoid": "74ae419165191f227c178f317052c188e9ee70f417f68f5ed8a03117730b574e",
    "doppelsemigroup": "de21d68bdcbddfd8e383acc8ddfafe7875e62b8c5ba88461bf495367e0e35d58",
    "semigroup": "355f53dd00aa9e1dfdaf858f4d1d60b823b54deb13df02efa6d9f04e19f28701",
}


@pytest.mark.parametrize("kind", sorted(ORDER4_JSON_SHA256))
def test_classify_order4_json_bytes_are_pinned(kind, capsys):
    assert main(["classify", "--order", "4", "--kind", kind, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ORDER4_JSON_SHA256[kind]


def test_classify_rejects_bad_order(capsys):
    assert main(["classify", "--order", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_problem1(capsys):
    assert main(["problem1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "Noncommutative nonabelian nontrivial dimonoid classes of order 3: 21")
    assert "- dual_pairs: 10" in out
    assert "- self_paired: 1" in out


def test_problem1_json(capsys):
    assert main(["problem1", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["summary"]["total"] == 21
    assert len(obj["rows"]) == 21


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    assert main(["classify", "--order", "2", "--format", "csv",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    lines = target.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 9


def test_enumerate_out_writes_what_stdout_gets(tmp_path, capsys):
    argv = ["enumerate", "--order", "3", "--kind", "doppelsemigroup"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "classes.jsonl"
    assert main([*argv, "--out", str(target)]) == 0  # -W error: an unclosed file fails here
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode("utf-8")


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/table.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_subcommand_choice():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--order", "2", "--kind", "group"])
    assert exc.value.code == 2
