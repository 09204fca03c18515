"""End-to-end tests for the command line interface, run in process."""
from __future__ import annotations

import atexit
import gc
import hashlib
import io
import json
import os
import re
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


def _python(code, *argv, flags=(), timeout=20):
    """Run code in a fresh interpreter started with flags; a hang fails the test instead
    of stalling the run."""
    env = {**os.environ, "PYTHONPATH": str(Path(dimonoids.__file__).parents[1])}
    return subprocess.run([sys.executable, *flags, "-c", code, *argv], capture_output=True,
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
    "automorphisms", "build_semigroup", "build_structure", "canonical_form", "check_structure",
    "classify", "classify_order", "cyclic", "dimonoid_profile", "enumerate_associative_tables",
    "enumerate_dimonoids", "enumerate_doppelsemigroups", "enumerate_semigroups",
    "enumerate_structures", "format_distructure", "format_table", "idempotent_diagonal",
    "identify_group", "is_associative", "left_zero", "left_zero_band", "left_zero_collapse",
    "linear_semilattice", "masked_left_zero", "monogenic", "named_class_map",
    "named_semigroups", "named_structures", "null_semigroup", "parse_structure", "parse_table",
    "render_report", "right_zero", "semigroup_dual_name", "semigroup_profile",
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


def test_main_freezes_the_objects_only_at_exit(tmp_path):
    # atexit handlers run last in, first out, so one registered before main runs after
    # the gc.freeze that main registers
    done = _python("import atexit, gc, sys\n"
                   "atexit.register(lambda: print('at exit', gc.get_freeze_count() > 0))\n"
                   "from dimonoids.cli import main\n"
                   "main(sys.argv[1:])\n"
                   "print('after main', gc.get_freeze_count() > 0)",
                   "classify", "--order", "3", "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "after main False\nat exit True\n"


def test_main_registers_one_exit_callback_per_process(tmp_path):
    out = ["classify", "--order", "2", "--out", str(tmp_path / "out")]
    assert main(out) == 0
    callbacks = atexit._ncallbacks()
    assert main(out) == 0
    assert atexit._ncallbacks() == callbacks
    assert gc.get_freeze_count() == 0


def test_import_registers_no_exit_callback():
    done = _python("import atexit; before = atexit._ncallbacks(); import dimonoids.cli; "
                   "print(atexit._ncallbacks() - before)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_cold_run_in_dev_mode_writes_the_manifest_bytes():
    argv = ["classify", "--order", "3", "--kind", "doppelsemigroup", "--format", "json"]
    done = _python(CLI, *argv, flags=("-X", "dev", "-W", "error"))
    assert done.stderr == ""
    code, out, _ = next(want for a, want in cli_manifest.parse(
        cli_manifest.MANIFEST.read_text(encoding="utf-8")) if a == argv)
    assert (done.returncode, hashlib.sha256(done.stdout.encode("utf-8")).hexdigest()) == \
        (code, out)


# every stage each command logs under -v, in order, without its "in <seconds> s" tail
STAGES = {
    ("classify", "--order", "3", "--kind", "dimonoid", "--format", "json"): [
        "order 3: 24 semigroup representatives",
        "order 3: dimonoid pair search over 24 representatives (12 searched by 1 worker(s), "
        "12 decided by D1, 0 derived by transposition)",
        "order 3: 52 dimonoid classes (267 labeled) keyed",
        "order 3: dimonoid name map of 47 names",
        "order 3: 4 distinct Aut groups named",
        "order 3: dual keys of 52 classes",
        "order 3: 52 dimonoid rows built and checked",
        "order 3: dimonoid report rendered as json",
        "output written to stdout"],
    ("classify", "--order", "3", "--kind", "semigroup"): [
        "order 3: 24 semigroup representatives",
        "order 3: 24 semigroup classes (113 labeled) keyed",
        "order 3: semigroup name map of 24 names",
        "order 3: 4 distinct Aut groups named",
        "order 3: dual keys of 24 classes",
        "order 3: 24 semigroup rows built and checked",
        "order 3: semigroup report rendered as markdown",
        "output written to stdout"],
    ("enumerate", "--order", "3", "--kind", "doppelsemigroup"): [
        "order 3: 24 semigroup representatives",
        "order 3: doppelsemigroup pair search over 24 representatives (18 searched by 1 "
        "worker(s), 0 decided by D1, 6 derived by transposition)",
        "order 3: 77 doppelsemigroup classes (413 labeled) keyed",
        "output written to stdout"],
}


def test_verbose_logs_each_stage(tmp_path):
    # bench/search.py reads each stage's seconds from the line's tail
    pair = _write(tmp_path / "lo3ro3.txt", LO3_RO3)
    f1 = _write(tmp_path / "a.txt", "0 0 0\n1 1 1\n0 0 0\n")
    f2 = _write(tmp_path / "b.txt", "0 0 0\n0 0 0\n2 2 2\n")  # relabeled copy
    commands = {**STAGES,
                ("aut", pair): ["order 3: 6 automorphisms", "order 3: Aut group of order 6 named",
                                "order 3: canonical key", "output written to stdout"],
                ("iso", f1, f2): ["order 3: matcher search found an isomorphism",
                                  "output written to stdout"]}
    for argv, stages in commands.items():
        quiet = _python(CLI, *argv)
        done = _python(CLI, "-v", *argv)
        assert done.returncode == quiet.returncode == 0, done.stderr
        assert done.stdout == quiet.stdout, argv  # -v writes to stderr alone
        lines = [re.fullmatch(r"INFO (.+) in \d+\.\d{4} s", line)
                 for line in done.stderr.splitlines()]
        assert all(lines), done.stderr
        assert [m[1] for m in lines] == stages


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


# sha256 of `classify --order 4 --kind K --format json`, pinned from the reference
# `json.dumps(report.to_json(), sort_keys=True)` and a newline, the bytes `render_json` writes
ORDER4_JSON_SHA256 = {
    "dimonoid": "75e798e08e1996989a15d6f6e26509d4fe69bb51d8c5575750dee09863e0d4d0",
    "doppelsemigroup": "b57ae1dbc4301087ea951cb0aabd49a588ccf7086b1d0d523ded512613e83d66",
    "semigroup": "5e0bb830b1319dd44b4a5c94922b05a76accf87e47fae672bfa5bef371d7c347",
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


# one argv per write site of each command; the files are written by _files
OUT_CASES = {
    "check-table": (["check", "{c3}"], 0),
    "check-json": (["check", "{pair}", "--json"], 0),
    "check-doppelsemigroup": (["check", "{pair}", "--kind", "doppelsemigroup"], 1),
    "aut": (["aut", "{pair}"], 0),
    "iso-isomorphic": (["iso", "{a}", "{b}"], 0),
    "iso-not-isomorphic": (["iso", "{a}", "{c3}"], 1),
    "iso-different-orders": (["iso", "{a}", "{nor}"], 1),
    "dual-table": (["dual", "{a}"], 0),
    "dual-pair": (["dual", "{pair}"], 0),
    "catalog-build-table": (["catalog", "build", "M(3,1)"], 0),
    "catalog-build-pair": (["catalog", "build", "LO3|RO3"], 0),
    "catalog-list": (["catalog", "list", "--order", "2"], 0),
    "enumerate": (["enumerate", "--order", "3", "--kind", "doppelsemigroup"], 0),
    "classify-json": (["classify", "--order", "3", "--format", "json"], 0),
    "problem1": (["problem1"], 0),
}


def _files(tmp_path):
    texts = {"c3": C3, "nor": NOR, "pair": LO3_RO3, "a": "0 0 0\n1 1 1\n0 0 0\n",
             "b": "0 0 0\n0 0 0\n2 2 2\n"}  # b is a relabeled copy of a
    return {name: _write(tmp_path / f"{name}.txt", text) for name, text in texts.items()}


@pytest.mark.parametrize("argv, code", OUT_CASES.values(), ids=OUT_CASES.keys())
def test_out_writes_what_stdout_gets(argv, code, tmp_path, capsys):
    files = _files(tmp_path)
    argv = [arg.format(**files) for arg in argv]
    assert main(argv) == code
    printed = capsys.readouterr().out
    target = tmp_path / "out.txt"
    assert main([*argv, "--out", str(target)]) == code  # -W error: an unclosed file fails here
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode("utf-8")


def test_out_naming_a_directory_is_usage_error(tmp_path, capsys):
    assert main(["dual", _files(tmp_path)["c3"], "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["check", "aut", "dual"])
@pytest.mark.parametrize("text", [C3, LO3_RO3], ids=["table", "pair"])
def test_stdin_prints_what_the_file_prints(command, text, tmp_path, monkeypatch, capsys):
    assert main([command, _write(tmp_path / "in.txt", text)]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main([command, "-"]) == 0
    assert capsys.readouterr().out == from_file


def test_iso_reads_stdin_once(tmp_path, monkeypatch, capsys):
    f = _write(tmp_path / "c3.txt", C3)
    for argv in (["iso", "-", f], ["iso", f, "-"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(C3))
        assert main(argv) == 0
        assert capsys.readouterr().out == "isomorphic via 0 1 2\n"
    stdin = io.StringIO(C3)
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["iso", "-", "-"]) == 2
    assert capsys.readouterr() == ("", "error: standard input can be given once\n")
    assert stdin.tell() == 0  # refused before reading


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/table.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_subcommand_choice():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--order", "2", "--kind", "group"])
    assert exc.value.code == 2
