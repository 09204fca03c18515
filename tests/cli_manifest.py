"""The byte-identity manifest of the command line, and the code that writes and replays it.

Each line of `cli_manifest.txt` is one command: its argv as JSON, its exit
code, and the sha256 of its stdout and of its stderr, separated by tabs.
`tests/test_cli.py` replays every line through `dimonoids.cli.main` in one
process.  A change that means to alter an output regenerates the file from
the repository root and names the lines that changed:

    PYTHONPATH=src python tests/cli_manifest.py

The commands cover `classify`, `enumerate` and `catalog list` at orders 1-4
for each kind and format, `problem1` in each format, `catalog build` on
every name the catalog lists at orders 1-4, on wrapped, spaced and malformed
names, and `check`, `check --json`, `aut`, `dual` and `iso` on the structure
files that `write_inputs` makes from fixed seeds: built from catalog names,
relabeled copies of those, random tables and pairs of orders 2-6, and
malformed text.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

from dimonoids import (DiStructure, OpTable, Permutation, apply_permutation, build_semigroup,
                       build_structure, cli, format_distructure, format_table,
                       named_semigroups, named_structures)

MANIFEST = Path(__file__).with_name("cli_manifest.txt")
_PARSER = cli.build_parser()
KINDS = ("semigroup", "dimonoid", "doppelsemigroup")
FORMATS = ("markdown", "csv", "json")
# catalog build refuses each with "unknown semigroup name" and the name it quotes: a
# wrapper is taken off only when what it wraps is nonempty and balanced
MALFORMED_WRAPPED_NAMES = {
    "(LO2|RO2+0": "(LO2|RO2+0", "LO2|RO2)+0": "RO2)+0", "plus0(LO2|RO2": "plus0(LO2|RO2",
    "triv(C2))": "triv(C2))", "dual(C2": "dual(C2", "C2+0)": "C2+0)", "()+0": "()",
    "plus0()": "plus0()", "triv()": "triv()", "dual()": "dual()", "+0": "+0"}
MALFORMED_TEXT = {"outside": "0 2\n1 0\n", "not-int": "0 1\n1 x\n", "ragged": "0 1\n1\n",
                  "three-blocks": "0\n\n0\n\n0\n", "width": "0 1\n1 0\n\n0 1 2\n1 2 0\n2 0 1\n",
                  "empty": "", "rows-over": "0 1\n1 0\n\n0 1\n1 0\n0 1\n",
                  "rows-under": "0 1\n1 0\n\n0 1\n"}


def _family_names(n: int):
    """Semigroup and pair names that build at every order n >= 2."""
    return (f"C{n}", f"O{n}", f"LO{n}", f"L{n}", f"M(2,{n - 1})",
            f"LO{n}|RO{n}", f"LO{n}|O{n}", f"C{n}|C{n}^-1", f"(C{n - 1}|C{n - 1}^-1)+0")


def inputs() -> dict:
    """{file name: text} of the structure files the commands read, from fixed seeds."""
    rng = random.Random(26)
    files = {}
    for n in range(2, 7):
        names = list(_family_names(n))
        if n <= 4:  # a seeded sample of what the catalog lists
            names.append(rng.choice([name for name, _ in named_semigroups(n)]))
            names += [rng.choice([name for name, _ in named_structures(n, kind)])
                      for kind in KINDS[1:]]
        for i, name in enumerate(names):
            built = build_structure(name) if "|" in name else build_semigroup(name)
            p = Permutation(rng.sample(range(n), n))
            if isinstance(built, OpTable):
                text, relabeled = format_table, apply_permutation(built, p)
            else:
                text, relabeled = format_distructure, built.relabel(p)
            files[f"built{n}-{i}.txt"] = text(built) + "\n"
            files[f"relabeled{n}-{i}.txt"] = text(relabeled) + "\n"
        for i in range(2):
            left, right = (OpTable(n, [rng.randrange(n) for _ in range(n * n)]) for _ in "lr")
            files[f"random{n}-{i}.txt"] = format_table(left) + "\n"
            files[f"randompair{n}-{i}.txt"] = format_distructure(DiStructure(left, right)) + "\n"
    files.update((f"malformed-{tag}.txt", text) for tag, text in MALFORMED_TEXT.items())
    return files


def write_inputs(directory) -> dict:
    """Write the files of `inputs()` into directory, and return them."""
    files = inputs()
    for name, text in files.items():
        Path(directory, name).write_text(text, encoding="utf-8")
    return files


def commands(files: dict) -> list:
    """The argv of every manifest line, given `inputs()`."""
    argvs = []
    for n in map(str, range(1, 5)):
        for kind in KINDS:
            argvs += [["classify", "--order", n, "--kind", kind, "--format", fmt]
                      for fmt in FORMATS]
            argvs.append(["enumerate", "--order", n, "--kind", kind])
        argvs += [["catalog", "list", "--order", n, "--kind", kind] for kind in KINDS + ("any",)]
    argvs += [["problem1", "--format", fmt] for fmt in FORMATS]
    argvs += [["catalog", "list"], ["catalog", "list", "--order", "0"],
              ["catalog", "list", "--order", "8", "--kind", "any"],
              ["classify", "--order", "0"], ["enumerate", "--order", "6"]]
    names = sorted({name for n in range(1, 5) for name, _ in named_semigroups(n)}
                   | {name for n in range(1, 5) for kind in KINDS[1:]
                      for name, _ in named_structures(n, kind)})
    argvs += [["catalog", "build", name] for name in names]
    argvs += [["catalog", "build", name] for name in (*MALFORMED_WRAPPED_NAMES, "Q8")]
    argvs += [["catalog", "build", "C3|C3^-1", "--kind", "dimonoid"],
              ["catalog", "build", "LO3|RO3", "--kind", "semigroup"],
              ["catalog", "build", "LO9|O9", "--kind", "dimonoid"],
              ["catalog", "build", "O2000+1"]]
    # well-formed wrapped names, then components of different orders and a pair no
    # relabeling makes valid, both refused with exit 2
    argvs += [["catalog", "build", name] for name in ("dual(LO3)", "triv(C3)", "plus0(LO2|RO2)",
                                                      "dual(LO3|O3)", "C2|C3", "C2|O2")]
    # pair names spaced around their bars, which build what the unspaced names build
    argvs += [["catalog", "build", name]
              for name in ("LO3 | RO3", "(LO2 | RO2)+0", "O(3,1)a | O(3,1)b")]
    for f, text in files.items():
        if f.startswith("relabeled"):  # the same class as its built file: same key and group
            argvs += [["aut", f], ["iso", "built" + f[len("relabeled"):], f]]
            continue
        argvs += [["check", f], ["check", f, "--json"], ["aut", f], ["dual", f]]
        if "\n\n" in text:  # a pair, whose exit code the kind decides
            argvs.append(["check", f, "--kind", "doppelsemigroup"])
    for n in range(2, 7):
        argvs += [["iso", f"built{n}-{i}.txt", f"built{n}-{i + 1}.txt"] for i in range(8)]
        argvs += [["iso", f"random{n}-0.txt", f"random{n}-1.txt"],
                  ["iso", f"randompair{n}-0.txt", f"randompair{n}-1.txt"],
                  ["iso", f"built{n}-0.txt", f"built{n % 6 + 2}-0.txt"]]
    argvs += [["iso", "built3-0.txt", "missing.txt"], ["check", "missing.txt"]]
    return argvs


def run(argv):
    """(exit code, sha256 of stdout, sha256 of stderr) of one `cli.main` call.

    Every call shares one parser: `cli.build_parser` takes no input, and building
    it is most of a small command's time (about 2.3 of 2.5 ms per catalog build).
    """
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          mock.patch.object(cli, "build_parser", lambda: _PARSER)):
        code = cli.main(argv)
    return (code, *(hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest()
                    for s in (out, err)))


def line(argv, result) -> str:
    return "\t".join((json.dumps(argv), *map(str, result)))


def parse(text: str):
    """[(argv, (exit code, stdout sha256, stderr sha256))] of a manifest's text."""
    rows = []
    for entry in text.splitlines():
        argv, code, out, err = entry.split("\t")
        rows.append((json.loads(argv), (int(code), out, err)))
    return rows


def main() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        files = write_inputs(directory)
        os.chdir(directory)
        try:
            lines = [line(argv, run(argv)) for argv in commands(files)]
        finally:
            os.chdir(cwd)
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} commands written to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
