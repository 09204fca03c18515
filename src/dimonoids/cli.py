"""Command line interface.

Each `_cmd_*` maps its arguments to (text chunks, exit code); `main` alone writes the chunks,
through `_emit`, to stdout or the --out file.  Logs go to stderr.  Exit codes: 0 success,
1 negative verdict (axioms failed, not isomorphic), 2 usage or input errors.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
import time
from functools import cache
from itertools import chain

from . import catalog
from .classify import classify_order, render_report, solve_problem1
from .axioms import (DIMONOID, DOPPELSEMIGROUP, NotAssociativeError, check_structure,
                     dimonoid_profile, semigroup_profile)
from .enumeration import ENUM_KINDS, SEMIGROUP, class_lines, enumerate_structures
from .iso import are_isomorphic, automorphisms, canonical_form, identify_group
from .tables import (DiStructure, OpTable, format_distructure, format_table, log_info,
                     parse_structure)


def _read_structure(path: str):
    if path == "-":
        return parse_structure(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_structure(fh.read())


def _as_pair(obj) -> DiStructure:
    if isinstance(obj, OpTable):
        return DiStructure(obj, obj)
    return obj


def _emit(chunks, out_path):
    """Write the text chunks, an iterable of strings, to out_path or, if None, to stdout;
    log the write as a stage."""
    start = time.perf_counter()
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", encoding="utf-8") as stream:
            stream.writelines(chunks)
    log_info("dimonoids", start, "output written to %s", out_path or "stdout")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args):
    obj = _read_structure(args.file)
    lines = []
    payload = {}
    if isinstance(obj, OpTable):
        try:
            profile = semigroup_profile(obj)
        except NotAssociativeError as exc:
            lines += ["associative: no", f"witness: {exc.witness}"]
            payload.update(associative=False, witness=list(exc.witness))
            code = 1
        else:
            lines.append("associative: yes")
            payload.update(associative=True, profile=profile.to_json())
            for field in ("commutative", "band", "semilattice", "right_commutative"):
                lines.append(f"{field}: {'yes' if getattr(profile, field) else 'no'}")
            lines.append(f"identity: {profile.identity}")
            lines.append(f"zero: {profile.zero}")
            lines.append(f"monogenic: {profile.monogenic}")
            code = 0
    else:
        verdicts = {kind: check_structure(obj, kind) for kind in (DIMONOID, DOPPELSEMIGROUP)}
        for kind, verdict in verdicts.items():
            lines.append(f"{kind}: {'yes' if verdict.ok else 'no'}")
            for axiom, triple in verdict.failures():
                lines.append(f"  {axiom} fails at (x, y, z) = {triple}")
        payload["verdicts"] = {k: v.to_json() for k, v in verdicts.items()}
        profile = dimonoid_profile(obj)
        payload["profile"] = profile.to_json()
        for field in ("trivial", "commutative", "abelian"):
            lines.append(f"{field}: {'yes' if getattr(profile, field) else 'no'}")
        code = 0 if verdicts[args.kind].ok else 1
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n" if args.json \
        else "\n".join(lines) + "\n"
    return [text], code


def _cmd_build(args):
    try:
        return [format_table(catalog.build_semigroup(args.name)) + "\n"], 0
    except catalog.ParameterError:
        pass  # a pair name, or a name build_structure refuses with the message
    kind = None if args.kind == "any" else args.kind
    return [format_distructure(catalog.build_structure(args.name, kind=kind)) + "\n"], 0


def _cmd_list(args):
    orders = [1, 2, 3] if args.order is None else [args.order]
    chunks = []
    for n in orders:
        if args.kind in (SEMIGROUP, "any"):
            for name, t in catalog.named_semigroups(n):
                chunks.append(f"# {name}\n{format_table(t)}\n")
        if args.kind in (DIMONOID, DOPPELSEMIGROUP):
            for name, d in catalog.named_structures(n, args.kind):
                chunks.append(f"# {name}\n{format_distructure(d)}\n")
    return ["\n".join(chunks)], 0


def _cmd_iso(args):
    if args.file1 == args.file2 == "-":
        raise ValueError("standard input can be given once")
    d1 = _as_pair(_read_structure(args.file1))
    d2 = _as_pair(_read_structure(args.file2))
    if d1.order != d2.order:
        return ["not isomorphic (different orders)\n"], 1
    start = time.perf_counter()
    perm = are_isomorphic(d1, d2)
    log_info("dimonoids", start, "order %d: matcher search found %s", d1.order,
             "no isomorphism" if perm is None else "an isomorphism")
    if perm is None:
        return ["not isomorphic\n"], 1
    return ["isomorphic via " + " ".join(map(str, perm.images)) + "\n"], 0


def _cmd_aut(args):
    d = _as_pair(_read_structure(args.file))
    start = time.perf_counter()
    auts = automorphisms(d)
    start = log_info("dimonoids", start, "order %d: %d automorphisms", d.order, len(auts))
    group = identify_group(auts)  # its name is not logged: S7's is 11 KB
    start = log_info("dimonoids", start, "order %d: Aut group of order %d named", d.order,
                     group.order)
    key = canonical_form(d).hex
    log_info("dimonoids", start, "order %d: canonical key", d.order)
    lines = [" ".join(map(str, p.images)) for p in auts]
    lines.append(f"group: {group.name} (order {group.order})")
    lines.append(f"canonical key: {key}")
    return ["\n".join(lines) + "\n"], 0


def _cmd_dual(args):
    obj = _read_structure(args.file)
    if isinstance(obj, OpTable):
        return [format_table(obj.transpose()) + "\n"], 0
    return [format_distructure(obj.dual()) + "\n"], 0


def _cmd_enumerate(args):
    result = enumerate_structures(args.order, args.kind)
    lines = chain(class_lines(result), [json.dumps(result.summary(), sort_keys=True)])
    return (line + "\n" for line in lines), 0


def _cmd_classify(args):
    return [render_report(classify_order(args.order, args.kind), args.format)], 0


def _cmd_problem1(args):
    report = solve_problem1()
    text = render_report(report, args.format)
    if args.format == "markdown":
        text = (f"Noncommutative nonabelian nontrivial dimonoid classes of order 3: "
                f"{report.summary['total']}\n\n") + text
    return [text], 0


# ---------------------------------------------------------------------------
# parser

def _add_out(p):
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimonoids",
        description="Check, build, enumerate, and classify finite dimonoids, "
                    "doppelsemigroups, and semigroups.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check axioms and profile a table or pair file")
    p.add_argument("file", help="table file; one block or two blank-line-separated blocks")
    p.add_argument("--kind", choices=(DIMONOID, DOPPELSEMIGROUP), default=DIMONOID,
                   help="which verdict drives the exit code for pair files")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_out(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("catalog", help="list named structures or build one by name")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    pl = csub.add_parser("list", help="list named structures with their tables")
    pl.add_argument("--order", type=int, help="restrict to one order (default 1..3)")
    pl.add_argument("--kind", choices=ENUM_KINDS + ("any",), default=SEMIGROUP,
                    help="semigroup (default) or any: the named semigroups; dimonoid or "
                         "doppelsemigroup: that kind's named pair candidates")
    _add_out(pl)
    pl.set_defaults(fn=_cmd_list)
    pb = csub.add_parser("build", help="build a named structure")
    pb.add_argument("name", help="catalog name, e.g. C3, M(3,1), LO3|RO3, (LO2|RO2)+0")
    pb.add_argument("--kind", choices=ENUM_KINDS + ("any",), default="any",
                    help="interpret pair names under these axioms")
    _add_out(pb)
    pb.set_defaults(fn=_cmd_build)

    p = sub.add_parser("iso", help="decide isomorphism of two structure files")
    p.add_argument("file1")
    p.add_argument("file2")
    _add_out(p)
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("aut", help="automorphisms and automorphism group of a structure")
    p.add_argument("file")
    _add_out(p)
    p.set_defaults(fn=_cmd_aut)

    p = sub.add_parser("dual", help="print the dual of a structure")
    p.add_argument("file")
    _add_out(p)
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("enumerate", help="enumerate classes up to isomorphism")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--kind", choices=ENUM_KINDS, default=DIMONOID)
    _add_out(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("classify", help="classification report with names and Aut groups")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--kind", choices=ENUM_KINDS, default=DIMONOID)
    p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    _add_out(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("problem1",
                       help="count order-3 noncommutative nonabelian nontrivial dimonoids")
    p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    _add_out(p)
    p.set_defaults(fn=_cmd_problem1)

    return parser


@cache  # once per process: an in-process caller may run main thousands of times
def _freeze_at_exit():
    """Have `gc.freeze` run at interpreter exit, so that the final collections find no
    object of the command's to walk; until then the caller's collections are untouched."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        # imported only here: without -v nothing is logged (see tables.log_info)
        import logging

        logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                            format="%(levelname)s %(message)s")
    try:
        chunks, code = args.fn(args)
        _emit(chunks, args.out)
        return code
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        # TableFormatError, ParameterError, and friends are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
