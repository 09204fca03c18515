"""The `queries` workload: one client calling `dimonoids.cli.main` in one
long-lived process, closed loop, one request at a time.

    python3 perfbench/queries.py --seed N --seconds S --trace 0|1 --workdir DIR
                                 [--smoke] [--setup-only] [--stop-every S]

The request list is fixed in composition and seeded in content: the seed
picks the relabelings, the non-isomorphic partners, the cross pairs, the
output formats and the order of the list, never which families or how many
requests of each command.  A run replays the whole list until S seconds
have passed, so every run measures whole passes of the same mix.  Every
answer is checked after the loop against values known by construction.
Prints one JSON line.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from math import factorial, gcd  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402

ORDERS = (3, 4, 5, 6)  # order 7 brings S7 inputs: identify_group takes ~20 s
KINDS = ("semigroup", "dimonoid", "doppelsemigroup")
FORMATS = ("markdown", "csv", "json")


def semigroup_names(n):
    return (f"C{n}", f"O{n}", f"L{n}", f"M(2,{n - 1})", f"O({n},1)", f"LOB{n}",
            f"LO(2<-{n})", f"C{n - 1}+1")


def build_names(n):
    return (f"C{n}", f"O{n}", f"L{n}", f"LO{n}", f"RO{n}", f"LO(2<-{n})", f"LOB{n}")


PAIR_BUILD_NAMES = ("LO3|RO3", "(LO2|RO2)+0", "C3|C3^-1")

# Tables the families define, written out independently of the catalog.
FAMILY_TABLES = {
    "C": lambda n, x, y: (x + y) % n,
    "O": lambda n, x, y: 0,
    "L": lambda n, x, y: min(x, y),
    "LO": lambda n, x, y: x,
    "RO": lambda n, x, y: y,
}


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


# |Aut| of the families with a closed form.
KNOWN_AUT = {
    "C": euler_phi,
    "O": lambda n: factorial(n - 1),
    "L": lambda n: 1,
    "LO|RO": factorial,
}


def flat(t):
    return tuple(t.entries)


def base_structures(n):
    """(label, family, left, right) catalog structures of order n."""
    from dimonoids import catalog
    from dimonoids.tables import DiStructure
    named = dict(catalog.named_semigroups(n))
    out = []
    for name in semigroup_names(n):
        family = name.rstrip("0123456789") if name[-1].isdigit() and "(" not in name else None
        out.append((name, family, flat(named[name]), flat(named[name])))
    pairs = [
        (f"LO{n}|RO{n}", "LO|RO", DiStructure(catalog.left_zero(n), catalog.right_zero(n))),
        (f"(LO{n - 1}|RO{n - 1})+0", None, catalog.adjoin_zero_dimonoid(
            DiStructure(catalog.left_zero(n - 1), catalog.right_zero(n - 1)))),
        (f"C{n}|C{n}^-1", None, DiStructure(catalog.cyclic(n),
                                            catalog.shifted_cyclic(n, n - 1))),
    ]
    out += [(label, fam, flat(d.left), flat(d.right)) for label, fam, d in pairs]
    return out


def text_of(le, re, n):
    rows = lambda t: "\n".join(" ".join(map(str, t[i * n:(i + 1) * n])) for i in range(n))
    return rows(le) if re is None else rows(le) + "\n\n" + rows(re)


def parse_text(text):
    """(left, right or None, order) of a table or pair in the text format."""
    blocks = [b for b in text.strip().split("\n\n") if b.strip()]
    tabs = [tuple(int(v) for v in b.split()) for b in blocks]
    n = len(blocks[0].splitlines())
    return tabs[0], tabs[1] if len(tabs) > 1 else None, n


def invariant(le, re, n, aut):
    idem = sum(le[x * n + x] == x for x in range(n)) + sum(re[x * n + x] == x for x in range(n))
    return (aut, idem, tuple(sorted(le.count(v) for v in range(n))),
            tuple(sorted(re.count(v) for v in range(n))))


class Requests:
    """The seeded request list and what each answer must be."""

    def __init__(self, seed, workdir, smoke):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.out = os.path.join(workdir, "out.txt")
        self.items = []  # in generation order until shuffled below
        self._files = 0
        orders = (3, 4) if smoke else ORDERS
        for n in orders:
            self._structures(n)
            for name in build_names(n)[:2 if smoke else None]:
                self._add("build", ("catalog", "build", name), name=name, n=n)
        for name in PAIR_BUILD_NAMES:
            self._add("build", ("catalog", "build", name), name=name, n=None)
        for kind in KINDS:
            for fmt in FORMATS[-1:] if smoke else FORMATS:
                self._add("classify", ("classify", "--order", "3", "--kind", kind,
                                       "--format", fmt), kind=kind, fmt=fmt)
        for fmt in FORMATS[-1:] if smoke else FORMATS:
            self._add("problem1", ("problem1", "--format", fmt), fmt=fmt)
        # one request per group, chosen before the seed shuffles the list, so
        # warm-up does the same work for every seed
        groups = {}
        for req in self.items:
            groups.setdefault(req["group"], req)
        self.warmup = list(groups.values())
        self.rng.shuffle(self.items)

    def _file(self, le, re, n):
        self._files += 1
        path = os.path.join(self.workdir, f"s{self._files}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text_of(le, re, n) + "\n")
        return path

    def _add(self, cmd, argv, **expect):
        group = (cmd, expect.get("n"), expect.get("name"), expect.get("kind"),
                 expect.get("fmt"))
        self.items.append({"cmd": cmd, "argv": list(argv) + ["--out", self.out],
                           "group": group, **expect})

    def _copy(self, le, re, n):
        p = list(range(n))
        self.rng.shuffle(p)
        p = tuple(p)
        a = oracle.relabel(le, n, p)
        b = None if re is None else oracle.relabel(re, n, p)
        return p, a, b, self._file(a, b, n)

    def _structures(self, n):
        rng = self.rng
        bases = []
        for label, family, le, re in base_structures(n):
            aut = oracle.automorphism_count(le, re, n)
            if family in KNOWN_AUT and KNOWN_AUT[family](n) != aut:
                raise RuntimeError(f"{label}: brute-force |Aut| {aut} != closed form")
            if family in FAMILY_TABLES:
                fam = tuple(FAMILY_TABLES[family](n, x, y) for x in range(n) for y in range(n))
                if fam != le:
                    raise RuntimeError(f"{label}: catalog table differs from its definition")
            bases.append((label, le, None if le == re else re, aut))
        for label, le, re, aut in bases:
            pa, a_l, a_r, fa = self._copy(le, re, n)
            pb, b_l, b_r, fb = self._copy(le, re, n)
            base = {"base": label, "n": n, "aut": aut}
            kind = rng.choice(("dimonoid", "doppelsemigroup"))
            json_out = rng.random() < 0.5
            self._add("check", ("check", fa, "--kind", kind) + (("--json",) if json_out else ()),
                      left=a_l, right=a_r, kind=kind, json=json_out, **base)
            self._add("aut", ("aut", fa), left=a_l, right=a_r, **base)
            self._add("aut", ("aut", fb), left=b_l, right=b_r, **base)
            witness = tuple(pb[x] for x in sorted(range(n), key=lambda i: pa[i]))
            self._add("iso", ("iso", fa, fb), left=a_l, right=a_r, left2=b_l, right2=b_r,
                      iso=True, witness=witness if aut == 1 else None, **base)
            sig = invariant(le, re or le, n, aut)
            others = [o for o in bases if (o[2] is None) == (re is None)
                      and invariant(o[1], o[2] or o[1], n, o[3]) != sig]
            other = rng.choice(others)
            _, o_l, o_r, fo = self._copy(other[1], other[2], n)
            self._add("iso", ("iso", fa, fo), iso=False, **base)
            self._add("dual", ("dual", fa), left=a_l, right=a_r, **base)
        tables = [b for b in bases if b[2] is None]
        for _ in range(2):
            (_, le, _, _), (_, re, _, _) = rng.sample(tables, 2)
            kind = rng.choice(("dimonoid", "doppelsemigroup"))
            _, a_l, a_r, fa = self._copy(le, re, n)
            self._add("check", ("check", fa, "--kind", kind), left=a_l, right=a_r,
                      kind=kind, json=False, n=n, base="cross", aut=None)


# ---------------------------------------------------------------------------
# checks

def _yes(lines, field):
    return lines.get(field) == "yes"


def check_check(req, code, text):
    n, le, re = req["n"], req["left"], req["right"]
    problems = []
    if re is None:
        ok = oracle.associative(le, n)
        if req["json"]:
            payload = json.loads(text)
            got, comm = payload["associative"], payload.get("profile", {}).get("commutative")
            witness = payload.get("witness")
        else:
            lines = dict(l.split(": ", 1) for l in text.splitlines() if ": " in l)
            got, comm = _yes(lines, "associative"), _yes(lines, "commutative")
            witness = lines.get("witness")
            witness = json.loads(witness.replace("(", "[").replace(")", "]")) if witness else None
        if got != ok or code != (0 if ok else 1):
            problems.append(f"associative {got} exit {code}, expected {ok}")
        if ok and comm != (le == oracle.transpose(le, n)):
            problems.append("commutative flag wrong")
        if not ok:
            x, y, z = witness
            if le[le[x * n + y] * n + z] == le[x * n + le[y * n + z]]:
                problems.append(f"witness {witness} is not a failing triple")
        return problems
    ax = oracle.axioms(le, re, n)
    verdicts = {k: oracle.satisfies(le, re, n, k) for k in ("dimonoid", "doppelsemigroup")}
    want = oracle.flags(le, re, n)
    if req["json"]:
        payload = json.loads(text)
        got = {k: payload["verdicts"][k]["ok"] for k in verdicts}
        got_flags = {f: payload["profile"][f] for f in want}
        failing = {a for v in payload["verdicts"].values() for a in v["witnesses"]}
    else:
        lines = dict(l.split(": ", 1) for l in text.splitlines() if ": " in l and l[0] != " ")
        got = {k: _yes(lines, k) for k in verdicts}
        got_flags = {f: _yes(lines, f) for f in want}
        failing = {l.split()[0] for l in text.splitlines() if l.startswith("  ")}
    if got != verdicts:
        problems.append(f"verdicts {got}, expected {verdicts}")
    if got_flags != want:
        problems.append(f"flags {got_flags}, expected {want}")
    if failing != {a for a in failing if not ax[a]}:
        problems.append(f"reported failing axioms {failing} include ones that hold")
    if code != (0 if verdicts[req["kind"]] else 1):
        problems.append(f"exit {code} for {req['kind']} verdict {verdicts[req['kind']]}")
    return problems


def parse_aut(text):
    lines = text.splitlines()
    perms = [tuple(map(int, l.split())) for l in lines[:-2]]
    group = lines[-2]
    key = lines[-1].split(": ", 1)[1]
    return perms, int(group.rsplit("(order ", 1)[1].rstrip(")")), key


def check_aut(req, code, text, keys):
    n, le = req["n"], req["left"]
    re = req["right"] or le
    perms, order, key = parse_aut(text)
    problems = []
    if code != 0:
        problems.append(f"exit {code}")
    if len(set(perms)) != len(perms) or len(perms) != req["aut"] or order != req["aut"]:
        problems.append(f"{len(perms)} automorphisms (group order {order}), "
                        f"expected {req['aut']}")
    for p in perms:
        if oracle.relabel(le, n, p) != le or oracle.relabel(re, n, p) != re:
            problems.append(f"{p} is not an automorphism")
            break
    if keys.setdefault((n, req["base"]), key) != key:
        problems.append("relabeled copies got different canonical keys")
    return problems


def check_iso(req, code, text):
    if not req["iso"]:
        return [] if code == 1 and text.strip() == "not isomorphic" else [
            f"non-isomorphic pair answered {text.strip()!r} exit {code}"]
    if code != 0 or not text.startswith("isomorphic via "):
        return [f"isomorphic pair answered {text.strip()!r} exit {code}"]
    n = req["n"]
    w = tuple(map(int, text.split()[2:]))
    le, re = req["left"], req["right"] or req["left"]
    le2, re2 = req["left2"], req["right2"] or req["left2"]
    if oracle.relabel(le, n, w) != le2 or oracle.relabel(re, n, w) != re2:
        return [f"witness {w} does not carry the first structure onto the second"]
    if req["witness"] is not None and w != req["witness"]:
        return [f"rigid structure: witness {w}, applied relabeling {req['witness']}"]
    return []


def check_dual(req, code, text):
    n, le, re = req["n"], req["left"], req["right"]
    got_l, got_r, _ = parse_text(text)
    want = (oracle.transpose(le, n), None) if re is None else oracle.dual(le, re, n)
    return [] if code == 0 and (got_l, got_r) == want else ["wrong dual"]


def check_build(req, code, text):
    le, re, n = parse_text(text)
    name = req["name"]
    problems = [] if code == 0 else [f"exit {code}"]
    if re is None:
        if req["n"] != n or not oracle.associative(le, n):
            problems.append(f"{name}: not an associative table of order {req['n']}")
        family = name.rstrip("0123456789")
        if family in FAMILY_TABLES and le != tuple(
                FAMILY_TABLES[family](n, x, y) for x in range(n) for y in range(n)):
            problems.append(f"{name}: table differs from the family's definition")
        return problems
    if not (oracle.satisfies(le, re, n, "dimonoid")
            or oracle.satisfies(le, re, n, "doppelsemigroup")):
        problems.append(f"{name}: pair satisfies neither axiom set")
    z = n - 1
    if name.endswith("+0") and any(t[x * n + z] != z or t[z * n + x] != z
                                   for t in (le, re) for x in range(n)):
        problems.append(f"{name}: last element is not a shared zero")
    if name.startswith("LO") and (le != tuple(x for x in range(n) for _ in range(n))
                                  or re != tuple(range(n)) * n):
        problems.append(f"{name}: not the left-zero/right-zero pair")
    return problems


def check(req, code, text, keys):
    cmd = req["cmd"]
    if cmd == "classify":
        problems = oracle.CHECK_REPORT[req["fmt"]](text, 3, req["kind"])
        return problems + ([f"exit {code}"] if code else [])
    if cmd == "problem1":
        return oracle.check_problem1(text, req["fmt"]) + ([f"exit {code}"] if code else [])
    if cmd == "aut":
        return check_aut(req, code, text, keys)
    return {"check": check_check, "iso": check_iso, "dual": check_dual,
            "build": check_build}[cmd](req, code, text)


# ---------------------------------------------------------------------------
# the loop

def call(cli, req):
    """(seconds inside cli.main, exit code, output text).

    An exception escaping cli.main is a wrong answer: its exit code reads
    as the exception's repr, which no check accepts."""
    out = req["argv"][-1]
    if os.path.exists(out):
        os.remove(out)
    t = time.perf_counter()
    try:
        code = cli.main(req["argv"])
    except Exception as exc:  # noqa: BLE001 - reported as a failed request
        code = repr(exc)
    elapsed = time.perf_counter() - t
    if not os.path.exists(out):
        return elapsed, code, ""
    with open(out, encoding="utf-8") as fh:
        return elapsed, code, fh.read()


class Stops:
    """Stops this process (SIGSTOP) when asked and then between requests
    once `every` seconds of the loop have passed since the last stop, so
    that the process that started it can sample its speed reference while
    nothing here runs.  Notes (requests done, loop seconds) at each stop;
    loop seconds leave out the stops.  every=0: never stops."""

    def __init__(self, every):
        self.every = every
        self.marks = []
        self.requests = 0
        self.active_s = 0.0
        self.since = time.perf_counter()

    def elapsed(self):
        return self.active_s + time.perf_counter() - self.since

    def stop(self):
        self.active_s = self.elapsed()
        self.marks.append([self.requests, self.active_s])
        os.kill(os.getpid(), signal.SIGSTOP)
        self.since = time.perf_counter()

    def before_request(self):
        if self.every and time.perf_counter() - self.since >= self.every:
            self.stop()
        self.requests += 1


def run_pass(cli, items, seen, tracer_obj=None, stops=None):
    latencies = []
    for i, req in enumerate(items):
        if tracer_obj is not None:
            tracer_obj.request = i
        if stops is not None:
            stops.before_request()
        elapsed, code, text = call(cli, req)
        latencies.append(elapsed)
        seen[i, code, text] = seen.get((i, code, text), 0) + 1
    return latencies


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--stop-every", type=float, default=0,
                    help="stop this process after set-up and then every S seconds "
                         "between requests (see Stops); 0: never")
    args = ap.parse_args(argv)

    import dimonoids
    import dimonoids.cli as cli
    requests = Requests(args.seed, args.workdir, args.smoke)
    items = requests.items
    for req in requests.warmup:
        call(cli, req)
    result = {"setup_s": time.perf_counter() - START, "file": dimonoids.__file__,
              "version": dimonoids.__version__, "requests": len(items)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    seen = {}
    if args.trace:
        untraced = run_pass(cli, items, seen)
        t = tracer.Tracer()
        t.install()
        traced = run_pass(cli, items, seen, t)
        t.uninstall()
        facts = tracer.facts_for(t.spans)
        if args.spans:
            t.write(args.spans)
        metrics = tracer.summarize(t.spans, facts, dict(enumerate(traced)))
        metrics["trace.overhead_s"] = sum(traced) - sum(untraced)
        metrics["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1
        result["metrics"] = metrics
        latencies = untraced + traced
    else:
        stops = Stops(args.stop_every)
        if args.stop_every:
            stops.stop()
        latencies = []
        while not latencies or stops.elapsed() < args.seconds:
            latencies += run_pass(cli, items, seen, stops=stops)
        result.update(loop_s=stops.elapsed(), stops=stops.marks)
    keys = {}
    failures = []
    failed = 0
    for (i, code, text), attempts in seen.items():
        try:
            problems = check(items[i], code, text, keys)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failed += attempts
            failures.append({"argv": items[i]["argv"][:-2], "problems": problems[:3]})
    result.update(latencies=latencies, failed=failed, failures=failures[:10])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
