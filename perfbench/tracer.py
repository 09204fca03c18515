"""Spans around the calls into each dimonoids module, and the per-layer
metrics derived from them.

The layers are the package's modules.  `Tracer.install` replaces every
public module-level function of each layer, in every module namespace that
holds it, with a wrapper that records a span (name, start, end, parent span,
request id) when the call enters the layer from outside it.  Calls within a
layer, and private helpers such as the pair scan's axiom filters and
`_min_key`, stay inside the span of the call that entered the layer, so a
layer's self time is its spans' time minus the spans they caused.

Run as a script, it makes one traced cold command:

    python3 perfbench/tracer.py SPANS_FILE ORDER -- classify --order 4 ...

It imports dimonoids, installs the tracer, generates the associative tables
of ORDER (so the command's own enumeration finds them cached and its span
is the pair scan alone), runs `dimonoids.cli.main`, writes the spans and
prints one JSON line: the command's exit code, the counts `summarize` needs
(`facts_for`) and the seconds spent after the command (`post_s`).
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("tables", "axioms", "enumeration", "iso", "catalog", "classify", "cli")
ORDERS = (3, 4, 5, 6)
ENUM_ENTRIES = {"enumeration.enumerate_structures", "enumeration.enumerate_semigroups",
                "enumeration.enumerate_dimonoids",
                "enumeration.enumerate_doppelsemigroups"}
CHECKS = {"axioms.check_structure", "axioms.check_dimonoid",
          "axioms.check_doppelsemigroup", "axioms.is_associative"}
PARSERS = {"tables.parse_structure", "tables.parse_table", "tables.parse_distructure"}
FORMATTERS = {"tables.format_table", "tables.format_distructure"}
BUILDERS = {"catalog.build_semigroup", "catalog.build_structure"}
# Spanned even when called from inside their layer: classify_order calls
# classify, and its span separates classify proper from the enumeration.
ALWAYS = {"classify.classify"}
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "request", "notes")


def _order_of_first(args, result):
    return {"order": args[0].order}


def _group_degree(args, result):
    perms = args[0]
    return {"order": len(perms[0].images)} if perms else {}


def _enumeration(args, result):
    return {"order": result.order, "kind": result.kind,
            "labeled": result.labeled_count, "classes": result.class_count}


# Counts recorded at the boundary, from a call's arguments and result.
NOTES = {
    "iso.canonical_form": _order_of_first,
    "iso.automorphisms": _order_of_first,
    "iso.are_isomorphic": _order_of_first,
    "iso.identify_group": _group_degree,
    "enumeration.enumerate_associative_tables": lambda a, r: {"tables": len(r)},
    "catalog.named_class_map": lambda a, r: {"order": a[0], "kind": a[1]},
    "classify.classify": lambda a, r: {"aut_elements": sum(row.aut.order for row in r.rows)},
    **{name: _enumeration for name in ENUM_ENTRIES},
}


class Tracer:
    """Spans kept in memory as lists of SPAN_FIELDS; parent is a span index."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._layers = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, layers, clock = self.spans, self._stack, self._layers, time.perf_counter_ns
        layer = layer_of(name)
        note = NOTES.get(name)
        always = name in ALWAYS

        def traced(*args, **kwargs):
            if layers and layers[-1] == layer and not always:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            layers.append(layer)
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                layers.pop()
                rec[2] = clock()
            if note is not None:
                rec[5] = note(args, result)
            return result

        return traced

    def install(self):
        import dimonoids
        modules = [importlib.import_module(f"dimonoids.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in [dimonoids, *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path):
        """JSON lines: a header naming the fields, then one array per span."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for name, start, end, parent, request, notes in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, request, notes])
                         + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [json.loads(line) for line in fh]


def layer_of(name):
    return name.split(".", 1)[0]


def facts_for(spans):
    """Counts the spans imply but do not hold, computed by untraced calls."""
    from dimonoids import catalog, enumeration
    orders = {s[5]["order"] for s in spans if s[0] in ENUM_ENTRIES and s[5]}
    maps = {(s[5]["order"], s[5]["kind"]) for s in spans
            if s[0] == "catalog.named_class_map" and s[5]}
    return {
        "tables": {n: len(enumeration.enumerate_associative_tables(n)) for n in orders},
        "candidates": sum(len(catalog.named_structures(n, k)) for n, k in maps),
        "named_classes": sum(len(catalog.named_class_map(n, k)[1]) for n, k in maps),
    }


def summarize(spans, facts, op_walls):
    """Per-layer metrics of one traced run.

    op_walls maps request id -> wall seconds of that operation; the part of
    it outside every non-cli span is the cli overhead.  Totals in seconds
    cover the whole traced run; `_us` and `_ms` metrics are means per call
    (0 where the run makes no such call).
    """
    n = len(spans)
    names = [s[0] for s in spans]
    layers = [layer_of(x) for x in names]
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def calls(which):
        return [i for i in range(n) if names[i] in which]

    def total(selected):
        return sum(dur[i] for i in selected)

    def mean(selected, scale):
        return total(selected) / len(selected) * scale if selected else 0.0

    def notes(i):
        return spans[i][5]

    m = {}
    enums = calls(ENUM_ENTRIES)
    pair_enums = [i for i in enums if notes(i)["kind"] != "semigroup"]
    assoc = calls({"enumeration.enumerate_associative_tables"})
    m["enumeration.assoc_tables_s"] = total(assoc)
    m["enumeration.assoc_tables"] = sum(notes(i)["tables"] for i in assoc)
    m["enumeration.pair_scan_s"] = total(enums)
    m["enumeration.pairs_scanned"] = sum(facts["tables"][notes(i)["order"]] ** 2
                                         for i in pair_enums)
    m["enumeration.survivors"] = sum(notes(i)["labeled"] for i in pair_enums)
    m["enumeration.classes"] = sum(notes(i)["classes"] for i in enums)
    m["enumeration.survivor_ratio"] = (m["enumeration.survivors"] / m["enumeration.pairs_scanned"]
                                       if m["enumeration.pairs_scanned"] else 0.0)
    m["enumeration.order3_ms"] = mean([i for i in enums if notes(i)["order"] == 3], 1e3)

    maps = calls({"catalog.named_class_map"})
    m["catalog.named_class_map_s"] = total(maps)
    m["catalog.candidates"] = facts["candidates"]
    m["catalog.named_classes"] = facts["named_classes"]
    m["catalog.build_us"] = mean(calls(BUILDERS), 1e6)

    for fn, unit, scale in (("canonical_form", "us", 1e6), ("automorphisms", "us", 1e6),
                            ("are_isomorphic", "us", 1e6), ("identify_group", "ms", 1e3)):
        spanned = calls({f"iso.{fn}"})
        for order in ORDERS:
            m[f"iso.{fn}_{unit}.order{order}"] = mean(
                [i for i in spanned if notes(i).get("order") == order], scale)
    # one private key search per labeled structure in the scan, plus the spans
    m["iso.canonical_calls"] = (sum(notes(i)["labeled"] for i in enums)
                                + names.count("iso.canonical_form"))

    m["axioms.check_us"] = mean(calls(CHECKS), 1e6)

    classifies = calls({"classify.classify"})
    inside = set(classifies)
    m["classify.classify_s"] = total(classifies) - total(
        [i for i in maps if spans[i][3] in inside])
    m["classify.render_s"] = total(calls({"classify.render_report"}))
    m["classify.aut_elements"] = sum(notes(i)["aut_elements"] for i in classifies)

    m["tables.parse_us"] = mean(calls(PARSERS), 1e6)
    m["tables.format_us"] = mean(calls(FORMATTERS), 1e6)

    library = {}  # per request, time in the outermost spans of other layers
    for i, s in enumerate(spans):
        if layers[i] != "cli" and (s[3] < 0 or layers[s[3]] == "cli"):
            library[s[4]] = library.get(s[4], 0.0) + dur[i]
    m["cli.overhead_s"] = (sum(w - library.get(r, 0.0) for r, w in op_walls.items())
                           / len(op_walls))
    mains = calls({"cli.main"})
    m["cli.dispatch_us"] = (sum(dur[i] - child[i] for i in mains) / len(mains) * 1e6
                            if mains else 0.0)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(dur[i] - child[i] for i in range(n) if layers[i] == layer)
    m["trace.spans"] = n
    return m


def main(argv):
    """Traced cold command; see the module docstring."""
    spans_path, order, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE ORDER -- CLI_ARGS...")
    tracer = Tracer()
    import dimonoids.cli
    from dimonoids import enumeration
    tracer.install()
    tracer.request = "op"
    enumeration.enumerate_associative_tables(int(order))
    code = dimonoids.cli.main(cli_argv)
    tracer.uninstall()
    post = time.perf_counter()
    facts = facts_for(tracer.spans)
    tracer.write(spans_path)
    print(json.dumps({"exit": code, "facts": facts, "post_s": time.perf_counter() - post}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
