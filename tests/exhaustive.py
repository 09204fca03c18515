"""Exhaustive references the tests and `.github/order5_census.py` compare the package's
searches, relabeling and group naming with, the case-by-case `+0`, `+1` and `~1`
builders the tests compare the catalog's tables with, and the census checks built on
them.  None of them runs in a command.  Outside `tests/` this module is the one bridge
to the package's private names: CI fails if a file under `bench/` or `.github/` names one.

Each census check (`check_*`) has this one implementation: tier-1 runs it at
orders 1-4 on every item, and `.github/order5_census.py` at order 5 on every
step-th item.  A check raises AssertionError naming the first item that fails,
by an explicit raise, which `python -O` keeps.

Import with `tests/` on the path (pytest puts it there; scripts set
`PYTHONPATH=src:tests`).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import islice, product
from math import factorial
from unittest import mock

from dimonoids import classify, enumeration
from dimonoids.axioms import (ASSOCIATIVITY, DIMONOID, DOPPELSEMIGROUP, IDENTITIES, KIND_AXIOMS,
                              check_structure, identity_witness)
from dimonoids.catalog import (adjoin_zero_dimonoid, build_semigroup, build_structure,
                               named_class_map, structure_dual_name)
from dimonoids.doppel import commutant_masks, transpose_partners, transposed_right_tables
from dimonoids.enumeration import _AXIOMS, _reps, _search, enumerate_structures
from dimonoids.iso import (CanonicalKey, GroupId, _least, _matches, _perm_data, _perm_order,
                           automorphisms, canonical_form, distructure_from_key, identify_group)
from dimonoids.tables import DiStructure, OpTable, Permutation, apply_permutation


def _pair_axioms_hold(le, re, n, kind) -> bool:
    """Whether flat tables le, re satisfy kind's pair axioms (not associativity)."""
    return all(identity_witness(IDENTITIES[a], le, re, n) is None for a in KIND_AXIOMS[kind])


def _stabilizer(e, perms):
    """The (images, gather) items of perms that fix the flat table e, in perms' order:
    the reference the tests compare the groups of the census searches with."""
    return tuple((p, g) for p, g in perms if tuple(p[e[j]] for j in g) == e)


def _min_key(le, re, n):
    """(best tuple, witness images) minimizing the serialization over all of
    `_perm_data(n)`, in lexicographic order: the exhaustive reference for
    `iso._coset_reach`, whose key and first witness it must equal."""
    best = None
    best_perm = None
    for p, gather in _perm_data(n):
        cand = []
        undecided = best is not None
        k = 0
        abandoned = False
        for src in (le, re):
            for i in gather:
                v = p[src[i]]
                if undecided:
                    b = best[k]
                    if v > b:
                        abandoned = True
                        break
                    if v < b:
                        undecided = False
                cand.append(v)
                k += 1
            if abandoned:
                break
        if abandoned or undecided:
            continue  # worse than or equal to best; ties keep the earlier witness
        best = tuple(cand)
        best_perm = p
    return best, best_perm


def relabel_reference(e, p) -> tuple:
    """The flat table e relabeled by the images p, each entry scattered to its cell:
    r[p(x)*n + p(y)] = p(e[x*n + y]), the reference for `tables._relabeling`'s gather."""
    n = len(p)
    out = [0] * (n * n)
    for x in range(n):
        for y in range(n):
            out[p[x] * n + p[y]] = p[e[x * n + y]]
    return tuple(out)


def class_reps(result) -> tuple:
    """(CanonicalKey, DiStructure) per class of an EnumerationResult, decoded from its
    key; the witness is the identity, which reaches a canonical key."""
    identity = Permutation.identity(result.order)
    return tuple((CanonicalKey(order=result.order, key=k, witness=identity),
                  distructure_from_key(k)) for k in result.keys)


def _exhaustive_hex(d):
    """`_min_key` of the pair d, as hex."""
    return bytes(_min_key(d.left.entries, d.right.entries, d.order)[0]).hex()


def check_rep_groups(n):
    """`_reps(n)`, once each representative's group is found to be its stabilizer among
    `_perm_data(n)`, in that order."""
    reps = _reps(n)
    perms = _perm_data(n)
    for t, aut in reps:
        if aut != _stabilizer(t, perms):
            raise AssertionError(f"order-{n} representative {t}: the leader search's group "
                                 f"differs from the stabilizer")
    return reps


def check_d1_decided(n, step=1):
    """How many order-n representatives have pairwise distinct columns, once every step-th
    of them is checked: the unpruned dimonoid search yields L alone, and an empty store
    takes ((bytes(L), Aut L),) from `_right_tables` without a search."""
    decided = [(le, aut) for le, aut in _reps(n) if len({le[w::n] for w in range(n)}) == n]

    def refuse(*args):
        raise AssertionError(f"order {n}: searched a representative D1 decides")

    with mock.patch.object(enumeration, "_RIGHT_TABLES", {}):
        for le, aut in decided[::step]:
            # D1 with L associative: L[x][R[y][z]] = L[x][L[y][z]] for every x, so R[y][z]
            # and L[y][z] label equal columns of L
            if [re for re, _ in _search(le, n, _AXIOMS[DIMONOID])] != [le]:
                raise AssertionError(f"order-{n} representative {le}: its columns are "
                                     f"distinct, but R = L is not its only right table")
            with mock.patch.object(enumeration, "_search", refuse):
                if enumeration._right_tables(le, aut, n, DIMONOID) != ((bytes(le), aut),):
                    raise AssertionError(f"order-{n} representative {le}: D1 decides it, "
                                         f"but R = L is not what is kept")
    return len(decided)


def check_transposed(n, step=1):
    """(searched, derived): how many order-n doppelsemigroup representatives the census
    searches and how many it derives from a transpose's, once the right tables the
    census kept for every step-th representative and every step-th derived one are found
    equal to a search, and so are `transposed_right_tables` from each relabeling that
    carries its transpose onto its partner's representative.  Run after that census."""
    kind = DOPPELSEMIGROUP
    reps = _reps(n)
    auts = dict(reps)
    partners = transpose_partners(reps, n)
    derived = [item for item in reps if item[0] in partners]

    @lru_cache(maxsize=None)
    def searched(le):
        """le's leaders with their groups, as `_right_tables` keeps them, from a search."""
        aut = auts[le]
        return tuple((bytes(re), (aut[0], *group))
                     for re, group in _search(le, n, _AXIOMS[kind], aut[1:]))

    perms = _perm_data(n)
    for le, aut in dict.fromkeys((*reps[::step], *derived[::step])):
        if enumeration._RIGHT_TABLES[le, kind] != searched(le):
            raise AssertionError(f"order-{n} {kind} representative {le}: the census's right "
                                 f"tables differ from a search")
        partner, reach = _least(tuple(le[y * n + x] for x in range(n) for y in range(n)), perms)
        for q in reach:
            if transposed_right_tables(searched(partner), q, aut, n) != searched(le):
                raise AssertionError(f"order-{n} {kind} representative {le}: the right tables "
                                     f"transposed from {partner} by {q[0]} differ from a search")
    return len(reps) - len(derived), len(derived)


def check_transpose_closure(result):
    """(orbits, σ-fixed, τ-outside) of a census, where τ transposes both tables of a pair
    and σ swaps them.  Each image is keyed by `canonical_form`, so unlike
    `check_transposed` this covers every class and trusts neither the census's leaders nor
    `transposed_right_tables`.  τ-outside counts the classes whose τ-image is no class of
    the census and σ-fixed those whose σ-image is their own class.  A doppelsemigroup census
    must be closed under σ and τ; orbits counts the ⟨σ, τ⟩-orbits of a closed census and is
    None otherwise, as for dimonoids, which are closed under στ, the dual, alone (and
    `classify` checks that)."""
    n, keys = result.order, set(result.keys)
    images = {}  # key -> (σ-image's key, τ-image's key)
    for key in result.keys:
        d = distructure_from_key(key)
        images[key] = (canonical_form(DiStructure(d.right, d.left)).key,
                       canonical_form(DiStructure(d.left.transpose(), d.right.transpose())).key)
    unclosed = [key for key, pair in images.items() if not keys.issuperset(pair)]
    if unclosed and result.kind == DOPPELSEMIGROUP:
        raise AssertionError(f"order-{n} {result.kind} class {unclosed[0].hex()}: its σ- or "
                             f"τ-image is not a class of the census")
    orbits = None if unclosed else len({frozenset((key, s, t, images[t][0]))
                                     for key, (s, t) in images.items()})
    return (orbits, sum(s == key for key, (s, _) in images.items()),
            sum(t not in keys for _, t in images.values()))


# identities no command searches: D1-D4 with associativity, the pairs that are both
# dimonoids and doppelsemigroups
D1_D4 = tuple(IDENTITIES[a] for a in ("d1", "d2", "d3", "d4")) + (ASSOCIATIVITY,)


def check_identity_intersection(n):
    """(classes, trivial ones) of the order-n pairs that satisfy D1-D4, once the keys of one
    search of every representative under all four identities are found equal to the keys
    the dimonoid and the doppelsemigroup census share.  No shipped kind has D1, D2 and D4,
    so only this search narrows a cell by D1's columns and the translation trees at once."""
    keys = {bytes(le) + bytes(re) for le, aut in _reps(n)
            for re, _ in _search(le, n, D1_D4, aut[1:])}
    shared = (set(enumerate_structures(n, DIMONOID).keys)
              & set(enumerate_structures(n, DOPPELSEMIGROUP).keys))
    if keys != shared:
        raise AssertionError(f"order {n}: the D1-D4 search finds {len(keys)} classes, "
                             f"{len(keys - shared)} of them outside the {len(shared)} the "
                             f"dimonoid and doppelsemigroup censuses share")
    return len(keys), sum(key[:n * n] == key[n * n:] for key in keys)


def check_monoid_variants(n):
    """(representatives with an identity, their doppelsemigroup classes) at order n, once
    the unpruned doppelsemigroup search of each such L is found to yield exactly the n
    variants R[x][z] = L[L[x][a]][z], and the census to hold as many classes over them as
    Aut(L) has orbits on L's elements.  By D4 and D2 with the identity e,
    x⊢z = x⊣(e⊢z) = x⊣(e⊢e)⊣z (Boyd, Gould and Nelson, "Interassociativity of
    semigroups", 1997); a = e⊢e tells the variants apart, and every variant is a pair."""
    monoids, classes = set(), 0
    for le, aut in _reps(n):
        if not any(all(le[e * n + x] == x == le[x * n + e] for x in range(n))
                   for e in range(n)):
            continue
        variants = sorted({tuple(le[le[x * n + a] * n + z] for x in range(n) for z in range(n))
                           for a in range(n)})
        rights = [re for re, _ in _search(le, n, _AXIOMS[DOPPELSEMIGROUP])]
        if len(variants) != n or rights != variants:
            raise AssertionError(f"order-{n} monoid representative {le}: its right tables "
                                 f"differ from its {n} variants")
        monoids.add(bytes(le))
        classes += len({min(p[a] for p, _ in aut) for a in range(n)})
    census = sum(key[:n * n] in monoids for key in enumerate_structures(n, DOPPELSEMIGROUP).keys)
    if census != classes:
        raise AssertionError(f"order {n}: the census holds {census} doppelsemigroup classes "
                             f"over the monoid representatives, not the {classes} orbits")
    return len(monoids), classes


def brute_force_translations(le, n):
    """(rows, columns) a right table may have under D2 and D4, from all n^n maps: the maps
    commuting with every u -> L[u][z], and those commuting with every u -> L[x][u]."""
    maps = list(product(range(n), repeat=n))
    return ([f for f in maps
             if all(f[le[u * n + z]] == le[f[u] * n + z] for u in range(n) for z in range(n))],
            [f for f in maps
             if all(f[le[x * n + u]] == le[x * n + f[u]] for x in range(n) for u in range(n))])


def trie_paths(mask, child, n):
    """The complete maps of a `commutant_masks` tree (mask, child), in lexicographic order."""
    level = [((), 0)]
    for j in range(n):
        level = [(f + (v,), child[node * n + v] if j + 1 < n else None)
                 for f, node in level for v in range(n) if mask[node] >> v & 1]
    return [f for f, _ in level]


def check_translation_trees(le, n):
    """(rows, columns) of `brute_force_translations(le, n)`, once the trees the
    doppelsemigroup search takes from L's columns and rows hold exactly those maps, and
    each prefix's mask exactly the values that continue it to one of them."""
    sets = brute_force_translations(le, n)
    for maps, expected in zip(({le[z::n] for z in range(n)},
                               {le[x * n:x * n + n] for x in range(n)}), sets):
        mask, child = commutant_masks(frozenset(maps), n)
        continued = {}
        for f in expected:
            for j in range(n):
                continued[f[:j]] = continued.get(f[:j], 0) | 1 << f[j]
        if trie_paths(mask, child, n) != expected:
            raise AssertionError(f"order-{n} left table {le}: the tree's maps differ from "
                                 f"the brute-force filter")
        for f in expected:
            node = 0
            for j in range(n):
                if mask[node] != continued[f[:j]]:
                    raise AssertionError(f"order-{n} left table {le}: the mask of prefix "
                                         f"{f[:j]} differs from the values that continue it")
                node = child[node * n + f[j]] if j + 1 < n else None
    return sets


def check_translations(n, step=1):
    """How many order-n representatives were checked, once every step-th one's translation
    trees pass `check_translation_trees` and its sets hold L's own rows and columns, which
    commute with the translations since L is associative."""
    checked = _reps(n)[::step]
    for le, _ in checked:
        rows, cols = check_translation_trees(le, n)
        if not ({le[x * n:x * n + n] for x in range(n)} <= set(rows)
                and {le[z::n] for z in range(n)} <= set(cols)):
            raise AssertionError(f"order-{n} representative {le}: its own rows or columns "
                                 f"are missing from its translations")
    return len(checked)


def check_census_classes(result, step=1):
    """`classify(result)`, once every step-th class is checked against the references: its
    census group and `automorphisms` equal the permutation matcher's, `identify_group`
    names that group, its key and dual key equal `_min_key`'s, and its dual key equals the
    canonical form of its dual."""
    n = result.order
    report = classify(result)
    for key, aut, row in islice(zip(result.keys, result.auts, report.rows, strict=True),
                                0, None, step):
        rep = distructure_from_key(key)
        dual = rep.dual()
        matched = tuple(_matches(rep, rep))
        checks = {"census group": tuple(Permutation(p) for p, _ in aut) == matched,
                  "automorphisms": automorphisms(rep) == matched,
                  "group name": row.aut == identify_group(matched),
                  "key": row.key == key.hex() == _exhaustive_hex(rep),
                  "dual key": row.dual_key == _exhaustive_hex(dual) == canonical_form(dual).hex}
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            raise AssertionError(f"order-{n} {result.kind} class {key.hex()}: "
                                 f"{', '.join(failed)} differ from the references")
    return report


def check_dual_names(report):
    """How many rows of report are named, once the names are found distinct, each row's
    dual partner to take the row's key as its own dual key, and the two to be both
    unnamed or named by `structure_dual_name` of each other."""
    by_key = {r.key: r for r in report.rows}
    if len({r.name for r in report.rows}) != len(report.rows):
        raise AssertionError(f"order-{report.order} {report.kind}: two classes share a name")
    for r in report.rows:
        partner = by_key[r.dual_key]
        unnamed = r.name.startswith("unnamed-")
        if (partner.dual_key != r.key or unnamed != partner.name.startswith("unnamed-")
                or not unnamed and partner.name != structure_dual_name(r.name)):
            raise AssertionError(f"order-{report.order} {report.kind} class {r.name!r}: its "
                                 f"dual class is {partner.name!r}")
    return sum(not r.name.startswith("unnamed-") for r in report.rows)


def _spelling_fault(name, d):
    """Why the pair d does not spell the catalog name, or None if it does: a curated
    special is its build, `(X)+0` adjoins a zero to a pair spelling X, `left|right` has
    left's table on the left and a relabeling of right's on the right, and a bare name
    is the pair (t, t) of its table."""
    n = d.order
    if name in (f"C{n}|C{n}^-1", "O(3,1)a|O(3,1)b"):
        return None if d == build_structure(name) else "it differs from the curated pair"
    if name.startswith("(") and name.endswith(")+0"):
        blocks = [tuple(t.entries[x * n + y] for x in range(n - 1) for y in range(n - 1))
                  for t in (d.left, d.right)]
        if n - 1 in blocks[0] + blocks[1]:
            return "its last element is not an adjoined zero"
        inner = DiStructure(OpTable(n - 1, blocks[0]), OpTable(n - 1, blocks[1]))
        if adjoin_zero_dimonoid(inner) != d:
            return "its last element is not an adjoined zero"
        fault = _spelling_fault(name[1:-3], inner)
        return fault and f"its pair without the zero does not spell {name[1:-3]!r}: {fault}"
    left, bar, right = name.partition("|")
    if not bar:
        t = build_semigroup(name)
        return None if d == DiStructure(t, t) else "it is not the trivial pair of the name"
    if d.left != build_semigroup(left):
        return f"its left table is not {left}"
    perms = _perm_data(n)
    if _least(d.right.entries, perms)[0] != _least(build_semigroup(right).entries, perms)[0]:
        return f"its right table is no relabeling of {right}"
    return None


def check_names_spelled(n, kind):
    """How many names `named_class_map(n, kind)` holds, once each is found to map to a
    pair that spells it, as `_spelling_fault` reads the name."""
    by_name = named_class_map(n, kind)[0]
    faults = {name: fault for name, d in by_name.items() if (fault := _spelling_fault(name, d))}
    if faults:
        name, fault = next(iter(faults.items()))
        raise AssertionError(f"order-{n} {kind}: {len(faults)} names map to pairs that do not "
                             f"spell them; first {name!r}: {fault}")
    return len(by_name)


def check_pool_sizes(n, kind, sizes):
    """Per pool size in sizes, (keys, labeled count, kept right tables, searches run in
    this process) of a census of kind at order n searched afresh with `_pool_size` forced
    to it, once all are found to share the first three, and every pooled one to search
    nothing in this process."""
    _reps(n)  # the semigroup search for the left tables runs here either way
    search = enumeration._search
    runs = []
    for workers in sizes:
        searches = []
        enumeration._RIGHT_TABLES.clear()
        with (mock.patch.object(enumeration, "_pool_size", lambda n: workers),
              mock.patch.object(enumeration, "_search",
                                lambda *args: searches.append(args) or search(*args))):
            result = enumerate_structures(n, kind)
        runs.append((result.keys, result.labeled_count, dict(enumeration._RIGHT_TABLES),
                     len(searches)))
        if runs[-1][:3] != runs[0][:3]:
            raise AssertionError(f"order-{n} {kind}: the census with {workers} workers "
                                 f"differs from the one with {sizes[0]}")
        if workers > 1 and searches:
            raise AssertionError(f"order-{n} {kind}: the census with {workers} workers "
                                 f"searched {len(searches)} representatives in this process")
    return runs


def check_burnside(result):
    """(classes, labeled) of result's kind at its order by Burnside's lemma, once found
    equal to result's counts.  Each representative L of `_reps` adds the average number
    of its unpruned right tables that an element of Aut(L) fixes, and n!/|Aut(L)| times
    their number: no leader test on right tables, D1 shortcut, transposition or pool."""
    n, kind = result.order, result.kind
    classes = labeled = 0
    for le, aut in _reps(n):
        rights = [re for re, _ in _search(le, n, _AXIOMS[kind])]
        fixed = len(rights) + sum(1 for p, gather in aut[1:] for re in rights
                                  if tuple(p[re[j]] for j in gather) == re)
        orbits, rest = divmod(fixed, len(aut))
        if rest:
            raise AssertionError(f"order-{n} {kind} representative {le}: its {len(aut)} "
                                 f"automorphisms fix {fixed} right tables, not a multiple")
        classes += orbits
        labeled += factorial(n) // len(aut) * len(rights)
    if (classes, labeled) != (result.class_count, result.labeled_count):
        raise AssertionError(f"order-{n} {kind}: Burnside's lemma counts {classes} classes "
                             f"({labeled} labeled), the census {result.class_count} "
                             f"({result.labeled_count})")
    return classes, labeled


def relabeling_reference(left, right, kinds):
    """The pair a `left|right` name outside the name map gets by relabeling right, object by
    object with the full axiom check: for each kind in turn, the first pair (left, right
    relabeled) over `Permutation.all_of_degree` that is valid, nontrivial and abelian (its
    right table is left's transpose), else the first valid nontrivial one; None if no kind
    has one.  The reference for `catalog.build_structure`'s fallback, which takes the first
    valid one: on every ordered pair of first-named tables at orders 2-5 the two agree."""
    for k in kinds:
        first = None
        for p in Permutation.all_of_degree(left.order):
            d = DiStructure(left, apply_permutation(right, p))
            if d.left != d.right and check_structure(d, k).ok:
                if d.right == d.left.transpose():
                    return d
                first = first or d
        if first:
            return first
    return None


def adjoin_zero_reference(t):
    """t with a fresh absorbing element at index n, from the operation's cases."""
    n = t.order
    return OpTable.from_function(n + 1, lambda x, y: t.at(x, y) if x < n and y < n else n)


def adjoin_identity_reference(t):
    """t with a fresh two-sided identity at index n, from the operation's cases."""
    n = t.order

    def op(x, y):
        if x == n:
            return y
        if y == n:
            return x
        return t.at(x, y)

    return OpTable.from_function(n + 1, op)


def adjoin_tilde1_reference(t):
    """t with u at index n, u*s = s*u = s and u*u = t's identity; None if t has none."""
    n = t.order
    e = next((c for c in range(n)
              if all(t.at(c, x) == x == t.at(x, c) for x in range(n))), None)
    if e is None:
        return None

    def op(x, y):
        if x == n and y == n:
            return e
        if x == n:
            return y
        if y == n:
            return x
        return t.at(x, y)

    return OpTable.from_function(n + 1, op)


def adjoined_reference(named):
    """The +0, +1 and ~1 entries `catalog.named_semigroups(n)` derives from the (name,
    table) entries of order n - 1, in its order, built by the references above."""
    out = []
    for name, t in named:
        for suffix, build in (("+0", adjoin_zero_reference), ("+1", adjoin_identity_reference),
                              ("~1", adjoin_tilde1_reference)):
            table = build(t)
            if table is not None:
                out.append((name + suffix, table))
    return out


def identify_group_reference(perms) -> GroupId:
    """`iso.identify_group` by an all-pairs closure and commutation scan, O(|G|^2)."""
    elems = {p.images for p in perms}
    if not elems:
        raise ValueError("empty set is not a group")
    degree = len(next(iter(elems)))
    if any(len(im) != degree for im in elems):
        raise ValueError("permutations of mixed degree")
    ident = tuple(range(degree))
    if ident not in elems:
        raise ValueError("identity missing: not a group")
    for a in elems:
        inv = [0] * degree
        for i, v in enumerate(a):
            inv[v] = i
        if tuple(inv) not in elems:
            raise ValueError("inverse missing: not a group")
        for b in elems:
            if tuple(a[v] for v in b) not in elems:
                raise ValueError("not closed under composition: not a group")
    order = len(elems)
    abelian = all(
        tuple(a[v] for v in b) == tuple(b[v] for v in a)
        for a in elems for b in elems)
    element_orders = tuple(sorted(_perm_order(im) for im in elems))
    name = None
    if order == 1:
        name = "C1"
    elif order == 2:
        name = "C2"
    elif order == 3:
        name = "C3"
    elif order == 4:
        name = "C4" if 4 in element_orders else "V4"
    elif order == 5:
        name = "C5"
    elif order == 6:
        name = "C6" if abelian else "S3"
    if name is None:
        kind = "abelian" if abelian else "nonabelian"
        name = f"other({order},{kind},orders={'+'.join(map(str, element_orders))})"
    return GroupId(order=order, name=name, abelian=abelian, element_orders=element_orders)
