"""Immutable Cayley tables, table pairs, permutations, and their codecs.

Conventions used throughout the package:

* elements of an order-n structure are always the integers 0..n-1
* a table is stored row-major as a flat tuple, entries[x*n + y] == x*y
  (x indexes the row, y the column)
* relabeling by a permutation p satisfies t'(p(x), p(y)) = p(t(x, y)); for every module,
  `_relabeling` builds its gather, `_inverse` the inverse and `_transposed` the transpose
* the text form of a table is n lines of n space-separated integers;
  a pair of tables is two such blocks separated by one blank line
"""
from __future__ import annotations

import sys
import time
from itertools import chain, permutations
from operator import itemgetter


def log_info(name: str, start: float, msg: str, *args) -> float:
    """Log a stage begun at start (a `time.perf_counter()` reading) and ended now as
    `msg % args in <seconds> s` at INFO through logger name, if `logging` is loaded; return
    now, where the next stage begins.

    Every line the CLI logs under -v has this form, and `bench/search.py` reads the seconds
    from its tail.  Until something imports `logging` no handler is configured, so an INFO
    record would go nowhere; skipping it keeps the module out of a cold start.
    """
    now = time.perf_counter()
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).info(msg + " in %.4f s", *args, now - start)
    return now


class TableFormatError(ValueError):
    """Malformed textual table; row/column are 1-based when known."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)
        self.row = row
        self.column = column


class OrderMismatchError(ValueError):
    """Structures of different orders were combined."""


class Record:
    """Immutable value type whose fields are the subclass's annotations, in order.

    Equality holds between instances of one class with equal fields, the hash
    is that of the field tuple, and setting or deleting an attribute raises
    AttributeError.  Subclasses may define their own __init__ that fills
    self.__dict__.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        if Record not in cls.__bases__:
            return  # a subclass of a record keeps its parent's fields and adds none
        cls._fields = fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(fields)
        # itemgetter of a single name returns the bare value, not a 1-tuple
        values = (itemgetter(*fields) if len(fields) > 1
                  else lambda d, name=fields[0]: (d[name],))
        cls.__hash__ = lambda self: hash(values(self.__dict__))

    def __init__(self, *args, **kwargs):
        if args:
            given = len(args) + len(kwargs)
            kwargs.update(zip(self._fields, args))
            # a repeated field or a surplus argument leaves fewer keys than were given
            if len(kwargs) != given:
                raise self._field_error()
        if kwargs.keys() != self._field_set:
            raise self._field_error()
        self.__dict__.update(kwargs)

    def _field_error(self):
        return TypeError(f"{type(self).__name__}() takes each of the fields "
                         f"{', '.join(self._fields)} exactly once")

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def json_fields(value):
    """value as JSON data: a Record as the dict of its fields, a tuple as a list, and the
    items of records, dicts and tuples mapped in turn."""
    if isinstance(value, Record):
        return {name: json_fields(value.__dict__[name]) for name in value._fields}
    if isinstance(value, dict):
        return {k: json_fields(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [json_fields(v) for v in value]
    return value


class OpTable(Record):
    """A binary operation on {0..order-1}, closed by construction."""

    order: int
    entries: tuple

    def __init__(self, order, entries):
        entries = tuple(entries)
        n = order
        if type(n) is not int or n < 1:  # as for entries: refuses bool
            raise ValueError(f"order must be a positive integer, got {n!r}")
        if len(entries) != n * n:
            raise ValueError(f"expected {n * n} entries for order {n}, got {len(entries)}")
        for v in entries:
            if type(v) is not int or not 0 <= v < n:  # type, not isinstance: refuses bool
                raise ValueError(f"entry {v!r} is not an int in 0..{n - 1}")
        self.__dict__.update(order=order, entries=entries)

    @classmethod
    def from_function(cls, n: int, fn) -> "OpTable":
        return cls(n, tuple(fn(x, y) for x in range(n) for y in range(n)))

    def at(self, x: int, y: int) -> int:
        return self.entries[x * self.order + y]

    def rows(self):
        n = self.order
        return tuple(self.entries[i * n:(i + 1) * n] for i in range(n))

    def transpose(self) -> "OpTable":
        return _table(self.order, _transposed(self.entries, self.order))

    def __str__(self):
        return format_table(self)


class DiStructure(Record):
    """A pair of tables (left, right) on the same carrier."""

    left: OpTable
    right: OpTable

    def __init__(self, left, right):
        if left.order != right.order:
            raise OrderMismatchError(
                f"left has order {left.order}, right has order {right.order}")
        self.__dict__.update(left=left, right=right)

    @property
    def order(self) -> int:
        return self.left.order

    def dual(self) -> "DiStructure":
        # (x,y) -> y*x with the two operations swapped; an involution
        return DiStructure(self.right.transpose(), self.left.transpose())

    def relabel(self, p: "Permutation") -> "DiStructure":
        return DiStructure(apply_permutation(self.left, p), apply_permutation(self.right, p))

    def __str__(self):
        return format_distructure(self)


class Permutation(Record):
    """A bijection on {0..n-1}, stored as its image tuple."""

    images: tuple

    def __init__(self, images):
        images = tuple(images)
        if (sorted(images) != list(range(len(images)))
                or any(type(v) is not int for v in images)):  # refuses bool
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.__dict__["images"] = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def all_of_degree(cls, n: int):
        """All permutations of degree n in lexicographic order of images."""
        for images in permutations(range(n)):
            yield cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.images))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        if len(self.images) != len(other.images):
            raise OrderMismatchError("permutation degrees differ")
        return Permutation(tuple(self.images[v] for v in other.images))


def _table(n: int, entries: tuple) -> OpTable:
    """OpTable(n, entries) without its check of each entry, for a tuple known valid."""
    t = object.__new__(OpTable)
    t.__dict__.update(order=n, entries=entries)
    return t


def _inverse(p) -> tuple:
    """The images of p⁻¹, for p the images of a permutation."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _transposed(e, n: int):
    """The transpose of the flat order-n table e, a tuple or bytes, as the same type."""
    cols = [e[x::n] for x in range(n)]  # column x of e
    return b"".join(cols) if isinstance(e, bytes) else tuple(chain.from_iterable(cols))


def _relabeling(p):
    """(p, gather) for p the images of a permutation of degree n: a flat order-n table e
    relabeled by p is [p[e[j]] for j in gather], as gather[u*n + v] = p⁻¹(u)*n + p⁻¹(v)."""
    n = len(p)
    pinv = _inverse(p)
    return p, tuple([pinv[u] * n + pinv[v] for u in range(n) for v in range(n)])


def apply_permutation(t: OpTable, p: Permutation) -> OpTable:
    """Relabel t by p: the result r satisfies r(p(x), p(y)) = p(t(x, y))."""
    n = t.order
    if p.degree != n:
        raise OrderMismatchError(f"table order {n}, permutation degree {p.degree}")
    img, gather = _relabeling(p.images)
    e = t.entries
    return _table(n, tuple([img[e[j]] for j in gather]))


# ---------------------------------------------------------------------------
# text codec

def format_table(t: OpTable) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in t.rows())


def format_distructure(d: DiStructure) -> str:
    return format_table(d.left) + "\n\n" + format_table(d.right)


def _parse_block(lines, first_line_no: int, n: int) -> OpTable:
    entries = []
    for lineno, line in enumerate(lines, first_line_no):
        tokens = line.split()
        if len(tokens) != n:
            raise TableFormatError(f"expected {n} entries per row, got {len(tokens)}", row=lineno)
        for j, tok in enumerate(tokens, 1):
            try:
                v = int(tok, 10)
            except ValueError:
                raise TableFormatError(f"not an integer: {tok!r}", row=lineno, column=j)
            if not 0 <= v < n:
                raise TableFormatError(f"entry {v} outside 0..{n - 1}", row=lineno, column=j)
            entries.append(v)
    if len(lines) != n:
        raise TableFormatError(f"expected {n} rows, got {len(lines)}", row=first_line_no)
    return _table(n, tuple(entries))


def _blocks(text: str):
    """Split text into blocks of consecutive nonblank lines, with line numbers."""
    blocks = []
    current: list = []
    start = None
    for i, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            if start is None:
                start = i
            current.append(line)
        elif current:
            blocks.append((current, start))
            current, start = [], None
    if current:
        blocks.append((current, start))
    return blocks


def parse_table(text: str) -> OpTable:
    blocks = _blocks(text)
    if len(blocks) != 1:
        raise TableFormatError(f"expected one table block, found {len(blocks)}")
    lines, start = blocks[0]
    return _parse_block(lines, start, len(lines))


def parse_structure(text: str):
    """Parse either a single table or a two-block pair, whichever the text holds."""
    blocks = _blocks(text)
    if len(blocks) not in (1, 2):
        raise TableFormatError(
            f"expected two table blocks separated by a blank line, found {len(blocks)}")
    n = len(blocks[0][0])  # the order of the first block holds for the second
    tables = [_parse_block(lines, start, n) for lines, start in blocks]
    return tables[0] if len(tables) == 1 else DiStructure(*tables)
