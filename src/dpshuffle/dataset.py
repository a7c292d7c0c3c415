"""Tabular datasets with finite attribute domains, stored as domain indices.

Every attribute has a finite domain: either an explicit list of labels or
a set of numeric buckets defined by ascending bin edges.  Rows carry a
unique ID plus one value per attribute.  A Dataset checks every value
once and stores it as its index in the attribute's domain, in one
column-major ``(n, k)`` integer array.  That index is the position of
the single high bit in the paper's one-hot encoding, so it carries
exactly the same information; the shuffling stages downstream only ever
move columns of indices, and labels come back only when a table is
exported.

Row IDs are kept as one ``S`` array of their UTF-8 bytes, checked for
duplicates by hashing them and decoded to strings only when
``Dataset.ids`` is read, which a release never does.

``load_csv`` reads a file in blocks of text, splits each once into lines
and writes each chunk of lines straight into one index array and one ID
array for the whole table, so loading holds those two arrays, one
block's lines and one chunk of cells, never a ``Row`` or a record per
row.  numpy's C reader, ``np.loadtxt``, parses a chunk free of quotes in
one call.  In an ASCII chunk it reads the IDs into one fixed-width byte
field, checked in numpy to be whole and stripped; other IDs are read as
strings, stripped and encoded once.  It reads the numbers of a bucketed
attribute as integers, bucketed through a lookup table or by comparison
with each edge, where the chunk's first line that is not blank holds an
integer there, and as floats otherwise.  Labels are read as fixed-width
fields that numpy looks up in the domain: in an ASCII chunk, labels of
at most 7 ASCII characters as 8-byte fields compared as integers, one
equality test per label where there are at most 16.  Each column is
decoded straight into the chunk's rows of the index array, which is
sized from the file's length, so a file of one chunk keeps it as read.
A column is read as strings where a cell is padded.  A chunk numpy
rejects goes through ``csv.reader``, and so does the rest of the file
from the first block holding a quote; both paths word every fault
alike.  A CSV cell of a bucketed attribute is read as a number first
and as a bucket label only when it does not parse; a string value given
to ``Dataset`` in a ``Row`` is tried as a label first.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import os
import re
import warnings
from dataclasses import dataclass, fields
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np


class DatasetError(ValueError):
    """Raised for malformed schemas, rows, or input files."""


def _format_number(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def fields_dict(record) -> dict:
    """A flat dataclass instance's fields by name, values not copied
    (``dataclasses.asdict`` deep-copies every leaf)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


@dataclass(frozen=True)
class Attribute:
    """One column: a name plus its finite domain.

    Categorical attributes list their labels in ``values``.  Numeric
    attributes additionally carry ``bin_edges`` (ascending, one more edge
    than there are buckets, last edge may be inf); ``values`` then holds
    the bucket labels.
    """

    name: str
    values: tuple[str, ...]
    bin_edges: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DatasetError("attribute name must be non-empty")
        if not self.values:
            raise DatasetError(f"attribute {self.name!r} has an empty domain")
        if len(set(self.values)) != len(self.values):
            raise DatasetError(f"attribute {self.name!r} has duplicate domain labels")
        if self.bin_edges is not None:
            edges = self.bin_edges
            if len(edges) != len(self.values) + 1:
                raise DatasetError(
                    f"attribute {self.name!r}: {len(edges)} bin edges do not "
                    f"bound {len(self.values)} buckets"
                )
            if any(math.isnan(e) for e in edges):
                raise DatasetError(
                    f"attribute {self.name!r}: bin edges must be numbers"
                )
            if any(e2 <= e1 for e1, e2 in zip(edges, edges[1:])):
                raise DatasetError(f"attribute {self.name!r}: bin edges must ascend")
            if any(math.isinf(e) for e in edges[:-1]):
                raise DatasetError(
                    f"attribute {self.name!r}: only the last bin edge may be infinite"
                )

    @property
    def is_numeric(self) -> bool:
        return self.bin_edges is not None

    @property
    def size(self) -> int:
        return len(self.values)


# A bucketed column with at most this many edges, outside the lookup
# table's range, is bucketed by one ``x >= edge`` pass per edge; one
# with more by a sorted search.
_COMPARED_EDGES = 8


def _bucket_codes(
    attr: Attribute, x: np.ndarray, rows: Sequence[int], out: np.ndarray | None = None
) -> np.ndarray:
    """Bucket index of every number in ``x``, written to ``out`` if given;
    ``rows`` are their row numbers.

    Integers spanning fewer values than there are of them are looked up
    in a table of each value's bucket, built by one search.  Other
    numbers, against at most ``_COMPARED_EDGES`` edges, are bucketed by
    counting the edges each is at least: the float64 comparisons numpy's
    search makes, so an integer past 2**53 is rounded as there.  Against
    more edges they are searched one by one.  The first number outside
    the buckets, NaN included, is an error, worded from its float value.
    """
    edges = np.array(attr.bin_edges)
    if out is None:
        out = np.empty(len(x), np.int64)
    narrow = False
    if x.dtype.kind == "i" and len(x):
        lo, hi = int(x.min()), int(x.max())
        narrow = hi - lo < len(x)
    if narrow:
        span = np.arange(hi - lo + 1) + lo
        np.take(np.searchsorted(edges, span, side="right") - 1, x - lo, out=out)
    elif len(edges) <= _COMPARED_EDGES:
        numbers = x.astype(np.float64)  # as the search converts them
        count = np.zeros(len(x), np.uint8)
        at_least = np.empty(len(x), np.uint8)
        for edge in edges.tolist():
            np.greater_equal(numbers, edge, out=at_least)
            count += at_least
        np.subtract(count, 1, out=out, dtype=np.int64)
    else:
        np.subtract(np.searchsorted(edges, x, side="right"), 1, out=out)
    outside = (out < 0) | (out >= attr.size)  # NaN is outside either way
    if outside.any():
        i = int(np.argmax(outside))
        value = float(x[i])
        if math.isnan(value):
            problem = f"value {value!r} is not a number"
        else:
            problem = (
                f"value {value!r} outside the bucket range "
                f"[{_format_number(edges[0])}, {_format_number(edges[-1])})"
            )
        raise DatasetError(f"row {rows[i]}, attribute {attr.name!r}: {problem}")
    return out


def _value_codes(
    attr: Attribute, cells: Sequence[object], start: int = 0
) -> np.ndarray:
    """Domain index of every cell of one attribute's column of values.

    A cell is one of the attribute's labels or, for a bucketed attribute,
    a number or numeric string, which lands in the bucket [lo, hi) holding
    it.  Errors name the 1-based row of the offending cell, counting
    ``start`` rows before the column.  A column of labels only, or of
    numbers only, is converted whole; the cell-by-cell loop runs for
    mixed columns and to word the first error exactly.
    """

    def error(slot: int, problem: str) -> DatasetError:
        return DatasetError(
            f"row {start + slot + 1}, attribute {attr.name!r}: {problem}"
        )

    labels = {label: i for i, label in enumerate(attr.values)}
    rows = range(start + 1, start + len(cells) + 1)
    if not attr.is_numeric:
        try:
            return np.fromiter(map(labels.get, cells), np.int64, len(cells))
        except TypeError:
            pass  # a cell is not a label: the loop below words the error
    elif set(map(type, cells)) <= {int, float}:
        numbers = np.fromiter(map(float, cells), np.float64, len(cells))
        return _bucket_codes(attr, numbers, rows)

    codes = [0] * len(cells)
    number_slots: list[int] = []
    numbers: list[float] = []
    for slot, cell in enumerate(cells):
        if isinstance(cell, str):
            if cell in labels:
                codes[slot] = labels[cell]
                continue
            try:
                number = float(cell) if attr.is_numeric else None
            except ValueError:
                number = None
            if number is None:
                raise error(slot, f"value {cell!r} is not in the domain")
        elif _is_number(cell):
            if not attr.is_numeric:
                raise error(slot, f"no bucketing rule for numeric value {cell!r}")
            number = float(cell)
        else:
            raise error(slot, f"unsupported value {cell!r}")
        number_slots.append(slot)
        numbers.append(number)

    out = np.array(codes, dtype=np.int64)
    if numbers:
        number_rows = [rows[slot] for slot in number_slots]
        out[number_slots] = _bucket_codes(attr, np.array(numbers), number_rows)
    return out


def _auto_labels(edges: tuple[float, ...]) -> tuple[str, ...]:
    texts = [_format_number(e) for e in edges]  # each edge formatted once
    return tuple(
        f"{lo}+" if math.isinf(top) else f"[{lo},{hi})"
        for lo, hi, top in zip(texts, texts[1:], edges[1:])
    )


def _is_number(value: object) -> bool:
    """Whether a JSON value is a number (``bool`` is an ``int`` subclass)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _spec_list(spec: dict, key: str, name: str) -> list:
    value = spec[key]
    if not isinstance(value, list):
        raise DatasetError(
            f"attribute {name!r}: {key!r} must be a list, got {value!r}"
        )
    return value


# The keys a schema attribute may hold, by the key giving its domain.
_SPEC_KEYS = {
    "domain": frozenset({"name", "domain"}),
    "bins": frozenset({"name", "bins", "labels"}),
}


@dataclass(frozen=True)
class Schema:
    """Ordered collection of attributes."""

    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise DatasetError("schema must declare at least one attribute")
        names = [a.name.lower() for a in self.attributes]
        if len(set(names)) != len(names):
            raise DatasetError("schema attribute names must be unique")

    @property
    def k(self) -> int:
        return len(self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def index_of(self, name: str) -> int:
        lowered = name.lower()
        for i, a in enumerate(self.attributes):
            if a.name.lower() == lowered:
                return i
        raise DatasetError(f"schema has no attribute named {name!r}")

    def attribute(self, name: str) -> Attribute:
        return self.attributes[self.index_of(name)]

    @classmethod
    def from_dict(cls, payload: dict) -> Schema:
        """The schema a JSON payload declares: an object holding only an
        ``attributes`` list.  Each attribute holds a ``name`` and either a
        ``domain`` or ``bins`` with optional ``labels``, and nothing
        else."""
        specs = payload.get("attributes") if isinstance(payload, dict) else None
        if not isinstance(specs, list):
            raise DatasetError("schema payload must have an 'attributes' list")
        for key in payload:
            if key != "attributes":
                raise DatasetError(f"schema payload has an unknown key {key!r}")
        attrs = []
        for spec in specs:
            if not isinstance(spec, dict):
                raise DatasetError(f"schema attribute {spec!r} must be an object")
            name = spec.get("name")
            if not isinstance(name, str):
                raise DatasetError("every schema attribute needs a 'name' string")
            kinds = [kind for kind in _SPEC_KEYS if kind in spec]
            if not kinds:
                raise DatasetError(
                    f"attribute {name!r} needs either 'domain' or 'bins'"
                )
            if len(kinds) > 1:
                raise DatasetError(
                    f"attribute {name!r}: give 'domain' or 'bins', not both"
                )
            allowed = _SPEC_KEYS[kinds[0]]
            for key in spec:
                if key not in allowed:
                    raise DatasetError(
                        f"attribute {name!r}: key {key!r} is not one of "
                        f"{sorted(allowed)}"
                    )
            if "bins" in spec:
                bins = _spec_list(spec, "bins", name)
                try:
                    if not all(e is None or _is_number(e) for e in bins):
                        raise TypeError
                    edges = tuple(math.inf if e is None else float(e) for e in bins)
                except (TypeError, OverflowError):
                    raise DatasetError(
                        f"attribute {name!r}: bin edges must be numbers or null"
                    ) from None
                labels = []
                if spec.get("labels") is not None:
                    labels = _spec_list(spec, "labels", name)
                for v in labels:
                    if not isinstance(v, str):
                        raise DatasetError(
                            f"attribute {name!r}: 'labels' entries must be "
                            f"strings, got {v!r}"
                        )
                values = tuple(labels) if labels else _auto_labels(edges)
                attrs.append(Attribute(name, values, edges))
            else:
                domain = _spec_list(spec, "domain", name)
                for v in domain:
                    if not (isinstance(v, str) or _is_number(v)):
                        raise DatasetError(
                            f"attribute {name!r}: domain labels must be strings "
                            f"or numbers, got {v!r}"
                        )
                attrs.append(Attribute(name, tuple(str(v) for v in domain)))
        return cls(tuple(attrs))

    def to_dict(self) -> dict:
        out = []
        for a in self.attributes:
            if a.is_numeric:
                edges = [None if math.isinf(e) else e for e in a.bin_edges]
                out.append({"name": a.name, "bins": edges, "labels": list(a.values)})
            else:
                out.append({"name": a.name, "domain": list(a.values)})
        return {"attributes": out}


@dataclass(frozen=True)
class Row:
    uid: str
    values: tuple[object, ...]


def _encode_ids(ids: Sequence[str], start: int = 0) -> np.ndarray:
    """``ids`` encoded to UTF-8, surrogates passed through, in an ``S``
    array a multiple of 8 bytes wide, each encoded once for the width
    and once into the array.  numpy drops NULs from the end of a string,
    so an ID that is not a string or holds a NUL is an error naming its
    1-based row, ``start`` rows before ``ids`` counted.  UTF-8 encodes
    only NUL to a zero byte, so a NUL shows as fewer nonzero bytes in
    the array than the IDs' lengths sum to.
    """
    utf8 = (repeat("utf-8"), repeat("surrogatepass"))
    try:
        lengths = list(map(len, map(str.encode, ids, *utf8)))
        width = max(8, (max(lengths, default=0) + 7) // 8 * 8)
        out = np.fromiter(map(str.encode, ids, *utf8), f"S{width}", len(ids))
    except TypeError:
        lengths = None
    if lengths is None or np.count_nonzero(out.view(np.uint8)) != sum(lengths):
        for number, uid in enumerate(ids, start=start + 1):
            if not isinstance(uid, str):
                raise DatasetError(f"row {number}: row ID {uid!r} is not a string")
            if "\0" in uid:
                raise DatasetError(f"row {number}: row ID {uid!r} holds a NUL")
    return out


def _decode_ids(ids: np.ndarray) -> tuple[str, ...]:
    return tuple([uid.decode("utf-8", "surrogatepass") for uid in ids.tolist()])


class Dataset:
    """Rows checked against a schema and stored as domain indices.

    ``codes[i, j]`` is the index of row i's value in the domain of
    attribute j, in a read-only column-major array, so that each
    attribute's column is contiguous.  Row IDs must be unique strings
    free of NUL, and every row must carry one value per attribute.
    String values of a bucketed attribute are tried as bucket labels
    first, then as numbers.  The IDs are kept in input order as one
    ``S`` array of their UTF-8 bytes (``_encode_ids``), decoded on the
    first read of ``ids``, which a release never makes.
    """

    def __init__(self, schema: Schema, rows: Iterable[Row]) -> None:
        rows = tuple(rows)
        for number, row in enumerate(rows, start=1):
            if len(row.values) != schema.k:
                raise DatasetError(
                    f"row {number} ({row.uid!r}) has {len(row.values)} values, "
                    f"expected {schema.k}"
                )
        ids = _unique_ids(_encode_ids([row.uid for row in rows]))
        codes = np.empty((len(rows), schema.k), dtype=np.int64, order="F")
        for j, attr in enumerate(schema.attributes):
            codes[:, j] = _value_codes(attr, [row.values[j] for row in rows])
        self._store(schema, ids, codes)

    @classmethod
    def _from_codes(cls, schema: Schema, ids: np.ndarray, codes: np.ndarray) -> Dataset:
        """A dataset of already checked IDs and codes."""
        dataset = cls.__new__(cls)
        dataset._store(schema, ids, codes)
        return dataset

    def _store(self, schema: Schema, ids: np.ndarray, codes: np.ndarray) -> None:
        codes.flags.writeable = False
        self.schema = schema
        self._ids = ids
        self._decoded_ids: tuple[str, ...] | None = None
        self.codes = codes

    @property
    def ids(self) -> tuple[str, ...]:
        if self._decoded_ids is None:
            self._decoded_ids = _decode_ids(self._ids)
        return self._decoded_ids

    @property
    def n(self) -> int:
        return len(self.codes)

    def column(self, name: str) -> np.ndarray:
        """Domain index of attribute ``name`` for every row."""
        return self.codes[:, self.schema.index_of(name)]


# Lines read and converted at a time: large enough that per-chunk work
# is amortised, small enough that a chunk's cells stay a few MB.
_CHUNK_ROWS = 1 << 14

# Characters read a block for each line of a chunk: a block of a table
# with lines this long or shorter holds at least one chunk.
_LINE_CHARS = 64


def load_csv(path: str, schema: Schema) -> Dataset:
    """Load rows from a CSV file whose first column is the unique row ID.

    The header must name every schema attribute, in schema order, after
    the ID column.  The file is read in blocks of text split once into
    lines, and each chunk of lines is written straight into one
    column-major array of domain indices and one array of IDs, both
    sized from the file's length and grown if that falls short (see
    ``_Rows``), so memory holds the IDs, the codes, one block's lines
    and one chunk, never a ``Row`` per line, and never a second copy of
    the codes: at 10^6 rows the traced peak is within a fifth of what
    the dataset keeps.  A chunk free of quotes is parsed by numpy's C
    reader, ``np.loadtxt``: numbers of bucketed attributes straight to
    integers or floats, IDs of an ASCII chunk to bytes and of any other
    to strings, encoded to UTF-8 once stripped, and labels to
    fixed-width fields looked up in numpy (short ASCII labels as 8-byte
    integer keys), or to strings where a cell is padded or not a
    label.  A chunk it cannot read exactly, and from the first block
    holding a quote on the rest of the file, goes through
    ``csv.reader``, so quoted cells may hold commas and newlines and
    every fault is worded the same either way.  A cell of a bucketed
    attribute that parses as a number is read as a number, and only
    otherwise as a bucket label.  Cells are read as if stripped of
    surrounding whitespace.  Rows are numbered from 1 after the header,
    not counting blank lines, which are skipped.  Each chunk is checked
    as it is read, and IDs are checked for duplicates once the whole
    file is in, by ``_unique_ids``.  An ID holding a NUL is an error
    (``_encode_ids``).  ``_chunks`` says how the text is read, and
    ``_parse_chunk`` how numpy reads a chunk.
    """
    rows = _Rows(schema.k)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DatasetError(f"{path}: file is empty")
            got = [h.strip().lower() for h in header[1:]]
            expected = [name.lower() for name in schema.names]
            if got != expected:
                raise DatasetError(
                    f"{path}: header columns {header[1:]!r} do not match schema "
                    f"attributes {list(schema.names)!r}"
                )
            # Every csv record is a GC-tracked list and none is in a cycle,
            # so collections during a csv.reader read find nothing but can
            # cost a third of it.
            gc_enabled = gc.isenabled()
            gc.disable()
            try:
                for lines, is_ascii, records, lines_left in _chunks(fh):
                    rows.lines_left = lines_left
                    if not (lines and _parse_chunk(lines, schema, rows, is_ascii)):
                        # for csv.reader to read or to word
                        _parse_records(records, schema, rows)
                ids, codes = rows.finish()
            except DatasetError as exc:
                raise DatasetError(f"{path} {exc}") from None
            finally:
                if gc_enabled:
                    gc.enable()
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: {exc}") from None
    return Dataset._from_codes(schema, ids, codes)


class _Rows:
    """The IDs and codes of the rows a load has read so far, each kind
    written into one array as the chunks come in.

    ``codes`` holds ``capacity`` codes of each attribute, one column
    after another, so that ``block`` gives a chunk a column-major view
    of its rows.  IDs go to ``ids``, one ``S`` array as wide as the
    widest chunk's: an ASCII chunk's as numpy read them, any other's as
    ``_encode_ids`` encodes them.  The arrays are sized by the first
    chunk, to its rows and ``lines_left``, the lines ``_chunks``
    estimates after it, plus a sixteenth; a table of one chunk gets
    exactly its rows.  A chunk that does not fit doubles the capacity,
    and ``finish`` trims it to the rows read.  Both reallocate the arrays
    in place, by ``ndarray.resize``, which numpy refuses while a view of
    them is alive, so no view outlives the chunk it was made for.  numpy
    also refuses it whenever a trace function is set (``sys.settrace``,
    as debuggers and coverage tools set), counting one more reference to
    the array; only then is the array reallocated by a copy.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.n = 0  # rows read
        self.capacity = 0
        self.lines_left = 0
        self.codes = np.empty(0, np.int64)
        self.ids = np.empty(0, "S8")

    def block(self, rows: int) -> np.ndarray:
        """A writable column-major view of the next ``rows`` rows' codes."""
        end = self.n + rows
        if end > self.capacity and self.capacity:
            self._resize(max(end, 2 * self.capacity))
        elif end > self.capacity:
            self.capacity = end + self.lines_left + self.lines_left // 16
            self.codes = np.empty(self.capacity * self.k, np.int64)
        return self.codes.reshape(self.k, self.capacity).T[self.n : end]

    def write_ids(self, ids: np.ndarray) -> np.ndarray:
        """Write the next rows' IDs from an ``S`` array, and return their
        8-byte words as written, as many a row as ``ids`` has."""
        if len(self.ids) < self.capacity or self.ids.itemsize < ids.itemsize:
            wider = np.empty(self.capacity, f"S{max(self.ids.itemsize, ids.itemsize)}")
            wider[: self.n] = self.ids[: self.n]
            self.ids = wider
        end = self.n + len(ids)
        self.ids[self.n : end] = ids
        words = self.ids[self.n : end].view("<u8")
        return words.reshape(len(ids), self.ids.itemsize // 8)[:, : ids.itemsize // 8]

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        """The IDs, checked by ``_unique_ids``, and the ``(n, k)``
        column-major codes of the rows read, each trimmed to them."""
        if self.capacity > self.n:
            self._resize(self.n)
        return _unique_ids(self.ids), self.codes.reshape(self.k, self.n).T

    def _resize(self, capacity: int) -> None:
        """Give each column ``capacity`` rows, keeping the rows read.

        Columns move ``_CHUNK_ROWS`` rows at a time, so that numpy sets
        at most that many aside where a piece overlaps its new place.
        They move right once the array has grown, from its end, and left
        before it shrinks, from its start, so that no row is overwritten
        before it has moved.
        """
        old, n, k = self.capacity, self.n, self.k
        grow = capacity > old
        if grow:
            self._reallocate("codes", capacity * k)
        pieces = [(j, lo) for j in range(1, k) for lo in range(0, n, _CHUNK_ROWS)]
        for j, lo in reversed(pieces) if grow else pieces:
            hi = min(lo + _CHUNK_ROWS, n)
            self.codes[j * capacity + lo : j * capacity + hi] = self.codes[
                j * old + lo : j * old + hi
            ]
        if not grow:
            self._reallocate("codes", capacity * k)
        self._reallocate("ids", capacity)
        self.capacity = capacity

    def _reallocate(self, name: str, size: int) -> None:
        """Give the array ``name`` ``size`` elements, keeping its first
        ones: in place, or by a copy where numpy refuses."""
        try:
            getattr(self, name).resize(size)
        except ValueError:
            setattr(self, name, np.resize(getattr(self, name), size))


# Odd, so that multiplying a hash by it, modulo 2**64, loses no bit of it.
_HASH_FACTOR = np.uint64(0x9E3779B97F4A7C15)


def _unique_ids(ids: np.ndarray) -> np.ndarray:
    """``ids``, an ``S`` array a multiple of 8 bytes wide, once checked
    for duplicates.

    Each ID's 8-byte words are hashed to one ``uint64``.  Equal IDs are
    equal bytes, so equal hashes, and only when two hashes are equal are
    the IDs decoded and checked as strings, which names the first repeat.
    """
    words = ids.view("<u8").reshape(len(ids), ids.itemsize // 8)
    hashes = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        hashes *= _HASH_FACTOR
        hashes += words[:, j]
    hashes.sort()
    if (hashes[1:] == hashes[:-1]).any():
        seen: set[str] = set()
        for number, uid in enumerate(_decode_ids(ids), start=1):
            if uid in seen:
                raise DatasetError(f"row {number}: duplicate row ID {uid!r}")
            seen.add(uid)
    return ids


def _chunks(
    fh: TextIO,
) -> Iterator[tuple[list[str] | None, bool, Iterable[list[str]], int]]:
    """The lines, whether they are ASCII, the ``csv.reader`` records of
    each chunk of ``fh``, and an estimate of the lines after it.

    The text is read in blocks of about ``_LINE_CHARS`` characters a
    chunk line, each finished at a line end by ``readline`` and split
    once at every LF; a line keeps the CR of a CRLF end.  A block's text
    is let go once split, so a chunk is parsed beside its lines alone.
    A chunk is ``_CHUNK_ROWS`` such lines, taken across blocks.  The
    lines are given while the blocks hold no quote, no NUL (which
    ``csv.reader`` rejects before Python 3.11) and no CR outside a CRLF
    line end: ``csv.reader`` would split such a chunk exactly at line
    ends and commas, as ``np.loadtxt`` does, and its records are parsed
    only if the caller reads them.  A chunk of whitespace-only lines
    holds no rows and is skipped.  The lines after a chunk are those
    split and not yet given, plus the file's bytes not yet read over the
    characters a line of the first block; after the last chunk they are
    0.  From the first block holding a quote, a NUL or a lone CR on,
    which may open a quoted cell spanning lines, ``csv.reader`` reads the
    rest of the file from the first line not yet given, ``_CHUNK_ROWS``
    records at a time, and only records are given, with 0 lines after
    them.
    """
    rows = _CHUNK_ROWS
    unread = os.fstat(fh.fileno()).st_size
    line_chars = 0.0  # characters a line of the first block
    lines: list[str] = []  # split from the blocks read, not yet given
    lines_ascii = True  # whether ``lines`` are ASCII
    while True:
        text = fh.read(_LINE_CHARS * rows)
        if text and not text.endswith("\n"):
            text += fh.readline()
        if '"' in text or "\0" in text:
            break
        if "\r" in text and text.count("\r") != text.count("\r\n"):
            break
        block = text.split("\n")
        if not block[-1]:  # the text after the last LF
            block.pop()
        more = bool(text)
        block_ascii = text.isascii()
        unread = max(unread - len(text), 0)
        line_chars = line_chars or len(text) / max(len(block), 1)
        del text
        start = len(lines)  # this block's first line
        block[:0] = lines  # shifts the block's lines rather than copying them
        lines = block
        end = len(lines) - len(lines) % rows if more else len(lines)
        unread_lines = int(unread / line_chars) if more else 0
        for i in range(0, end, rows):
            # The lines of a table shorter than a chunk are given uncopied.
            chunk = lines if len(lines) <= rows else lines[i : i + rows]
            if any(map(str.strip, chunk)):
                is_ascii = block_ascii and (lines_ascii or i >= start)
                left = len(lines) - i - len(chunk) + unread_lines
                yield chunk, is_ascii, csv.reader(chunk), left
        if not more:
            return
        # The carry: a table of one block is given only after the read
        # that finds the end of the file, as this new list made once the
        # block's text was let go.  Giving each block whole as it is read
        # loaded 10^6 rows faster, but took up to hundreds of minor page
        # faults (ru_minflt) per 10^4-row load in a loop where this order
        # takes none, and made a 10^4-row release slower.
        lines = lines[end:]
        lines_ascii = block_ascii and (lines_ascii or end >= start)
    head = "".join(f"{line}\n" for line in lines)
    reader = csv.reader(chain(io.StringIO(head + text, newline=""), fh))
    while records := list(islice(reader, rows)):
        yield None, False, records, 0


# Widest label field ``np.loadtxt`` fills, in characters, and widest ID
# field, in bytes.  A domain's longer labels are never matched in numpy:
# a cell holding one sends its column to ``_column_codes``, and a chunk's
# fields stay at most 256 bytes a cell.  A chunk whose first ID is
# longer reads its IDs as strings, to be encoded.
_LABEL_FIELD_CHARS = 64

# How ``_parse_chunk`` splits a quote-free chunk, as ``csv.reader`` would.
_LOADTXT_OPTIONS = dict(delimiter=",", comments=None, quotechar=None, ndmin=1)

# A first-line cell that sends its column to an int64 field: a sign and
# ASCII digits, unpadded.
_PLAIN_INT = re.compile(r"[+-]?[0-9]+")


def _parse_chunk(lines: list[str], schema: Schema, rows: _Rows, is_ascii: bool) -> bool:
    """Write the stripped IDs and the codes of a quote-free chunk of
    lines to ``rows``.

    ``np.loadtxt`` skips empty lines and reads a bucketed cell as a
    number only where ``float`` reads the stripped cell as the same
    number.  A chunk's fields are chosen from its first line that is not
    blank.  A bucketed column whose cell there is a plain integer goes
    to an int64 field, which numpy fills only with integers that convert
    to the floats ``float`` reads; any other goes to a float field.  If
    the int read fails, or finds a bad cell, the chunk is read again
    with every bucketed field a float, which words the fault as before.
    In an ASCII chunk, IDs go to an ``S`` field a multiple of 8 bytes
    wide and wider than the first line's ID, and are read again as
    strings unless ``_whole_ids`` finds each of them whole and stripped;
    in any other chunk, or where that field would be wider than
    ``_LABEL_FIELD_CHARS``, they are read as strings at once, to be
    stripped and encoded by ``_encode_ids``.  A label
    column whose cell there is in its ``_label_table`` goes to that
    table's fixed-width field, ``S8`` in an ASCII chunk when every label
    fits, decoded in numpy by ``_label_codes``, and is read again as
    strings if another cell of it is not a label (padded or unknown).
    Any other label column, as in a file written with ", " separators,
    is read as strings at once.  ``_column_codes`` reads a column of
    strings as it reads a ``csv.reader`` column.  False, with no row
    counted as read, when ``csv.reader`` must read the chunk or word its
    fault: a line of the wrong width or of whitespace only, a cell numpy
    does not read as a number, or an empty ID.  A bad cell that numpy did
    read is raised here, its row counted after the rows read.
    """
    uid, *first = next(filter(str.strip, lines)).rstrip("\r").split(",")
    width = (len(uid) + 8) // 8 * 8
    id_field = f"S{width}" if is_ascii and width <= _LABEL_FIELD_CHARS else object
    tables = {}
    ints = set()
    for j, (attr, cell) in enumerate(zip(schema.attributes, first)):
        if not attr.is_numeric:
            field, keys, codes = _label_table(attr, is_ascii)
            if (keys == _keys([cell], field)).any():
                tables[j] = field, keys, codes
        elif _PLAIN_INT.fullmatch(cell):
            ints.add(j)
    if ints:
        try:
            if _read_chunk(lines, schema, rows, id_field, tables, ints):
                return True
        except DatasetError:
            pass  # the floats word it: a "-0" cell is -0.0, not 0
    return _read_chunk(lines, schema, rows, id_field, tables, set())


def _read_chunk(
    lines: list[str],
    schema: Schema,
    rows: _Rows,
    id_field: str | type,
    tables: dict[int, tuple[str, np.ndarray, np.ndarray]],
    ints: set[int],
) -> bool:
    """One ``np.loadtxt`` read of a chunk for ``_parse_chunk``: IDs go to
    ``id_field``, ``tables`` maps a label column to its ``_label_table``,
    and ``ints`` holds the bucketed columns read as int64.  Each column
    is decoded straight into its column of the chunk's block of
    ``rows``, and the IDs, encoded if read as strings, into its IDs."""
    fields = [("id", id_field)]
    for j, attr in enumerate(schema.attributes):
        if j in tables:
            fields.append((f"c{j}", tables[j][0]))
        elif attr.is_numeric:
            fields.append((f"c{j}", np.int64 if j in ints else np.float64))
        else:
            fields.append((f"c{j}", object))
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads "2.1" into an int field as 2 after this warning.
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(lines, dtype=np.dtype(fields), **_LOADTXT_OPTIONS)
    except (ValueError, DeprecationWarning):
        return False
    start = rows.n
    block = rows.block(len(table))
    # The CSV columns, the IDs' being 0, that one more pass reads as strings.
    redo = [
        j + 1
        for j in tables
        if not _label_codes(table[f"c{j}"], *tables[j], block[:, j])
    ]
    row_ids = table["id"]
    if row_ids.dtype.kind == "S" and not _whole_ids(rows.write_ids(row_ids)):
        redo.insert(0, 0)
    if redo:
        strings = np.loadtxt(
            lines,
            dtype=[(f"f{col}", object) for col in redo],
            usecols=redo,
            **_LOADTXT_OPTIONS,
        )
        if redo[0] == 0:
            row_ids = strings["f0"]
    if row_ids.dtype == object:
        row_ids = list(map(str.strip, row_ids))
        if "" in row_ids:
            return False
        rows.write_ids(_encode_ids(row_ids, start))
    numbers = range(start + 1, start + len(table) + 1)
    for j, attr in enumerate(schema.attributes):
        if attr.is_numeric:
            _bucket_codes(attr, table[f"c{j}"], numbers, block[:, j])
        elif j + 1 in redo:
            block[:, j] = _column_codes(attr, strings[f"f{j + 1}"], start)
        elif j not in tables:  # read as strings at once
            block[:, j] = _column_codes(attr, table[f"c{j}"], start)
    rows.n += len(table)
    return True


def _whole_ids(words: np.ndarray) -> bool:
    """Whether the ``(n, m)`` little-endian 8-byte words of an ``S``
    field of ``8 * m`` bytes hold every ID of its ASCII chunk whole and
    stripped: none filling the field's last byte, where ``np.loadtxt``
    may have cut a longer one, and none empty or starting or ending with
    a space or a control byte below it, a set holding every ASCII byte
    that ``str.strip`` removes."""
    if (words[:, -1] >> 56).any() or ((words[:, 0] & 0xFF) <= 32).any():
        return False
    # An ID holds no NUL, so it ends at the highest nonzero byte of its
    # last nonzero word, which halving shifts bring down to the low byte.
    last = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        np.copyto(last, words[:, j], where=words[:, j] != 0)
    for shift in (32, 16, 8):
        high = last >> shift
        np.copyto(last, high, where=high != 0)
    return not (last <= 32).any()


def _label_table(
    attr: Attribute, is_ascii: bool
) -> tuple[str, np.ndarray, np.ndarray]:
    """The field ``_parse_chunk`` reads a label column into, the ``_keys``
    of the labels it matches there, sorted, and their codes.

    These are the plain labels, equal to their stripped form and free of
    NUL (numpy drops NULs from the end of a string).  ``np.loadtxt`` fills
    a field with a cell as it is, stripping nothing and cutting a longer
    cell to the field's width.  In an ASCII chunk where every plain label
    is at most 7 ASCII characters, the field is ``S8``, and a cell is a
    label exactly when the field's bytes, read as an integer, are the
    label's NUL-padded bytes: a cell of 8 or more characters fills the
    last byte, which no label does.  Otherwise the field is ``U`` one
    character wider than the longest plain label, at most
    ``_LABEL_FIELD_CHARS``, and holds the plain labels shorter than that.
    """
    plain = [
        (label, code)
        for code, label in enumerate(attr.values)
        if label == label.strip() and "\0" not in label
    ]
    if is_ascii and all(len(label) < 8 and label.isascii() for label, _ in plain):
        width, field = 8, "S8"
    else:
        longest = max((len(label) for label, _ in plain), default=0)
        width = min(1 + longest, _LABEL_FIELD_CHARS)
        field = f"U{width}"
    kept = [(label, code) for label, code in plain if len(label) < width]
    keys = _keys([label for label, _ in kept], field)
    codes = np.array([code for _, code in kept], dtype=np.int64)
    order = np.argsort(keys)
    return field, keys[order], codes[order]


def _keys(cells: Sequence[str] | np.ndarray, field: str) -> np.ndarray:
    """``cells`` as ``np.loadtxt`` fills a ``field``, compared as they
    are, or as little-endian 8-byte integers in an ``S8`` field."""
    keys = np.asarray(cells, dtype=field)
    return keys.view("<u8") if field == "S8" else keys


# A label table of at most this many ``S8`` keys is decoded by one
# equality test per key; a larger one, or any ``U`` field, is searched.
_EQUAL_KEYS = 16


def _label_codes(
    cells: np.ndarray, field: str, keys: np.ndarray, codes: np.ndarray, out: np.ndarray
) -> bool:
    """Write the code of each cell of a ``field`` from a non-empty
    ``_label_table`` to ``out``; False if a cell is none of its labels.

    Against at most ``_EQUAL_KEYS`` ``S8`` keys, each key's code plus one
    is summed into the cells equal to it, in the narrowest unsigned type
    that holds it; a cell equal to no key sums to 0.  Against more keys,
    each cell is searched for among them.
    """
    cells = _keys(cells, field)
    if field == "S8" and len(keys) <= _EQUAL_KEYS:
        cells = np.ascontiguousarray(cells)  # copied once out of the records
        total = np.zeros(len(cells), np.min_scalar_type(int(codes.max()) + 1))
        equal = np.empty_like(total)
        for key, code in zip(keys.tolist(), codes.tolist()):
            np.equal(cells, key, out=equal)
            equal *= code + 1
            total += equal
        if not total.all():
            return False
        np.subtract(total, 1, out=out, dtype=np.int64)
        return True
    at = np.searchsorted(keys, cells)
    np.minimum(at, len(keys) - 1, out=at)
    if not (keys[at] == cells).all():
        return False
    np.take(codes, at, out=out)
    return True


def _parse_records(records: Iterable[list[str]], schema: Schema, rows: _Rows) -> None:
    """Write the stripped IDs and the codes of a chunk of ``csv.reader``
    records to ``rows``.

    Blank records are skipped.  The first wrong width, empty ID or bad
    cell is raised, with its row number counted after the rows read.
    """
    width = schema.k + 1
    records = [r for r in records if any(map(str.strip, r))]
    start = rows.n
    for number, record in enumerate(records, start=start + 1):
        if len(record) != width:
            raise DatasetError(
                f"row {number}: expected {width} columns, got {len(record)}"
            )
        if not record[0].strip():
            raise DatasetError(f"row {number}: empty row ID")
    block = rows.block(len(records))
    rows.write_ids(_encode_ids([record[0].strip() for record in records], start))
    for j, attr in enumerate(schema.attributes):
        column = [record[j + 1] for record in records]
        block[:, j] = _column_codes(attr, column, start)
    rows.n += len(records)


def _column_codes(attr: Attribute, cells: Sequence[str], start: int) -> np.ndarray:
    """Domain index of every CSV cell of one attribute's column.

    A bucketed column whose every cell ``float`` reads (as it reads the
    cell stripped) is bucketed in one pass.  Any other column is stripped,
    a bucketed one's cells read as numbers where they parse, and decoded
    by ``_value_codes``, which words the first error.
    """
    n = len(cells)
    if attr.is_numeric:
        try:
            numbers = np.fromiter(map(float, cells), np.float64, n)
        except ValueError:
            pass
        else:
            return _bucket_codes(attr, numbers, range(start + 1, start + n + 1))
    values: list[object] = list(map(str.strip, cells))
    if attr.is_numeric:
        for slot, cell in enumerate(values):
            try:
                values[slot] = float(cell)
            except ValueError:
                pass
    return _value_codes(attr, values, start)
