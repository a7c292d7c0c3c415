"""Tabular datasets with finite attribute domains, stored as domain indices.

Every attribute has a finite domain: either an explicit list of labels or
a set of numeric buckets defined by ascending bin edges.  Rows carry a
unique ID plus one value per attribute.  A Dataset checks every value
once and stores it as its index in the attribute's domain, in one
``(n, k)`` integer array.  That index is the position of the single high
bit in the paper's one-hot encoding, so it carries exactly the same
information; the shuffling stages downstream only ever move rows of
indices, and labels come back only when a table is exported.

``load_csv`` reads a file in chunks of records and turns each chunk
straight into a block of indices, so besides the row IDs loading holds
the index array plus one chunk of records, never a ``Row`` or a record
per row.  A CSV cell of a bucketed
attribute is read as a number first and as a bucket label only when it
does not parse; a string value given to ``Dataset`` in a ``Row`` is tried
as a label first.
"""

from __future__ import annotations

import csv
import gc
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np


class DatasetError(ValueError):
    """Raised for malformed schemas, rows, or input files."""


def _format_number(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


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

    def bucket_range(self, index: int) -> tuple[float, float]:
        """Half-open range [lo, hi) of bucket ``index``."""
        if not self.is_numeric:
            raise DatasetError(f"attribute {self.name!r} has no bucketing rule")
        return self.bin_edges[index], self.bin_edges[index + 1]


def _column_codes(
    attr: Attribute, cells: Sequence[object], start: int = 0
) -> np.ndarray:
    """Domain index of every cell of one attribute's column.

    This is the only place a value is checked against its domain.  A cell
    is one of the attribute's labels or, for a bucketed attribute, a
    number or numeric string, which lands in the bucket [lo, hi) holding
    it.  Errors name the 1-based row of the offending cell, counting
    ``start`` rows before the column.  A column of labels only, or of
    numbers only, is converted whole; the cell-by-cell loop runs for
    mixed columns and to word the first error exactly.
    """

    def error(slot: int, problem: str) -> DatasetError:
        return DatasetError(
            f"row {start + slot + 1}, attribute {attr.name!r}: {problem}"
        )

    def buckets(x: np.ndarray, slots: Sequence[int]) -> np.ndarray:
        edges = np.array(attr.bin_edges)
        outside = ~((edges[0] <= x) & (x < edges[-1]))  # NaN is outside too
        if outside.any():
            i = int(np.argmax(outside))
            value = float(x[i])
            if math.isnan(value):
                raise error(slots[i], f"value {value!r} is not a number")
            raise error(
                slots[i],
                f"value {value!r} outside the bucket range "
                f"[{_format_number(edges[0])}, {_format_number(edges[-1])})",
            )
        return np.searchsorted(edges, x, side="right") - 1

    labels = {label: i for i, label in enumerate(attr.values)}
    if not attr.is_numeric:
        try:
            return np.fromiter(map(labels.get, cells), np.int64, len(cells))
        except TypeError:
            pass  # a cell is not a label: the loop below words the error
    elif set(map(type, cells)) <= {int, float}:
        numbers = np.fromiter(map(float, cells), np.float64, len(cells))
        return buckets(numbers, range(len(cells)))

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
        elif isinstance(cell, (int, float)) and not isinstance(cell, bool):
            if not attr.is_numeric:
                raise error(slot, f"no bucketing rule for numeric value {cell!r}")
            number = float(cell)
        else:
            raise error(slot, f"unsupported value {cell!r}")
        number_slots.append(slot)
        numbers.append(number)

    out = np.array(codes, dtype=np.int64)
    if numbers:
        out[number_slots] = buckets(np.array(numbers), number_slots)
    return out


def _auto_labels(edges: tuple[float, ...]) -> tuple[str, ...]:
    labels = []
    for lo, hi in zip(edges, edges[1:]):
        if math.isinf(hi):
            labels.append(f"{_format_number(lo)}+")
        else:
            labels.append(f"[{_format_number(lo)},{_format_number(hi)})")
    return tuple(labels)


def _spec_list(spec: dict, key: str, name: str) -> list:
    value = spec[key]
    if not isinstance(value, list):
        raise DatasetError(
            f"attribute {name!r}: {key!r} must be a list, got {value!r}"
        )
    return value


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
        specs = payload.get("attributes") if isinstance(payload, dict) else None
        if not isinstance(specs, list):
            raise DatasetError("schema payload must have an 'attributes' list")
        attrs = []
        for spec in specs:
            if not isinstance(spec, dict):
                raise DatasetError(f"schema attribute {spec!r} must be an object")
            name = spec.get("name")
            if not isinstance(name, str):
                raise DatasetError("every schema attribute needs a 'name' string")
            if "bins" in spec:
                bins = _spec_list(spec, "bins", name)
                try:
                    edges = tuple(math.inf if e is None else float(e) for e in bins)
                except (TypeError, ValueError):
                    raise DatasetError(
                        f"attribute {name!r}: bin edges must be numbers or null"
                    ) from None
                values = (
                    tuple(_spec_list(spec, "labels", name))
                    if spec.get("labels")
                    else _auto_labels(edges)
                )
                attrs.append(Attribute(name, values, edges))
            elif "domain" in spec:
                domain = _spec_list(spec, "domain", name)
                attrs.append(Attribute(name, tuple(str(v) for v in domain)))
            else:
                raise DatasetError(
                    f"attribute {name!r} needs either 'domain' or 'bins'"
                )
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


def _check_unique(ids: Sequence[str]) -> None:
    if len(set(ids)) == len(ids):
        return
    seen: set[str] = set()
    for number, uid in enumerate(ids, start=1):
        if uid in seen:
            raise DatasetError(f"row {number}: duplicate row ID {uid!r}")
        seen.add(uid)


class Dataset:
    """Rows checked against a schema and stored as domain indices.

    ``ids`` keeps the row IDs in input order and ``codes[i, j]`` is the
    index of row i's value in the domain of attribute j.  Row IDs must be
    unique and every row must carry one value per attribute.  String
    values of a bucketed attribute are tried as bucket labels first, then
    as numbers.
    """

    def __init__(self, schema: Schema, rows: Iterable[Row]) -> None:
        rows = tuple(rows)
        for number, row in enumerate(rows, start=1):
            if len(row.values) != schema.k:
                raise DatasetError(
                    f"row {number} ({row.uid!r}) has {len(row.values)} values, "
                    f"expected {schema.k}"
                )
        ids = tuple(row.uid for row in rows)
        _check_unique(ids)
        codes = np.empty((len(rows), schema.k), dtype=np.int64)
        for j, attr in enumerate(schema.attributes):
            codes[:, j] = _column_codes(attr, [row.values[j] for row in rows])
        self._store(schema, ids, codes)

    @classmethod
    def _from_codes(
        cls, schema: Schema, ids: tuple[str, ...], codes: np.ndarray
    ) -> Dataset:
        """A dataset of already checked IDs and codes."""
        dataset = cls.__new__(cls)
        dataset._store(schema, ids, codes)
        return dataset

    def _store(self, schema: Schema, ids: tuple[str, ...], codes: np.ndarray) -> None:
        codes.flags.writeable = False
        self.schema = schema
        self.ids = ids
        self.codes = codes

    @property
    def n(self) -> int:
        return len(self.ids)

    def column(self, name: str) -> np.ndarray:
        """Domain index of attribute ``name`` for every row."""
        return self.codes[:, self.schema.index_of(name)]


# Records read and converted at a time: large enough that per-chunk work
# is amortised, small enough that a chunk's cell lists stay a few MB.
_CHUNK_ROWS = 1 << 14


def load_csv(path: str, schema: Schema) -> Dataset:
    """Load rows from a CSV file whose first column is the unique row ID.

    The header must name every schema attribute, in schema order, after
    the ID column.  The file is read in chunks of records, and each chunk
    goes straight to a block of domain indices, so besides the IDs memory
    holds the codes and one chunk, never a ``Row`` per line; the blocks
    are joined once at the end.  Cells are stripped of surrounding
    whitespace; a cell of a bucketed attribute that parses as a number is
    read as a number first, and only otherwise as a bucket label.  Rows
    are numbered from 1 after the header, not counting blank lines, which
    are skipped.  Each chunk is checked as it is read, and IDs are checked
    for duplicates once the whole file is in.
    """
    width = schema.k + 1
    ids: list[str] = []
    blocks: list[np.ndarray] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty")
        got = [h.strip().lower() for h in header[1:]]
        expected = [name.lower() for name in schema.names]
        if got != expected:
            raise DatasetError(
                f"{path}: header columns {header[1:]!r} do not match schema "
                f"attributes {list(schema.names)!r}"
            )
        # Every csv record is a GC-tracked list and none is in a cycle, so
        # collections during the read find nothing but cost a third of it.
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                columns = _stripped_columns(chunk, width)
                if columns is None:  # blank records, or a layout fault
                    chunk = [r for r in chunk if any(map(str.strip, r))]
                    _check_layout(chunk, width, len(ids))
                    if not chunk:
                        continue
                    columns = _stripped_columns(chunk, width)
                block = np.empty((len(chunk), schema.k), dtype=np.int64)
                for j, attr in enumerate(schema.attributes):
                    cells = columns[j + 1]
                    if attr.is_numeric:
                        cells = _read_numbers(cells)
                    block[:, j] = _column_codes(attr, cells, len(ids))
                ids.extend(columns[0])
                blocks.append(block)
            _check_unique(ids)
        except DatasetError as exc:
            raise DatasetError(f"{path} {exc}") from None
        finally:
            if gc_enabled:
                gc.enable()
    codes = np.concatenate(blocks) if blocks else np.empty((0, schema.k), np.int64)
    return Dataset._from_codes(schema, tuple(ids), codes)


def _stripped_columns(records: list[list[str]], width: int) -> list[list[str]] | None:
    """Stripped columns of records that all have ``width`` cells and an ID.

    Returns None when a record is blank, has another width or an empty ID.
    """
    if set(map(len, records)) != {width}:
        return None
    columns = [list(map(str.strip, column)) for column in zip(*records)]
    return None if "" in columns[0] else columns


def _check_layout(records: list[list[str]], width: int, start: int) -> None:
    """Raise for the first wrong width or empty ID among non-blank ``records``."""
    for number, record in enumerate(records, start=start + 1):
        if len(record) != width:
            raise DatasetError(
                f"row {number}: expected {width} columns, got {len(record)}"
            )
        if not record[0].strip():
            raise DatasetError(f"row {number}: empty row ID")


def _read_numbers(cells: list[str]) -> list[object]:
    """Cells of a bucketed attribute: numbers where they parse, else labels."""
    try:
        return list(map(float, cells))
    except ValueError:
        return [_read_cell(cell) for cell in cells]


def _read_cell(cell: str) -> object:
    try:
        return float(cell)
    except ValueError:
        return cell
