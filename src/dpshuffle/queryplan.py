"""Count-query parsing and query-driven attribute tying.

Queries follow a small grammar, case-insensitive throughout:

    count where <attr> <op> <value> [and <attr> <op> <value> ...]
               [during <start>..<end>]

Categorical attributes admit only ``=``; numeric attributes admit
``=, <, >, <=, >=`` evaluated against bucket ranges.  The ``during``
clause restricts a designated numeric time attribute to an inclusive
window.

Tying fuses the attributes a query touches into one composite channel,
so their values travel together through every shuffle and the query's
joint counts survive unchanged.  Untied attributes each keep their own
channel.  A tied dataset is the dataset's own ``(n, k)`` array of domain
indices plus that grouping: a channel names the columns a shuffle moves
as one, the indices standing for the high bits of the paper's one-hot
encodings of a slot's tied values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dataset import Dataset, DatasetError, Schema, _format_number

OPERATORS = ("<=", ">=", "=", "<", ">")


class QueryError(ValueError):
    """Raised for unparseable or schema-invalid queries."""


@dataclass(frozen=True)
class Predicate:
    attribute: str
    op: str
    value: str | float

    def text(self) -> str:
        value = (
            _format_number(self.value)
            if isinstance(self.value, float)
            else str(self.value)
        )
        return f"{self.attribute} {self.op} {value}"


@dataclass(frozen=True)
class TimeHorizon:
    attribute: str
    start: float
    end: float

    def text(self) -> str:
        return f"during {_format_number(self.start)}..{_format_number(self.end)}"


@dataclass(frozen=True)
class QuerySpec:
    predicates: tuple[Predicate, ...]
    time_horizon: TimeHorizon | None = None

    # The schema ``validate_query`` checked this query against, where it
    # built it; not a field, so equality, copies and exports ignore it.
    _checked_for: ClassVar[Schema | None] = None

    def text(self) -> str:
        head = "count where " + " and ".join(p.text() for p in self.predicates)
        if self.time_horizon is not None:
            head += " " + self.time_horizon.text()
        return head


_QUERY_RE = re.compile(
    r"^\s*count\s+where\s+(?P<body>.+?)"
    r"(?:\s+during\s+(?P<start>\S+?)\s*\.\.\s*(?P<end>\S+))?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_PREDICATE_RE = re.compile(r"^(?P<attr>.+?)\s*(?P<op><=|>=|=|<|>)\s*(?P<value>.+)$")


def _parse_float(token: str | float, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise QueryError(f"{what} {token!r} is not a number")
    return value


def parse_query(
    text: str, schema: Schema, time_attribute: str | None = None
) -> QuerySpec:
    """Parse and validate a query against ``schema``.

    ``time_attribute`` names the numeric attribute a ``during`` clause
    applies to; an attribute literally named "time" is used as fallback.
    """
    match = _QUERY_RE.match(text)
    if match is None:
        raise QueryError(
            f"cannot parse query {text!r}: expected "
            f"'count where <attr> <op> <value> [and ...] [during <a>..<b>]'"
        )
    predicates = []
    for clause in re.split(r"\s+and\s+", match.group("body"), flags=re.IGNORECASE):
        pm = _PREDICATE_RE.match(clause.strip())
        if pm is None:
            raise QueryError(f"cannot parse predicate {clause.strip()!r}")
        raw_value = pm.group("value").strip().strip("'\"")
        predicates.append(Predicate(pm.group("attr").strip(), pm.group("op"), raw_value))

    horizon = None
    if match.group("start") is not None:
        name = time_attribute
        if name is None:
            for attr in schema.attributes:
                if attr.name.lower() == "time":
                    name = attr.name
                    break
        if name is None:
            raise QueryError(
                "query has a 'during' clause but no time attribute is "
                "configured and the schema has none named 'time'"
            )
        horizon = TimeHorizon(
            name,
            _parse_float(match.group("start"), "time window start"),
            _parse_float(match.group("end"), "time window end"),
        )

    return validate_query(QuerySpec(tuple(predicates), horizon), schema)


def validate_query(query: QuerySpec, schema: Schema) -> QuerySpec:
    """Check a query against the schema, canonicalising names and values.

    A query this returned is returned as it is when checked against the
    same schema again, so each function taking a query checks it and a
    query is checked once however many of them it passes through.
    """
    if query._checked_for is schema:
        return query
    if not query.predicates and query.time_horizon is None:
        raise QueryError("query must have at least one predicate or a time window")
    predicates = []
    for pred in query.predicates:
        try:
            attr = schema.attribute(pred.attribute)
        except DatasetError:
            raise QueryError(
                f"query references unknown attribute {pred.attribute!r}"
            ) from None
        if pred.op not in OPERATORS:
            raise QueryError(f"unknown operator {pred.op!r}")
        if attr.is_numeric:
            value: str | float = _parse_float(
                pred.value if isinstance(pred.value, float) else str(pred.value),
                f"value for {attr.name!r}",
            )
        else:
            if pred.op != "=":
                raise QueryError(
                    f"categorical attribute {attr.name!r} only supports '=', "
                    f"got {pred.op!r}"
                )
            value = _match_label(attr.values, str(pred.value), attr.name)
        predicates.append(Predicate(attr.name, pred.op, value))

    horizon = query.time_horizon
    if horizon is not None:
        try:
            attr = schema.attribute(horizon.attribute)
        except DatasetError:
            raise QueryError(
                f"time attribute {horizon.attribute!r} is not in the schema"
            ) from None
        if not attr.is_numeric:
            raise QueryError(
                f"time attribute {attr.name!r} must have numeric buckets"
            )
        start = _parse_float(horizon.start, "time window start")
        end = _parse_float(horizon.end, "time window end")
        if start > end:
            raise QueryError(f"time window start {start} exceeds end {end}")
        horizon = TimeHorizon(attr.name, start, end)
    checked = QuerySpec(tuple(predicates), horizon)
    object.__setattr__(checked, "_checked_for", schema)  # frozen, not a field
    return checked


def _match_label(labels: tuple[str, ...], value: str, attr_name: str) -> str:
    if value in labels:
        return value
    lowered = [label for label in labels if label.lower() == value.lower()]
    if len(lowered) == 1:
        return lowered[0]
    raise QueryError(
        f"value {value!r} is not in the domain of attribute {attr_name!r}"
    )


def relevant_attributes(query: QuerySpec, schema: Schema) -> tuple[str, ...]:
    """Attributes the query touches, in schema order."""
    query = validate_query(query, schema)
    touched = {p.attribute for p in query.predicates}
    if query.time_horizon is not None:
        touched.add(query.time_horizon.attribute)
    return tuple(name for name in schema.names if name in touched)


@dataclass(frozen=True)
class Channel:
    """A shuffling unit: one attribute, or several tied together."""

    name: str
    members: tuple[str, ...]


class TiedDataset(Dataset):
    """A dataset whose attributes are grouped into shuffling channels.

    ``schema``, the stored IDs and the read-only ``codes`` array are the
    dataset's own, shared rather than copied or decoded.  ``channels``
    groups the attributes: the members of a channel are columns of
    ``codes`` that a shuffle moves together, so slot i of a channel's
    members belongs to one input row until shuffling breaks the linkage
    with other channels.
    """

    def __init__(
        self,
        schema: Schema,
        ids: tuple[str, ...] | np.ndarray,
        codes: np.ndarray,
        channels: tuple[Channel, ...],
        tied_channel: str,
    ) -> None:
        self._store(schema, ids, codes)
        self.channels = channels
        self.tied_channel = tied_channel

    @property
    def g(self) -> int:
        return len(self.channels)


def tie_attributes(
    dataset: Dataset, relevant: tuple[str, ...] | list[str]
) -> TiedDataset:
    """Fuse the ``relevant`` attributes into one composite channel.

    With m tied attributes out of k the result has g = k - m + 1
    channels.  The composite sits at the position of its earliest member
    and is named by joining member names with ':'.  The result shares
    the dataset's codes; a shuffle moves a channel's member columns
    through one permutation, so it can never separate tied values.
    """
    schema = dataset.schema
    if not relevant:
        raise QueryError("cannot tie an empty attribute set")
    resolved = []
    for name in relevant:
        try:
            canonical = schema.attribute(name).name
        except DatasetError:
            raise QueryError(f"cannot tie unknown attribute {name!r}") from None
        if canonical not in resolved:
            resolved.append(canonical)
    tied = tuple(name for name in schema.names if name in resolved)
    if len(tied) > 1 and ":".join(tied) in schema.names:
        raise QueryError(f"tied channel {':'.join(tied)!r} clashes with an attribute name")

    channels: list[Channel] = []
    placed = False
    for name in schema.names:
        if name in tied:
            if not placed:
                channels.append(Channel(":".join(tied), tied))
                placed = True
        else:
            channels.append(Channel(name, (name,)))

    return TiedDataset(
        schema, dataset._ids, dataset.codes, tuple(channels), ":".join(tied)
    )


def bucket_mask(attr, pred: Predicate) -> tuple[bool, ...]:
    """Which domain indices of ``attr`` satisfy ``pred``.

    A numeric bucket [lo, hi) matches when it overlaps the predicate's
    solution set, i.e. when some value in the bucket could satisfy it.
    """
    if not attr.is_numeric:
        target = attr.values.index(pred.value)
        return tuple(i == target for i in range(attr.size))
    edges = np.array(attr.bin_edges)
    lo, hi, value = edges[:-1], edges[1:], float(pred.value)
    if pred.op == "<":
        mask = lo < value
    elif pred.op == "<=":
        mask = lo <= value
    elif pred.op in (">", ">="):
        mask = value < hi
    else:
        mask = (lo <= value) & (value < hi)
    return tuple(mask.tolist())


def horizon_mask(attr, horizon: TimeHorizon) -> tuple[bool, ...]:
    """Which buckets overlap the inclusive window [start, end]."""
    edges = np.array(attr.bin_edges)
    return tuple(((edges[:-1] <= horizon.end) & (horizon.start < edges[1:])).tolist())
