"""Shared fixtures: the six-person fixture dataset and a random-case
generator for the property suites."""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from dpshuffle import (
    Attribute,
    Dataset,
    Row,
    Schema,
    load_csv,
)

DATA_DIR = Path(__file__).parent / "data"

# The fixture's known shuffle realization, used to pin down cross-group
# counting: entry i names the input slot whose value lands in slot i.
AFTER_SHUFFLE_PERMS = {
    "Name": (2, 0, 1, 4, 3, 5),
    "Age": (1, 0, 2, 5, 4, 3),
    "Height:Weight": (0, 1, 2, 3, 5, 4),
}

EXAMPLE_QUERY = "count where age < 40 and weight > 60"


def channel_columns(tied) -> dict[str, np.ndarray]:
    """Each channel's ``(n, width)`` block of ``tied.codes``, by channel
    name: column p holds member p's domain indices.  Builds a copy, so
    call it outside loops."""
    index = tied.schema.index_of
    return {
        ch.name: tied.codes[:, [index(m) for m in ch.members]]
        for ch in tied.channels
    }


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def people_schema() -> Schema:
    with open(DATA_DIR / "people_schema.json", encoding="utf-8") as fh:
        return Schema.from_dict(json.load(fh))


@pytest.fixture
def people_dataset(people_schema) -> Dataset:
    return load_csv(str(DATA_DIR / "people.csv"), people_schema)


def refuse_group_orders(monkeypatch) -> None:
    """Makes drawing a shuffle's group orders fail, on the one path by
    which release attempts and risk trials draw them."""
    from dpshuffle import utility

    def refuse(*args):
        raise AssertionError("group orders were drawn")

    monkeypatch.setattr(utility, "_draw_orders", refuse)


def draw_every_group(monkeypatch) -> list:
    """Turns off the one-group short-cut: every count goes through the
    drawn group orders.  Returns the arguments of each draw, so a test
    can check that orders were drawn."""
    from dpshuffle import utility

    draws = []
    original = utility._draw_orders

    def draw(*args):
        draws.append(args)
        return original(*args)

    monkeypatch.setattr(utility, "_in_one_group", lambda groups, hits: False)
    monkeypatch.setattr(utility, "_draw_orders", draw)
    return draws


@pytest.fixture
def write_json(tmp_path):
    """Factory writing a payload to a JSON file under tmp_path."""

    def _write(name: str, payload: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        return str(path)

    return _write


def random_schema(rnd: random.Random, max_attributes: int = 6) -> Schema:
    attrs = []
    for i in range(rnd.randint(2, max_attributes)):
        if rnd.random() < 0.5:
            size = rnd.randint(2, 5)
            attrs.append(
                Attribute(f"cat{i}", tuple(f"c{i}v{j}" for j in range(size)))
            )
        else:
            edges = [float(rnd.randint(0, 5))]
            for _ in range(rnd.randint(2, 4)):
                edges.append(edges[-1] + rnd.randint(1, 20))
            labels = tuple(f"b{i}x{j}" for j in range(len(edges) - 1))
            attrs.append(Attribute(f"num{i}", labels, tuple(edges)))
    return Schema(tuple(attrs))


def random_dataset(rnd: random.Random, schema: Schema, max_rows: int = 200) -> Dataset:
    rows = []
    for j in range(rnd.randint(2, max_rows)):
        values = []
        for attr in schema.attributes:
            if attr.is_numeric:
                lo, hi = attr.bin_edges[0], attr.bin_edges[-1]
                values.append(rnd.uniform(lo, hi - 1e-9))
            else:
                values.append(rnd.choice(attr.values))
        rows.append(Row(f"u{j}", tuple(values)))
    return Dataset(schema, tuple(rows))


def random_tied_case(rnd: random.Random) -> dict:
    """One random (dataset, tie set, in-group query, scheme, seed) case.

    The query's attributes always lie inside the tied set, so its count
    must survive any shuffle unchanged.
    """
    from dpshuffle.queryplan import Predicate, QuerySpec, validate_query

    schema = random_schema(rnd)
    dataset = random_dataset(rnd, schema)
    names = list(schema.names)
    m = rnd.randint(1, len(names))
    chosen = set(rnd.sample(names, m))
    tied = tuple(name for name in names if name in chosen)

    predicates = []
    for name in rnd.sample(tied, rnd.randint(1, len(tied))):
        attr = schema.attribute(name)
        if attr.is_numeric:
            op = rnd.choice(("<", ">", "<=", ">=", "="))
            lo, hi = attr.bin_edges[0], attr.bin_edges[-1]
            value: object = round(rnd.uniform(lo, hi - 1e-9), 3)
        else:
            op = "="
            value = rnd.choice(attr.values)
        predicates.append(Predicate(name, op, value))
    query = validate_query(QuerySpec(tuple(predicates)), schema)

    n = dataset.n
    return {
        "dataset": dataset,
        "tied": tied,
        "query": query,
        "t": rnd.randint(1, max(1, n // 2)),
        "S": rnd.randint(2, 4),
        "seed": rnd.getrandbits(32),
    }


@pytest.fixture
def tied_case_factory():
    return random_tied_case
