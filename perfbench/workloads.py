"""Workload definitions, the seeded data generator and the numpy reference.

Every workload runs over synthetic tables with six attributes: an 8-label
region, 6 age buckets, a 2-label sex, 6 weight buckets, 5 income buckets
with an open top and 52 weekly time buckets.  All values are drawn from
``numpy.random.default_rng`` seeded by the workload seed, so one seed
always gives the same CSVs, schema and configs.

A workload is a sequence of *rounds*; a round is the fixed list of
operations (``dpshuffle run`` releases or one ``dpshuffle risk-sweep``)
that the closed loop executes back to back.  Round 0 is what the traced
counts describe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REGIONS = ("north", "south", "east", "west", "centre", "coast", "hills", "isles")
SEXES = ("F", "M")
COLUMNS = ("Region", "Age", "Sex", "Weight", "Income", "Time")

# Bucket edges of the numeric attributes; None is an open top edge.
BUCKETS = {
    "Age": (0, 18, 30, 40, 50, 65, 130),
    "Weight": (0, 50, 60, 70, 80, 100, 250),
    "Income": (0, 20_000, 40_000, 60_000, 100_000, None),
    "Time": tuple(range(53)),
}

# A query is (predicates, during-window or None), rendered to the CLI
# grammar by query_text and counted in numpy by reference_count.
TIED_QUERY = ((("Age", "<", 40), ("Weight", ">", 60)), None)
CROSS_QUERY = ((("Age", ">=", 50), ("Income", ">", 60_000)), None)
WINDOW_QUERY = ((("Weight", ">", 60),), ("Time", 10, 20))
# Spans the tied Age and the untied Weight, so the released count drifts.
RETRY_QUERY = ((("Age", "<", 65), ("Weight", ">", 50)), None)

# The fields a released report may hold, and must hold.
REPORT_FIELDS = frozenset(
    (
        "query",
        "c_prime",
        "epsilon_signed",
        "epsilon_report",
        "loss_bound",
        "plan_digest",
        "seed",
        "retries_used",
        "t",
        "S",
        "mode",
        "bound_status",
    )
)


def schema_dict() -> dict:
    return {
        "attributes": [
            {"name": "Region", "domain": list(REGIONS)},
            {"name": "Age", "bins": list(BUCKETS["Age"])},
            {"name": "Sex", "domain": list(SEXES)},
            {"name": "Weight", "bins": list(BUCKETS["Weight"])},
            {"name": "Income", "bins": list(BUCKETS["Income"])},
            {"name": "Time", "bins": list(BUCKETS["Time"])},
        ]
    }


@dataclass(frozen=True)
class Table:
    """Generated rows: IDs plus one integer array per column."""

    ids: tuple[str, ...]
    columns: dict[str, np.ndarray]

    @property
    def n(self) -> int:
        return len(self.ids)

    def to_csv(self) -> str:
        cols = self.columns
        region = [REGIONS[i] for i in cols["Region"]]
        sex = [SEXES[i] for i in cols["Sex"]]
        rows = zip(
            self.ids,
            region,
            cols["Age"].tolist(),
            sex,
            cols["Weight"].tolist(),
            cols["Income"].tolist(),
            cols["Time"].tolist(),
        )
        lines = ["id," + ",".join(COLUMNS)]
        lines.extend(",".join(map(str, row)) for row in rows)
        return "\n".join(lines) + "\n"


def generate_table(n: int, rng: np.random.Generator) -> Table:
    """Draw n rows whose attributes are independent of each other.

    Row IDs are ``r`` plus 8 hex digits, an odd-multiplier bijection of
    the row index, so they are unique and easy to search a trace for.
    """
    mult = np.uint64(2 * int(rng.integers(1, 2**31)) + 1)
    offset = np.uint64(rng.integers(0, 2**32))
    keys = (np.arange(n, dtype=np.uint64) * mult + offset) % np.uint64(2**32)
    ids = tuple(f"r{int(k):08x}" for k in keys)
    columns = {
        "Region": rng.integers(0, len(REGIONS), n),
        "Age": rng.integers(0, 80, n),
        "Sex": rng.integers(0, len(SEXES), n),
        "Weight": rng.integers(40, 150, n),
        "Income": rng.integers(0, 200_000, n),
        "Time": rng.integers(0, 52, n),
    }
    return Table(ids, columns)


def _edges(name: str) -> np.ndarray:
    return np.array([math.inf if e is None else float(e) for e in BUCKETS[name]])


def _predicate_buckets(edges: np.ndarray, op: str, value: float) -> np.ndarray:
    """Buckets a predicate can intersect, the rule the README documents."""
    lo, hi = edges[:-1], edges[1:]
    if op == "<":
        return lo < value
    if op == "<=":
        return lo <= value
    if op in (">", ">="):
        return value < hi
    return (lo <= value) & (value < hi)


def reference_count(table: Table, query) -> int:
    """The count of ``query`` over ``table``, computed in numpy alone."""
    predicates, window = query
    keep = np.ones(table.n, dtype=bool)
    for name, op, value in predicates:
        edges = _edges(name)
        buckets = np.searchsorted(edges, table.columns[name], side="right") - 1
        keep &= _predicate_buckets(edges, op, value)[buckets]
    if window is not None:
        name, start, end = window
        edges = _edges(name)
        buckets = np.searchsorted(edges, table.columns[name], side="right") - 1
        keep &= ((edges[:-1] <= end) & (start < edges[1:]))[buckets]
    return int(np.count_nonzero(keep))


def query_text(query) -> str:
    predicates, window = query
    text = "count where " + " and ".join(
        f"{name.lower()} {op} {value}" for name, op, value in predicates
    )
    if window is not None:
        text += f" during {window[1]}..{window[2]}"
    return text


def query_attributes(query) -> set[str]:
    predicates, window = query
    names = {name for name, _, _ in predicates}
    if window is not None:
        names.add(window[0])
    return names


def epsilon_closed_form(mode: str, t: int, n: int, S: int) -> float:
    """Signed budget for (t, n1, S), with n1 = ceil(n/t) the largest batch."""
    n1 = -(-n // t)
    if mode == "IS":
        return math.log(t / (n1 - 1) ** S)
    return math.log(1.0 / (n1 - 1) ** S)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a ``run`` release or a ``risk-sweep``."""

    kind: str  # "run" or "sweep"
    config: dict
    table: int  # index into the workload's generated tables
    query: tuple | None = None  # run only

    @property
    def tied(self) -> bool:
        """Whether a release's query lies inside the tied attribute set."""
        tied = self.config.get("tied_attributes")
        return tied is None or query_attributes(self.query) <= set(tied)


def _derived_seed(seed: int, *path: int) -> int:
    return int(np.random.default_rng([seed, *path]).integers(0, 2**31))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "release", "sweep" or "retry"
    rows: int
    tables: int = 1
    t: int = 0
    mode: str = "IS"

    def round_ops(self, seed: int, round_index: int) -> list[Op]:
        if self.kind == "release":
            config = {"seed": _derived_seed(seed, 0), "t": self.t, "S": 2, "mode": self.mode}
            return [Op("run", config, 0, TIED_QUERY)]
        if self.kind == "sweep":
            n = self.rows
            config = {
                "seed": _derived_seed(seed, 0),
                "hypothesis_grid": [[n // 10, 2], [n // 20, 2], [n // 20, 3], [n // 50, 3]],
                "trials": 4,
                "tied_attributes": ["Age", "Weight"],
                "time_attribute": "Time",
                "workload": [query_text(q) for q in (TIED_QUERY, CROSS_QUERY, WINDOW_QUERY)],
            }
            return [Op("sweep", config, 0)]
        # retry: RETRY_RELEASES releases per round, each with a fresh
        # seed, cycling through the generated tables.
        ops = []
        for i in range(RETRY_RELEASES):
            k = round_index * RETRY_RELEASES + i
            config = {
                "seed": _derived_seed(seed, 1, k),
                "t": self.t,
                "S": 2,
                "tied_attributes": ["Age"],
            }
            ops.append(Op("run", config, k % self.tables, RETRY_QUERY))
        return ops


RETRY_RELEASES = 8

WORKLOADS = {
    w.name: w
    for w in (
        Workload("release_is", "release", 10_000, t=100),
        Workload("release_cis", "release", 2000, t=1000, mode="CIS"),
        Workload("sweep_small_batches", "sweep", 1000),
        Workload("release_retry", "retry", 8421, tables=24, t=401),
    )
}
