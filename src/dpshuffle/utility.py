"""Count queries, loss accounting, and risk-driven scheme selection.

The released answer to a count query is its count over the shuffled
output database.  Because shuffling within a channel only permutes its
whole rows, a query whose attributes all sit inside the tied channel is
answered exactly; queries that span channels can drift, and the drift
is bounded by loss <= c' * |e^eps - 1|.

A release attempt or risk trial never builds that output database.  Each
condition of a query is evaluated once, on the tied input rows, into one
boolean hit vector per touched channel (``channel_hits``).  Slot i of a
group's channels holds the values of input row ``order[i]`` of the
group's order (``shuffler.group_orders``), so the released count is the
number of slots whose rows, gathered through each touched group's order,
hit in every group (``count_through``): exactly ``count_query`` of the
shuffled table.

A release (``pipeline.run_on_dataset``) and a risk sweep
(``select_scheme``) share one setup, ``_tie_workload``: it ties the
configured attributes, or by default every attribute the queries touch,
and evaluates each query's ``channel_hits``.

Scheme selection searches a finite grid of (t, S) candidates by
regularized empirical risk: each candidate's n1 and budget come from
``privacy.account``, as a release's do, seeded shuffle trials measure
the workload's mean loss, a complexity penalty lambda * G(scheme)
discourages heavier schemes, and the argmin wins with ties broken
toward fewer shufflers, then fewer batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from statistics import fmean
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset, fields_dict
from .partition import build_plan, plan_batches
from .privacy import account
from .queryplan import (
    QuerySpec,
    TiedDataset,
    bucket_mask,
    horizon_mask,
    parse_query,
    relevant_attributes,
    tie_attributes,
    validate_query,
)
from .seeds import derive_seed
from .shuffler import group_orders


class RiskError(ValueError):
    """Raised for invalid risk configurations."""


def query_hits(db: Dataset, query: QuerySpec) -> dict[str, np.ndarray]:
    """Each attribute the query touches -> which rows of ``db`` meet
    every condition on it.

    A condition looks up a column of ``db``'s codes in a mask of the
    matching domain indices; conditions on one attribute are AND-ed.
    """
    query = validate_query(query, db.schema)
    conditions = [
        (pred.attribute, bucket_mask(db.schema.attribute(pred.attribute), pred))
        for pred in query.predicates
    ]
    if query.time_horizon is not None:
        name = query.time_horizon.attribute
        conditions.append((name, horizon_mask(db.schema.attribute(name), query.time_horizon)))
    hits: dict[str, np.ndarray] = {}
    for name, mask in conditions:
        hit = np.asarray(mask)[db.column(name)]
        hits[name] = hits[name] & hit if name in hits else hit
    return hits


def count_hits(hits: Mapping[str, np.ndarray]) -> int:
    """Rows set in every hit vector."""
    return int(np.count_nonzero(reduce(np.logical_and, hits.values())))


def count_query(db: Dataset, query: QuerySpec) -> int:
    """Rows of ``db`` satisfying every predicate and the time window.

    ``db`` may be tied or shuffled.  A release attempt or risk trial
    does not build the shuffled table: it counts through the shuffle's
    group orders (``count_through``), with the same result.
    """
    return count_hits(query_hits(db, query))


def channel_hits(tied: TiedDataset, query: QuerySpec) -> dict[str, np.ndarray]:
    """Each channel the query touches -> which input rows meet every
    condition on the channel's members."""
    hits = query_hits(tied, query)
    return {
        ch.name: reduce(np.logical_and, (hits[m] for m in ch.members if m in hits))
        for ch in tied.channels
        if any(m in hits for m in ch.members)
    }


def _tie_workload(
    dataset: Dataset,
    queries: Sequence[QuerySpec],
    tied_attributes: Sequence[str] | None,
) -> tuple[TiedDataset, list[dict[str, np.ndarray]]]:
    """Tie ``tied_attributes``, or by default every attribute the
    queries touch, in schema order; with each query's ``channel_hits``.

    The one setup of a release and of a risk sweep.
    """
    schema = dataset.schema
    if tied_attributes is None:
        touched = {name for q in queries for name in relevant_attributes(q, schema)}
        tied_attributes = tuple(name for name in schema.names if name in touched)
    tied = tie_attributes(dataset, tied_attributes)
    return tied, [channel_hits(tied, q) for q in queries]


def count_through(
    orders: Mapping[tuple[str, ...], np.ndarray], hits: Mapping[str, np.ndarray]
) -> int:
    """``count_query`` of the shuffled table the group orders describe,
    from the input rows' ``channel_hits``, without building that table.

    Slot i of group g's channels holds the values of input row
    ``orders[g][i]``, so slot i meets the query when, for every group,
    that row meets every condition on the group's channels: one gather
    of one boolean vector per touched group.
    """
    released = None
    for group, order in orders.items():
        touched = [hits[name] for name in group if name in hits]
        if touched:
            moved = reduce(np.logical_and, touched)[order]
            released = moved if released is None else np.logical_and(released, moved, out=released)
    return int(np.count_nonzero(released))


def loss(c: float, c_prime: float) -> float:
    """Absolute count drift |c - c'|."""
    return abs(c - c_prime)


def loss_bound(c_prime: float, epsilon: float) -> float:
    """Guaranteed ceiling c' * |e^eps - 1| on the count drift."""
    if c_prime < 0:
        raise ValueError(f"counts are non-negative, got {c_prime}")
    return c_prime * abs(math.expm1(epsilon))


@dataclass(frozen=True)
class UtilityReport:
    """Input/output counts with the loss checked against its bound."""

    c: int
    c_prime: int
    loss: float
    loss_bound: float
    bound_satisfied: bool
    epsilon_used: float


def measure_utility(c: int, c_prime: int, epsilon: float) -> UtilityReport:
    drift = loss(c, c_prime)
    ceiling = loss_bound(c_prime, epsilon)
    return UtilityReport(
        c=c,
        c_prime=c_prime,
        loss=drift,
        loss_bound=ceiling,
        bound_satisfied=drift <= ceiling,
        epsilon_used=epsilon,
    )


@dataclass(frozen=True, order=True)
class Scheme:
    """One (t, S) randomization candidate."""

    t: int
    S: int


def default_regularizer(scheme: Scheme) -> float:
    """Complexity penalty G = S + ln(t): heavier schemes cost more."""
    return scheme.S + math.log(scheme.t)


@dataclass(frozen=True)
class RiskConfig:
    """Inputs to the empirical-risk sweep.

    ``lam`` is the regularization strength (config key "lambda").
    ``tied_attributes`` overrides the default tie set, which is the
    union of the workload queries' attributes.
    """

    hypothesis_grid: tuple[Scheme, ...]
    workload: tuple[QuerySpec | str, ...]
    lam: float = 0.01
    trials_per_scheme: int = 4
    tied_attributes: tuple[str, ...] | None = None
    time_attribute: str | None = None


@dataclass(frozen=True)
class RiskResult:
    """Regularized empirical risk of one candidate."""

    risk: float
    bound: float
    mean_loss: float
    penalty: float
    epsilon: float


def empirical_risk(
    per_run_losses: Sequence[float],
    c_primes: Sequence[float],
    epsilon: float,
    lam: float,
    scheme: Scheme,
) -> RiskResult:
    """Mean loss plus complexity penalty, with its theoretical ceiling.

    The ceiling mean(e^eps * c') + lam * G dominates the risk whenever
    eps >= 0 and every run met its loss bound.  A sweep trial is one
    shuffle with no retry, so it need not have: the ceiling is reported,
    never checked.
    """
    if not per_run_losses:
        raise RiskError("cannot compute risk of an empty workload")
    if len(per_run_losses) != len(c_primes):
        raise RiskError(
            f"{len(per_run_losses)} losses but {len(c_primes)} released counts"
        )
    if not 0 <= lam < math.inf:
        raise RiskError(
            f"regularization strength must be finite and non-negative, got {lam}"
        )
    penalty = lam * default_regularizer(scheme)
    mean_loss = fmean(per_run_losses)
    risk = mean_loss + penalty
    bound = fmean(math.exp(epsilon) * c for c in c_primes) + penalty
    return RiskResult(
        risk=risk, bound=bound, mean_loss=mean_loss, penalty=penalty, epsilon=epsilon
    )


@dataclass(frozen=True)
class SchemeRisk:
    """One row of the ranked risk table."""

    scheme: Scheme
    n1: int
    result: RiskResult


@dataclass(frozen=True)
class SchemeSelection:
    best: Scheme
    table: tuple[SchemeRisk, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "best": fields_dict(self.best),
            "table": [
                {**fields_dict(row.scheme), "n1": row.n1, **fields_dict(row.result)}
                for row in self.table
            ],
        }


def select_scheme(
    config: RiskConfig, dataset: Dataset, seed: int
) -> SchemeSelection:
    """Pick the grid candidate with the lowest regularized empirical risk.

    Each candidate runs ``trials_per_scheme`` seeded shuffles of the
    whole workload; candidate trials draw from independent derived
    streams, so the table does not depend on evaluation order.  The
    workload's queries are evaluated once, and each trial counts them
    through its shuffle's group orders.  Ties break toward smaller S,
    then smaller t.
    """
    if not config.hypothesis_grid:
        raise RiskError("hypothesis grid is empty")
    if not config.workload:
        raise RiskError("workload is empty")
    if config.trials_per_scheme < 1:
        raise RiskError(
            f"need at least one trial per scheme, got {config.trials_per_scheme}"
        )
    queries = [
        parse_query(entry, dataset.schema, config.time_attribute)
        if isinstance(entry, str)
        else validate_query(entry, dataset.schema)
        for entry in config.workload
    ]
    tied_db, workload_hits = _tie_workload(dataset, queries, config.tied_attributes)
    channels = tuple(ch.name for ch in tied_db.channels)
    input_counts = [count_hits(hits) for hits in workload_hits]

    rows = []
    for scheme in config.hypothesis_grid:
        if scheme.S < 2:
            raise RiskError(f"candidate {scheme} needs at least 2 shufflers")
        sizes = plan_batches(tied_db.n, scheme.t)
        if sizes[-1] < 2:
            raise RiskError(
                f"candidate {scheme} leaves batches of a single row; "
                f"its ratio is undefined"
            )
        acct = account("IS", sizes, scheme.S)
        losses: list[float] = []
        released: list[float] = []
        for trial in range(config.trials_per_scheme):
            plan = build_plan(
                tied_db.n,
                scheme.t,
                channels,
                scheme.S,
                derive_seed(seed, "risk", scheme.t, scheme.S, trial),
            )
            orders = group_orders(tied_db, plan, "IS")
            for hits, c in zip(workload_hits, input_counts):
                c_prime = count_through(orders, hits)
                losses.append(loss(c, c_prime))
                released.append(c_prime)
        result = empirical_risk(losses, released, acct.epsilon, config.lam, scheme)
        rows.append(SchemeRisk(scheme=scheme, n1=acct.n1, result=result))

    rows.sort(key=lambda row: (row.result.risk, row.scheme.S, row.scheme.t))
    return SchemeSelection(best=rows[0].scheme, table=tuple(rows))
