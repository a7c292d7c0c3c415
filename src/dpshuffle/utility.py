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
shuffled table.  A query whose channels all lie in one group is counted
through one permutation of the rows, so it is released as c, and no
orders are drawn for it (``_released_counts``).

A release (``pipeline.run_on_dataset``) and a risk sweep
(``select_scheme``) share one setup, ``_tie_workload``: it ties the
configured attributes, or by default every attribute the queries touch,
and evaluates each query's ``channel_hits``; a grid ``run`` ranks
(``_rank``) and releases on one such table.

Scheme selection searches a finite grid of (t, S) candidates by
regularized empirical risk: each candidate's n1 and budget come from
``privacy.account``, as an IS release's do, seeded IS shuffle trials
measure the workload's mean loss, a complexity penalty lambda * G(scheme)
discourages heavier schemes, and the argmin wins with ties broken
toward fewer shufflers, then fewer batches.  A trial builds no
``ShufflePlan``: it draws its attribute groups (``partition._draw_groups``)
and its orders (``shuffler._draw_orders``) from the streams a release's
plan with the trial's seed would, so its counts are that plan's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset, fields_dict
from .partition import _draw_groups
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
from .shuffler import _draw_orders, _stage_runs


class RiskError(ValueError):
    """Raised for invalid risk configurations."""


def query_hits(db: Dataset, query: QuerySpec) -> dict[str, np.ndarray]:
    """Each attribute the query touches -> which rows of ``db`` meet
    every condition on it.

    A condition is a mask of the matching domain indices; one
    attribute's masks are AND-ed, then looked up once by its column of
    ``db``'s codes.
    """
    query = validate_query(query, db.schema)
    masks: dict[str, np.ndarray] = {}
    for pred in query.predicates:
        mask = np.asarray(bucket_mask(db.schema.attribute(pred.attribute), pred))
        masks[pred.attribute] = masks.get(pred.attribute, True) & mask
    if query.time_horizon is not None:
        name = query.time_horizon.attribute
        mask = np.asarray(horizon_mask(db.schema.attribute(name), query.time_horizon))
        masks[name] = masks.get(name, True) & mask
    return {name: mask[db.column(name)] for name, mask in masks.items()}


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
    queries: Sequence[QuerySpec | str],
    tied_attributes: Sequence[str] | None,
    time_attribute: str | None,
) -> tuple[TiedDataset, list[dict[str, np.ndarray]]]:
    """Tie ``tied_attributes``, or by default every attribute the
    queries touch, in schema order; with each query's ``channel_hits``.

    The one setup of a release and of a risk sweep; a string is parsed.
    """
    schema = dataset.schema
    queries = [
        parse_query(q, schema, time_attribute) if isinstance(q, str) else validate_query(q, schema)
        for q in queries
    ]
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


def _in_one_group(
    groups: Sequence[tuple[str, ...]], hits: Mapping[str, np.ndarray]
) -> bool:
    """Whether every channel ``hits`` touches lies in one attribute group,
    the one that holds the first of them."""
    first = next(iter(hits))
    return any(first in group and hits.keys() <= set(group) for group in groups)


def _released_counts(
    n: int,
    runs: Sequence[tuple[int, int]],
    groups: Sequence[tuple[str, ...]],
    seed: int,
    mode: str,
    queries_hits: Sequence[Mapping[str, np.ndarray]],
    counts: Sequence[int],
) -> list[int]:
    """Each query's released count under the plan with these rows, stage
    runs, groups and seed, given its input count.

    A query inside one group is counted through that group's order alone,
    a permutation of the rows, so its count is its input count.  The
    orders are drawn (``shuffler._draw_orders``), once, only for a query
    that spans groups; no other draw reads their stream.  Which branch
    runs depends only on the query and the groups, never on the rows.
    """
    orders = None
    released = []
    for hits, c in zip(queries_hits, counts):
        if not _in_one_group(groups, hits):
            if orders is None:
                orders = _draw_orders(n, runs, groups, seed, mode)
            c = count_through(orders, hits)
        released.append(c)
    return released


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
    # math.fsum(xs) / len(xs) is statistics.fmean(xs), without importing
    # statistics at every CLI start.
    mean_loss = math.fsum(per_run_losses) / len(per_run_losses)
    risk = mean_loss + penalty
    bound = math.fsum(math.exp(epsilon) * c for c in c_primes) / len(c_primes) + penalty
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


def select_scheme(config: RiskConfig, dataset: Dataset, seed: int) -> SchemeSelection:
    """Pick the grid candidate with the lowest regularized empirical risk."""
    if not config.workload:
        raise RiskError("workload is empty")
    tied_db, workload_hits = _tie_workload(
        dataset, config.workload, config.tied_attributes, config.time_attribute
    )
    return _rank(config, tied_db, workload_hits, seed)


def _rank(
    config: RiskConfig, tied_db: TiedDataset, workload_hits: Sequence[Mapping], seed: int
) -> SchemeSelection:
    """Rank ``config``'s grid on the workload's hits in ``tied_db``.

    Each candidate runs ``trials_per_scheme`` seeded IS shuffles from its
    own derived streams, so the table does not depend on evaluation order,
    and counts the workload through each shuffle (``_released_counts``):
    a trial whose queries each lie in one group draws no orders.  A trial
    draws its groups and orders from the streams a release's plan with
    the trial's seed would, without building that plan.  Ties break
    toward smaller S, then smaller t.
    """
    if not config.hypothesis_grid:
        raise RiskError("hypothesis grid is empty")
    if config.trials_per_scheme < 1:
        raise RiskError(
            f"need at least one trial per scheme, got {config.trials_per_scheme}"
        )
    n = tied_db.n
    channels = tuple(ch.name for ch in tied_db.channels)
    input_counts = [count_hits(hits) for hits in workload_hits]

    rows = []
    for scheme in config.hypothesis_grid:
        if scheme.S < 2:
            raise RiskError(f"candidate {scheme} needs at least 2 shufflers")
        runs = _stage_runs(n, scheme.t, "IS")
        if runs[-1][0] < 2:
            raise RiskError(
                f"candidate {scheme} leaves batches of a single row; "
                f"its ratio is undefined"
            )
        acct = account("IS", n, scheme.t, scheme.S)
        losses: list[float] = []
        released: list[float] = []
        for trial in range(config.trials_per_scheme):
            trial_seed = derive_seed(seed, "risk", scheme.t, scheme.S, trial)
            groups = _draw_groups(channels, scheme.S, trial_seed)
            counts = _released_counts(
                n, runs, groups, trial_seed, "IS", workload_hits, input_counts
            )
            for c, c_prime in zip(input_counts, counts):
                losses.append(loss(c, c_prime))
                released.append(c_prime)
        result = empirical_risk(losses, released, acct.epsilon, config.lam, scheme)
        rows.append(SchemeRisk(scheme=scheme, n1=acct.n1, result=result))

    rows.sort(key=lambda row: (row.result.risk, row.scheme.S, row.scheme.t))
    return SchemeSelection(best=rows[0].scheme, table=tuple(rows))
