"""Batch partitioning and per-stage shuffler assignment.

Rows split into t batches whose sizes differ by at most one, the
remainder going to the earliest batches, so batch 1 is always a largest
batch.  Channels split across the S shufflers into S groups whose sizes
differ by at most one, with the extra channels landing in uniformly
chosen distinct groups.  Each stage then assigns groups to shufflers by
a fresh uniform permutation.

A ShufflePlan freezes all of this plus the root seed so any stage's
randomness can be re-derived independently.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .seeds import _permutations, derive_rng


class PlanError(ValueError):
    """Raised for infeasible partitioning parameters."""


def plan_batches(n: int, t: int) -> tuple[int, ...]:
    """Sizes of the t batches, largest first, summing to n."""
    if t < 1:
        raise PlanError(f"batch count must be at least 1, got {t}")
    if n < 1:
        raise PlanError(f"cannot partition an empty dataset (n={n})")
    if t > n:
        raise PlanError(f"cannot split {n} rows into {t} non-empty batches")
    base, remainder = divmod(n, t)
    return tuple(base + 1 if i < remainder else base for i in range(t))


def batch_bounds(sizes: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Half-open [start, end) slot ranges for each batch."""
    bounds = []
    start = 0
    for size in sizes:
        bounds.append((start, start + size))
        start += size
    return tuple(bounds)


def group_attributes(
    channels: Sequence[str], num_shufflers: int, rng: np.random.Generator
) -> tuple[tuple[str, ...], ...]:
    """Split channels into ``num_shufflers`` groups of near-equal size.

    Groups are filled in channel order; when the split is uneven the
    groups that take an extra channel are drawn uniformly without
    replacement from ``rng``.  Groups may be empty when there are fewer
    channels than shufflers.
    """
    if num_shufflers < 2:
        raise PlanError(f"need at least 2 shufflers, got {num_shufflers}")
    if not channels:
        raise PlanError("cannot group an empty channel list")
    if len(set(channels)) != len(channels):
        raise PlanError("channel names must be unique")
    base, extra = divmod(len(channels), num_shufflers)
    sizes = [base] * num_shufflers
    if extra:
        for gi in rng.choice(num_shufflers, size=extra, replace=False):
            sizes[int(gi)] += 1
    groups = []
    cursor = 0
    for size in sizes:
        groups.append(tuple(channels[cursor : cursor + size]))
        cursor += size
    return tuple(groups)


def assign_shufflers(
    groups: Sequence[Sequence[str]], num_shufflers: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """Uniformly assign each group to a distinct shuffler.

    Entry i is the shuffler ID handling group i; the result is a uniform
    permutation of range(num_shufflers).
    """
    _check_one_to_one(groups, num_shufflers)
    return tuple(int(s) for s in rng.permutation(num_shufflers))


def _check_one_to_one(groups: Sequence[Sequence[str]], num_shufflers: int) -> None:
    if len(groups) != num_shufflers:
        raise PlanError(
            f"{len(groups)} groups cannot map one-to-one onto "
            f"{num_shufflers} shufflers"
        )


def assignment_for_stage(plan: ShufflePlan, stage_index: int) -> tuple[int, ...]:
    """The group-to-shuffler assignment drawn afresh for one stage."""
    rng = derive_rng(plan.seed, "assign", stage_index)
    return assign_shufflers(plan.attribute_groups, plan.num_shufflers, rng)


def _stage_assignments(plan: ShufflePlan) -> list[tuple[int, ...]]:
    """``assignment_for_stage(plan, i)`` for every stage, derived in one batch."""
    _check_one_to_one(plan.attribute_groups, plan.num_shufflers)
    stages = range(len(plan.bounds))
    perms = _permutations(
        plan.seed,
        ("assign",),
        ((stage,) for stage in stages),
        [plan.num_shufflers] * len(stages),
    )
    return [tuple(perm.tolist()) for perm in perms]


@dataclass(frozen=True)
class ShufflePlan:
    """Frozen description of how one shuffle run is randomised."""

    n: int
    num_batches: int
    num_shufflers: int
    seed: int
    batch_sizes: tuple[int, ...]
    channels: tuple[str, ...]
    attribute_groups: tuple[tuple[str, ...], ...]

    @property
    def n1(self) -> int:
        """Largest batch size; the one the privacy accounting uses."""
        return self.batch_sizes[0]

    @property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        return batch_bounds(self.batch_sizes)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "num_batches": self.num_batches,
            "num_shufflers": self.num_shufflers,
            "seed": self.seed,
            "batch_sizes": list(self.batch_sizes),
            "channels": list(self.channels),
            "attribute_groups": [list(g) for g in self.attribute_groups],
            "shuffler_assignment": list(assignment_for_stage(self, 0)),
            "accounting_batch_size": self.n1,
            "accounting_batch_rule": "largest batch (batch 1)",
        }

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_plan(
    n: int,
    num_batches: int,
    channels: Sequence[str],
    num_shufflers: int,
    seed: int,
) -> ShufflePlan:
    """Derive a complete plan from the root seed.

    Each stage's group-to-shuffler assignment is drawn from the seed by
    :func:`assignment_for_stage`; the audit record lists stage 0's.
    """
    sizes = plan_batches(n, num_batches)
    groups = group_attributes(
        channels, num_shufflers, derive_rng(seed, "plan", "group-extras")
    )
    return ShufflePlan(
        n=n,
        num_batches=num_batches,
        num_shufflers=num_shufflers,
        seed=seed,
        batch_sizes=sizes,
        channels=tuple(channels),
        attribute_groups=groups,
    )
