"""Batch partitioning and attribute grouping.

Rows split into t batches whose sizes differ by at most one, the
remainder going to the earliest batches, so batch 1 is always a largest
batch.  Channels split across the S shufflers into S groups whose sizes
differ by at most one, with the extra channels landing in uniformly
chosen distinct groups; each group is one shuffler's.

A ShufflePlan freezes all of this plus the root seed, from which a
shuffle derives its randomness.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .seeds import derive_rng


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
    return (base + 1,) * remainder + (base,) * (t - remainder)


def group_attributes(
    channels: Sequence[str], num_shufflers: int, rng: np.random.Generator | None
) -> tuple[tuple[str, ...], ...]:
    """Split channels into ``num_shufflers`` groups of near-equal size.

    Groups are filled in channel order; when the split is uneven the
    groups that take an extra channel are drawn uniformly without
    replacement from ``rng``, which an even split never reads.  Groups
    may be empty when there are fewer channels than shufflers.
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


@dataclass(frozen=True)
class ShufflePlan:
    """How one shuffle run is randomised; every other field derives from these."""

    seed: int
    batch_sizes: tuple[int, ...]
    attribute_groups: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        sizes, groups, channels = self.batch_sizes, self.attribute_groups, self.channels
        if not sizes or min(sizes) < 1 or max(sizes) != sizes[0]:
            raise PlanError(f"need batch sizes >= 1, a largest first, got {sizes}")
        if len(groups) < 2:
            raise PlanError(f"need at least 2 attribute groups, got {groups}")
        if len(set(channels)) != len(channels):
            raise PlanError(f"a channel sits in more than one group in {groups}")

    @property
    def n(self) -> int:
        return sum(self.batch_sizes)

    @property
    def num_batches(self) -> int:
        return len(self.batch_sizes)

    @property
    def num_shufflers(self) -> int:
        return len(self.attribute_groups)

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(name for group in self.attribute_groups for name in group)

    @property
    def n1(self) -> int:
        """Largest batch size; the one the privacy accounting uses."""
        return self.batch_sizes[0]

    @property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Half-open [start, end) slot ranges for each batch."""
        ends = tuple(accumulate(self.batch_sizes))
        return tuple(zip((0, *ends[:-1]), ends))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "num_batches": self.num_batches,
            "num_shufflers": self.num_shufflers,
            "seed": self.seed,
            "batch_sizes": list(self.batch_sizes),
            "channels": list(self.channels),
            "attribute_groups": [list(g) for g in self.attribute_groups],
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
    """Derive a complete plan from the root seed."""
    sizes = plan_batches(n, num_batches)
    groups = _draw_groups(channels, num_shufflers, seed)
    return ShufflePlan(seed=seed, batch_sizes=sizes, attribute_groups=groups)


def _draw_groups(
    channels: Sequence[str], num_shufflers: int, seed: int
) -> tuple[tuple[str, ...], ...]:
    """The attribute groups of the plan with root ``seed``.

    A risk trial draws its groups here without building the plan.
    """
    # No other draw reads this stream, so an even split derives none.
    uneven = num_shufflers > 1 and len(channels) % num_shufflers
    rng = derive_rng(seed, "plan", "group-extras") if uneven else None
    return group_attributes(channels, num_shufflers, rng)
