"""The two shuffle protocols: per-batch and cumulative.

Iterative shuffling (IS) permutes each batch independently; cumulative
iterative shuffling (CIS) permutes a growing prefix, stage i covering
batches 1..i, so earlier rows are re-shuffled at every later stage.
The last CIS stage applies a fresh uniform permutation to all n rows, so
each attribute group's output is one uniform permutation of its input,
independent of the earlier stages' draws.

A shuffle moves rows of domain indices, each row standing for the
paper's one-hot encodings of one slot's values in a channel; moving the
index row moves exactly what moving the encodings would.  Each attribute
group's permutations are composed into one index array over all n
slots, and every channel of the group is gathered through it once.

Stage randomness is re-derived from the plan seed per (mode, stage,
shuffler), never drawn from shared state; results are therefore
identical however stages are ordered or parallelised.  Within a stage
each attribute group gets one permutation, applied jointly to all of
the group's channels, and the group-to-shuffler assignment is re-drawn
per stage.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .partition import ShufflePlan, _stage_assignments
from .queryplan import TiedDataset
from .seeds import _permutations, derive_rng


class ShuffleError(ValueError):
    """Raised for malformed shuffle inputs."""


@dataclass(frozen=True)
class Provenance:
    """How a shuffled dataset was produced."""

    mode: str
    seed: int | None
    plan_digest: str


@dataclass(frozen=True)
class ShuffledDataset(TiedDataset):
    """A tied dataset after shuffling; slot IDs keep their input order."""

    provenance: Provenance = Provenance("injected", None, "")

    def decoded_values(self, slot: int) -> tuple[str, ...]:
        """Domain labels now attached to ``slot``, in schema order."""
        return tuple(
            attr.values[self.column(attr.name)[slot]]
            for attr in self.schema.attributes
        )


def stage_permutation(
    plan: ShufflePlan, mode: str, stage_index: int, shuffler_id: int, size: int
) -> np.ndarray:
    """The permutation a shuffler draws for one stage.

    Exposed for audits: entry i names the input slot whose row lands in
    output slot i.
    """
    rng = derive_rng(plan.seed, "perm", mode, stage_index, shuffler_id)
    return rng.permutation(size)


def _shuffle(tied: TiedDataset, plan: ShufflePlan, mode: str) -> ShuffledDataset:
    """Compose every stage's draws per group, then gather each channel once.

    ``orders[group][i]`` is the input slot whose row ends in output slot
    i of the group's channels.  An IS stage permutes its own batch of it;
    a CIS stage permutes the prefix up to the batch's end, on top of the
    earlier stages.
    """
    names = tuple(ch.name for ch in tied.channels)
    if set(names) != set(plan.channels):
        raise ShuffleError(
            f"plan channels {sorted(plan.channels)!r} do not match dataset "
            f"channels {sorted(names)!r}"
        )
    if plan.n != tied.n:
        raise ShuffleError(
            f"plan covers {plan.n} rows but the dataset has {tied.n}"
        )
    groups = [(gi, group) for gi, group in enumerate(plan.attribute_groups) if group]
    # One draw per stage and non-empty group: stage_permutation(plan,
    # mode, stage, shuffler, end - lo), all derived in one batch.
    draws = [
        (stage, assignment[gi], start if mode == "IS" else 0, end, group)
        for stage, ((start, end), assignment) in enumerate(
            zip(plan.bounds, _stage_assignments(plan), strict=True)
        )
        for gi, group in groups
    ]
    perms = _permutations(
        plan.seed,
        ("perm", mode),
        [(stage, shuffler) for stage, shuffler, *_ in draws],
        [end - lo for _, _, lo, end, _ in draws],
    )
    orders = {group: np.arange(tied.n) for _, group in groups}
    for (_, _, lo, end, group), perm in zip(draws, perms):
        orders[group][lo:end] = orders[group][lo:end][perm]
    columns = {
        name: tied.columns[name][order]
        for group, order in orders.items()
        for name in group
    }
    return ShuffledDataset(
        schema=tied.schema,
        ids=tied.ids,
        channels=tied.channels,
        columns=columns,
        tied_channel=tied.tied_channel,
        provenance=Provenance(mode, plan.seed, plan.digest()),
    )


def iterative_shuffle(tied: TiedDataset, plan: ShufflePlan) -> ShuffledDataset:
    """Shuffle every batch independently (one stage per batch)."""
    return _shuffle(tied, plan, "IS")


def cumulative_iterative_shuffle(
    tied: TiedDataset, plan: ShufflePlan
) -> ShuffledDataset:
    """Shuffle growing prefixes: stage i re-shuffles batches 1..i together."""
    return _shuffle(tied, plan, "CIS")


def apply_channel_permutations(
    tied: TiedDataset, perms: Mapping[str, Sequence[int]]
) -> ShuffledDataset:
    """Apply explicit per-channel permutations (for tests and audits).

    ``perms[name][i]`` is the input slot whose row moves to output slot i
    of channel ``name``.
    """
    names = tuple(ch.name for ch in tied.channels)
    if set(perms) != set(names):
        raise ShuffleError(
            f"permutations given for {sorted(perms)!r} but the dataset has "
            f"channels {sorted(names)!r}"
        )
    columns = {}
    for name in names:
        perm = np.asarray(perms[name])
        if not np.array_equal(np.sort(perm), np.arange(tied.n)):
            raise ShuffleError(
                f"permutation for channel {name!r} is not a permutation of "
                f"0..{tied.n - 1}"
            )
        columns[name] = tied.columns[name][perm]
    return ShuffledDataset(
        schema=tied.schema,
        ids=tied.ids,
        channels=tied.channels,
        columns=columns,
        tied_channel=tied.tied_channel,
        provenance=Provenance("injected", None, ""),
    )


def export_csv(shuffled: ShuffledDataset, path: str) -> None:
    """Write slot IDs plus decoded labels, with a provenance sidecar."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", *shuffled.schema.names))
        for slot, uid in enumerate(shuffled.ids):
            writer.writerow((uid, *shuffled.decoded_values(slot)))
    sidecar = {
        "mode": shuffled.provenance.mode,
        "seed": shuffled.provenance.seed,
        "plan_digest": shuffled.provenance.plan_digest,
    }
    with open(path + ".provenance.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
