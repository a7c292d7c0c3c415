"""The two shuffle protocols: per-batch and cumulative.

Iterative shuffling (IS) permutes each batch independently.  The paper's
cumulative shuffling (CIS) re-shuffles growing prefixes, and its last
stage is a fresh uniform permutation of all n rows, so that chain ends
in one uniform permutation per attribute group whatever came before.
CIS draws exactly that, one stage over all n rows; its budget still
follows the paper's stages (``privacy.account``).

A shuffle moves the domain indices in a channel's member columns of the
``(n, k)`` code array, a slot's indices standing for the paper's one-hot
encodings of its values; moving the indices moves exactly what moving
the encodings would.  Each attribute group's stage permutations fill one
index array over all n slots, and the output codes are gathered once,
each channel's member columns through its group's array.

Stage randomness is re-derived from the plan seed per (mode, stage,
shuffler), never drawn from shared state; results are therefore
identical however stages are ordered or parallelised.  Within a stage
each attribute group gets one permutation, applied jointly to all of
the group's channels, and the group-to-shuffler assignment is re-drawn
per stage.  A shuffle seeds all of its assignment and permutation
streams in one pass and draws the permutations of each batch size
together, by the vectorized kernel when they are many and short (see
``seeds``); each equals ``stage_permutation``'s draw for draw.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .partition import ShufflePlan
from .queryplan import TiedDataset
from .seeds import _path_digests, _pcg64_seeds, _permutation_rows, derive_rng


class ShuffleError(ValueError):
    """Raised for malformed shuffle inputs."""


@dataclass(frozen=True)
class Provenance:
    """How a shuffled dataset was produced."""

    mode: str
    seed: int | None
    plan_digest: str


class ShuffledDataset(TiedDataset):
    """A tied dataset after shuffling, holding its own read-only codes;
    slot IDs keep their input order."""

    def __init__(
        self, tied: TiedDataset, codes: np.ndarray, provenance: Provenance
    ) -> None:
        super().__init__(tied.schema, tied.ids, codes, tied.channels, tied.tied_channel)
        self.provenance = provenance

    def decoded_values(self, slot: int) -> tuple[str, ...]:
        """Domain labels now attached to ``slot``, in schema order."""
        return tuple(
            attr.values[code]
            for attr, code in zip(self.schema.attributes, self.codes[slot].tolist())
        )


def stage_permutation(
    plan: ShufflePlan, mode: str, stage_index: int, shuffler_id: int, size: int
) -> np.ndarray:
    """The permutation a shuffler draws for one stage.

    Exposed for audits: entry i names the input slot whose row lands in
    output slot i.  CIS has one stage, 0, over all n rows.
    """
    rng = derive_rng(plan.seed, "perm", mode, stage_index, shuffler_id)
    return rng.permutation(size)


def _gather(tied: TiedDataset, orders: Mapping[str, np.ndarray]) -> np.ndarray:
    """``tied.codes`` with each channel's member columns taken through
    ``orders[channel]``, whose entry i names the input slot that lands in
    output slot i."""
    codes = np.empty_like(tied.codes)
    for ch in tied.channels:
        order = orders[ch.name]
        for member in ch.members:
            j = tied.schema.index_of(member)
            codes[:, j] = tied.codes[:, j][order]
    return codes


def _group_orders(plan: ShufflePlan, mode: str) -> dict[tuple[str, ...], np.ndarray]:
    """Each non-empty attribute group's composed order over all n slots.

    ``orders[group][i]`` is the input slot whose values end in output
    slot i of the group's channels.  Every stage permutes its own
    disjoint slice of it: a batch for IS, all n rows for CIS.  Group gi's
    slice of stage s is ``stage_permutation(plan, mode, s,
    assignment_for_stage(plan, s)[gi], size)``.  Every stage's assignment
    path and every (stage, shuffler) permutation path is hashed and
    seeded in one pass, and the permutations of each batch size are drawn
    together and stored with one index per group.
    """
    batch_sizes = plan.batch_sizes if mode == "IS" else (plan.n,)
    sizes = np.array(batch_sizes)
    starts = np.cumsum(sizes) - sizes
    stages, shufflers = len(sizes), plan.num_shufflers
    seeds = _pcg64_seeds(
        _path_digests(plan.seed, ("assign",), ((stage,) for stage in range(stages)))
        + _path_digests(
            plan.seed, ("perm", mode), product(range(stages), range(shufflers))
        )
    )
    assignments = _permutation_rows(seeds[:stages], shufflers)
    groups = [(gi, group) for gi, group in enumerate(plan.attribute_groups) if group]
    # The seed row of the permutation each (stage, group) draws.
    rows = (
        stages
        + np.arange(stages)[:, None] * shufflers
        + assignments[:, [gi for gi, _ in groups]]
    )
    orders = {group: np.empty(plan.n, dtype=np.intp) for _, group in groups}
    # Not np.unique, which imports numpy.ma (about 1 MB) on first use.
    for size in sorted(set(batch_sizes)):
        in_class = np.flatnonzero(sizes == size)
        perms = _permutation_rows(seeds[rows[in_class].ravel()], size)
        perms = perms.reshape(len(in_class), len(groups), size)
        class_starts = starts[in_class, None]
        slots = class_starts + np.arange(size)
        for k, (_, group) in enumerate(groups):
            orders[group][slots] = class_starts + perms[:, k]
    return orders


def _shuffle(tied: TiedDataset, plan: ShufflePlan, mode: str) -> ShuffledDataset:
    """Compose each group's stage permutations, then gather the codes once."""
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
    orders = _group_orders(plan, mode)
    codes = _gather(
        tied, {name: order for group, order in orders.items() for name in group}
    )
    return ShuffledDataset(tied, codes, Provenance(mode, plan.seed, plan.digest()))


def iterative_shuffle(tied: TiedDataset, plan: ShufflePlan) -> ShuffledDataset:
    """Shuffle every batch independently (one stage per batch)."""
    return _shuffle(tied, plan, "IS")


def cumulative_iterative_shuffle(
    tied: TiedDataset, plan: ShufflePlan
) -> ShuffledDataset:
    """Shuffle all n rows at once: the law of the paper's prefix chain."""
    return _shuffle(tied, plan, "CIS")


def apply_channel_permutations(
    tied: TiedDataset, perms: Mapping[str, Sequence[int]]
) -> ShuffledDataset:
    """Apply explicit per-channel permutations (for tests and audits).

    ``perms[name][i]`` is the input slot whose values move to output
    slot i of channel ``name``.
    """
    names = tuple(ch.name for ch in tied.channels)
    if set(perms) != set(names):
        raise ShuffleError(
            f"permutations given for {sorted(perms)!r} but the dataset has "
            f"channels {sorted(names)!r}"
        )
    orders = {name: np.asarray(perms[name]) for name in names}
    for name, perm in orders.items():
        if not np.array_equal(np.sort(perm), np.arange(tied.n)):
            raise ShuffleError(
                f"permutation for channel {name!r} is not a permutation of "
                f"0..{tied.n - 1}"
            )
    injected = Provenance("injected", None, "")
    return ShuffledDataset(tied, _gather(tied, orders), injected)


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
