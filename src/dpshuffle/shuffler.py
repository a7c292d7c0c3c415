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
index array over all n slots, the group's order (``group_orders``).
``iterative_shuffle`` and ``cumulative_iterative_shuffle`` gather the
output codes once, each channel's member columns through its group's
order.  A release attempt or risk trial counts through the orders
instead and never builds the shuffled table (``utility.count_through``).

A shuffle's randomness is one generator, ``derive_rng(plan.seed,
"shuffle", mode)``.  Each non-empty attribute group, in plan order,
draws one uniform permutation per stage from it, in stage order, and
applies it jointly to all of the group's channels.  Every group's batch
permutations are therefore independent and uniform, which is all the
paper's mechanism and its accounting (``privacy``) rely on.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Mapping, Sequence

import numpy as np

from .dataset import fields_dict
from .partition import ShufflePlan
from .queryplan import TiedDataset
from .seeds import derive_rng


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
        super().__init__(
            tied.schema, tied._ids, codes, tied.channels, tied.tied_channel
        )
        self.provenance = provenance


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


def group_orders(
    tied: TiedDataset, plan: ShufflePlan, mode: str
) -> dict[tuple[str, ...], np.ndarray]:
    """Each non-empty attribute group's composed order over all n slots.

    ``orders[group][i]`` is the input slot whose values end in output
    slot i of the group's channels.  Every stage permutes its own
    disjoint slice of it: a batch for IS, all n rows for CIS.  Raises
    ``ShuffleError`` when the plan does not fit the dataset.
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
    runs = _stage_runs(plan.batch_sizes, mode)
    return _draw_orders(plan.n, runs, plan.attribute_groups, plan.seed, mode)


def _stage_runs(batch_sizes: Sequence[int], mode: str) -> list[tuple[int, int]]:
    """The stages of a shuffle as runs of (stage size, stage count), in
    order: one stage per batch for IS, one over all rows for CIS."""
    if mode == "IS":
        return [(size, len(list(run))) for size, run in groupby(batch_sizes)]
    return [(sum(batch_sizes), 1)]


def _draw_orders(
    n: int,
    runs: Sequence[tuple[int, int]],
    groups: Sequence[tuple[str, ...]],
    seed: int,
    mode: str,
) -> dict[tuple[str, ...], np.ndarray]:
    """``group_orders`` of the plan with these rows, stage runs
    (``_stage_runs``), groups and seed, unchecked.

    Each run of equal stage sizes is drawn by one ``permuted`` call,
    which equals ``rng.shuffle`` on each stage in turn, draw for draw.
    """
    rng = derive_rng(seed, "shuffle", mode)
    orders = {}
    for group in groups:
        if not group:
            continue
        order = np.arange(n)
        start = 0
        for size, count in runs:
            block = order[start : start + size * count].reshape(count, size)
            rng.permuted(block, axis=1, out=block)
            start += size * count
        orders[group] = order
    return orders


def _shuffle(tied: TiedDataset, plan: ShufflePlan, mode: str) -> ShuffledDataset:
    """Compose each group's stage permutations, then gather the codes once."""
    orders = group_orders(tied, plan, mode)
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
    """Write slot IDs plus decoded labels, with a provenance sidecar.

    The whole CSV is encoded before ``path`` is opened, so a value that
    UTF-8 cannot encode (an ID, label or name holding a lone surrogate)
    raises ``ShuffleError`` naming it, and nothing is written.
    """
    labels = [attr.values for attr in shuffled.schema.attributes]

    def records() -> Iterator[tuple[str, ...]]:
        yield ("id", *shuffled.schema.names)
        for uid, codes in zip(shuffled.ids, shuffled.codes.tolist()):
            yield (uid, *(values[c] for values, c in zip(labels, codes)))

    text = io.StringIO()
    csv.writer(text).writerows(records())
    try:
        data = text.getvalue().encode("utf-8")
    except UnicodeEncodeError as exc:
        # lone surrogates are the only characters UTF-8 cannot encode
        surrogate = re.compile("[\ud800-\udfff]")
        value = next(v for record in records() for v in record if surrogate.search(v))
        raise ShuffleError(
            f"{path}: cannot encode {value!r} as UTF-8 ({exc.reason})"
        ) from None
    with open(path, "wb") as fh:
        fh.write(data)
    with open(path + ".provenance.json", "w", encoding="utf-8") as fh:
        json.dump(fields_dict(shuffled.provenance), fh, indent=2, sort_keys=True)
        fh.write("\n")
