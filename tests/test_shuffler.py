import dataclasses
import json
import math
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpshuffle import (
    Attribute,
    Dataset,
    Row,
    Schema,
    ShuffleError,
    build_plan,
    cumulative_iterative_shuffle,
    export_csv,
    iterative_shuffle,
    tie_attributes,
)
from dpshuffle.partition import assignment_for_stage
from dpshuffle.shuffler import apply_channel_permutations, stage_permutation
from conftest import AFTER_SHUFFLE_PERMS


def make_tied(n: int, attrs: int = 2, tie_first: int = 1):
    """A tied dataset whose payloads are unique per slot, per channel."""
    attributes = tuple(
        Attribute(f"a{i}", tuple(f"a{i}r{j}" for j in range(n)))
        for i in range(attrs)
    )
    schema = Schema(attributes)
    rows = tuple(
        Row(f"u{j}", tuple(f"a{i}r{j}" for i in range(attrs))) for j in range(n)
    )
    return tie_attributes(Dataset(schema, rows), schema.names[:tie_first])


def rows_of(column) -> list[tuple[int, ...]]:
    """A channel column's rows of domain indices, as hashable tuples."""
    return [tuple(row) for row in column.tolist()]


def same_columns(a, b) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def same_shuffle(a, b) -> bool:
    """Field-by-field equality of two shuffled datasets."""
    fields = ("schema", "ids", "channels", "tied_channel", "provenance")
    return same_columns(a.columns, b.columns) and all(
        getattr(a, f) == getattr(b, f) for f in fields
    )


def reference_stage(columns, plan, mode: str, stage: int) -> dict:
    """One stage applied by hand: each group's channels gathered through
    the permutation its assigned shuffler draws for the stage."""
    size = len(next(iter(columns.values())))
    assignment = assignment_for_stage(plan, stage)
    out = {}
    for gi, group in enumerate(plan.attribute_groups):
        if group:
            perm = stage_permutation(plan, mode, stage, assignment[gi], size)
            for name in group:
                out[name] = columns[name][perm]
    return out


def realized_permutation(before, after, channel: str) -> list[int]:
    """Recover which input slot each output slot's payload came from."""
    source = {payload: i for i, payload in enumerate(rows_of(before.columns[channel]))}
    return [source[payload] for payload in rows_of(after.columns[channel])]


class TestShuffleBatch:
    """A one-batch plan: the whole table is one shuffled batch."""

    def test_single_row_batch_is_identity(self):
        td = make_tied(1, attrs=2)
        plan = build_plan(1, 1, [c.name for c in td.channels], 2, seed=3)
        out = iterative_shuffle(td, plan).columns
        assert same_columns(out, td.columns)

    def test_multisets_preserved_per_channel(self):
        td = make_tied(12, attrs=3, tie_first=2)
        plan = build_plan(12, 1, [c.name for c in td.channels], 2, seed=9)
        out = iterative_shuffle(td, plan).columns
        for name in plan.channels:
            assert Counter(rows_of(out[name])) == Counter(rows_of(td.columns[name]))

    def test_channels_in_one_group_share_a_permutation(self):
        td = make_tied(8, attrs=3, tie_first=1)  # g=3 channels, S=2
        plan = build_plan(8, 1, [c.name for c in td.channels], 2, seed=1)
        shared = [g for g in plan.attribute_groups if len(g) == 2]
        assert shared, "expected one group with two channels"
        out = iterative_shuffle(td, plan).columns
        before = {name: rows_of(td.columns[name]) for name in plan.channels}
        first, second = shared[0]
        perm_a = [
            {p: i for i, p in enumerate(before[first])}[payload]
            for payload in rows_of(out[first])
        ]
        perm_b = [
            {p: i for i, p in enumerate(before[second])}[payload]
            for payload in rows_of(out[second])
        ]
        assert perm_a == perm_b

    def test_moves_follow_the_drawn_stage_permutation(self):
        td = make_tied(6, attrs=2)
        plan = build_plan(6, 1, [c.name for c in td.channels], 2, seed=4)
        assignment = assignment_for_stage(plan, 0)
        out = iterative_shuffle(td, plan).columns
        for gi, group in enumerate(plan.attribute_groups):
            perm = stage_permutation(plan, "IS", 0, assignment[gi], 6)
            for name in group:
                assert rows_of(out[name]) == [
                    rows_of(td.columns[name])[src] for src in perm
                ]

    def test_fixed_point_frequency_matches_analytic_rate(self):
        # A slot keeps its full row only when every group's permutation
        # fixes it: rate (1/n1)^S, here (1/3)^2 = 1/9.
        trials = 30_000
        n1, hits = 3, 0
        td = make_tied(n1, attrs=2)  # two channels, one per shuffler group
        channels = [c.name for c in td.channels]
        for i in range(trials):
            plan = build_plan(n1, 1, channels, 2, seed=i)
            out = iterative_shuffle(td, plan).columns
            hits += all(
                np.array_equal(out[ch][0], td.columns[ch][0]) for ch in channels
            )
        rate = hits / trials
        sigma = math.sqrt((1 / 9) * (8 / 9) / trials)
        assert abs(rate - 1 / 9) <= 3 * sigma


class TestIterativeShuffle:
    def test_single_batch_equals_direct_batch_shuffle(self):
        td = make_tied(7, attrs=2)
        plan = build_plan(7, 1, [c.name for c in td.channels], 2, seed=13)
        whole = iterative_shuffle(td, plan)
        direct = reference_stage(td.columns, plan, "IS", 0)
        assert same_columns(whole.columns, direct)

    def test_batches_never_mix(self):
        td = make_tied(10, attrs=2)
        plan = build_plan(10, 3, [c.name for c in td.channels], 2, seed=2)
        out = iterative_shuffle(td, plan)
        for start, end in plan.bounds:
            for name in plan.channels:
                assert Counter(rows_of(out.columns[name][start:end])) == Counter(
                    rows_of(td.columns[name][start:end])
                )

    def test_slot_ids_keep_input_order(self):
        td = make_tied(9, attrs=2)
        plan = build_plan(9, 2, [c.name for c in td.channels], 2, seed=8)
        assert iterative_shuffle(td, plan).ids == td.ids

    def test_tied_tuples_stay_fused(self):
        td = make_tied(12, attrs=3, tie_first=2)
        plan = build_plan(12, 4, [c.name for c in td.channels], 3, seed=5)
        out = iterative_shuffle(td, plan)
        tied = td.tied_channel
        assert Counter(rows_of(out.columns[tied])) == Counter(rows_of(td.columns[tied]))
        assert all(len(payload) == 2 for payload in rows_of(out.columns[tied]))

    def test_deterministic_across_runs(self):
        td = make_tied(20, attrs=3, tie_first=1)
        plan = build_plan(20, 4, [c.name for c in td.channels], 2, seed=21)
        a = iterative_shuffle(td, plan)
        b = iterative_shuffle(td, plan)
        assert same_shuffle(a, b)

    def test_matches_out_of_order_batch_reconstruction(self):
        # Stage streams are pre-derived, so shuffling batches in reverse
        # order must rebuild the identical output.
        td = make_tied(11, attrs=2)
        plan = build_plan(11, 3, [c.name for c in td.channels], 2, seed=17)
        expected = iterative_shuffle(td, plan)
        rebuilt = {name: np.empty_like(td.columns[name]) for name in plan.channels}
        for stage in reversed(range(plan.num_batches)):
            start, end = plan.bounds[stage]
            piece = {
                name: td.columns[name][start:end] for name in plan.channels
            }
            shuffled = reference_stage(piece, plan, "IS", stage)
            for name in plan.channels:
                rebuilt[name][start:end] = shuffled[name]
        assert same_columns(rebuilt, expected.columns)

    def test_plan_mismatch_rejected(self):
        td = make_tied(6, attrs=2)
        plan = build_plan(7, 1, [c.name for c in td.channels], 2, seed=0)
        with pytest.raises(ShuffleError, match="7 rows"):
            iterative_shuffle(td, plan)
        plan = build_plan(6, 1, ["nope"], 2, seed=0)
        with pytest.raises(ShuffleError, match="channels"):
            iterative_shuffle(td, plan)

    def test_provenance_records_mode_seed_and_digest(self):
        td = make_tied(5, attrs=2)
        plan = build_plan(5, 1, [c.name for c in td.channels], 2, seed=33)
        out = iterative_shuffle(td, plan)
        assert out.provenance.mode == "IS"
        assert out.provenance.seed == 33
        assert out.provenance.plan_digest == plan.digest()


class TestCumulativeShuffle:
    def test_single_stage_matches_direct_batch_shuffle(self):
        td = make_tied(6, attrs=2)
        plan = build_plan(6, 1, [c.name for c in td.channels], 2, seed=19)
        out = cumulative_iterative_shuffle(td, plan)
        direct = reference_stage(td.columns, plan, "CIS", 0)
        assert same_columns(out.columns, direct)

    def test_two_stage_composition_is_exact(self):
        td = make_tied(4, attrs=1)
        channel = td.channels[0].name
        plan = build_plan(4, 2, [channel], 2, seed=77)
        out = cumulative_iterative_shuffle(td, plan)

        gi = next(i for i, g in enumerate(plan.attribute_groups) if g)
        p1 = stage_permutation(
            plan, "CIS", 0, assignment_for_stage(plan, 0)[gi], 2
        )
        p2 = stage_permutation(
            plan, "CIS", 1, assignment_for_stage(plan, 1)[gi], 4
        )
        prefix = tuple(p1) + (2, 3)
        composed = [prefix[p2[i]] for i in range(4)]
        assert realized_permutation(td, out, channel) == composed

    def test_every_arrangement_reachable_at_two_stages(self):
        # Math oracle: composing a prefix-2 permutation with a full
        # 4-permutation hits every arrangement of S4 equally often, 2 of
        # the 48 (p1, p2) pairs each, so the output is uniform whatever
        # the first stage drew.
        outcomes = Counter()
        for p1 in permutations(range(2)):
            prefix = tuple(p1) + (2, 3)
            for p2 in permutations(range(4)):
                outcomes[tuple(prefix[p2[i]] for i in range(4))] += 1
        assert outcomes == Counter({p: 2 for p in permutations(range(4))})

        # Implementation check: over 3000 seeds the 24 arrangements occur
        # with frequencies consistent with 1/24 each.
        td = make_tied(4, attrs=1)
        channel = td.channels[0].name
        trials = 3_000
        seen = Counter()
        for seed in range(trials):
            plan = build_plan(4, 2, [channel], 2, seed=seed)
            out = cumulative_iterative_shuffle(td, plan)
            seen[tuple(realized_permutation(td, out, channel))] += 1
        assert set(seen) == set(permutations(range(4)))
        expected = trials / 24
        chi_square = sum((k - expected) ** 2 / expected for k in seen.values())
        # 99.9th percentile of the chi-square law with 23 degrees of freedom.
        assert chi_square < 49.73

    def test_whole_dataset_multisets_preserved(self):
        td = make_tied(10, attrs=2)
        plan = build_plan(10, 4, [c.name for c in td.channels], 3, seed=23)
        out = cumulative_iterative_shuffle(td, plan)
        for name in plan.channels:
            assert Counter(rows_of(out.columns[name])) == Counter(
                rows_of(td.columns[name])
            )

    def test_deterministic_and_mode_tagged(self):
        td = make_tied(8, attrs=2)
        plan = build_plan(8, 2, [c.name for c in td.channels], 2, seed=3)
        a = cumulative_iterative_shuffle(td, plan)
        assert same_shuffle(a, cumulative_iterative_shuffle(td, plan))
        assert a.provenance.mode == "CIS"


@st.composite
def shuffle_cases(draw):
    """A tied table, plan and mode; fewer channels than shufflers leaves
    some attribute groups empty."""
    attrs = draw(st.integers(1, 4))
    tie_first = draw(st.integers(1, attrs))
    n = draw(st.integers(1, 24))
    t = draw(st.integers(1, n))
    shufflers = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**64 - 1))
    mode = draw(st.sampled_from(["IS", "CIS"]))
    td = make_tied(n, attrs=attrs, tie_first=tie_first)
    plan = build_plan(n, t, [c.name for c in td.channels], shufflers, seed=seed)
    return td, plan, mode


def stage_by_stage(td, plan, mode):
    """The columns that ``reference_stage`` gives, one stage per batch."""
    expected = {name: col.copy() for name, col in td.columns.items()}
    for stage, (start, end) in enumerate(plan.bounds):
        lo = start if mode == "IS" else 0
        piece = {name: col[lo:end] for name, col in expected.items()}
        for name, col in reference_stage(piece, plan, mode, stage).items():
            expected[name][lo:end] = col
    return expected


@settings(max_examples=150, deadline=None)
@given(shuffle_cases())
def test_shuffle_equals_the_stage_by_stage_composition(case):
    td, plan, mode = case
    shuffle = iterative_shuffle if mode == "IS" else cumulative_iterative_shuffle
    assert same_columns(shuffle(td, plan).columns, stage_by_stage(td, plan, mode))


@pytest.mark.parametrize("mode", ["IS", "CIS"])
def test_every_batch_is_a_stage_whatever_num_batches_says(mode):
    """Stages follow ``batch_sizes``; a hand-built plan whose
    ``num_batches`` disagrees still shuffles every batch."""
    td = make_tied(12, attrs=3)
    plan = build_plan(12, 4, [c.name for c in td.channels], 2, seed=9)
    plan = dataclasses.replace(plan, num_batches=1)
    shuffle = iterative_shuffle if mode == "IS" else cumulative_iterative_shuffle
    assert same_columns(shuffle(td, plan).columns, stage_by_stage(td, plan, mode))


class TestInjectedPermutations:
    def test_moves_payloads_as_directed(self):
        td = make_tied(4, attrs=2)
        names = [c.name for c in td.channels]
        perms = {names[0]: [3, 2, 1, 0], names[1]: [1, 2, 3, 0]}
        out = apply_channel_permutations(td, perms)
        before = {name: rows_of(td.columns[name]) for name in names}
        assert rows_of(out.columns[names[0]]) == [before[names[0]][i] for i in (3, 2, 1, 0)]
        assert rows_of(out.columns[names[1]]) == [before[names[1]][i] for i in (1, 2, 3, 0)]
        assert out.provenance.mode == "injected"

    def test_rejects_non_permutations_and_wrong_channels(self):
        td = make_tied(3, attrs=2)
        names = [c.name for c in td.channels]
        with pytest.raises(ShuffleError, match="not a permutation"):
            apply_channel_permutations(
                td, {names[0]: [0, 0, 1], names[1]: [0, 1, 2]}
            )
        with pytest.raises(ShuffleError, match="channels"):
            apply_channel_permutations(td, {names[0]: [0, 1, 2]})

    def test_fixture_realization_matches_expected_layout(self, people_dataset):
        td = tie_attributes(people_dataset, ("Height", "Weight"))
        out = apply_channel_permutations(td, AFTER_SHUFFLE_PERMS)
        decoded = [out.decoded_values(slot) for slot in range(out.n)]
        assert decoded == [
            ("Priya", "[0,40)", "5.3", "[0,60)"),
            ("Riya", "[0,40)", "4.8", "[0,60)"),
            ("Sonal", "[0,40)", "5.3", "[60,200)"),
            ("Pranab", "[0,40)", "6.00", "[60,200)"),
            ("Sayan", "[40,130)", "6.01", "[60,200)"),
            ("Ravi", "[0,40)", "5.9", "[0,60)"),
        ]


class TestExport:
    def test_csv_and_provenance_sidecar(self, tmp_path):
        td = make_tied(5, attrs=2)
        plan = build_plan(5, 1, [c.name for c in td.channels], 2, seed=41)
        out = iterative_shuffle(td, plan)
        path = tmp_path / "shuffled.csv"
        export_csv(out, str(path))

        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "id,a0,a1"
        assert len(lines) == 6
        assert lines[1].startswith("u0,")

        sidecar = json.loads((tmp_path / "shuffled.csv.provenance.json").read_text())
        assert sidecar == {
            "mode": "IS",
            "seed": 41,
            "plan_digest": plan.digest(),
        }
