import csv
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
    ShufflePlan,
    build_plan,
    cumulative_iterative_shuffle,
    export_csv,
    iterative_shuffle,
    tie_attributes,
)
from dpshuffle.seeds import derive_rng
from dpshuffle.shuffler import apply_channel_permutations, group_orders
from conftest import AFTER_SHUFFLE_PERMS, channel_columns


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
    return same_columns(channel_columns(a), channel_columns(b)) and all(
        getattr(a, f) == getattr(b, f) for f in fields
    )


def reference_orders(plan, mode: str) -> dict:
    """Each non-empty group's order, drawn by hand: one generator, then
    ``rng.shuffle`` on each batch slice of each group in plan order.
    CIS has one batch of all n rows."""
    rng = derive_rng(plan.seed, "shuffle", mode)
    bounds = plan.bounds if mode == "IS" else ((0, plan.n),)
    orders = {}
    for group in plan.attribute_groups:
        if group:
            orders[group] = np.arange(plan.n)
            for start, end in bounds:
                rng.shuffle(orders[group][start:end])
    return orders


def reference_columns(td, plan, mode: str) -> dict:
    """The channel blocks ``reference_orders`` gives: each group's
    channels gathered through its group's order."""
    before = channel_columns(td)
    return {
        name: before[name][order]
        for group, order in reference_orders(plan, mode).items()
        for name in group
    }


def realized_permutation(before, after) -> list[int]:
    """Recover which input slot each output slot's payload came from,
    given a channel's block before and after a shuffle."""
    source = {payload: i for i, payload in enumerate(rows_of(before))}
    return [source[payload] for payload in rows_of(after)]


class TestShuffleBatch:
    """A one-batch plan: the whole table is one shuffled batch."""

    def test_single_row_batch_is_identity(self):
        td = make_tied(1, attrs=2)
        plan = build_plan(1, 1, [c.name for c in td.channels], 2, seed=3)
        out = channel_columns(iterative_shuffle(td, plan))
        assert same_columns(out, channel_columns(td))

    def test_multisets_preserved_per_channel(self):
        td = make_tied(12, attrs=3, tie_first=2)
        plan = build_plan(12, 1, [c.name for c in td.channels], 2, seed=9)
        out = channel_columns(iterative_shuffle(td, plan))
        before = channel_columns(td)
        for name in plan.channels:
            assert Counter(rows_of(out[name])) == Counter(rows_of(before[name]))

    def test_channels_in_one_group_share_a_permutation(self):
        td = make_tied(8, attrs=3, tie_first=1)  # g=3 channels, S=2
        plan = build_plan(8, 1, [c.name for c in td.channels], 2, seed=1)
        shared = [g for g in plan.attribute_groups if len(g) == 2]
        assert shared, "expected one group with two channels"
        out = channel_columns(iterative_shuffle(td, plan))
        before = {name: rows_of(col) for name, col in channel_columns(td).items()}
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
        out = channel_columns(iterative_shuffle(td, plan))
        before = channel_columns(td)
        for group, perm in reference_orders(plan, "IS").items():
            for name in group:
                assert rows_of(out[name]) == [
                    rows_of(before[name])[src] for src in perm
                ]

    def test_fixed_point_frequency_matches_analytic_rate(self):
        # A slot keeps its full row only when every group's permutation
        # fixes it: rate (1/n1)^S, here (1/3)^2 = 1/9.  Payloads are
        # unique per slot, so slot 0 keeps its row exactly when every
        # group's composed order, which the shuffle gathers through,
        # maps slot 0 to itself.
        trials = 30_000
        n1, hits = 3, 0
        td = make_tied(n1, attrs=2)  # two channels, one per shuffler group
        channels = [c.name for c in td.channels]
        for i in range(trials):
            orders = group_orders(td, build_plan(n1, 1, channels, 2, seed=i), "IS")
            assert len(orders) == 2
            hits += all(order[0] == 0 for order in orders.values())
        rate = hits / trials
        sigma = math.sqrt((1 / 9) * (8 / 9) / trials)
        assert abs(rate - 1 / 9) <= 3 * sigma

    def test_two_groups_permutations_are_jointly_uniform(self):
        # Both groups draw from one generator; their permutations of a
        # 3-row batch must still be independent and uniform, so each of
        # the 6 x 6 pairs occurs 1/36 of the time.
        trials = 7_200
        td = make_tied(3, attrs=2)
        channels = [c.name for c in td.channels]
        seen = Counter()
        for i in range(trials):
            orders = group_orders(td, build_plan(3, 1, channels, 2, seed=i), "IS")
            seen[tuple(tuple(order.tolist()) for order in orders.values())] += 1
        assert len(seen) == 36
        expected = trials / 36
        chi_square = sum((k - expected) ** 2 / expected for k in seen.values())
        # 99.9th percentile of the chi-square law with 35 degrees of freedom.
        assert chi_square < 66.62


class TestIterativeShuffle:
    def test_single_batch_equals_direct_batch_shuffle(self):
        td = make_tied(7, attrs=2)
        plan = build_plan(7, 1, [c.name for c in td.channels], 2, seed=13)
        whole = iterative_shuffle(td, plan)
        direct = reference_columns(td, plan, "IS")
        assert same_columns(channel_columns(whole), direct)

    def test_batches_never_mix(self):
        td = make_tied(10, attrs=2)
        plan = build_plan(10, 3, [c.name for c in td.channels], 2, seed=2)
        out = channel_columns(iterative_shuffle(td, plan))
        before = channel_columns(td)
        for start, end in plan.bounds:
            for name in plan.channels:
                assert Counter(rows_of(out[name][start:end])) == Counter(
                    rows_of(before[name][start:end])
                )

    def test_slot_ids_keep_input_order(self):
        td = make_tied(9, attrs=2)
        plan = build_plan(9, 2, [c.name for c in td.channels], 2, seed=8)
        assert iterative_shuffle(td, plan).ids == td.ids

    def test_tie_and_shuffle_pass_loaded_ids_on_undecoded(self, people_dataset):
        td = tie_attributes(people_dataset, ("Age",))
        plan = build_plan(td.n, 2, [c.name for c in td.channels], 2, seed=8)
        out = iterative_shuffle(td, plan)
        assert isinstance(people_dataset._ids, np.ndarray)
        assert out._ids is td._ids is people_dataset._ids
        assert out.ids == people_dataset.ids

    def test_tied_tuples_stay_fused(self):
        td = make_tied(12, attrs=3, tie_first=2)
        plan = build_plan(12, 4, [c.name for c in td.channels], 3, seed=5)
        out = channel_columns(iterative_shuffle(td, plan))[td.tied_channel]
        before = channel_columns(td)[td.tied_channel]
        assert Counter(rows_of(out)) == Counter(rows_of(before))
        assert all(len(payload) == 2 for payload in rows_of(out))

    def test_deterministic_across_runs(self):
        td = make_tied(20, attrs=3, tie_first=1)
        plan = build_plan(20, 4, [c.name for c in td.channels], 2, seed=21)
        a = iterative_shuffle(td, plan)
        b = iterative_shuffle(td, plan)
        assert same_shuffle(a, b)

    def test_plan_mismatch_rejected(self):
        td = make_tied(6, attrs=2)
        plan = build_plan(7, 1, [c.name for c in td.channels], 2, seed=0)
        with pytest.raises(ShuffleError, match="7 rows"):
            iterative_shuffle(td, plan)
        plan = build_plan(6, 1, ["nope"], 2, seed=0)
        with pytest.raises(ShuffleError, match="channels"):
            iterative_shuffle(td, plan)

    @pytest.mark.parametrize("mode", ["IS", "CIS", "injected"])
    def test_output_codes_are_a_read_only_copy(self, mode):
        td = make_tied(6, attrs=3, tie_first=2)
        channels = [c.name for c in td.channels]
        if mode == "injected":
            out = apply_channel_permutations(td, {name: range(6) for name in channels})
        else:
            shuffle = iterative_shuffle if mode == "IS" else cumulative_iterative_shuffle
            out = shuffle(td, build_plan(6, 2, channels, 2, seed=7))
        assert not out.codes.flags.writeable
        assert not np.shares_memory(out.codes, td.codes)
        with pytest.raises(ValueError, match="read-only"):
            out.codes[0, 0] = 0

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
        direct = reference_columns(td, plan, "CIS")
        assert same_columns(channel_columns(out), direct)

    def test_many_batches_shuffle_all_rows_at_stage_0(self):
        # The paper's prefix chain ends in one uniform permutation of all
        # n rows per group, so CIS draws just that: one batch of size n.
        td = make_tied(9, attrs=3)
        plan = build_plan(9, 3, [c.name for c in td.channels], 2, seed=77)
        out = cumulative_iterative_shuffle(td, plan)
        direct = reference_columns(td, plan, "CIS")
        assert same_columns(channel_columns(out), direct)

    def test_output_does_not_depend_on_the_batch_count(self):
        td = make_tied(8, attrs=3)
        channels = [c.name for c in td.channels]
        two, four = (
            cumulative_iterative_shuffle(td, build_plan(8, t, channels, 2, seed=5))
            for t in (2, 4)
        )
        assert same_columns(channel_columns(two), channel_columns(four))

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
        before = channel_columns(td)[channel]
        trials = 3_000
        seen = Counter()
        for seed in range(trials):
            plan = build_plan(4, 2, [channel], 2, seed=seed)
            out = cumulative_iterative_shuffle(td, plan)
            after = channel_columns(out)[channel]
            seen[tuple(realized_permutation(before, after))] += 1
        assert set(seen) == set(permutations(range(4)))
        expected = trials / 24
        chi_square = sum((k - expected) ** 2 / expected for k in seen.values())
        # 99.9th percentile of the chi-square law with 23 degrees of freedom.
        assert chi_square < 49.73

    def test_whole_dataset_multisets_preserved(self):
        td = make_tied(10, attrs=2)
        plan = build_plan(10, 4, [c.name for c in td.channels], 3, seed=23)
        out = channel_columns(cumulative_iterative_shuffle(td, plan))
        before = channel_columns(td)
        for name in plan.channels:
            assert Counter(rows_of(out[name])) == Counter(rows_of(before[name]))

    def test_deterministic_and_mode_tagged(self):
        td = make_tied(8, attrs=2)
        plan = build_plan(8, 2, [c.name for c in td.channels], 2, seed=3)
        a = cumulative_iterative_shuffle(td, plan)
        assert same_shuffle(a, cumulative_iterative_shuffle(td, plan))
        assert a.provenance.mode == "CIS"


@st.composite
def shuffle_cases(draw):
    """A tied table, plan and mode; fewer channels than shufflers leaves
    some attribute groups empty.  Some plans take any batch sizes with a
    largest first, as ``ShufflePlan`` allows, so batches of one size need
    not be adjacent."""
    attrs = draw(st.integers(1, 4))
    tie_first = draw(st.integers(1, attrs))
    n = draw(st.integers(1, 24))
    t = draw(st.integers(1, n))
    shufflers = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**64 - 1))
    mode = draw(st.sampled_from(["IS", "CIS"]))
    td = make_tied(n, attrs=attrs, tie_first=tie_first)
    plan = build_plan(n, t, [c.name for c in td.channels], shufflers, seed=seed)
    if n > 1 and draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
        sizes = [end - start for start, end in zip([0, *cuts], [*cuts, n])]
        sizes.insert(0, sizes.pop(sizes.index(max(sizes))))
        plan = ShufflePlan(seed, tuple(sizes), plan.attribute_groups)
    return td, plan, mode


@settings(max_examples=150, deadline=None)
@given(shuffle_cases())
def test_shuffle_equals_the_stage_by_stage_composition(case):
    td, plan, mode = case
    shuffle = iterative_shuffle if mode == "IS" else cumulative_iterative_shuffle
    assert same_columns(
        channel_columns(shuffle(td, plan)), reference_columns(td, plan, mode)
    )


class TestInjectedPermutations:
    def test_moves_payloads_as_directed(self):
        td = make_tied(4, attrs=2)
        names = [c.name for c in td.channels]
        perms = {names[0]: [3, 2, 1, 0], names[1]: [1, 2, 3, 0]}
        out = apply_channel_permutations(td, perms)
        before = {name: rows_of(col) for name, col in channel_columns(td).items()}
        after = {name: rows_of(col) for name, col in channel_columns(out).items()}
        assert after[names[0]] == [before[names[0]][i] for i in (3, 2, 1, 0)]
        assert after[names[1]] == [before[names[1]][i] for i in (1, 2, 3, 0)]
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

    def test_fixture_realization_matches_expected_layout(self, people_dataset, tmp_path):
        td = tie_attributes(people_dataset, ("Height", "Weight"))
        out = apply_channel_permutations(td, AFTER_SHUFFLE_PERMS)
        path = tmp_path / "realized.csv"
        export_csv(out, str(path))
        with open(path, newline="", encoding="utf-8") as fh:
            decoded = [tuple(record[1:]) for record in csv.reader(fh)][1:]
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

    @pytest.mark.parametrize(
        "uids, labels, value",
        [
            (("ok1", "bad\udc80", "ok3"), ("x", "y"), "bad\udc80"),
            (("ok1", "ok2", "ok3"), ("x", "y\ud800"), "y\ud800"),
        ],
        ids=["id", "label"],
    )
    def test_a_value_utf8_cannot_encode_writes_nothing(self, tmp_path, uids, labels, value):
        # Dataset accepts any ID without a NUL, and a schema any label.
        schema = Schema((Attribute("a0", ("p", "q")), Attribute("a1", labels)))
        rows = [Row(uid, ("p", labels[-1])) for uid in uids]
        td = tie_attributes(Dataset(schema, rows), ("a0",))
        plan = build_plan(3, 1, [c.name for c in td.channels], 2, seed=41)
        out = iterative_shuffle(td, plan)
        fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
        existing.write_text("id,a0,a1\nold,p,x\n", encoding="utf-8")
        for path in (fresh, existing):
            with pytest.raises(ShuffleError) as exc:
                export_csv(out, str(path))
            assert str(exc.value) == (
                f"{path}: cannot encode {value!r} as UTF-8 (surrogates not allowed)"
            )
        assert [p.name for p in tmp_path.iterdir()] == ["existing.csv"]
        assert existing.read_text(encoding="utf-8") == "id,a0,a1\nold,p,x\n"
