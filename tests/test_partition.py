import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpshuffle import PlanError, ShufflePlan, build_plan, partition
from dpshuffle.partition import group_attributes, plan_batches
from dpshuffle.seeds import derive_rng


class TestPlanBatches:
    def test_exact_division(self):
        sizes = plan_batches(11_000, 1_000)
        assert len(sizes) == 1_000
        assert set(sizes) == {11}

    def test_remainder_goes_to_earliest_batches(self):
        assert plan_batches(10, 3) == (4, 3, 3)

    def test_single_batch(self):
        assert plan_batches(5, 1) == (5,)

    @pytest.mark.parametrize("n,t", [(10, 0), (10, 11), (0, 1), (5, -1)])
    def test_infeasible(self, n, t):
        with pytest.raises(PlanError):
            plan_batches(n, t)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5_000), st.data())
    def test_sizes_sum_and_differ_by_at_most_one(self, n, data):
        t = data.draw(st.integers(1, n))
        sizes = plan_batches(n, t)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert sizes[0] == max(sizes) == math.ceil(n / t)

    def test_bounds_cover_range(self):
        plan = ShufflePlan(
            seed=0, batch_sizes=plan_batches(10, 3), attribute_groups=(("a",), ("b",))
        )
        assert plan.bounds == ((0, 4), (4, 7), (7, 10))


class TestGroupAttributes:
    def test_exact_division_keeps_order(self):
        rng = derive_rng(0, "test")
        groups = group_attributes(list("abcdef"), 3, rng)
        assert groups == (("a", "b"), ("c", "d"), ("e", "f"))

    def test_uneven_split_sizes(self):
        rng = derive_rng(1, "test")
        groups = group_attributes(list("abcdefg"), 3, rng)
        assert sorted(len(g) for g in groups) == [2, 2, 3]
        assert sorted(x for g in groups for x in g) == list("abcdefg")

    def test_singletons_when_g_equals_s(self):
        rng = derive_rng(2, "test")
        assert group_attributes(["x", "y", "z"], 3, rng) == (("x",), ("y",), ("z",))

    def test_fewer_channels_than_shufflers_leaves_empty_groups(self):
        rng = derive_rng(3, "test")
        groups = group_attributes(["only"], 2, rng)
        assert sorted(len(g) for g in groups) == [0, 1]

    def test_rejects_single_shuffler_and_duplicates(self):
        rng = derive_rng(4, "test")
        with pytest.raises(PlanError, match="at least 2"):
            group_attributes(["a", "b"], 1, rng)
        with pytest.raises(PlanError, match="unique"):
            group_attributes(["a", "a"], 2, rng)
        with pytest.raises(PlanError, match="empty"):
            group_attributes([], 2, rng)

    def test_extra_placement_is_roughly_uniform(self):
        trials = 20_000
        hits = Counter()
        for i in range(trials):
            groups = group_attributes(list("abcd"), 3, derive_rng(i, "extras"))
            hits[max(range(3), key=lambda g: len(groups[g]))] += 1
        expected = trials / 3
        sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
        for g in range(3):
            assert abs(hits[g] - expected) <= 3 * sigma

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(2, 5), st.integers(0, 10_000))
    def test_never_drops_or_duplicates(self, g, s, seed):
        channels = [f"ch{i}" for i in range(g)]
        groups = group_attributes(channels, s, derive_rng(seed, "prop"))
        assert [x for grp in groups for x in grp] == channels
        base = g // s
        assert all(len(grp) in (base, base + 1) for grp in groups)
        assert sum(1 for grp in groups if len(grp) == base + 1) == g % s


class TestBuildPlan:
    def test_plan_is_a_pure_function_of_inputs(self):
        a = build_plan(100, 7, ["x", "y", "z"], 2, seed=11)
        b = build_plan(100, 7, ["x", "y", "z"], 2, seed=11)
        assert a == b
        assert a.digest() == b.digest()

    def test_seed_changes_plan_digest(self):
        a = build_plan(100, 7, ["x", "y", "z"], 2, seed=11)
        b = build_plan(100, 7, ["x", "y", "z"], 2, seed=12)
        assert a.digest() != b.digest()

    @pytest.mark.parametrize(
        "sizes, groups, message",
        [
            ((6, 6), (("a",), ("a", "b", "c")), "channel sits in more than one"),
            ((6, 6), (("a", "b"), ("c", "c")), "channel sits in more than one"),
            ((6, 6), (("a", "b", "c"),), "at least 2 attribute groups"),
            ((6, 0), (("a",), ("b",)), r"batch sizes >= 1.*\(6, 0\)"),
            ((), (("a",), ("b",)), r"batch sizes >= 1.*\(\)"),
            ((2, 10), (("a",), ("b",)), r"a largest first, got \(2, 10\)"),
        ],
    )
    def test_contradictory_plan_rejected(self, sizes, groups, message):
        with pytest.raises(PlanError, match=message):
            ShufflePlan(seed=5, batch_sizes=sizes, attribute_groups=groups)

    @pytest.mark.parametrize(
        "channels, shufflers, derived", [(6, 2, 0), (6, 3, 0), (7, 2, 1), (2, 3, 1)]
    )
    def test_only_an_uneven_split_derives_its_generator(
        self, monkeypatch, channels, shufflers, derived
    ):
        names = [f"c{i}" for i in range(channels)]
        expected = build_plan(20, 4, names, shufflers, seed=9)
        paths = []

        def recording(root, *path):
            paths.append(path)
            return derive_rng(root, *path)

        monkeypatch.setattr(partition, "derive_rng", recording)
        assert build_plan(20, 4, names, shufflers, seed=9) == expected
        assert paths == [("plan", "group-extras")] * derived

    @pytest.mark.parametrize("shufflers", [1, 0, -1])
    def test_too_few_shufflers_rejected(self, shufflers):
        with pytest.raises(PlanError, match="at least 2 shufflers"):
            build_plan(10, 2, ["x", "y"], shufflers, seed=0)

    def test_largest_batch_first(self):
        plan = build_plan(10, 3, ["x"], 2, seed=0)
        assert plan.batch_sizes == (4, 3, 3)
        assert plan.n1 == 4

    def test_serializable_audit_record(self):
        plan = build_plan(10, 3, ["x", "y", "z"], 2, seed=0)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["batch_sizes"] == [4, 3, 3]
        assert payload["accounting_batch_size"] == 4
        assert payload["n"] == 10
        assert sorted(
            name for group in payload["attribute_groups"] for name in group
        ) == ["x", "y", "z"]
