import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpshuffle import (
    Attribute,
    Dataset,
    RiskConfig,
    RiskError,
    Row,
    Scheme,
    Schema,
    build_plan,
    count_query,
    cumulative_iterative_shuffle,
    iterative_shuffle,
    measure_utility,
    parse_query,
    select_scheme,
    tie_attributes,
)
from dpshuffle.partition import PlanError, plan_batches
from dpshuffle.privacy import account
from dpshuffle.seeds import derive_seed
from dpshuffle.queryplan import (
    OPERATORS,
    Predicate,
    QuerySpec,
    TimeHorizon,
    bucket_mask,
    validate_query,
)
from dpshuffle.shuffler import apply_channel_permutations, group_orders
from dpshuffle.utility import (
    SchemeRisk,
    SchemeSelection,
    channel_hits,
    count_hits,
    count_through,
    default_regularizer,
    empirical_risk,
    loss,
    loss_bound,
)
from conftest import (
    AFTER_SHUFFLE_PERMS,
    EXAMPLE_QUERY,
    draw_every_group,
    random_dataset,
    random_schema,
    random_tied_case,
    refuse_group_orders,
)

README = Path(__file__).parent.parent / "README.md"


@pytest.fixture()
def shapes_dataset():
    """300 rows over three attributes, enough channels for S up to 3."""
    schema = Schema(
        (
            Attribute("color", tuple(f"c{i}" for i in range(5))),
            Attribute("shape", tuple(f"s{i}" for i in range(3))),
            Attribute("size", tuple(f"z{i}" for i in range(4))),
        )
    )
    rows = tuple(
        Row(f"r{i}", (f"c{i % 5}", f"s{i % 3}", f"z{i % 4}"))
        for i in range(300)
    )
    return Dataset(schema, rows)


class TestCountQuery:
    def test_fixture_count_before_shuffling(self, people_dataset):
        query = parse_query(EXAMPLE_QUERY, people_dataset.schema)
        assert count_query(people_dataset, query) == 3
        tied = tie_attributes(people_dataset, ("Age", "Weight"))
        assert count_query(tied, query) == 3

    def test_fixture_count_after_injected_shuffle(self, people_dataset):
        tied = tie_attributes(people_dataset, ("Height", "Weight"))
        after = apply_channel_permutations(tied, AFTER_SHUFFLE_PERMS)
        query = parse_query(EXAMPLE_QUERY, people_dataset.schema)
        assert count_query(after, query) == 2

    def test_categorical_equality(self, people_dataset):
        query = parse_query("count where name = Riya", people_dataset.schema)
        assert count_query(people_dataset, query) == 1

    def test_unsatisfiable_threshold_counts_zero(self, people_dataset):
        query = parse_query("count where age >= 130", people_dataset.schema)
        assert count_query(people_dataset, query) == 0

    def test_time_horizon_restricts_rows(self, people_dataset):
        old_heavy = parse_query(
            "count where weight > 60 during 40..130",
            people_dataset.schema,
            time_attribute="Age",
        )
        old_light = parse_query(
            "count where weight <= 60 during 40..130",
            people_dataset.schema,
            time_attribute="Age",
        )
        assert count_query(people_dataset, old_heavy) == 0
        assert count_query(people_dataset, old_light) == 1

    def test_matches_a_row_by_row_loop(self):
        rnd = random.Random(31)
        for _ in range(40):
            case = random_tied_case(rnd)
            dataset, query = case["dataset"], case["query"]
            checks = [
                (dataset.column(p.attribute), bucket_mask(dataset.schema.attribute(p.attribute), p))
                for p in query.predicates
            ]
            expected = sum(
                all(mask[column[slot]] for column, mask in checks)
                for slot in range(dataset.n)
            )
            assert count_query(dataset, query) == expected
            for tied in (case["tied"], dataset.schema.names[-1:]):
                assert count_query(tie_attributes(dataset, tied), query) == expected


def _condition(data, attr) -> Predicate:
    if not attr.is_numeric:
        return Predicate(attr.name, "=", data.draw(st.sampled_from(attr.values)))
    lo, hi = attr.bin_edges[0] - 5, attr.bin_edges[-1] + 5
    return Predicate(
        attr.name, data.draw(st.sampled_from(OPERATORS)), data.draw(st.floats(lo, hi))
    )


class TestCountThrough:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_count_query_on_the_shuffled_table(self, data):
        # Random tables, tie sets, queries on one or several channels
        # (several conditions may share an attribute), optional windows,
        # both modes, and up to two shufflers more than channels, so
        # some attribute groups are empty.
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="table"))
        schema = random_schema(rnd)
        dataset = random_dataset(rnd, schema, max_rows=60)
        attributes = st.sampled_from(schema.attributes)
        names = st.sampled_from(schema.names)
        tied = data.draw(st.lists(names, min_size=1, unique=True), label="tied")
        conditions = data.draw(st.lists(attributes, max_size=4), label="conditions")
        predicates = tuple(_condition(data, attr) for attr in conditions)
        horizon = None
        numeric = [attr for attr in schema.attributes if attr.is_numeric]
        if numeric and (not predicates or data.draw(st.booleans(), label="window")):
            window = _condition(data, data.draw(st.sampled_from(numeric)))
            width = data.draw(st.floats(0, 30), label="width")
            horizon = TimeHorizon(window.attribute, window.value, window.value + width)
        if not predicates and horizon is None:
            predicates = (_condition(data, schema.attributes[0]),)
        query = validate_query(QuerySpec(predicates, horizon), schema)

        tied_db = tie_attributes(dataset, tied)
        channels = [ch.name for ch in tied_db.channels]
        mode = data.draw(st.sampled_from(("IS", "CIS")), label="mode")
        t = data.draw(st.integers(1, dataset.n), label="t")
        shufflers = data.draw(st.integers(2, len(channels) + 2), label="S")
        seed = data.draw(st.integers(0, 2**63 - 1), label="seed")
        plan = build_plan(dataset.n, t, channels, shufflers, seed)
        shuffle = iterative_shuffle if mode == "IS" else cumulative_iterative_shuffle

        hits = channel_hits(tied_db, query)
        assert count_hits(hits) == count_query(tied_db, query)
        assert count_through(group_orders(tied_db, plan, mode), hits) == count_query(
            shuffle(tied_db, plan), query
        )


class TestLoss:
    @pytest.mark.parametrize(
        "c, c_prime, expected", [(5, 5, 0.0), (3, 2, 1.0), (0, 7, 7.0)]
    )
    def test_absolute_drift(self, c, c_prime, expected):
        assert loss(c, c_prime) == expected
        assert loss(c_prime, c) == expected


class TestLossBound:
    def test_zero_budget_means_zero_drift_allowed(self):
        assert loss_bound(100, 0.0) == 0.0

    def test_small_positive_budget(self):
        assert loss_bound(100, math.log(1.1)) == pytest.approx(10.0, rel=1e-12)

    def test_zero_count_binds_exactly(self):
        assert loss_bound(0, 2.5) == 0.0

    def test_negative_budget_uses_magnitude_of_drift_factor(self):
        assert loss_bound(10, -math.log(2)) == pytest.approx(5.0, rel=1e-12)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            loss_bound(-1, 0.5)

    def test_nondecreasing_in_budget_magnitude(self):
        budgets = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0]
        bounds = [loss_bound(50, e) for e in budgets]
        assert bounds == sorted(bounds)

    def test_linear_in_count(self):
        for c in (1, 3, 50):
            assert loss_bound(2 * c, 0.3) == 2 * loss_bound(c, 0.3)


class TestMeasureUtility:
    def test_exact_answer_at_zero_budget(self):
        report = measure_utility(3, 3, 0.0)
        assert report.loss == 0.0
        assert report.loss_bound == 0.0
        assert report.bound_satisfied

    def test_drift_within_budget(self):
        report = measure_utility(3, 2, math.log(7 / 4))
        assert report.loss == 1.0
        assert report.loss_bound == pytest.approx(1.5, rel=1e-12)
        assert report.bound_satisfied

    def test_drift_beyond_budget(self):
        report = measure_utility(5, 0, 1.0)
        assert report.loss == 5.0
        assert report.loss_bound == 0.0
        assert not report.bound_satisfied

    def test_signed_budget_recorded(self):
        assert measure_utility(1, 1, -0.7).epsilon_used == -0.7


class TestEmpiricalRisk:
    def test_noiseless_unregularized_workload_costs_nothing(self):
        result = empirical_risk([0, 0, 0], [4, 4, 4], 0.5, 0.0, Scheme(2, 2))
        assert result.risk == 0.0
        assert result.mean_loss == 0.0
        assert result.penalty == 0.0

    def test_single_run_inside_its_ceiling(self):
        result = empirical_risk([1], [2], math.log(2), 0.0, Scheme(2, 2))
        assert result.risk == 1.0
        assert result.bound == pytest.approx(4.0, rel=1e-12)

    def test_regularizer_only_case(self):
        result = empirical_risk([0], [0], 0.0, 1.0, Scheme(1, 2))
        assert default_regularizer(Scheme(1, 2)) == 2.0
        assert result.penalty == 2.0
        assert result.risk == 2.0
        assert result.bound == 2.0

    def test_strength_shifts_risk_by_penalty(self):
        scheme = Scheme(7, 3)
        base = empirical_risk([1, 3], [5, 5], 0.2, 0.0, scheme)
        shifted = empirical_risk([1, 3], [5, 5], 0.2, 0.25, scheme)
        assert base.risk == base.mean_loss
        assert shifted.risk == pytest.approx(
            base.risk + 0.25 * default_regularizer(scheme), rel=1e-12
        )

    def test_rejects_malformed_inputs(self):
        with pytest.raises(RiskError, match="empty workload"):
            empirical_risk([], [], 0.0, 0.0, Scheme(1, 2))
        with pytest.raises(RiskError, match="2 losses but 1"):
            empirical_risk([1, 2], [3], 0.0, 0.0, Scheme(1, 2))
        for lam in (-0.5, math.nan, math.inf):
            with pytest.raises(RiskError, match="non-negative"):
                empirical_risk([1], [1], 0.0, lam, Scheme(1, 2))

    def test_ceiling_is_reported_not_checked(self):
        # A sweep trial is one shuffle with no retry, so its loss may
        # exceed its bound even at a non-negative budget.
        result = empirical_risk([5], [0], 0.0, 0.0, Scheme(1, 2))
        assert result.risk == 5.0
        assert result.bound == 0.0

    def test_negative_budget_waives_the_ceiling_check(self):
        result = empirical_risk([5], [0], -0.1, 0.0, Scheme(1, 2))
        assert result.risk == 5.0
        assert result.bound == 0.0


class TestSelectScheme:
    def test_singleton_grid_wins_by_default(self, shapes_dataset):
        config = RiskConfig(
            hypothesis_grid=(Scheme(10, 2),),
            workload=("count where color = c1",),
        )
        selection = select_scheme(config, shapes_dataset, seed=1)
        assert selection.best == Scheme(10, 2)
        assert len(selection.table) == 1
        assert selection.table[0].n1 == 30

    def test_tied_workload_prefers_lighter_scheme(self, shapes_dataset):
        config = RiskConfig(
            hypothesis_grid=(Scheme(100, 3), Scheme(100, 2)),
            workload=("count where color = c1",),
        )
        selection = select_scheme(config, shapes_dataset, seed=7)
        assert selection.best == Scheme(100, 2)
        risks = [row.result.risk for row in selection.table]
        assert risks == sorted(risks)
        for row in selection.table:
            assert row.result.mean_loss == 0.0
            assert row.n1 == 3

    def test_exact_ties_break_to_smaller_scale(self, shapes_dataset):
        config = RiskConfig(
            hypothesis_grid=(Scheme(15, 3), Scheme(15, 2), Scheme(10, 2)),
            workload=("count where color = c1",),
            lam=0.0,
        )
        selection = select_scheme(config, shapes_dataset, seed=3)
        assert [row.result.risk for row in selection.table] == [0.0, 0.0, 0.0]
        assert selection.best == Scheme(10, 2)
        assert [row.scheme for row in selection.table] == [
            Scheme(10, 2),
            Scheme(15, 2),
            Scheme(15, 3),
        ]

    def test_deterministic_and_order_independent(self, shapes_dataset):
        grid = (Scheme(50, 2), Scheme(100, 2), Scheme(100, 3))
        workload = ("count where color = c1 and shape = s0",)
        first = select_scheme(
            RiskConfig(hypothesis_grid=grid, workload=workload,
                       tied_attributes=("color",)),
            shapes_dataset,
            seed=11,
        )
        again = select_scheme(
            RiskConfig(hypothesis_grid=grid, workload=workload,
                       tied_attributes=("color",)),
            shapes_dataset,
            seed=11,
        )
        reordered = select_scheme(
            RiskConfig(hypothesis_grid=grid[::-1], workload=workload,
                       tied_attributes=("color",)),
            shapes_dataset,
            seed=11,
        )
        assert first.to_dict() == again.to_dict() == reordered.to_dict()

    def test_cross_channel_workload_can_drift(self, monkeypatch, shapes_dataset):
        # color is tied but shape is a free channel, so the conjunction
        # can come apart under shuffling.
        config = RiskConfig(
            hypothesis_grid=(Scheme(50, 2),),
            workload=("count where color = c1 and shape = s0",),
            tied_attributes=("color",),
        )
        selection = select_scheme(config, shapes_dataset, seed=2)
        assert selection.table[0].result.mean_loss > 0.0
        refuse_group_orders(monkeypatch)
        with pytest.raises(AssertionError, match="group orders were drawn"):
            select_scheme(config, shapes_dataset, seed=2)

    # Each query inside one attribute group: the trials draw no orders,
    # and rank exactly as when they are drawn.  Under the default tie set
    # every query lies in the tied channel; with ``shape`` tied, each
    # query touches one channel.
    @pytest.mark.parametrize("tied", [None, ("shape",)])
    def test_one_group_workload_draws_no_orders(self, monkeypatch, shapes_dataset, tied):
        workload = ("count where size = z1",)
        if tied is None:
            workload += ("count where color = c1 and shape = s0",)
        config = RiskConfig(
            hypothesis_grid=(Scheme(50, 2), Scheme(100, 3)),
            workload=workload + ("count where color = c2",),
            tied_attributes=tied,
        )
        with monkeypatch.context() as m:
            refuse_group_orders(m)
            selection = select_scheme(config, shapes_dataset, seed=4)
        with monkeypatch.context() as m:
            draws = draw_every_group(m)
            assert select_scheme(config, shapes_dataset, seed=4).to_dict() == selection.to_dict()
        assert len(draws) == 2 * config.trials_per_scheme

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_default_tie_set_ranks_on_the_penalty_alone(self, data):
        # The README's claim, checked on random tables and workloads.
        claim = (
            "Under the default tie set every ranked query lies in the tied "
            "channel, so each `mean_loss` is 0 and ranking is on λ(S + ln t) alone."
        )
        assert claim in " ".join(README.read_text(encoding="utf-8").split())
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="table"))
        schema = random_schema(rnd)
        dataset = random_dataset(rnd, schema, max_rows=40)
        attributes = st.sampled_from(schema.attributes)
        workload = data.draw(
            st.lists(st.lists(attributes, min_size=1, max_size=3), min_size=1, max_size=3),
            label="workload",
        )
        t = st.integers(1, max(1, dataset.n // 2))
        grid = data.draw(
            st.lists(st.builds(Scheme, t, st.integers(2, 4)), min_size=1, max_size=4),
            label="grid",
        )
        config = RiskConfig(
            hypothesis_grid=tuple(grid),
            workload=tuple(
                QuerySpec(tuple(_condition(data, attr) for attr in query))
                for query in workload
            ),
            trials_per_scheme=2,
        )
        try:
            table = select_scheme(config, dataset, seed=0).table
        except RiskError:
            return
        for row in table:
            assert row.result.mean_loss == 0.0
            assert row.result.risk == row.result.penalty
        by_penalty = sorted(
            table, key=lambda row: (row.result.penalty, row.scheme.S, row.scheme.t)
        )
        assert list(table) == by_penalty

    def test_rejects_unusable_configurations(self, shapes_dataset):
        workload = ("count where color = c1",)
        with pytest.raises(RiskError, match="grid is empty"):
            select_scheme(
                RiskConfig(hypothesis_grid=(), workload=workload),
                shapes_dataset,
                seed=0,
            )
        with pytest.raises(RiskError, match="workload is empty"):
            select_scheme(
                RiskConfig(hypothesis_grid=(Scheme(2, 2),), workload=()),
                shapes_dataset,
                seed=0,
            )
        with pytest.raises(RiskError, match="at least one trial"):
            select_scheme(
                RiskConfig(
                    hypothesis_grid=(Scheme(2, 2),),
                    workload=workload,
                    trials_per_scheme=0,
                ),
                shapes_dataset,
                seed=0,
            )
        # 300 rows in 300 batches, or in 200 batches of 2 and 1 rows.
        for scheme in (Scheme(300, 2), Scheme(200, 2)):
            with pytest.raises(RiskError, match="single row"):
                select_scheme(
                    RiskConfig(hypothesis_grid=(scheme,), workload=workload),
                    shapes_dataset,
                    seed=0,
                )
        with pytest.raises(RiskError, match="at least 2 shufflers"):
            select_scheme(
                RiskConfig(hypothesis_grid=(Scheme(10, 1),), workload=workload),
                shapes_dataset,
                seed=0,
            )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_ranked_scheme_is_releasable(self, data):
        # The sweep ranks only schemes whose every batch a release can
        # account for.
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="table"))
        schema = random_schema(rnd)
        dataset = random_dataset(rnd, schema, max_rows=40)
        n = dataset.n
        names = st.sampled_from(schema.names)
        tied = data.draw(st.lists(names, min_size=1, unique=True), label="tied")
        grid = data.draw(
            st.lists(st.builds(Scheme, st.integers(1, n), st.integers(2, 4)), min_size=1),
            label="grid",
        )
        conditions = data.draw(
            st.lists(st.sampled_from(schema.attributes), min_size=1, max_size=3),
            label="conditions",
        )
        query = QuerySpec(tuple(_condition(data, attr) for attr in conditions))
        config = RiskConfig(
            hypothesis_grid=tuple(grid),
            workload=(query,),
            trials_per_scheme=1,
            tied_attributes=tuple(tied),
        )
        try:
            best = select_scheme(config, dataset, seed=0).best
        except (RiskError, PlanError):
            return
        account("IS", plan_batches(n, best.t), best.S)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_ranks_as_plan_by_plan_trials(self, data):
        # Random tables, tie sets, grids whose S need not divide the
        # channel count or may exceed it (so some groups are empty), and
        # queries on one channel or several, ranked as by building each
        # trial's plan, drawing its group orders and counting through
        # them, whichever groups the queries touch.
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="table"))
        schema = random_schema(rnd)
        dataset = random_dataset(rnd, schema, max_rows=40)
        names = st.sampled_from(schema.names)
        tied = data.draw(st.lists(names, min_size=1, max_size=2, unique=True), label="tied")
        tied_db = tie_attributes(dataset, tied)
        channels = [ch.name for ch in tied_db.channels]
        grid = data.draw(
            st.lists(
                st.builds(
                    Scheme, st.integers(1, dataset.n // 2), st.integers(2, len(channels) + 2)
                ),
                min_size=1,
                max_size=3,
            ),
            label="grid",
        )
        workload = tuple(
            QuerySpec(tuple(_condition(data, attr) for attr in conditions))
            for conditions in data.draw(
                st.lists(
                    st.lists(st.sampled_from(schema.attributes), min_size=1, max_size=4),
                    min_size=1,
                    max_size=3,
                ),
                label="workload",
            )
        )
        config = RiskConfig(
            hypothesis_grid=tuple(grid),
            workload=workload,
            trials_per_scheme=data.draw(st.integers(1, 3), label="trials"),
            tied_attributes=tuple(tied),
        )
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        assert select_scheme(config, dataset, seed).to_dict() == plan_by_plan(
            config, dataset, seed
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_ranks_as_plan_by_plan_trials_on_uneven_groups(self, shapes_dataset, seed):
        # Three channels in two groups: which group takes the extra
        # channel decides whether each query spans groups.
        config = RiskConfig(
            hypothesis_grid=(Scheme(10, 2), Scheme(30, 2), Scheme(7, 3)),
            workload=(
                "count where shape = s0 and size = z1",
                "count where color = c1 and shape = s2",
                "count where size = z3",
            ),
            tied_attributes=("color",),
        )
        assert select_scheme(config, shapes_dataset, seed).to_dict() == plan_by_plan(
            config, shapes_dataset, seed
        )


def plan_by_plan(config: RiskConfig, dataset: Dataset, seed: int) -> dict:
    """``select_scheme(config, dataset, seed).to_dict()``, computed by
    building each trial's plan, drawing its group orders and counting
    every query through them, whichever groups it touches."""
    tied_db = tie_attributes(dataset, config.tied_attributes)
    channels = [ch.name for ch in tied_db.channels]
    hits = [
        channel_hits(tied_db, parse_query(q, dataset.schema) if isinstance(q, str) else q)
        for q in config.workload
    ]
    rows = []
    for scheme in config.hypothesis_grid:
        acct = account("IS", plan_batches(dataset.n, scheme.t), scheme.S)
        losses, released = [], []
        for trial in range(config.trials_per_scheme):
            trial_seed = derive_seed(seed, "risk", scheme.t, scheme.S, trial)
            plan = build_plan(dataset.n, scheme.t, channels, scheme.S, trial_seed)
            orders = group_orders(tied_db, plan, "IS")
            for query_hits in hits:
                c_prime = count_through(orders, query_hits)
                losses.append(loss(count_hits(query_hits), c_prime))
                released.append(c_prime)
        result = empirical_risk(losses, released, acct.epsilon, config.lam, scheme)
        rows.append(SchemeRisk(scheme, acct.n1, result))
    rows.sort(key=lambda row: (row.result.risk, row.scheme.S, row.scheme.t))
    return SchemeSelection(rows[0].scheme, tuple(rows)).to_dict()
