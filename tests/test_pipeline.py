import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpshuffle import (
    Attribute,
    ConfigError,
    Dataset,
    PipelineConfig,
    PipelineRefused,
    RetriesExhausted,
    Row,
    Scheme,
    Schema,
    load_config,
    parse_query,
    run_pipeline,
)
from dpshuffle.pipeline import (
    _CONFIG_KEYS,
    REFERENCE_EPSILONS,
    REPORT_FIELDS,
    reproduce_table3,
    risk_sweep,
    run_on_dataset,
)
from dpshuffle.privacy import epsilon_cis
from dpshuffle.queryplan import Predicate, QuerySpec
from conftest import EXAMPLE_QUERY, draw_every_group, refuse_group_orders

DRIFTY_QUERY = "count where name = Riya and weight > 60"


def drifty_config(**overrides):
    """People-fixture setup whose conjunction can come apart: Weight is
    tied but Name stays a free channel, so any drift violates the
    zero-count bound."""
    base = dict(seed=0, t=2, S=2, tied_attributes=("Weight",))
    base.update(overrides)
    return PipelineConfig(**base)


def wide_dataset(n: int, labels: int = 3):
    schema = Schema(
        (
            Attribute("kind", tuple(f"k{i}" for i in range(labels))),
            Attribute("left", ("a", "b")),
            Attribute("right", ("x", "y")),
        )
    )
    rows = tuple(
        Row(f"r{i}", (f"k{i % labels}", "ab"[i % 2], "xy"[i % 2]))
        for i in range(n)
    )
    return Dataset(schema, rows)


class TestLoadConfig:
    def test_full_roundtrip(self, write_json):
        path = write_json(
            "config.json",
            {
                "seed": 42,
                "t": 5,
                "S": 3,
                "mode": "CIS",
                "lambda": 0.5,
                "max_retries": 2,
                "hypothesis_grid": [[10, 2], {"t": 20, "S": 3}],
                "trials": 7,
                "tied_attributes": ["Age", "Weight"],
                "time_attribute": "Age",
                "schema": "schema.json",
                "workload": [EXAMPLE_QUERY],
            },
        )
        config = load_config(path)
        assert config == PipelineConfig(
            seed=42,
            t=5,
            S=3,
            mode="CIS",
            lam=0.5,
            max_retries=2,
            hypothesis_grid=(Scheme(10, 2), Scheme(20, 3)),
            trials=7,
            tied_attributes=("Age", "Weight"),
            time_attribute="Age",
            schema_path="schema.json",
            workload=(EXAMPLE_QUERY,),
        )

    def test_defaults(self, write_json):
        config = load_config(write_json("config.json", {"seed": 5}))
        assert config.seed == 5
        assert config.t is None and config.S is None
        assert config.mode == "IS"
        assert config.lam == 0.01
        assert config.max_retries == 16
        assert config.trials == 4
        assert config.hypothesis_grid == ()
        assert config.workload == ()
        # Null means unset for every key but the seed.
        nulls = dict.fromkeys(set(_CONFIG_KEYS) - {"seed"})
        assert load_config(write_json("nulls.json", {"seed": 5, **nulls})) == config
        # Every default is PipelineConfig's own.
        assert load_config(write_json("seed.json", {"seed": 1})) == PipelineConfig(seed=1)

    def test_rejects_unknown_keys(self, write_json):
        path = write_json("config.json", {"seed": 1, "shufflers": 3})
        with pytest.raises(ConfigError, match="unknown config keys.*shufflers"):
            load_config(path)

    def test_requires_a_seed(self, write_json):
        with pytest.raises(ConfigError, match="needs a 'seed'"):
            load_config(write_json("config.json", {"t": 2, "S": 2}))

    def test_rejects_partial_scheme(self, write_json):
        with pytest.raises(ConfigError, match="together"):
            load_config(write_json("config.json", {"seed": 1, "t": 4}))

    def test_rejects_unknown_mode(self, write_json):
        with pytest.raises(ConfigError, match="mode must be"):
            load_config(
                write_json("config.json", {"seed": 1, "mode": "shuffle"})
            )

    def test_rejects_invalid_json_and_non_objects(self, tmp_path, write_json):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(str(arr))
        # Values of the wrong JSON type are rejected, never coerced.
        ill_typed = [
            ({"seed": 7.9}, "'seed' must be an integer"),
            ({"seed": True}, "'seed' must be an integer"),
            ({"seed": 1, "t": 2.7, "S": 2}, "'t' must be an integer"),
            ({"seed": 1, "t": 2, "S": True}, "'S' must be an integer"),
            ({"seed": 1, "max_retries": 1.5}, "'max_retries' must be an integer"),
            ({"seed": 1, "trials": "4"}, "'trials' must be an integer"),
            ({"seed": 1, "lambda": math.nan}, "lambda must be finite"),
            ({"seed": 1, "lambda": math.inf}, "lambda must be finite"),
            ({"seed": 1, "lambda": 10**400}, "lambda must be finite"),
            ({"seed": 1, "lambda": "0.5"}, "'lambda' must be a number"),
            ({"seed": 1, "hypothesis_grid": [[10.5, 2]]}, "'hypothesis_grid' must be"),
            ({"seed": 1, "hypothesis_grid": [{"t": 10}]}, "'hypothesis_grid' must be"),
            ({"seed": 1, "hypothesis_grid": [{"t": 10}]}, r"entry \{'t': 10\} lacks 'S'$"),
            ({"seed": 1, "hypothesis_grid": [{}]}, r"'hypothesis_grid' must be .*entry \{\} lacks 't' and 'S'$"),
            ({"seed": 1, "hypothesis_grid": [[10, 2, 3]]}, "entries must be"),
            ({"seed": 1, "hypothesis_grid": [{"t": 2, "S": 2, "lambda": 9}]}, "entries must be"),
            ({"seed": 1, "hypothesis_grid": [{"t": 2, "s": 2}]}, "entries must be"),
            ({"seed": 1, "hypothesis_grid": "10,2"}, "'hypothesis_grid' must"),
            ({"seed": 1, "workload": "count where age < 3"}, "'workload' must be a"),
            ({"seed": 1, "workload": [EXAMPLE_QUERY, 3]}, "'workload' must be a string"),
            ({"seed": 1, "tied_attributes": "Age"}, "must be a list"),
            ({"seed": 1, "tied_attributes": []}, "'tied_attributes' must name at least"),
            ({"seed": 1, "mode": 5}, "'mode' must be a string"),
            ({"seed": 1, "time_attribute": 5}, "'time_attribute' must be a string"),
            ({"seed": 1, "schema": True}, "'schema' must be a string"),
        ]
        for payload, message in ill_typed:
            with pytest.raises(ConfigError, match=message):
                load_config(write_json("config.json", payload))

    def test_direct_construction_guards(self):
        with pytest.raises(ConfigError, match="max_retries"):
            PipelineConfig(seed=1, max_retries=-1)
        for lam in (-0.1, math.nan, math.inf):
            with pytest.raises(ConfigError, match="lambda"):
                PipelineConfig(seed=1, lam=lam)

    def test_a_config_nested_too_deep_for_the_decoder_is_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(ConfigError, match=r"deep\.json: invalid JSON \(maximum"):
            load_config(str(path))

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this Python converts integers of any length",
    )
    def test_an_integer_too_long_to_convert_is_rejected(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"seed": ' + "9" * 5000 + "}", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"long\.json: invalid JSON \(Exceeds the limit"):
            load_config(str(path))


# JSON values, NaN and the infinities included, whose objects may hold a
# grid entry's "t" and "S".
JSON_KEYS = st.sampled_from(("t", "S")) | st.text(max_size=3)
JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_KEYS, inner, max_size=3),
    max_leaves=12,
)

# Values of each config key's JSON kind, near the edges its checks draw:
# integers too large for a float, unknown modes, empty lists, grid
# entries of the wrong shape.
INTEGERS = st.integers() | st.sampled_from((0, -1, 2**63, -(2**64), 10**400))
STRINGS = st.sampled_from(("IS", "CIS", "Age", "")) | st.text(max_size=4)
GRID_ENTRIES = (
    st.lists(INTEGERS | JSON_LEAVES, min_size=1, max_size=3)
    | st.dictionaries(JSON_KEYS, INTEGERS | JSON_LEAVES, max_size=3)
)
KIND_VALUES = {
    "an integer": INTEGERS,
    "a number": INTEGERS | st.floats(),
    "a string": STRINGS,
    "a list": st.lists(STRINGS | GRID_ENTRIES, max_size=3),
}


@st.composite
def config_payloads(draw):
    """A JSON value, or an object of config keys and other keys: each
    config key's value mostly of its kind, most objects with a seed."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    payload = {}
    for key in draw(st.lists(st.sampled_from(sorted(_CONFIG_KEYS)), max_size=6, unique=True)):
        kind = _CONFIG_KEYS[key][1]
        payload[key] = draw(KIND_VALUES[kind] if draw(st.integers(0, 3)) else JSON_VALUES)
    if draw(st.integers(0, 9)) == 0:
        payload[draw(st.text(max_size=4))] = draw(JSON_LEAVES)
    if draw(st.integers(0, 4)):
        payload["seed"] = draw(INTEGERS)
    return payload


@pytest.fixture(scope="module")
def config_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("config") / "config.json"


@settings(max_examples=200, deadline=None)
@given(payload=config_payloads())
def test_load_config_returns_a_config_or_raises_config_error(config_path, payload):
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        config = load_config(str(config_path))
    except ConfigError:
        return
    assert isinstance(config, PipelineConfig)


class TestRunOnDataset:
    def test_tied_query_is_exact_for_any_seed(self, people_dataset):
        query = parse_query(EXAMPLE_QUERY, people_dataset.schema)
        for seed in range(10):
            config = PipelineConfig(seed=seed, t=2, S=2)
            report = run_on_dataset(config, people_dataset, query)
            assert report.c_prime == 3
            assert report.retries_used == 0
            assert report.bound_status == "satisfied"
            assert report.mode == "IS"
            assert (report.t, report.S) == (2, 2)
            assert report.epsilon_signed == math.log(2 / 4)
            assert report.epsilon_report == -math.log(2 / 4)
            assert len(report.plan_digest) == 64

    # A query inside one attribute group is released as c with no group
    # orders drawn, exactly as when they are drawn.  Name and Age share a
    # group of (Name, Age), (Height, Weight) with Weight tied.
    @pytest.mark.parametrize(
        "config, text",
        [
            (PipelineConfig(seed=5, t=3, S=2), EXAMPLE_QUERY),
            (drifty_config(seed=5), "count where name = Riya and age < 40"),
            (PipelineConfig(seed=4, t=4, S=2, mode="CIS"), "count where kind = k0"),
        ],
    )
    def test_one_group_release_draws_no_orders(self, monkeypatch, people_dataset, config, text):
        dataset = wide_dataset(8) if config.mode == "CIS" else people_dataset
        query = parse_query(text, dataset.schema)
        with monkeypatch.context() as m:
            refuse_group_orders(m)
            report = run_on_dataset(config, dataset, query)
        with monkeypatch.context() as m:
            draws = draw_every_group(m)
            assert run_on_dataset(config, dataset, query).to_json() == report.to_json()
        assert draws

    def test_spanning_release_draws_its_orders(self, monkeypatch, people_dataset):
        query = parse_query(DRIFTY_QUERY, people_dataset.schema)
        refuse_group_orders(monkeypatch)
        with pytest.raises(AssertionError, match="group orders were drawn"):
            run_on_dataset(drifty_config(seed=1), people_dataset, query)

    def test_balanced_thousand_batches_cost_nothing(self):
        dataset = wide_dataset(11_000)
        query = parse_query("count where kind = k0", dataset.schema)
        config = PipelineConfig(seed=8, t=1_000, S=3)
        report = run_on_dataset(config, dataset, query)
        assert report.epsilon_signed == 0.0
        assert report.epsilon_report == 0.0
        assert report.loss_bound == 0.0
        assert report.c_prime == sum(1 for i in range(11_000) if i % 3 == 0)
        assert report.retries_used == 0

    def test_violation_triggers_reshuffle(self, people_dataset):
        # Seed 4 is the first whose release retries exactly once.
        query = parse_query(DRIFTY_QUERY, people_dataset.schema)
        report = run_on_dataset(drifty_config(seed=4), people_dataset, query)
        assert report.retries_used == 1
        assert report.c_prime == 0
        assert report.bound_status == "satisfied"

    def test_clean_first_attempt_uses_no_retries(self, people_dataset):
        query = parse_query(DRIFTY_QUERY, people_dataset.schema)
        report = run_on_dataset(drifty_config(seed=1), people_dataset, query)
        assert report.retries_used == 0
        assert report.c_prime == 0

    def test_exhaustion_reports_every_attempt(self, people_dataset):
        # Seed 13 is the first whose three attempts all violate the bound.
        query = parse_query(DRIFTY_QUERY, people_dataset.schema)
        with pytest.raises(RetriesExhausted, match="after 2 retries") as info:
            run_on_dataset(
                drifty_config(seed=13, max_retries=2), people_dataset, query
            )
        attempts = info.value.attempts
        assert [a.attempt for a in attempts] == [0, 1, 2]
        for record in attempts:
            assert record.c_prime == 1
            assert record.loss == 1.0
            assert record.loss_bound == pytest.approx(0.5, rel=1e-12)

    def test_zero_retry_budget_fails_immediately(self, people_dataset):
        query = parse_query(DRIFTY_QUERY, people_dataset.schema)
        with pytest.raises(RetriesExhausted) as info:
            run_on_dataset(
                drifty_config(seed=13, max_retries=0), people_dataset, query
            )
        assert len(info.value.attempts) == 1

    def test_cumulative_mode_refuses_negative_budget(self):
        dataset = wide_dataset(21)
        query = parse_query("count where kind = k0", dataset.schema)
        config = PipelineConfig(seed=3, t=3, S=3, mode="CIS")
        with pytest.raises(PipelineRefused, match="negative privacy budget") as info:
            run_on_dataset(config, dataset, query)
        assert info.value.epsilon == epsilon_cis(7, 3)

    def test_cumulative_mode_runs_at_zero_budget(self):
        dataset = wide_dataset(8)
        query = parse_query("count where kind = k0", dataset.schema)
        config = PipelineConfig(seed=4, t=4, S=2, mode="CIS")
        report = run_on_dataset(config, dataset, query)
        assert report.mode == "CIS"
        assert report.epsilon_signed == 0.0
        assert report.c_prime == sum(1 for i in range(8) if i % 3 == 0)

    def test_grid_resolution_picks_lightest_tied_scheme(self, monkeypatch, people_dataset):
        # Under the default tie set neither the sweep nor the release
        # draws group orders.
        refuse_group_orders(monkeypatch)
        query = parse_query(EXAMPLE_QUERY, people_dataset.schema)
        config = PipelineConfig(
            seed=6, hypothesis_grid=(Scheme(3, 2), Scheme(2, 2))
        )
        report = run_on_dataset(config, people_dataset, query)
        assert (report.t, report.S) == (2, 2)

    def test_missing_scheme_and_grid_rejected(self, people_dataset):
        query = parse_query(EXAMPLE_QUERY, people_dataset.schema)
        with pytest.raises(ConfigError, match="hypothesis_grid"):
            run_on_dataset(PipelineConfig(seed=1), people_dataset, query)

    def test_deterministic_reports(self, people_dataset):
        query = parse_query(EXAMPLE_QUERY, people_dataset.schema)
        config = PipelineConfig(seed=12, t=3, S=2)
        first = run_on_dataset(config, people_dataset, query)
        second = run_on_dataset(config, people_dataset, query)
        assert first.to_json() == second.to_json()


class TestReportShape:
    @pytest.fixture()
    def report(self, people_dataset):
        query = parse_query(EXAMPLE_QUERY, people_dataset.schema)
        return run_on_dataset(
            PipelineConfig(seed=2, t=2, S=2), people_dataset, query
        )

    def test_exposes_exactly_the_published_fields(self, report):
        assert tuple(report.to_dict()) == REPORT_FIELDS

    def test_never_leaks_the_input_count(self, report):
        payload = report.to_dict()
        assert "c" not in payload
        assert "attempts" not in payload
        assert "c_prime" in payload

    def test_json_is_stable_and_parseable(self, report):
        text = report.to_json()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)
        assert parsed["query"] == report.query

    def test_text_rendering_mentions_the_essentials(self, report):
        text = report.to_text()
        assert "released count: 3" in text
        assert "scheme:         t=2 batches, S=2 shufflers, mode IS" in text
        assert "plan digest:" in text


class TestRunPipelineFromFiles:
    def test_schema_via_argument_or_config(self, data_dir, write_json):
        dataset_path = str(data_dir / "people.csv")
        schema_path = str(data_dir / "people_schema.json")
        by_arg = run_pipeline(
            PipelineConfig(seed=9, t=2, S=2),
            dataset_path,
            EXAMPLE_QUERY,
            schema_path=schema_path,
        )
        by_config = run_pipeline(
            PipelineConfig(seed=9, t=2, S=2, schema_path=schema_path),
            dataset_path,
            EXAMPLE_QUERY,
        )
        assert by_arg.to_json() == by_config.to_json()
        assert by_arg.c_prime == 3

    def test_missing_schema_rejected(self, data_dir):
        with pytest.raises(ConfigError, match="schema file is required"):
            run_pipeline(
                PipelineConfig(seed=9, t=2, S=2),
                str(data_dir / "people.csv"),
                EXAMPLE_QUERY,
            )


class TestRiskSweep:
    def test_ranks_and_selects(self, data_dir):
        config = PipelineConfig(
            seed=5,
            hypothesis_grid=(Scheme(3, 2), Scheme(2, 2)),
            workload=(EXAMPLE_QUERY,),
        )
        selection = risk_sweep(
            config,
            str(data_dir / "people.csv"),
            str(data_dir / "people_schema.json"),
        )
        assert selection.best == Scheme(2, 2)
        assert len(selection.table) == 2

    def test_requires_a_workload(self, data_dir):
        config = PipelineConfig(seed=5, hypothesis_grid=(Scheme(2, 2),))
        with pytest.raises(ConfigError, match="workload"):
            risk_sweep(
                config,
                str(data_dir / "people.csv"),
                str(data_dir / "people_schema.json"),
            )


class TestEachQueryIsValidatedOnce:
    GRID = (Scheme(3, 2), Scheme(2, 2))

    @pytest.fixture()
    def validated(self, monkeypatch):
        """The queries checked, through any module's binding: a call that
        returns its query as it is found it checked already."""
        from dpshuffle import pipeline, queryplan, utility

        calls = []
        original = queryplan.validate_query

        def counting(query, schema):
            checked = original(query, schema)
            if checked is not query:
                calls.append(query.text())
            return checked

        for module in (queryplan, pipeline, utility):
            monkeypatch.setattr(module, "validate_query", counting)
        return calls

    @pytest.mark.parametrize(
        "config, expected",
        [
            (PipelineConfig(seed=9, t=2, S=2), 1),
            (PipelineConfig(seed=9, hypothesis_grid=GRID), 1),
            (PipelineConfig(seed=9, hypothesis_grid=GRID, workload=(DRIFTY_QUERY,)), 2),
            # The query in its own workload: parsed once as each.
            (PipelineConfig(seed=9, hypothesis_grid=GRID, workload=(EXAMPLE_QUERY,)), 2),
        ],
    )
    def test_release_from_files(self, data_dir, validated, config, expected):
        run_pipeline(
            config,
            str(data_dir / "people.csv"),
            EXAMPLE_QUERY,
            str(data_dir / "people_schema.json"),
        )
        assert len(validated) == expected

    @pytest.mark.parametrize(
        "config",
        [PipelineConfig(seed=9, t=2, S=2), PipelineConfig(seed=9, hypothesis_grid=GRID)],
    )
    def test_release_of_a_query_spec(self, people_dataset, validated, config):
        # Lower-case names: checking the query canonicalises them.
        query = QuerySpec((Predicate("name", "=", "riya"), Predicate("age", "<", 40)))
        report = run_on_dataset(config, people_dataset, query)
        assert validated == [query.text()]
        parsed = parse_query("count where Name = Riya and Age < 40", people_dataset.schema)
        again = run_on_dataset(config, people_dataset, parsed)
        assert report.to_dict() == again.to_dict()
        assert validated == [query.text(), parsed.text()]

    def test_risk_sweep(self, data_dir, validated):
        config = PipelineConfig(
            seed=5, hypothesis_grid=self.GRID, workload=(EXAMPLE_QUERY, DRIFTY_QUERY)
        )
        risk_sweep(
            config, str(data_dir / "people.csv"), str(data_dir / "people_schema.json")
        )
        assert len(validated) == 2


class TestOneTiePerGridRun:
    # The sweep ranks on the table the release shuffles: with no
    # tied_attributes, one tie of every attribute the query and the
    # workload touch.
    CONFIG = PipelineConfig(
        seed=1, hypothesis_grid=(Scheme(2, 2), Scheme(3, 2)), workload=(EXAMPLE_QUERY,)
    )

    @pytest.fixture()
    def spied(self, monkeypatch):
        """Each tie's attributes, and the channels each module groups: a
        sweep trial draws its groups, a release attempt builds a plan."""
        from dpshuffle import pipeline, utility

        ties, channels = [], {}
        original_tie = utility.tie_attributes

        def tie(dataset, relevant):
            ties.append(tuple(relevant))
            return original_tie(dataset, relevant)

        monkeypatch.setattr(utility, "tie_attributes", tie)
        original_plan, original_groups = pipeline.build_plan, utility._draw_groups

        def plan(n, t, chans, s, seed):
            channels.setdefault(pipeline.__name__, set()).add(chans)
            return original_plan(n, t, chans, s, seed)

        def groups(chans, s, seed):
            channels.setdefault(utility.__name__, set()).add(chans)
            return original_groups(chans, s, seed)

        monkeypatch.setattr(pipeline, "build_plan", plan)
        monkeypatch.setattr(utility, "_draw_groups", groups)
        return ties, channels

    def test_sweep_and_release_share_one_tie(self, people_dataset, spied):
        ties, channels = spied
        query = parse_query("count where age < 40", people_dataset.schema)
        report = run_on_dataset(self.CONFIG, people_dataset, query)
        assert ties == [("Age", "Weight")]
        assert channels == {
            "dpshuffle.utility": {("Name", "Age:Weight", "Height")},
            "dpshuffle.pipeline": {("Name", "Age:Weight", "Height")},
        }
        # Every field but the digest is as when the release tied Age
        # alone (digest 75d42d1c...): Age is tied either way, so c' is
        # exact, and the sweep is data-blind.
        assert report.to_dict() == {
            "query": "count where Age < 40",
            "c_prime": 5,
            "epsilon_signed": -math.log(2),
            "epsilon_report": math.log(2),
            "loss_bound": 2.5,
            "plan_digest": "4f40161d1f976916baa44ebfad576e1fc2ad19bbf82b1af253893906b6e7c41e",
            "seed": 1,
            "retries_used": 0,
            "t": 2,
            "S": 2,
            "mode": "IS",
            "bound_status": "satisfied",
        }

    def test_configured_tie_set_is_tied_once(self, people_dataset, spied):
        ties, channels = spied
        config = replace(self.CONFIG, tied_attributes=("Name",))
        query = parse_query(EXAMPLE_QUERY, people_dataset.schema)
        run_on_dataset(config, people_dataset, query)
        assert ties == [("Name",)]
        assert channels["dpshuffle.utility"] == channels["dpshuffle.pipeline"]


class TestReferenceTable:
    def test_row_partition(self):
        report = reproduce_table3()
        assert len(report.rows) == len(REFERENCE_EPSILONS) == 10
        assert [row.index for row in report.matches] == [2, 3, 6, 7, 9, 10]
        assert [row.index for row in report.discrepancies] == [1, 4, 5, 8]

    def test_headline_row_recomputes_cleanly(self):
        row = reproduce_table3().rows[8]
        assert (row.n, row.t, row.n1, row.S) == (1_000_000, 10_000, 100, 2)
        assert row.epsilon_magnitude == pytest.approx(0.0201, abs=1e-4)
        assert row.matches

    def test_negative_budget_is_flagged_not_hidden(self):
        row = reproduce_table3().rows[0]
        assert row.epsilon_signed < 0
        assert not row.matches
        assert "negative" in row.note

    def test_batch_size_disagreements_are_annotated(self):
        report = reproduce_table3()
        flagged = {
            row.index
            for row in report.rows
            if "stated n1" in row.note
        }
        assert flagged == {1, 3, 4, 5, 8, 10}

    def test_text_rendering(self):
        text = reproduce_table3().to_text()
        assert "DISCREPANCY" in text
        assert "matches: [2, 3, 6, 7, 9, 10]" in text
        assert "discrepancy section:" in text
