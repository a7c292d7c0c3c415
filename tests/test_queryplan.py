import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpshuffle import (
    Attribute,
    Dataset,
    QueryError,
    QuerySpec,
    Row,
    Schema,
    count_query,
    parse_query,
    tie_attributes,
)
from dpshuffle.queryplan import (
    Predicate,
    TimeHorizon,
    bucket_mask,
    horizon_mask,
    relevant_attributes,
    validate_query,
)
from conftest import channel_columns


class TestParse:
    def test_example_query(self, people_schema):
        q = parse_query("count where age < 40 and weight > 60", people_schema)
        assert q.predicates == (
            Predicate("Age", "<", 40.0),
            Predicate("Weight", ">", 60.0),
        )
        assert q.time_horizon is None

    def test_case_insensitive_keywords_and_names(self, people_schema):
        q = parse_query("COUNT WHERE NAME = riya AND AGE <= 20", people_schema)
        assert q.predicates[0] == Predicate("Name", "=", "Riya")
        assert q.predicates[1] == Predicate("Age", "<=", 20.0)

    def test_canonical_echo(self, people_schema):
        q = parse_query("count where  AGE<40  and   weight>60", people_schema)
        assert q.text() == "count where Age < 40 and Weight > 60"

    def test_quoted_values(self, people_schema):
        q = parse_query('count where name = "Riya"', people_schema)
        assert q.predicates[0].value == "Riya"

    def test_during_clause_with_configured_attribute(self):
        schema = Schema(
            (
                Attribute("event", ("show", "sale")),
                Attribute("day", ("d1", "d2", "d3"), (1, 2, 3, 4)),
            )
        )
        q = parse_query(
            "count where event = show during 2..3", schema, time_attribute="day"
        )
        assert q.time_horizon == TimeHorizon("day", 2.0, 3.0)
        assert q.text() == "count where event = show during 2..3"

    def test_during_clause_falls_back_to_attribute_named_time(self):
        schema = Schema(
            (
                Attribute("event", ("show", "sale")),
                Attribute("Time", ("t1", "t2"), (0, 5, 10)),
            )
        )
        q = parse_query("count where event = sale during 0..9", schema)
        assert q.time_horizon.attribute == "Time"

    def test_during_without_time_attribute(self, people_schema):
        with pytest.raises(QueryError, match="time attribute"):
            parse_query("count where age < 40 during 1..2", people_schema)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("tally where age < 40", "cannot parse query"),
            ("count where", "cannot parse query"),
            ("count where age ~ 40", "cannot parse predicate"),
            ("count where salary > 10", "unknown attribute"),
            ("count where name < Riya", "only supports"),
            ("count where age < abc", "not a number"),
            ("count where name = Bob", "not in the domain"),
            ("count where age < nan", "not a number"),
            ("count where weight >= NaN", "not a number"),
        ],
    )
    def test_rejects_bad_queries(self, people_schema, text, message):
        with pytest.raises(QueryError, match=message):
            parse_query(text, people_schema)

    def test_window_start_after_end(self):
        schema = Schema((Attribute("time", ("a", "b"), (0, 5, 10)),))
        with pytest.raises(QueryError, match="exceeds"):
            parse_query("count where time < 5 during 9..2", schema)
        with pytest.raises(QueryError, match="not a number"):
            parse_query("count where time < 5 during nan..5", schema)
        with pytest.raises(QueryError, match="not a number"):
            validate_query(
                QuerySpec((), TimeHorizon("time", 0.0, math.nan)), schema
            )

    @pytest.mark.parametrize(
        "query,message",
        [
            (QuerySpec((Predicate("age", "!=", 40.0),)), "unknown operator '!='"),
            (QuerySpec((), TimeHorizon("salary", 0.0, 1.0)), "'salary' is not in the schema"),
            (QuerySpec((), TimeHorizon("name", 0.0, 1.0)), "'Name' must have numeric buckets"),
        ],
    )
    def test_rejects_bad_query_specs(self, people_schema, query, message):
        with pytest.raises(QueryError, match=message):
            validate_query(query, people_schema)

    def test_empty_query_rejected(self, people_schema):
        with pytest.raises(QueryError, match="at least one predicate"):
            validate_query(QuerySpec(()), people_schema)

    def test_a_checked_query_is_checked_again_only_against_another_schema(
        self, people_schema
    ):
        raw = QuerySpec((Predicate("weight", ">", "60"),))
        checked = validate_query(raw, people_schema)
        assert checked == QuerySpec((Predicate("Weight", ">", 60.0),))
        assert validate_query(checked, people_schema) is checked
        # An equal query that validate_query did not build is checked.
        assert validate_query(QuerySpec(checked.predicates), people_schema) == checked
        other = Schema((Attribute("Weight", ("light", "heavy")),))
        with pytest.raises(QueryError, match="only supports '='"):
            validate_query(checked, other)


class TestRelevantAttributes:
    def test_name_and_age(self, people_schema):
        q = parse_query("count where name = Riya and age < 40", people_schema)
        assert relevant_attributes(q, people_schema) == ("Name", "Age")

    def test_weight_and_age_in_schema_order(self, people_schema):
        q = parse_query("count where weight > 60 and age < 40", people_schema)
        assert relevant_attributes(q, people_schema) == ("Age", "Weight")

    def test_names_of_an_unchecked_query_are_canonicalised(self, people_schema):
        q = QuerySpec((Predicate("weight", ">", 60.0), Predicate("AGE", "<", 40.0)))
        assert relevant_attributes(q, people_schema) == ("Age", "Weight")

    def test_single_predicate(self, people_schema):
        q = parse_query("count where height = 5.3", people_schema)
        assert relevant_attributes(q, people_schema) == ("Height",)

    def test_time_horizon_counts_as_relevant(self):
        schema = Schema(
            (
                Attribute("event", ("show", "sale")),
                Attribute("time", ("t1", "t2"), (0, 5, 10)),
            )
        )
        q = parse_query("count where event = show during 0..5", schema)
        assert relevant_attributes(q, schema) == ("event", "time")


class TestTie:
    def test_two_of_four(self, people_dataset):
        td = tie_attributes(people_dataset, ("Age", "Weight"))
        assert td.g == 3
        assert [c.name for c in td.channels] == ["Name", "Age:Weight", "Height"]
        assert td.channels[1].members == ("Age", "Weight")

    def test_single_attribute_is_identity_layout(self, people_dataset):
        td = tie_attributes(people_dataset, ("Height",))
        assert td.g == 4
        assert [c.name for c in td.channels] == ["Name", "Age", "Height", "Weight"]

    def test_all_attributes_travel_together(self, people_dataset):
        td = tie_attributes(people_dataset, ("Name", "Age", "Height", "Weight"))
        assert td.g == 1
        assert len(td.channels[0].members) == 4

    def test_g_plus_m_is_k_plus_one(self, people_dataset):
        k = people_dataset.schema.k
        names = people_dataset.schema.names
        for m in range(1, k + 1):
            td = tie_attributes(people_dataset, names[:m])
            assert td.g + m == k + 1

    def test_member_order_follows_schema_not_input(self, people_dataset):
        td = tie_attributes(people_dataset, ("Weight", "Age"))
        assert td.tied_channel == "Age:Weight"

    def test_tying_shares_the_read_only_codes(self, people_dataset):
        td = tie_attributes(people_dataset, ("Age", "Weight"))
        assert np.shares_memory(td.codes, people_dataset.codes)
        assert not td.codes.flags.writeable

    def test_tuples_preserved_exactly(self, people_dataset):
        td = tie_attributes(people_dataset, ("Age", "Weight"))
        originals = people_dataset.codes[:, [1, 3]]
        assert np.array_equal(channel_columns(td)["Age:Weight"], originals)

    def test_empty_and_unknown_sets_rejected(self, people_dataset):
        with pytest.raises(QueryError, match="empty"):
            tie_attributes(people_dataset, ())
        with pytest.raises(QueryError, match="unknown"):
            tie_attributes(people_dataset, ("salary",))

    def test_composite_name_clashing_with_an_attribute_rejected(self):
        # Tying a and b names the channel "a:b", which the schema's own
        # "a:b" attribute already uses.
        schema = Schema(tuple(Attribute(name, ("x", "y")) for name in ("a", "b", "a:b")))
        dataset = Dataset(schema, (Row("u0", ("x", "y", "x")),))
        with pytest.raises(QueryError, match="'a:b'.*clashes"):
            tie_attributes(dataset, ("a", "b"))
        assert tie_attributes(dataset, ("a", "a:b")).tied_channel == "a:a:b"

    def test_in_group_query_counts_match_encoded(
        self, people_dataset, people_schema
    ):
        q = parse_query("count where age < 40 and weight > 60", people_schema)
        td = tie_attributes(people_dataset, ("Age", "Weight"))
        assert count_query(td, q) == count_query(people_dataset, q) == 3


class TestBucketSemantics:
    AGE = Attribute("age", ("young", "old"), (0, 40, 130))

    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("<", 40, (True, False)),
            ("<", 41, (True, True)),
            ("<=", 40, (True, True)),
            ("<", 0.5, (True, False)),
            (">", 60, (False, True)),
            (">", 39, (True, True)),
            (">=", 40, (False, True)),
            ("=", 20, (True, False)),
            ("=", 40, (False, True)),
        ],
    )
    def test_overlap_rule(self, op, value, expected):
        mask = bucket_mask(self.AGE, Predicate("age", op, float(value)))
        assert mask == expected

    def test_categorical_mask_is_exact(self):
        attr = Attribute("color", ("red", "green", "blue"))
        assert bucket_mask(attr, Predicate("color", "=", "green")) == (
            False,
            True,
            False,
        )

    def test_horizon_overlap_inclusive(self):
        time = Attribute("time", ("a", "b", "c"), (0, 2, 4, 6))
        assert horizon_mask(time, TimeHorizon("time", 2, 3)) == (False, True, False)
        assert horizon_mask(time, TimeHorizon("time", 1.5, 2)) == (True, True, False)
        assert horizon_mask(time, TimeHorizon("time", 0, 6)) == (True, True, True)


FUZZ_SCHEMA = Schema(
    (
        Attribute("sex", ("F", "M")),
        Attribute("age", ("young", "old"), (0, 40, math.inf)),
        Attribute("time", ("t1", "t2"), (0, 5, 10)),
    )
)
NAMES = ("sex", "age", "time", "Age", "bogus")
OPS = ("=", "<", ">", "<=", ">=", "~")
VALUES = ("F", "m", "'F'", "40", "-3.5", "1e3", "nan", "inf", "x")
WINDOWS = ("0..5", "nan..2", "3..1", "1..inf", "..", "2")
QUERY_TOKENS = ("count", "where", "and", "during", *NAMES, *OPS, *VALUES, *WINDOWS)


def query_like_texts():
    """Queries in the grammar's shape over a mix of valid and bad tokens."""
    clause = st.tuples(
        st.sampled_from(NAMES), st.sampled_from(OPS), st.sampled_from(VALUES)
    ).map(" ".join)
    window = st.one_of(
        st.just(""), st.sampled_from(WINDOWS).map(lambda w: " during " + w)
    )
    return st.builds(
        lambda clauses, tail: "count where " + " and ".join(clauses) + tail,
        st.lists(clause, min_size=1, max_size=3),
        window,
    )


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.text(max_size=60),
        st.lists(st.sampled_from(QUERY_TOKENS), max_size=12).map(" ".join),
        query_like_texts(),
    )
)
def test_parse_query_returns_a_validated_spec_or_raises_query_error(text):
    try:
        spec = parse_query(text, FUZZ_SCHEMA)
    except QueryError:
        return
    assert validate_query(spec, FUZZ_SCHEMA) == spec
    assert parse_query(spec.text(), FUZZ_SCHEMA) == spec
    for pred in spec.predicates:
        assert pred.attribute in FUZZ_SCHEMA.names
        if isinstance(pred.value, float):
            assert not math.isnan(pred.value)
    if spec.time_horizon is not None:
        assert spec.time_horizon.start <= spec.time_horizon.end
