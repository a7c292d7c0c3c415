import csv
import gc
import io
import json
import math
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpshuffle import (
    Attribute,
    Dataset,
    DatasetError,
    Row,
    Schema,
    load_csv,
)
from dpshuffle import dataset as dataset_module


def value_index(attr: Attribute, value: object) -> int:
    """Domain index of one value, stored through a one-cell dataset."""
    return int(Dataset(Schema((attr,)), (Row("u", (value,)),)).codes[0, 0])


def labels(dataset: Dataset, slot: int) -> tuple[str, ...]:
    """Domain labels of one row, in schema order."""
    return tuple(
        attr.values[code]
        for attr, code in zip(dataset.schema.attributes, dataset.codes[slot])
    )


class TestAttribute:
    def test_categorical_encoding_is_positional(self):
        attr = Attribute("color", ("red", "green", "blue"))
        assert value_index(attr, "red") == 0
        assert value_index(attr, "blue") == 2

    def test_single_value_domain(self):
        attr = Attribute("flag", ("yes",))
        assert value_index(attr, "yes") == 0

    def test_numeric_bucket_membership(self):
        attr = Attribute("age", ("minor", "adult", "senior"), (0, 18, 40, math.inf))
        assert value_index(attr, 20) == 1
        assert value_index(attr, 17.999) == 0
        assert value_index(attr, 18) == 1
        assert value_index(attr, 40) == 2
        assert value_index(attr, 1e9) == 2
        assert value_index(attr, "17.5") == 0
        assert value_index(attr, "adult") == 1

    def test_numeric_out_of_range(self):
        attr = Attribute("age", ("young", "old"), (0, 40, 130))
        for value in (-1, 130, math.inf):
            with pytest.raises(DatasetError, match="outside the bucket range"):
                value_index(attr, value)
        for value in (math.nan, "nan"):
            with pytest.raises(DatasetError, match="not a number"):
                value_index(attr, value)

    @pytest.mark.parametrize("value", [None, True])
    @pytest.mark.parametrize(
        "attr",
        [Attribute("flag", ("yes", "no")), Attribute("age", ("young", "old"), (0, 40, 130))],
    )
    def test_unsupported_value_rejected(self, attr, value):
        with pytest.raises(DatasetError, match="unsupported value"):
            value_index(attr, value)

    def test_number_for_label_only_attribute_rejected(self):
        attr = Attribute("name", ("Riya", "Sonal"))
        with pytest.raises(DatasetError, match="no bucketing rule"):
            value_index(attr, 3.5)

    def test_unknown_label_rejected(self):
        attr = Attribute("color", ("red", "green"))
        with pytest.raises(DatasetError, match="not in the domain"):
            value_index(attr, "blue")

    def test_domain_validation(self):
        with pytest.raises(DatasetError, match="name must be non-empty"):
            Attribute("", ("x",))
        with pytest.raises(DatasetError, match="duplicate"):
            Attribute("a", ("x", "x"))
        with pytest.raises(DatasetError, match="empty"):
            Attribute("a", ())
        with pytest.raises(DatasetError, match="ascend"):
            Attribute("a", ("lo", "hi"), (0, 50, 40))
        with pytest.raises(DatasetError, match="bound"):
            Attribute("a", ("lo", "hi"), (0, 40))
        with pytest.raises(DatasetError, match="infinite"):
            Attribute("a", ("lo", "hi"), (-math.inf, 0, 40))
        with pytest.raises(DatasetError, match="must be numbers"):
            # Python's json module reads NaN.
            spec = json.loads('{"name": "a", "bins": [0, NaN, 10]}')
            Schema.from_dict({"attributes": [spec]})


class TestSchema:
    def test_from_dict_auto_bucket_labels(self):
        schema = Schema.from_dict(
            {"attributes": [{"name": "age", "bins": [0, 40, None]}]}
        )
        attr = schema.attribute("age")
        assert attr.values == ("[0,40)", "40+")
        assert attr.bin_edges == (0.0, 40.0, math.inf)

    def test_round_trip_through_dict(self, people_schema):
        again = Schema.from_dict(people_schema.to_dict())
        assert again == people_schema

    def test_case_insensitive_lookup(self, people_schema):
        assert people_schema.attribute("WEIGHT").name == "Weight"
        assert people_schema.index_of("age") == 1

    def test_unknown_attribute(self, people_schema):
        with pytest.raises(DatasetError, match="no attribute"):
            people_schema.attribute("salary")

    def test_duplicate_names_rejected(self):
        with pytest.raises(DatasetError, match="unique"):
            Schema((Attribute("a", ("x",)), Attribute("A", ("y",))))

    def test_missing_domain_and_bins_rejected(self):
        with pytest.raises(DatasetError, match="'domain' or 'bins'"):
            Schema.from_dict({"attributes": [{"name": "a"}]})
        malformed = [
            ({"attributes": 5}, "'attributes' list"),
            ([], "'attributes' list"),
            ({"attributes": []}, "at least one attribute"),
            ({"attributes": [1]}, "must be an object"),
            ({"attributes": [{"name": 3, "domain": ["x"]}]}, "'name' string"),
            ({"attributes": [{"name": "a", "domain": "xyz"}]}, "'domain' must be"),
            ({"attributes": [{"name": "a", "bins": 5}]}, "'bins' must be a list"),
            ({"attributes": [{"name": "a", "bins": [0, "x"]}]}, "numbers or null"),
            (
                {"attributes": [{"name": "a", "bins": [0, 1], "labels": "lo"}]},
                "'labels' must be a list",
            ),
        ]
        for payload, message in malformed:
            with pytest.raises(DatasetError, match=message):
                Schema.from_dict(payload)


    @pytest.mark.parametrize(
        "bins", [[0, True, 130], [0, False], ["5", 10], [0, "10"], [0, 10**400]]
    )
    def test_bins_that_are_not_numbers_rejected(self, bins):
        with pytest.raises(DatasetError) as exc:
            Schema.from_dict({"attributes": [{"name": "Age", "bins": bins}]})
        assert str(exc.value) == "attribute 'Age': bin edges must be numbers or null"

    @pytest.mark.parametrize("entry", [None, True, False, ["x"], {"x": 1}])
    def test_domain_entries_that_are_not_labels_rejected(self, entry):
        payload = {"attributes": [{"name": "Sex", "domain": [entry, "F"]}]}
        with pytest.raises(DatasetError) as exc:
            Schema.from_dict(payload)
        assert str(exc.value) == (
            f"attribute 'Sex': domain labels must be strings or numbers, got {entry!r}"
        )

    def test_numeric_domain_entries_load_as_text(self):
        payload = {"attributes": [{"name": "a", "domain": [1, 2.5, "x"]}]}
        schema = Schema.from_dict(payload)
        assert schema.attribute("a").values == ("1", "2.5", "x")

    @pytest.mark.parametrize("entry", [None, True, 7, ["x"]])
    def test_bucket_labels_that_are_not_strings_rejected(self, entry):
        spec = {"name": "Age", "bins": [0, 40, 130], "labels": ["young", entry]}
        with pytest.raises(DatasetError) as exc:
            Schema.from_dict({"attributes": [spec]})
        assert str(exc.value) == (
            f"attribute 'Age': 'labels' entries must be strings, got {entry!r}"
        )

    @pytest.mark.parametrize("labels", [False, 0, ""])
    def test_bucket_labels_that_are_not_a_list_rejected(self, labels):
        spec = {"name": "Age", "bins": [0, 40], "labels": labels}
        with pytest.raises(DatasetError) as exc:
            Schema.from_dict({"attributes": [spec]})
        assert str(exc.value) == (
            f"attribute 'Age': 'labels' must be a list, got {labels!r}"
        )

    def test_domain_and_bins_together_rejected(self):
        spec = {"name": "a", "domain": ["x"], "bins": [0, 1]}
        with pytest.raises(DatasetError) as exc:
            Schema.from_dict({"attributes": [spec]})
        assert str(exc.value) == "attribute 'a': give 'domain' or 'bins', not both"

    @pytest.mark.parametrize(
        "spec, allowed",
        [
            ({"name": "a", "domain": ["x"], "extra": 1}, ["domain", "name"]),
            ({"name": "a", "domain": ["x"], "labels": ["y"]}, ["domain", "name"]),
            (
                {"name": "a", "bins": [0, 1], "Labels": ["y"]},
                ["bins", "labels", "name"],
            ),
        ],
    )
    def test_unknown_attribute_key_rejected(self, spec, allowed):
        with pytest.raises(DatasetError) as exc:
            Schema.from_dict({"attributes": [spec]})
        key = [k for k in spec if k not in allowed][0]
        assert str(exc.value) == f"attribute 'a': key {key!r} is not one of {allowed}"

    def test_unknown_payload_key_rejected(self):
        payload = {"attributes": [{"name": "a", "domain": ["x"]}], "atributes": []}
        with pytest.raises(DatasetError) as exc:
            Schema.from_dict(payload)
        assert str(exc.value) == "schema payload has an unknown key 'atributes'"


# JSON values, weighted towards schema-shaped objects.
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats()
    | st.sampled_from(("a", "b", "A", "", " x", "[0,1)", "name", "domain"))
)
_json = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(("x", "labels", "name")), inner, max_size=2),
    max_leaves=12,
)
# Ascending edges, maybe open at the top.
_edges = st.tuples(
    st.lists(
        st.integers(-50, 50) | st.floats(-50, 50), min_size=1, max_size=5, unique=True
    ).map(sorted),
    st.lists(st.none(), max_size=1),
).map(lambda parts: parts[0] + parts[1])
_attribute_specs = st.fixed_dictionaries(
    {"name": st.sampled_from(("a", "b", "A")) | _json},
    optional={
        "domain": st.lists(_json_leaves, max_size=4) | _json,
        "bins": _edges | _json,
        "labels": st.lists(_json_leaves, max_size=4) | _json,
        "extra": _json,
    },
)


@settings(max_examples=400, deadline=None)
@given(
    st.fixed_dictionaries(
        {"attributes": st.lists(_attribute_specs, max_size=3)},
        optional={"extra": _json},
    )
    | _json
)
def test_schema_from_dict_loads_only_what_round_trips(payload):
    try:
        schema = Schema.from_dict(payload)
    except DatasetError:
        return
    assert Schema.from_dict(schema.to_dict()) == schema


class TestLoadCsv:
    def test_fixture_loads(self, people_dataset, people_schema):
        assert people_dataset.n == 6
        assert people_schema.k == 4
        assert people_dataset.ids[0] == "Riya"
        assert labels(people_dataset, 3)[2] == "6.00"

    def test_header_only_gives_empty_dataset(self, tmp_path, people_schema):
        path = tmp_path / "empty.csv"
        path.write_text("id,Name,Age,Height,Weight\n", encoding="utf-8")
        assert load_csv(str(path), people_schema).n == 0

    def test_duplicate_id_names_the_offender(self, tmp_path, people_schema):
        path = tmp_path / "dup.csv"
        path.write_text(
            "id,Name,Age,Height,Weight\n"
            "Riya,Riya,20,5.3,48\n"
            "Riya,Sonal,7,4.8,42\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="Riya"):
            load_csv(str(path), people_schema)

    def test_empty_file(self, tmp_path, people_schema):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match="file is empty"):
            load_csv(str(path), people_schema)

    @pytest.mark.parametrize("cell", ["Sonal\0", " \0 ", '"So\0nal"'])
    def test_an_id_holding_a_nul_names_its_row(self, tmp_path, people_schema, cell):
        # A NUL sends its block to csv.reader, which refuses it before
        # Python 3.11; a byte array of IDs would drop it from an ID's end.
        path = tmp_path / "nul.csv"
        path.write_text(
            f"id,Name,Age,Height,Weight\nRiya,Riya,20,5.3,48\n{cell},Sonal,7,4.8,42\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError) as exc:
            load_csv(str(path), people_schema)
        if sys.version_info >= (3, 11):
            uid = next(csv.reader([cell]))[0].strip()
            assert str(exc.value) == f"{path} row 2: row ID {uid!r} holds a NUL"
        else:
            assert str(exc.value) == f"{path}: line contains NUL"

    def test_header_mismatch(self, tmp_path, people_schema):
        path = tmp_path / "bad.csv"
        path.write_text("id,Name,Age,Weight,Height\nRiya,Riya,20,48,5.3\n")
        with pytest.raises(DatasetError, match="header"):
            load_csv(str(path), people_schema)

    def test_out_of_domain_value_reports_row_and_attribute(
        self, tmp_path, people_schema
    ):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,Name,Age,Height,Weight\n"
            "Riya,Riya,20,5.3,48\n"
            "Zoe,Zoe,20,5.3,48\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match=r"row 2.*'Name'"):
            load_csv(str(path), people_schema)
        path.write_text(
            "id,Name,Age,Height,Weight\n"
            "Riya,Riya,20,5.3,48\n"
            "Sonal,Sonal,nan,4.8,42\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match=r"row 2.*'Age'.*not a number"):
            load_csv(str(path), people_schema)

    @pytest.mark.parametrize(
        "lines, number",
        [
            # not a plain integer: numpy's float read fails at once
            (["Riya,Riya,abc,5.3,48", "Sonal,Sonal,7,4.8,42"], 1),
            # the int read fails, then the float read, then csv.reader words it
            (["Riya,Riya,20,5.3,48", "Sonal,Sonal,7,4.8,42", "Priya,Priya,abc,5.3,78"], 3),
            (['"Riya","Riya","abc","5.3","48"'], 1),
            (['"Riya","Riya","20","5.3","48"', '"Sonal","Sonal","abc","4.8","42"'], 2),
        ],
        ids=["first-line", "later-line", "quoted-first-line", "quoted-later-line"],
    )
    def test_bucketed_cell_neither_label_nor_number_names_its_row(
        self, tmp_path, people_schema, lines, number
    ):
        path = tmp_path / "bad.csv"
        path.write_text(
            "".join(f"{line}\n" for line in ["id,Name,Age,Height,Weight", *lines]),
            encoding="utf-8",
        )
        with pytest.raises(DatasetError) as exc:
            load_csv(str(path), people_schema)
        assert str(exc.value) == (
            f"{path} row {number}, attribute 'Age': value 'abc' is not in the domain"
        )

    def test_padded_label_reads_as_stripped(self, tmp_path):
        # Cells are read stripped, so " x" is the label "x", never " x".
        schema = Schema((Attribute("Name", (" x", "x")),))
        path = tmp_path / "padded.csv"
        path.write_text("id,Name\nu1, x\nu2,x\n", encoding="utf-8")
        assert load_csv(str(path), schema).codes[:, 0].tolist() == [1, 1]

    def test_missing_file(self, people_schema):
        with pytest.raises(OSError):
            load_csv("/nonexistent/people.csv", people_schema)

    def test_cyclic_gc_is_paused_while_reading_and_then_restored(
        self, tmp_path, data_dir, monkeypatch, people_schema
    ):
        bad = tmp_path / "dup.csv"
        bad.write_text(
            "id,Name,Age,Height,Weight\n"
            "Riya,Riya,20,5.3,48\n"
            "Riya,Sonal,7,4.8,42\n",
            encoding="utf-8",
        )
        good = str(data_dir / "people.csv")
        during = []
        parse_chunk = dataset_module._parse_chunk

        def recording(*args):
            during.append(gc.isenabled())
            return parse_chunk(*args)

        monkeypatch.setattr(dataset_module, "_parse_chunk", recording)
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                if enabled:
                    gc.enable()
                else:
                    gc.disable()
                assert load_csv(good, people_schema).n == 6
                assert gc.isenabled() is enabled
                with pytest.raises(DatasetError, match="duplicate"):
                    load_csv(str(bad), people_schema)
                assert gc.isenabled() is enabled
        finally:
            if was_enabled:
                gc.enable()
        assert during and not any(during)


class TestEncoding:
    def test_encode_preserves_order_ids_and_shape(self, people_dataset):
        schema = people_dataset.schema
        assert people_dataset.codes.shape == (people_dataset.n, schema.k)
        assert people_dataset.ids == (
            "Riya", "Sonal", "Priya", "Sayan", "Pranab", "Ravi"
        )
        for j, attr in enumerate(schema.attributes):
            column = people_dataset.codes[:, j]
            assert ((0 <= column) & (column < attr.size)).all()

    def test_codes_are_column_major(self, people_dataset, people_schema):
        rows = [Row(f"u{i}", ("Riya", 20, "5.3", 48)) for i in range(3)]
        for dataset in (people_dataset, Dataset(people_schema, rows)):
            assert dataset.codes.flags.f_contiguous
            assert not dataset.codes.flags.c_contiguous

    def test_known_bits(self, people_dataset):
        # Riya: age 20 -> bucket [0,40); weight 48 -> bucket [0,60)
        assert people_dataset.codes[0, 1] == 0
        assert people_dataset.codes[0, 3] == 0
        # Sayan: height "6.00" is the 4th of 5 labels
        assert people_dataset.codes[3, 2] == 3

    def test_decode_round_trip_labels(self, people_dataset):
        # categorical attributes come back exactly; numerics as bucket labels
        assert labels(people_dataset, 0)[0] == "Riya"
        assert labels(people_dataset, 0)[1] == "[0,40)"
        assert labels(people_dataset, 2)[3] == "[60,200)"

    def test_dataset_rejects_number_without_bucket_rule(self, people_schema):
        with pytest.raises(DatasetError, match="no bucketing rule"):
            Dataset(
                Schema((Attribute("name", ("Riya", "Sonal")),)),
                (Row("u1", (3.5,)),),
            )

    def test_dataset_rejects_a_string_neither_label_nor_number(self, people_schema):
        rows = (Row("a", ("Riya", 20, "5.3", 48)), Row("b", ("Sonal", "abc", "4.8", 42)))
        with pytest.raises(DatasetError) as exc:
            Dataset(people_schema, rows)
        assert str(exc.value) == "row 2, attribute 'Age': value 'abc' is not in the domain"

    def test_dataset_rejects_a_row_of_the_wrong_width(self):
        schema = Schema((Attribute("flag", ("yes", "no")),))
        with pytest.raises(DatasetError, match=r"row 2 \('b'\) has 2 values, expected 1"):
            Dataset(schema, (Row("a", ("yes",)), Row("b", ("no", "yes"))))

    def test_dataset_rejects_duplicate_ids(self, people_schema):
        schema = Schema((Attribute("flag", ("yes", "no")),))
        with pytest.raises(DatasetError, match="duplicate"):
            Dataset(schema, (Row("a", ("yes",)), Row("a", ("no",))))

    @pytest.mark.parametrize(
        "uids, message",
        [
            # numpy drops trailing NULs, so "b\0" would be kept as "b"
            (("a", "b\0"), "row 2: row ID 'b\\x00' holds a NUL"),
            (("\0", "b"), "row 1: row ID '\\x00' holds a NUL"),
            (("a", "b", "c\0d"), "row 3: row ID 'c\\x00d' holds a NUL"),
            (("a", 7), "row 2: row ID 7 is not a string"),
            ((b"a", "b"), "row 1: row ID b'a' is not a string"),
            (("a", None, "c\0"), "row 2: row ID None is not a string"),
        ],
    )
    def test_dataset_rejects_an_id_holding_a_nul_or_not_a_string(self, uids, message):
        schema = Schema((Attribute("flag", ("yes",)),))
        with pytest.raises(DatasetError) as exc:
            Dataset(schema, [Row(uid, ("yes",)) for uid in uids])
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "uids",
        [
            ("\u00e9", "\u4e2d\u6587", "\U0001d7d5", "e\u0301", "", " padded "),
            # lone surrogates, and a pair of them beside the character
            # they would make in UTF-16: each keeps its own bytes
            ("\ud800", "a\udfffb", "\ud83d\ude00", "\U0001f600"),
            ("x" * 70, "\u00e9" * 70),
        ],
    )
    def test_dataset_ids_round_trip(self, uids):
        schema = Schema((Attribute("flag", ("yes",)),))
        dataset = Dataset(schema, [Row(uid, ("yes",)) for uid in uids])
        assert stored_ids(dataset) == dataset.ids == uids


# Any character but NUL, lone surrogates included.
ID_CHARACTERS = st.one_of(
    st.characters(exclude_characters="\0"), st.characters(categories=["Cs"])
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(ID_CHARACTERS), max_size=6, unique=True))
def test_any_ids_but_nul_round_trip_through_a_dataset(uids):
    schema = Schema((Attribute("flag", ("yes",)),))
    dataset = Dataset(schema, [Row(uid, ("yes",)) for uid in uids])
    assert stored_ids(dataset) == dataset.ids == tuple(uids)


@st.composite
def categorical_rows(draw):
    k = draw(st.integers(1, 4))
    attrs = []
    for i in range(k):
        size = draw(st.integers(1, 4))
        attrs.append(Attribute(f"a{i}", tuple(f"a{i}v{j}" for j in range(size))))
    schema = Schema(tuple(attrs))
    n = draw(st.integers(0, 12))
    rows = []
    for j in range(n):
        values = tuple(
            draw(st.sampled_from(attr.values)) for attr in schema.attributes
        )
        rows.append(Row(f"u{j}", values))
    return schema, tuple(rows)


@settings(max_examples=60, deadline=None)
@given(categorical_rows())
def test_decode_inverts_encode_on_categorical_data(case):
    schema, rows = case
    dataset = Dataset(schema, rows)
    assert dataset.ids == tuple(row.uid for row in rows)
    assert [labels(dataset, slot) for slot in range(dataset.n)] == [
        row.values for row in rows
    ]


@settings(max_examples=60, deadline=None)
@given(categorical_rows())
def test_every_encoded_vector_has_unit_bit_sum(case):
    # A domain index in range is exactly one high bit in the one-hot view.
    schema, rows = case
    dataset = Dataset(schema, rows)
    assert dataset.codes.shape == (len(rows), schema.k)
    for j, attr in enumerate(schema.attributes):
        assert ((0 <= dataset.codes[:, j]) & (dataset.codes[:, j] < attr.size)).all()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=2, max_size=6, unique=True),
    st.lists(st.floats(-60, 60), min_size=1, max_size=20),
)
def test_buckets_match_a_linear_scan_of_the_edges(edges, values):
    edges = sorted(float(e) for e in edges)
    attr = Attribute("x", tuple(f"b{i}" for i in range(len(edges) - 1)), tuple(edges))
    inside = [v for v in values if edges[0] <= v < edges[-1]]
    rows = tuple(Row(f"u{i}", (v,)) for i, v in enumerate(inside))
    codes = Dataset(Schema((attr,)), rows).codes[:, 0].tolist()
    expected = [max(i for i in range(len(edges) - 1) if edges[i] <= v) for v in inside]
    assert codes == expected


def reference_load_csv(path: str, schema: Schema) -> Dataset:
    """The row-by-row loader: one ``Row`` per line, then ``Dataset``.

    Header checks are left out; the files under test have good headers.
    """

    def read_cell(cell: str, is_numeric: bool) -> object:
        if is_numeric:
            try:
                return float(cell)
            except ValueError:
                pass
        return cell

    numeric = [attr.is_numeric for attr in schema.attributes]
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for record in reader:
            if not record or all(not cell.strip() for cell in record):
                continue
            number = len(rows) + 1
            if len(record) != schema.k + 1:
                raise DatasetError(
                    f"{path} row {number}: expected {schema.k + 1} columns, "
                    f"got {len(record)}"
                )
            uid = record[0].strip()
            if not uid:
                raise DatasetError(f"{path} row {number}: empty row ID")
            values = tuple(
                read_cell(cell.strip(), is_numeric)
                for cell, is_numeric in zip(record[1:], numeric)
            )
            rows.append(Row(uid, values))
    try:
        return Dataset(schema, rows)
    except DatasetError as exc:
        raise DatasetError(f"{path} {exc}") from None


def stored_ids(dataset: Dataset) -> tuple[str, ...]:
    """The row IDs ``dataset`` keeps, once checked to be one ``S`` array
    a multiple of 8 bytes wide, decoded here from its UTF-8 bytes."""
    ids = dataset._ids
    assert isinstance(ids, np.ndarray) and ids.dtype.kind == "S"
    assert ids.shape == (dataset.n,) and ids.itemsize % 8 == 0
    return tuple(uid.decode("utf-8", "surrogatepass") for uid in ids.tolist())


def load_or_error(load, path: str, schema: Schema):
    """The IDs and codes ``load`` reads, the IDs as ``stored_ids`` finds
    them and as ``Dataset.ids`` gives them, or its error."""
    try:
        dataset = load(path, schema)
    except DatasetError as exc:
        return str(exc)
    ids = stored_ids(dataset)
    assert dataset.ids == ids
    return ids, dataset.codes.tolist()


# Numeric-looking labels, labels holding a comma, a quote, a newline, a
# line separator or a vertical tab, auto bucket labels with a comma, and
# a bucket label ("7") that CSV cells read as a number.
LOADER_SCHEMA = Schema(
    (
        Attribute(
            "Name",
            (
                "1", "2.5", "1e3", "a,b", "x y", "nan",
                'say "hi"', "two\nlines", "p\u2028q", "v\x0bw",
            ),
        ),
        Attribute("Age", ("[0,18)", "[18,40)", "40+"), (0.0, 18.0, 40.0, math.inf)),
        Attribute("Score", ("lo", "mid", "7"), (0.0, 1.0, 10.0, 100.0)),
    )
)
LOADER_HEADER = "id,Name,Age,Score\n"
# A label column numpy decodes by 8-byte keys (Region: every label at
# most 7 ASCII characters, one of them empty), one it reads into a
# string field (Kind: an 8-character label, and a non-ASCII one, which
# makes its chunk non-ASCII), and Age as above.
KEYED_SCHEMA = Schema(
    (
        Attribute("Region", ("north", "seven77", "", "e")),
        Attribute("Kind", ("eight888", "k", "\u4e2d\u6587")),
        LOADER_SCHEMA.attribute("Age"),
    )
)
BAD_CELLS = {
    "Name": ("zzz", "3", "A,B"),
    "Age": ("-1", "nan", "adult", "-1e-3"),
    "Score": ("100", "1e9", "nan", "high", "-inf"),
    "Region": ("seven777", "north1234", "nort", "\u00e9", "\u4e2d"),
    "Kind": ("eight8888", "eight88", "\u4e2d"),
}
BLANK_LINES = ("", "   ", " , ,", ",,,", "\t")
# The last three are numbers that float() reads and numpy's parser
# rejects, whatever number is drawn.
NUMBER_FORMATS = (
    "{:g}", "{:e}", "{:.2f}", "{!r}", "{:.0f}", "1_0", "\u0667", "\U0001d7d5"
)


# Padding that str.strip removes, with five of the line breaks that
# str.splitlines splits at; float() ignores all of it but the ASCII
# separators "\x1c" to "\x1f".
@st.composite
def padded(draw, text):
    lead = draw(
        st.sampled_from(("", " ", "  ", "\u00a0", "\u2003 ", " \x1f", "\x1c"))
    )
    end = draw(
        st.sampled_from(
            ("", " ", "\x1f", " \u00a0", "\x0b", "\u2028 ", "\x1d", "\x1e ")
        )
    )
    return lead + text + end


@st.composite
def good_cell(draw, attr: Attribute, plain: bool, pad: bool):
    if attr.is_numeric and draw(st.booleans()):
        hi = min(attr.bin_edges[-1], 200.0)
        x = draw(st.floats(attr.bin_edges[0], hi, exclude_max=True))
        text = draw(st.sampled_from(NUMBER_FORMATS)).format(x)
        if not attr.bin_edges[0] <= float(text) < attr.bin_edges[-1]:
            text = repr(x)  # rounding pushed it out of range
    else:
        text = draw(st.sampled_from(unquoted(attr.values, plain)))
    return draw(padded(text)) if pad else text


def unquoted(texts, plain: bool) -> list[str]:
    """``texts``, less those a CSV writer quotes when ``plain``."""
    return [t for t in texts if not (plain and any(c in t for c in ',"\r\n'))]


# Every ASCII character that str.strip removes; a CSV writer quotes the
# last two.
ASCII_STRIPPED = (
    "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " ", "\r", "\n"
)


@st.composite
def padded_id(draw, uid: str, plain: bool):
    """``uid`` as it is, padded by ``padded``, or padded with ASCII
    characters that str.strip removes."""
    kind = draw(st.sampled_from(("bare", "padded", "ascii")))
    if kind == "padded":
        return draw(padded(uid))
    if kind == "ascii":
        pad = st.text(st.sampled_from(unquoted(ASCII_STRIPPED, plain)), max_size=2)
        return draw(pad) + uid + draw(pad)
    return uid


@st.composite
def row_id(draw, i: int, plain: bool):
    """The ID of row ``i``, of 2 to 70 characters: it differs from the
    others in its first two or only in its last two, which for 10 or more
    characters lie past the eighth byte.  One in four is filled with a
    2-byte UTF-8 character, so that 40 characters are over 64 bytes."""
    length = draw(st.sampled_from((2, 7, 8, 15, 16, 17, 40, 70)))
    fill = draw(st.sampled_from("xxx\u00e9"))
    stem = f"u{i}"
    uid = stem.rjust(length, fill) if draw(st.booleans()) else stem.ljust(length, fill)
    return draw(padded_id(uid, plain))


@st.composite
def loader_files(draw):
    """A schema, LOADER_SCHEMA or KEYED_SCHEMA, and CSV text over it with
    blank lines and at most one fault.

    Lines end in LF, CRLF or a lone CR, and the last one maybe in nothing.
    Half the files are plain, with no quoted cell, so that ``load_csv``
    splits every chunk of them itself, and half pad their good cells, so
    that the other half's label columns are decoded in numpy.  IDs are of
    mixed lengths (``row_id``), so a longer ID may follow a shorter first
    one in a chunk, and a third of them are padded with ASCII whitespace;
    a non-ASCII ID, pad or label makes its chunk non-ASCII.
    """
    schema = draw(st.sampled_from((LOADER_SCHEMA, KEYED_SCHEMA)))
    attrs = schema.attributes
    plain = draw(st.booleans())
    pad = draw(st.booleans())
    n = draw(st.integers(0, 9))
    records = [
        [
            draw(row_id(i, plain)),
            *(draw(good_cell(attr, plain, pad)) for attr in attrs),
        ]
        for i in range(n)
    ]
    fault = draw(st.sampled_from((None, "cell", "width", "empty_id", "duplicate")))
    if n and fault == "cell":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, len(attrs) - 1))
        bad = draw(st.sampled_from(unquoted(BAD_CELLS[attrs[j].name], plain)))
        records[i][j + 1] = draw(padded(bad))
    elif n and fault == "width":
        i = draw(st.integers(0, n - 1))
        records[i] = records[i][:-1] if draw(st.booleans()) else [*records[i], "7"]
    elif n and fault == "empty_id":
        records[draw(st.integers(0, n - 1))][0] = draw(padded_id("", plain))
    elif n >= 2 and fault == "duplicate":
        first = draw(st.integers(0, n - 2))
        uid = draw(padded_id(records[first][0].strip(), plain))
        records[draw(st.integers(first + 1, n - 1))][0] = uid
    quoting = csv.QUOTE_MINIMAL
    if not plain:
        quoting = draw(st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL)))
    lines = []
    for record in records:
        out = io.StringIO()
        # A "\r\n" terminator quotes every cell holding a CR or an LF.
        csv.writer(out, quoting=quoting, lineterminator="\r\n").writerow(record)
        lines.append(out.getvalue()[:-2])
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(
            draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_LINES))
        )
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = "".join(line + end for line in lines)
    if draw(st.booleans()):
        text = text.removesuffix(end)
    return schema, ",".join(("id", *schema.names)) + "\n" + text


@settings(max_examples=300, deadline=None)
@given(loader_files(), st.sampled_from((1, 2, 3, dataset_module._CHUNK_ROWS)))
def test_load_csv_matches_the_row_by_row_loader(case, chunk_rows):
    # A chunk of 1-3 lines is read in blocks of 64-192 characters, so
    # chunks and line ends straddle blocks.  load_or_error checks that
    # either loader keeps the IDs as one S array of their UTF-8 bytes,
    # whatever path read them.
    schema, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "data.csv")
        Path(path).write_text(text, encoding="utf-8")
        expected = load_or_error(reference_load_csv, path, schema)
        with mock.patch.object(dataset_module, "_CHUNK_ROWS", chunk_rows):
            assert load_or_error(load_csv, path, schema) == expected


@pytest.mark.parametrize(
    "line",
    [
        "u1,1,1_0,7",
        "u1,1,\u0667,7",
        "u1,1,\U0001d7d5,7",
        "u1,1,\x1c20\x1d,\x1e7",
        "an-id-of-more-than-sixteen-characters,1,20,7",
        "u1, 1e3\u00a0,20,7",
    ],
)
def test_quote_free_chunk_loads_as_the_row_by_row_loader(tmp_path, line):
    path = str(tmp_path / "data.csv")
    Path(path).write_text(f"{LOADER_HEADER}{line}\nu2,2.5,20,7\n", encoding="utf-8")
    loaded = load_or_error(load_csv, path, LOADER_SCHEMA)
    assert loaded == load_or_error(reference_load_csv, path, LOADER_SCHEMA)
    assert loaded[0] == (line.split(",")[0], "u2")


@pytest.mark.parametrize(
    "domain, cells, expected",
    [
        # a label followed by more characters than any label has, which
        # numpy cuts to the width of its field
        (("north", "south"), ["south", "northeastern"], "value 'northeastern' is not"),
        (("north", "south"), ["northeastern", "south"], "value 'northeastern' is not"),
        # padded labels: on the first line, or after one numpy can match
        (("north", "south"), [" north\t", "south "], [0, 1]),
        (("north", "south"), ["north", " south"], [0, 1]),
        (("north", "south"), ["south", "west"], "row 2, attribute 'Region': value 'west'"),
        # no label is matched in numpy, so every cell is read as a string
        ((" a", "b "), ["a"], "value 'a' is not in the domain"),
        ((" a", "b "), [" a", "b "], "value 'a' is not in the domain"),
        # numpy strings drop trailing NULs: "x\0" is never the cell "x"
        (("x\0", "y"), ["y", "x"], "row 2, attribute 'Region': value 'x' is not"),
        (("x", "x\0"), ["x"], [0]),
        # labels longer than the widest numpy field are read as strings
        (("n" * 70, "s"), ["s", "n" * 70], [1, 0]),
        (("n" * 70, "s"), ["s", "n" * 64 + "e" * 6], "is not in the domain"),
        # labels of at most 7 ASCII characters go to an S8 field: a cell
        # fills it byte for byte, and one of 8 or more fills its last byte
        (("seven77", "x"), ["x", "seven77"], [1, 0]),
        (("seven77", "x"), ["seven77", "seven777"], "value 'seven777' is not"),
        (("north", "south"), ["north", "north1234"], "value 'north1234' is not"),
        (("north", "south"), ["north", "  south  "], [0, 1]),
        (("", "x"), ["x", ""], [1, 0]),
        (("", "x"), ["", "x", " "], [0, 1, 0]),
        # codes past 255, which a uint8 total cannot hold
        (tuple(f" p{i}" for i in range(300)) + ("a", "b"), ["b", "a"], [301, 300]),
        # an 8-character label: a U field
        (("eight888", "x"), ["x", "eight888"], [1, 0]),
        (("eight888", "x"), ["eight888", "eight8888"], "value 'eight8888' is not"),
        # a non-ASCII chunk or label: a U field
        (("north", "south"), ["north", "\u00e9"], "value '\u00e9' is not"),
        (("north", "south"), ["north", "\u4e2d"], "value '\u4e2d' is not"),
        (("north", "\u4e2d"), ["north", "\u4e2d"], [0, 1]),
    ],
)
def test_quote_free_labels_load_as_the_row_by_row_loader(
    tmp_path, monkeypatch, domain, cells, expected
):
    # Every Sex cell is padded, so numpy reads Sex as strings.
    path = str(tmp_path / "labels.csv")
    lines = "".join(f"u{i},{cell},30, M\n" for i, cell in enumerate(cells))
    Path(path).write_text("id,Region,Age,Sex\n" + lines, encoding="utf-8")
    schema = labels_schema(domain)
    reference = load_or_error(reference_load_csv, path, schema)
    # No csv.reader: numpy reads the chunk, and strings the column it can't match.
    monkeypatch.setattr(dataset_module, "_parse_records", None)
    for chunk_rows in (1, 2, 3, dataset_module._CHUNK_ROWS):
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", chunk_rows)
        loaded = load_or_error(load_csv, path, schema)
        assert loaded == reference
        if isinstance(expected, str):
            assert expected in loaded
        else:
            assert loaded[1] == [[code, 0, 1] for code in expected]


def searched_label_codes(cells: np.ndarray, keys: np.ndarray, codes: np.ndarray):
    """Codes of ``S8`` cells by a sorted search of a ``_label_table``'s
    keys, or None if a cell is none of its labels."""
    cells = cells.view("<u8")
    at = np.minimum(np.searchsorted(keys, cells), len(keys) - 1)
    return codes[at].tolist() if (keys[at] == cells).all() else None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_label_decode_matches_the_sorted_search(data):
    # 1 to 40 plain labels, across the equality kernel's limit, and maybe
    # padded ones, which take codes but are never matched in numpy.
    count = data.draw(st.integers(1, 40))
    text = st.text("abcxyz019_", min_size=1, max_size=7)
    plain = data.draw(st.lists(text, min_size=count, max_size=count, unique=True))
    padded = data.draw(st.lists(st.sampled_from((" a", "b ")), max_size=2, unique=True))
    domain = data.draw(st.permutations(plain + padded))
    field, keys, codes = dataset_module._label_table(Attribute("x", tuple(domain)), True)
    assert field == "S8" and len(keys) == count
    cells = data.draw(st.lists(st.sampled_from(plain), min_size=1, max_size=30))
    if data.draw(st.booleans()):
        # A label's prefix (maybe empty), "", a padded label, or a cell of
        # 8 or more bytes starting with a label, which numpy cuts to 8.
        label = st.sampled_from(domain)
        longer = st.tuples(label, st.text("abz", max_size=4))
        other = (
            label.map(lambda v: v[:-1])
            | st.just("")
            | label
            | longer.map(lambda p: (p[0] + "z" * 8)[:8] + p[1])
        )
        cells.insert(data.draw(st.integers(0, len(cells))), data.draw(other))
    # As np.loadtxt gives them: one field of a record per row.
    table = np.zeros(len(cells), [("id", "S16"), ("c", "S8"), ("n", np.int64)])
    table["c"] = cells
    block = np.full((len(cells), 3), -7, dtype=np.int64, order="F")
    expected = searched_label_codes(table["c"].copy(), keys, codes)
    decoded = dataset_module._label_codes(table["c"], field, keys, codes, block[:, 1])
    assert decoded == (expected is not None)
    if decoded:
        assert block[:, 1].tolist() == expected
    assert (block[:, [0, 2]] == -7).all()


def labels_schema(domain: tuple[str, ...]) -> Schema:
    return Schema(
        (
            Attribute("Region", domain),
            Attribute("Age", ("young", "old"), (0.0, 40.0, 99.0)),
            Attribute("Sex", ("F", "M")),
        )
    )


@pytest.mark.parametrize(
    "lines, passes",
    [
        (["u0,north,30,M", "u1,south,30,F"], 1),
        # ", " separators: the first line shows every label column padded
        (["u0, north, 30, M", "u1, south, 30, F"], 1),
        # a padded cell below a plain one costs a second pass, once a chunk
        (["u0,north,30,M", "u1, south,30,F"], 2),
    ],
)
def test_a_label_column_is_read_twice_only_below_a_plain_first_line(
    tmp_path, monkeypatch, lines, passes
):
    path = tmp_path / "passes.csv"
    path.write_text("id,Region,Age,Sex\n" + "\n".join(lines) + "\n", encoding="utf-8")
    calls = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(kwargs.get("usecols"))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    loaded = load_csv(str(path), labels_schema(("north", "south")))
    assert loaded.codes.tolist() == [[0, 0, 1], [1, 0, 0]]
    assert len(calls) == passes


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_a_chunk_takes_its_fields_from_its_first_line_that_is_not_blank(
    tmp_path, monkeypatch, end
):
    # An empty line after the header: Region and Sex are still decoded in
    # numpy, never as strings, and Age is still read as integers.
    path = tmp_path / "blank.csv"
    lines = ["id,Region,Age,Sex", "", "u0,north,30,M", "u1,south,30,F"]
    path.write_bytes("".join(line + end for line in lines).encode("utf-8"))
    dtypes = []
    loadtxt = np.loadtxt

    def recording(*args, dtype, **kwargs):
        dtypes.append(np.dtype(dtype))
        return loadtxt(*args, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    monkeypatch.setattr(dataset_module, "_column_codes", None)
    loaded = load_csv(str(path), labels_schema(("north", "south")))
    assert loaded.codes.tolist() == [[0, 0, 1], [1, 0, 0]]
    assert [dtype["c1"] for dtype in dtypes] == [np.dtype(np.int64)]


def test_csv_reads_bucketed_cells_as_numbers_first(tmp_path):
    # "7" is the label of bucket [10, 100) but the number 7 lies in [1, 10).
    path = tmp_path / "seven.csv"
    path.write_text(LOADER_HEADER + "u1,1,20,7\nu2,1,20,mid\n", encoding="utf-8")
    assert load_csv(str(path), LOADER_SCHEMA).codes[:, 2].tolist() == [1, 1]
    row = Row("u1", ("1", "20", "7"))
    assert Dataset(LOADER_SCHEMA, (row,)).codes[0].tolist() == [0, 1, 2]


def bucket_outcome(attr: Attribute, x: np.ndarray, rows) -> list[int] | str:
    try:
        return dataset_module._bucket_codes(attr, x, rows).tolist()
    except DatasetError as exc:
        return str(exc)


def draw_buckets(data, max_edges: int) -> tuple[Attribute, st.SearchStrategy]:
    """A bucketed attribute, and integers inside its buckets or on or
    next to an edge.

    Edges may be negative or non-integral (n + 0.5), the last one inf.
    """
    whole = st.lists(st.integers(-60, 60), min_size=2, max_size=max_edges, unique=True)
    halves = st.sampled_from((0.0, 0.5))
    edges = [e + data.draw(halves) for e in sorted(data.draw(whole))]
    if data.draw(st.booleans()):
        edges[-1] = math.inf
    attr = Attribute("x", tuple(f"b{i}" for i in range(len(edges) - 1)), tuple(edges))
    inside = [v for v in range(-70, 71) if edges[0] <= v < edges[-1]]
    finite = [e for e in edges if math.isfinite(e)]
    near = [f(e) for e in finite for f in (math.floor, math.ceil)]
    return attr, st.sampled_from(inside + near)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_buckets_match_the_float_search(data):
    # Up to 8 edges are compared against each value, more are searched.
    attr, values = draw_buckets(data, 12)
    n = data.draw(st.integers(1, 40))
    if data.draw(st.booleans()):  # narrow: fewer distinct values than cells
        lo = data.draw(st.integers(-70, 70))
        cells = st.integers(lo, lo + n - 1)
    else:
        cells = values
        if data.draw(st.booleans()):  # values outside the buckets too
            extremes = (-(2**63), 2**63 - 1, 2**53 + 1, -(2**53) - 1)
            cells |= st.integers(-70, 70) | st.sampled_from(extremes)
    x = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.int64)
    rows = range(4, 4 + n)
    with mock.patch.object(dataset_module, "_COMPARED_EDGES", 0):  # search them all
        searched = bucket_outcome(attr, x.astype(float), rows)
    assert bucket_outcome(attr, x, rows) == searched


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compared_float_buckets_match_the_search(data):
    attr, values = draw_buckets(data, 8)
    cells = values.map(float)
    if data.draw(st.booleans()):
        cells |= st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.5, 2.0**60))
    x = np.array(data.draw(st.lists(cells, min_size=1, max_size=30)))
    rows = range(1, 1 + len(x))
    with mock.patch.object(dataset_module, "_COMPARED_EDGES", 0):
        searched = bucket_outcome(attr, x, rows)
    assert bucket_outcome(attr, x, rows) == searched


# Bucketed cells around an edge at 17.5 and an edge at 0, and a range
# [1, 100) that holds no zero.
INT_SCHEMA = Schema(
    (
        Attribute("Name", ("a", "b")),
        Attribute("Age", ("young", "adult", "old"), (0.0, 17.5, 40.0, math.inf)),
        Attribute("Score", ("lo", "hi"), (1.0, 10.0, 100.0)),
    )
)
# Each file starts with a line of integers.
INT_FILES = [
    (["u1,a,17,5", "u2,b,17.9,5"], [[0, 0, 0], [1, 1, 0]]),
    (["u1,a,3,5", "u2,b,-0.5,5"], "row 2, attribute 'Age': value -0.5 outside"),
    (["u1,a,3,5", "u2,b,3,-0"], "row 2, attribute 'Score': value -0.0 outside"),
    (["u1,a,3,-0"], "row 1, attribute 'Score': value -0.0 outside"),
    (["u1,a,-0,5", "u2,b,-00,50"], [[0, 0, 0], [1, 0, 1]]),
    (["u1,a,3,5", "u2,b,99999999999999999999,5"], [[0, 0, 0], [1, 2, 0]]),
    (["u1,a,+7,5", "u2,b,7,+17"], [[0, 0, 0], [1, 0, 1]]),
    (["u1,a,7,5", "u2,b, 7 ,7 "], [[0, 0, 0], [1, 0, 0]]),
    (["u1,a,40,5", "u2,b,39.5,5", "u3,a,18,10"], [[0, 2, 0], [1, 1, 0], [0, 1, 1]]),
]


@pytest.mark.parametrize("chunk_rows", (1, 2, 3, dataset_module._CHUNK_ROWS))
@pytest.mark.parametrize("lines, expected", INT_FILES)
def test_integer_cells_load_as_the_row_by_row_loader(
    tmp_path, monkeypatch, lines, expected, chunk_rows
):
    path = str(tmp_path / "ints.csv")
    text = "id,Name,Age,Score\n" + "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    reference = load_or_error(reference_load_csv, path, INT_SCHEMA)
    monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", chunk_rows)
    loaded = load_or_error(load_csv, path, INT_SCHEMA)
    assert loaded == reference
    if isinstance(expected, str):
        assert loaded.startswith(f"{path} {expected} the bucket range")
    else:
        assert loaded[1] == expected


@pytest.mark.parametrize("lines", [lines for lines, _ in INT_FILES[:2]])
def test_integer_read_refuses_an_integer_via_a_float(tmp_path, monkeypatch, lines):
    # numpy 1.23-1.26 read "17.9" into an int64 field as 17, after a
    # DeprecationWarning; this stands in for that reader.
    loadtxt = np.loadtxt

    def numpy_1(source, dtype, **options):
        dtype = np.dtype(dtype)
        ints = [name for name in dtype.names if dtype[name] == np.int64]
        floats = [(n, float if n in ints else dtype[n]) for n in dtype.names]
        table = loadtxt(source, dtype=floats, **options)
        if any((table[name] % 1 != 0).any() for name in ints):
            warnings.warn("Parsing an integer via a float", DeprecationWarning)
        return table.astype(dtype)

    path = str(tmp_path / "ints.csv")
    text = "id,Name,Age,Score\n" + "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    monkeypatch.setattr(np, "loadtxt", numpy_1)
    loaded = load_or_error(load_csv, path, INT_SCHEMA)
    assert loaded == load_or_error(reference_load_csv, path, INT_SCHEMA)


# Six columns, as in perfbench's tables: two label columns decoded by
# 8-byte keys and four bucketed ones read as integers.
MEMORY_SCHEMA = Schema.from_dict(
    {
        "attributes": [
            {"name": "Region", "domain": ["north", "south", "east", "west"]},
            {"name": "Age", "bins": [0, 18, 40, 65, 130]},
            {"name": "Sex", "domain": ["F", "M"]},
            {"name": "Weight", "bins": [0, 60, 90, 200]},
            {"name": "Income", "bins": [0, 1000, 10000, 100000, None]},
            {"name": "Time", "bins": list(range(53))},
        ]
    }
)


# ``MEMORY_SCHEMA`` with one non-ASCII Region label, which makes every
# chunk of its tables non-ASCII, so their IDs are read as strings.
NON_ASCII_MEMORY_SCHEMA = Schema.from_dict(
    {
        "attributes": [
            {"name": "Region", "domain": ["north", "south", "east", "w\u00e9st"]},
            *MEMORY_SCHEMA.to_dict()["attributes"][1:],
        ]
    }
)


def write_memory_table(path: Path, n: int, schema: Schema = MEMORY_SCHEMA) -> None:
    """A table over ``schema``, ``MEMORY_SCHEMA`` or one differing only in
    its Region labels, of ``n`` rows with 9-character IDs."""
    rng = np.random.default_rng(7)
    regions = rng.choice(schema.attribute("Region").values, n).tolist()
    sexes = rng.choice(schema.attribute("Sex").values, n).tolist()
    numbers = zip(
        *(rng.integers(0, high, n).tolist() for high in (130, 200, 200_000, 52))
    )
    lines = [
        f"r{i:08x},{region},{age},{sex},{weight},{income},{time}\n"
        for i, region, sex, (age, weight, income, time) in zip(
            range(n), regions, sexes, numbers
        )
    ]
    header = ",".join(("id", *MEMORY_SCHEMA.names))
    path.write_text(f"{header}\n{''.join(lines)}", encoding="utf-8")


@pytest.mark.parametrize(
    "schema, chunk_rows, bound",
    # Measured peaks over the bytes kept: 1.23 in 157 chunks, where
    # each chunk's lines are small beside the arrays, and the ID hashes
    # that check for duplicates, 8 bytes a row, are the most held at
    # once; 3.79 in one chunk, whose lines and numpy records are alive
    # beside the arrays, which it keeps as read.  A loader that joined
    # the chunks' blocks at the end and kept a block's text while parsing
    # it measured 2.12 and 4.17.  With one non-ASCII label: 1.18 and
    # 4.93, the one chunk's IDs alive as strings until encoded, and its
    # labels read as 4-byte characters.  A loader that kept such IDs as
    # strings rather than bytes kept 1.78 times as much at 10^5 rows.
    [
        pytest.param(MEMORY_SCHEMA, 64, 1.3, id="64-1.3"),
        pytest.param(MEMORY_SCHEMA, dataset_module._CHUNK_ROWS, 4.25, id="16384-4.25"),
        pytest.param(NON_ASCII_MEMORY_SCHEMA, 64, 1.3, id="non-ascii-64-1.3"),
        pytest.param(
            NON_ASCII_MEMORY_SCHEMA, dataset_module._CHUNK_ROWS, 5.4, id="non-ascii-16384-5.4"
        ),
    ],
)
def test_a_load_holds_little_beyond_the_dataset_it_returns(
    tmp_path, monkeypatch, schema, chunk_rows, bound
):
    path = tmp_path / "table.csv"
    write_memory_table(path, 10_000, schema)
    monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", chunk_rows)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dataset = load_csv(str(path), schema)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    kept = dataset.codes.nbytes + dataset._ids.nbytes
    assert kept == 10_000 * (6 * 8 + 16)
    assert peak <= bound * kept
    monkeypatch.undo()
    whole = load_csv(str(path), schema)
    assert dataset.ids == whole.ids
    assert np.array_equal(dataset.codes, whole.codes)


class TestChunkBoundaries:
    """``load_csv`` with 3-record chunks, blank lines counted in a chunk."""

    LINES = [
        "r1,Riya,20,5.3,48",
        "",
        "r2,Sonal,7,4.8,42",
        "r3,Priya,28,5.3,78",
        "   ",
        "r4,Sayan,35,6.00,85",
        "r5,Pranab,60,5.9,55",
        "r6,Ravi,17,6.01,64",
        "r7,Riya,1e1,4.8,59.5",
        "r8,Sonal, 129 ,5.9,60",
        "",
        "r9,Priya,0,6.00,199",
        "r10,Ravi,40,6.01,0",
    ]

    def write(self, tmp_path, lines, end="\n") -> str:
        path = tmp_path / "chunks.csv"
        lines = ["id,Name,Age,Height,Weight", *lines]
        path.write_bytes("".join(f"{l}{end}" for l in lines).encode("utf-8"))
        return str(path)

    @staticmethod
    def end_first_block(lines, chunk_rows, end) -> list[str]:
        """``lines`` with IDs padded with "x" so that, ended by ``end``,
        a line end starts at the last character of the first block that
        ``load_csv`` reads after the header.

        An ID stays shorter than ``csv.reader``'s 131,072-character cell
        limit, so the 1 MiB block of the default chunk takes 9 lines.
        """
        block = dataset_module._LINE_CHARS * chunk_rows
        out, length = [], 0
        for line in lines:
            room = block - 1 - length - len(line)
            if length < block and "," in line:
                pad = room if room <= 120_000 else min(120_000, room - 100)
                uid, rest = line.split(",", 1)
                line = f"{uid}{'x' * pad},{rest}"
            length += len(line) + len(end)
            out.append(line)
        text = "".join(line + end for line in out)
        assert text[block - 1 : block - 1 + len(end)] == end
        return out

    @staticmethod
    def recording_chunks(monkeypatch) -> list[bool]:
        """Whether each chunk ``load_csv`` reads is given as lines."""
        given = []
        chunks = dataset_module._chunks

        def recording(fh):
            for item in chunks(fh):
                given.append(item[0] is not None)
                yield item

        monkeypatch.setattr(dataset_module, "_chunks", recording)
        return given

    def test_ten_rows_load_as_with_the_default_chunk(
        self, tmp_path, monkeypatch, people_schema
    ):
        path = self.write(tmp_path, self.LINES)
        whole = load_csv(path, people_schema)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", 3)
        chunked = load_csv(path, people_schema)
        assert whole.n == chunked.n == 10
        assert chunked.ids == whole.ids
        assert np.array_equal(chunked.codes, whole.codes)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("r6,Ravi,17,6.02,64", "row 6, attribute 'Height': value '6.02' is not"),
            ("r6,Ravi,17,6.01", "row 6: expected 5 columns, got 4"),
            (" ,Ravi,17,6.01,64", "row 6: empty row ID"),
        ],
    )
    def test_fault_in_third_chunk_names_its_row(
        self, tmp_path, monkeypatch, people_schema, line, message
    ):
        lines = list(self.LINES)
        lines[7] = line  # third chunk of 3 records; 6th non-blank row
        path = self.write(tmp_path, lines)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", 3)
        with pytest.raises(DatasetError) as exc:
            load_csv(path, people_schema)
        assert str(exc.value).startswith(f"{path} {message}")

    def test_empty_id_is_reported_before_an_earlier_unknown_label(
        self, tmp_path, monkeypatch, people_schema
    ):
        # csv.reader's order: every row's width and ID, then each column.
        lines = list(self.LINES)
        lines[7] = "r6,Ravi,17,6.02,64"
        lines[8] = " ,Riya,1e1,4.8,59.5"  # same quote-free chunk as row 6
        path = self.write(tmp_path, lines)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", 3)
        with pytest.raises(DatasetError) as exc:
            load_csv(path, people_schema)
        assert str(exc.value) == f"{path} row 7: empty row ID"

    def test_duplicate_of_a_first_chunk_id_is_reported(
        self, tmp_path, monkeypatch, people_schema
    ):
        lines = list(self.LINES)
        lines[-1] = "r2,Ravi,40,6.01,0"
        path = self.write(tmp_path, lines)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", 3)
        with pytest.raises(DatasetError) as exc:
            load_csv(path, people_schema)
        assert str(exc.value) == f"{path} row 10: duplicate row ID 'r2'"

    @staticmethod
    def with_ids(lines, ids) -> list[str]:
        """``lines`` with the IDs of its rows replaced by ``ids``."""
        ids = iter(ids)
        return [f"{next(ids)},{l.split(',', 1)[1]}" if "," in l else l for l in lines]

    @pytest.mark.parametrize("chunk_rows", (1, 2, 3, dataset_module._CHUNK_ROWS))
    @pytest.mark.parametrize(
        "ids, expected",
        [
            # 7, 8, 15, 16, 17 and 40 characters after a 2-character first
            # ID: an 8-byte field fits 7 characters, a 16-byte one 15
            (
                ["r1", "r234567", "r2345678", "r" + "2" * 14, "r" + "3" * 15,
                 "r" + "4" * 16, "r" + "5" * 39, "r6", "r7", "r8"],
                None,
            ),
            # a first ID too long for a byte field, and a shorter one
            (["r" * 70, *(f"r{i}" for i in range(1, 10))], None),
            # IDs that differ only after their eighth or sixteenth byte
            ([f"id-of-row-{i}" for i in range(10)], None),
            ([f"{'x' * 16}{i}" for i in range(10)], None),
            # every ASCII character str.strip removes that a quote-free
            # line can hold, before an ID and after one
            ([f"{c}r{i}" for i, c in enumerate("\t\x0b\x0c\x1c\x1d\x1e\x1f   ")], None),
            ([f"r{i}{c}" for i, c in enumerate("\t\x0b\x0c\x1c\x1d\x1e\x1f   ")], None),
            # whitespace only
            ([f"r{i}" if i != 6 else " \t\x1f" for i in range(10)], "row 7: empty row ID"),
            ([f"r{i}" if i != 1 else "\x1c" for i in range(10)], "row 2: empty row ID"),
            # a duplicate of an ID in an earlier chunk, as it is or padded
            ([*(f"r{i}" for i in range(9)), "r1"], "row 10: duplicate row ID 'r1'"),
            ([*(f"r{i}" for i in range(9)), " r1\t"], "row 10: duplicate row ID 'r1'"),
            (
                [*(f"id-of-row-{i}" for i in range(9)), "id-of-row-3"],
                "row 10: duplicate row ID 'id-of-row-3'",
            ),
            # later chunks whose IDs need a wider byte field than the
            # first chunk's, or are read as strings after ones kept as bytes
            ([f"r{i}" if i < 6 else f"r{i}-{'w' * 20}" for i in range(10)], None),
            ([f"r{i}" if i < 6 else f"r{i}-{'w' * 70}" for i in range(10)], None),
            # ASCII chunks next to non-ASCII ones
            ([f"r{i}" if i % 3 else f"\u00e9{i}" for i in range(10)], None),
            (
                [*(f"r{i}" if i % 3 else f"\u00e9{i}" for i in range(9)), "\u00e93"],
                "row 10: duplicate row ID '\u00e93'",
            ),
            # non-ASCII IDs padded with non-ASCII whitespace, of 4-byte
            # characters, and of fewer than 64 characters but more bytes
            ([f"\u3000\u00e9{i}\u00a0" for i in range(10)], None),
            ([f"\U0001d7d5{i}" for i in range(10)], None),
            (["\u00e9" * 33 + str(i) for i in range(10)], None),
            # byte chunks, then a non-ASCII chunk whose IDs are wider
            ([f"r{i}" if i < 6 else "\u4e2d" * 30 + str(i) for i in range(10)], None),
            # quoted IDs, which csv.reader reads: every one, or after plain
            # ones, which numpy reads in chunks of up to 3 lines
            ([f'"r,{i}"' for i in range(10)], None),
            ([f'" \u00e9""{i}\n"' for i in range(10)], None),
            ([f"r{i}" if i < 6 else f'"{"w" * 70},{i}"' for i in range(10)], None),
        ],
    )
    def test_ids_load_as_the_row_by_row_loader(
        self, tmp_path, monkeypatch, people_schema, chunk_rows, ids, expected
    ):
        # ``ids`` are the ID cells as written.  load_or_error checks that
        # the IDs are kept as one S array, and that its UTF-8 decode is
        # the reference loader's IDs.
        # Without the whitespace-only line, whose chunk csv.reader reads.
        lines = [line for line in self.LINES if line != "   "]
        path = self.write(tmp_path, self.with_ids(lines, ids))
        reference = load_or_error(reference_load_csv, path, people_schema)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", chunk_rows)
        if expected is None:
            # No csv.reader unless an ID is quoted: numpy reads every
            # chunk, so an ID it refused rather than cut would fail the load.
            if not any('"' in cell for cell in ids):
                monkeypatch.setattr(dataset_module, "_parse_records", None)
            cells = (next(csv.reader([cell]))[0] for cell in ids)
            assert reference[0] == tuple(cell.strip() for cell in cells)
        else:
            assert reference == f"{path} {expected}"
        assert load_or_error(load_csv, path, people_schema) == reference

    def with_long_rows(self, long_rows) -> list[str]:
        """30 rows, Weight padded with 150 zeros after its point in
        ``long_rows``.  Long lines first make the first block's characters
        a line overstate the rest, so the table's arrays are sized short
        and must grow; long lines after it make them too large, and they
        are trimmed."""
        rows = [line for line in self.LINES if line.strip()] * 3
        lines = self.with_ids(rows, (f"r{i}" for i in range(30)))
        for i in long_rows:
            weight = lines[i].rsplit(",", 1)[1]
            lines[i] += ("" if "." in weight else ".") + "0" * 150
        return lines

    @pytest.mark.parametrize("chunk_rows", (1, 2, 3, dataset_module._CHUNK_ROWS))
    @pytest.mark.parametrize("long_rows", [range(2), range(2, 30)])
    def test_lines_longer_or_shorter_after_the_first_block(
        self, tmp_path, monkeypatch, people_schema, chunk_rows, long_rows
    ):
        one_chunk = chunk_rows == dataset_module._CHUNK_ROWS
        path = self.write(tmp_path, self.with_long_rows(long_rows))
        reference = load_or_error(reference_load_csv, path, people_schema)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(dataset_module, "_parse_records", None)
        resizes = []
        resize = dataset_module._Rows._resize

        def recording(rows, capacity):
            resizes.append((rows.capacity, capacity))
            return resize(rows, capacity)

        monkeypatch.setattr(dataset_module._Rows, "_resize", recording)
        loaded = load_or_error(load_csv, path, people_schema)
        assert loaded == reference
        assert isinstance(loaded[0], tuple) and len(loaded[0]) == 30
        if one_chunk:
            assert resizes == []  # one chunk: sized to its rows
        elif long_rows[0] == 0:
            assert any(new > old for old, new in resizes)
        else:
            assert resizes[-1][0] > resizes[-1][1] == 30

    @pytest.mark.parametrize("chunk_rows", (1, 2, 3))
    @pytest.mark.parametrize("long_rows", [range(2), range(2, 30)])
    def test_a_load_that_resizes_is_unchanged_under_a_trace_function(
        self, tmp_path, monkeypatch, people_schema, chunk_rows, long_rows
    ):
        # numpy refuses an in-place resize while any trace function is set
        # (debuggers and coverage tools set one), so the arrays of the
        # growing and trimming tables above are copied instead.
        path = self.write(tmp_path, self.with_long_rows(long_rows))
        reference = load_or_error(reference_load_csv, path, people_schema)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", chunk_rows)
        previous = sys.gettrace()
        sys.settrace(lambda *args: None)
        try:
            loaded = load_or_error(load_csv, path, people_schema)
        finally:
            sys.settrace(previous)
        assert loaded == reference
        assert isinstance(loaded[0], tuple) and len(loaded[0]) == 30

    def test_ids_whose_hashes_collide_load(self, tmp_path, monkeypatch, people_schema):
        # With a factor of 0 an ID's hash is its last 8-byte word, so these
        # IDs, which differ only in their first word, all hash alike.
        ids = [f"{i:08}1" for i in range(10)]
        path = self.write(tmp_path, self.with_ids(self.LINES, ids))
        monkeypatch.setattr(dataset_module, "_HASH_FACTOR", np.uint64(0))
        assert load_csv(path, people_schema).ids == tuple(ids)
        path = self.write(tmp_path, self.with_ids(self.LINES, [*ids[:9], ids[4]]))
        with pytest.raises(DatasetError) as exc:
            load_csv(path, people_schema)
        assert str(exc.value) == f"{path} row 10: duplicate row ID '000000041'"

    def test_chunk_of_empty_lines_loads_without_a_warning(
        self, tmp_path, monkeypatch, people_schema
    ):
        lines = [*self.LINES[:3], "", "", "", *self.LINES[3:]]
        path = self.write(tmp_path, lines)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chunked = load_or_error(load_csv, path, people_schema)
        assert chunked == load_or_error(reference_load_csv, path, people_schema)
        assert len(chunked[0]) == 10

    def test_header_only_file(self, tmp_path, monkeypatch, people_schema):
        path = self.write(tmp_path, [])
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", 3)
        dataset = load_csv(path, people_schema)
        assert dataset.n == 0
        assert dataset.codes.shape == (0, people_schema.k)

    def test_quoted_cell_spanning_lines_in_third_chunk(
        self, tmp_path, monkeypatch, people_schema
    ):
        # Two quote-free chunks are split directly; csv.reader takes over
        # at the third, whose quoted cells hold a newline and a comma.
        lines = list(self.LINES)
        lines[7] = 'r6,"Ravi",17,6.01,"64\n"'
        lines[8] = '"r7,b",Riya,1e1," 4.8",59.5'
        path = self.write(tmp_path, lines)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", 3)
        chunked = load_or_error(load_csv, path, people_schema)
        assert chunked == load_or_error(reference_load_csv, path, people_schema)
        assert chunked[0][5:7] == ("r6", "r7,b")

    @pytest.mark.parametrize("chunk_rows", (1, 2, 3, dataset_module._CHUNK_ROWS))
    def test_quote_inside_an_id_and_a_quoted_id_across_lines(
        self, tmp_path, monkeypatch, people_schema, chunk_rows
    ):
        # Up to the line '"r9' the file holds an even number of quotes, yet
        # csv.reader is still inside a quoted cell there: a chunk cut where
        # its quote count is even would end inside that cell, and neither
        # csv.reader nor np.loadtxt raises on such a chunk.
        lines = list(self.LINES)
        lines[5] = 'r4"x,Sayan,35,6.00,85'
        lines[11] = '"r9\nx",Priya,0,6.00,199'
        path = self.write(tmp_path, lines)
        reference = load_or_error(reference_load_csv, path, people_schema)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", chunk_rows)
        assert load_or_error(load_csv, path, people_schema) == reference
        assert (reference[0][3], reference[0][8]) == ('r4"x', "r9\nx")

    @pytest.mark.parametrize("chunk_rows", (1, 2, 3, dataset_module._CHUNK_ROWS))
    def test_crlf_line_end_across_a_block(
        self, tmp_path, monkeypatch, people_schema, chunk_rows
    ):
        lines = self.end_first_block(self.LINES, chunk_rows, "\r\n")
        path = self.write(tmp_path, lines, "\r\n")
        reference = load_or_error(reference_load_csv, path, people_schema)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", chunk_rows)
        given = self.recording_chunks(monkeypatch)
        assert load_or_error(load_csv, path, people_schema) == reference
        assert len(reference[0]) == 10
        assert given and all(given)  # no block ended in a lone CR

    @pytest.mark.parametrize("chunk_rows", (1, 2, 3, dataset_module._CHUNK_ROWS))
    def test_first_quote_after_the_first_block(
        self, tmp_path, monkeypatch, people_schema, chunk_rows
    ):
        lines = [*self.LINES[:-1], 'r10,"Ravi",40,6.01,0']
        path = self.write(tmp_path, self.end_first_block(lines, chunk_rows, "\n"))
        reference = load_or_error(reference_load_csv, path, people_schema)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", chunk_rows)
        given = self.recording_chunks(monkeypatch)
        assert load_or_error(load_csv, path, people_schema) == reference
        assert reference[0][-1] == "r10"
        assert given[-1] is False  # csv.reader read the quoted line

    def test_a_chunk_across_blocks_is_ascii_only_if_every_block_is(
        self, tmp_path, monkeypatch, people_schema
    ):
        # A 4-line chunk read in blocks of 256 characters: the first block
        # holds lines 1 and 2, whose Name "中" is not a label, and each
        # later block one long line.  Name's labels are short, but the
        # chunk is not ASCII, so Name must not go to an S8 field, which
        # numpy cannot fill with "中"; csv.reader is off, so such a read
        # fails.
        second = "r2,中,7,4.8,42"
        first = "r1,Riya,20,5.3,48"
        pad = 4 * dataset_module._LINE_CHARS - len(first) - len(second) - 2
        lines = [
            first.replace(",", "x" * pad + ",", 1),
            second,
            f"r3{'x' * 300},Priya,28,5.3,78",
            f"r4{'x' * 300},Sayan,35,6.00,85",
        ]
        path = self.write(tmp_path, lines)
        reference = load_or_error(reference_load_csv, path, people_schema)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", 4)
        monkeypatch.setattr(dataset_module, "_parse_records", None)
        assert load_or_error(load_csv, path, people_schema) == reference
        message = "row 2, attribute 'Name': value '中' is not in the domain"
        assert reference.endswith(message)

    def test_crlf_lines(self, tmp_path, monkeypatch, people_schema):
        path = tmp_path / "crlf.csv"
        lines = ["id,Name,Age,Height,Weight", *self.LINES]
        path.write_bytes("".join(f"{l}\r\n" for l in lines).encode("utf-8"))
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", 3)
        chunked = load_or_error(load_csv, str(path), people_schema)
        assert chunked == load_or_error(reference_load_csv, str(path), people_schema)
        assert len(chunked[0]) == 10

    def test_short_and_long_row_in_one_chunk(
        self, tmp_path, monkeypatch, people_schema
    ):
        # The chunk still holds 3 x 5 cells, but not 5 on every line.
        lines = list(self.LINES)
        lines[6] = "r5,Pranab,60,5.9"
        lines[7] = "r6,Ravi,17,6.01,64,1"
        path = self.write(tmp_path, lines)
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", 3)
        with pytest.raises(DatasetError) as exc:
            load_csv(path, people_schema)
        assert str(exc.value) == f"{path} row 5: expected 5 columns, got 4"
