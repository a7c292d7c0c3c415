import csv
import gc
import io
import json
import math
import tempfile
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

    def test_number_for_label_only_attribute_rejected(self):
        attr = Attribute("name", ("Riya", "Sonal"))
        with pytest.raises(DatasetError, match="no bucketing rule"):
            value_index(attr, 3.5)

    def test_unknown_label_rejected(self):
        attr = Attribute("color", ("red", "green"))
        with pytest.raises(DatasetError, match="not in the domain"):
            value_index(attr, "blue")

    def test_domain_validation(self):
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
        column_codes = dataset_module._column_codes

        def recording(*args):
            during.append(gc.isenabled())
            return column_codes(*args)

        monkeypatch.setattr(dataset_module, "_column_codes", recording)
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

    def test_dataset_rejects_duplicate_ids(self, people_schema):
        schema = Schema((Attribute("flag", ("yes", "no")),))
        with pytest.raises(DatasetError, match="duplicate"):
            Dataset(schema, (Row("a", ("yes",)), Row("a", ("no",))))


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


def load_or_error(load, path: str, schema: Schema):
    try:
        dataset = load(path, schema)
    except DatasetError as exc:
        return str(exc)
    return dataset.ids, dataset.codes.tolist()


# Numeric-looking and comma-holding labels, auto bucket labels with a
# comma, and a bucket label ("7") that CSV cells read as a number.
LOADER_SCHEMA = Schema(
    (
        Attribute("Name", ("1", "2.5", "1e3", "a,b", "x y", "nan")),
        Attribute("Age", ("[0,18)", "[18,40)", "40+"), (0.0, 18.0, 40.0, math.inf)),
        Attribute("Score", ("lo", "mid", "7"), (0.0, 1.0, 10.0, 100.0)),
    )
)
LOADER_HEADER = "id,Name,Age,Score\n"
BAD_CELLS = {
    "Name": ("zzz", "3", "A,B"),
    "Age": ("-1", "nan", "adult", "-1e-3"),
    "Score": ("100", "1e9", "nan", "high", "-inf"),
}
BLANK_LINES = ("", "   ", " , ,", ",,,", "\t")
NUMBER_FORMATS = ("{:g}", "{:e}", "{:.2f}", "{!r}", "{:.0f}")


@st.composite
def padded(draw, text):
    return draw(st.sampled_from(("", " ", "  "))) + text + draw(
        st.sampled_from(("", " "))
    )


@st.composite
def good_cell(draw, attr: Attribute):
    if attr.is_numeric and draw(st.booleans()):
        hi = min(attr.bin_edges[-1], 200.0)
        x = draw(st.floats(attr.bin_edges[0], hi, exclude_max=True))
        text = draw(st.sampled_from(NUMBER_FORMATS)).format(x)
        if not attr.bin_edges[0] <= float(text) < attr.bin_edges[-1]:
            text = repr(x)  # rounding pushed it out of range
    else:
        text = draw(st.sampled_from(attr.values))
    return draw(padded(text))


@st.composite
def loader_files(draw):
    """CSV text over LOADER_SCHEMA with blank lines and at most one fault."""
    attrs = LOADER_SCHEMA.attributes
    n = draw(st.integers(0, 9))
    records = [
        [draw(padded(f"u{i}")), *(draw(good_cell(attr)) for attr in attrs)]
        for i in range(n)
    ]
    fault = draw(st.sampled_from((None, "cell", "width", "empty_id", "duplicate")))
    if n and fault == "cell":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, len(attrs) - 1))
        bad = draw(st.sampled_from(BAD_CELLS[attrs[j].name]))
        records[i][j + 1] = draw(padded(bad))
    elif n and fault == "width":
        i = draw(st.integers(0, n - 1))
        records[i] = records[i][:-1] if draw(st.booleans()) else [*records[i], "7"]
    elif n and fault == "empty_id":
        records[draw(st.integers(0, n - 1))][0] = draw(st.sampled_from(("", "  ")))
    elif n >= 2 and fault == "duplicate":
        first = draw(st.integers(0, n - 2))
        records[draw(st.integers(first + 1, n - 1))][0] = records[first][0].strip()
    out = io.StringIO()
    quoting = draw(st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL)))
    csv.writer(out, quoting=quoting, lineterminator="\n").writerows(records)
    lines = out.getvalue().splitlines()
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(
            draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_LINES))
        )
    return LOADER_HEADER + "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(loader_files(), st.sampled_from((1, 2, 3, dataset_module._CHUNK_ROWS)))
def test_load_csv_matches_the_row_by_row_loader(text, chunk_rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "data.csv")
        Path(path).write_text(text, encoding="utf-8")
        expected = load_or_error(reference_load_csv, path, LOADER_SCHEMA)
        with mock.patch.object(dataset_module, "_CHUNK_ROWS", chunk_rows):
            assert load_or_error(load_csv, path, LOADER_SCHEMA) == expected


def test_csv_reads_bucketed_cells_as_numbers_first(tmp_path):
    # "7" is the label of bucket [10, 100) but the number 7 lies in [1, 10).
    path = tmp_path / "seven.csv"
    path.write_text(LOADER_HEADER + "u1,1,20,7\nu2,1,20,mid\n", encoding="utf-8")
    assert load_csv(str(path), LOADER_SCHEMA).codes[:, 2].tolist() == [1, 1]
    row = Row("u1", ("1", "20", "7"))
    assert Dataset(LOADER_SCHEMA, (row,)).codes[0].tolist() == [0, 1, 2]


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

    def write(self, tmp_path, lines) -> str:
        path = tmp_path / "chunks.csv"
        text = "id,Name,Age,Height,Weight\n" + "".join(f"{l}\n" for l in lines)
        path.write_text(text, encoding="utf-8")
        return str(path)

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

    def test_header_only_file(self, tmp_path, monkeypatch, people_schema):
        path = self.write(tmp_path, [])
        monkeypatch.setattr(dataset_module, "_CHUNK_ROWS", 3)
        dataset = load_csv(path, people_schema)
        assert dataset.n == 0
        assert dataset.codes.shape == (0, people_schema.k)
