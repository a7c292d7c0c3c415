import csv
import json
import math
import re

import pytest

from dpshuffle.cli import main
from dpshuffle.pipeline import REPORT_FIELDS
from conftest import EXAMPLE_QUERY

DRIFTY_QUERY = "count where name = Riya and weight > 60"


@pytest.fixture()
def people_paths(data_dir):
    return str(data_dir / "people.csv"), str(data_dir / "people_schema.json")


@pytest.fixture()
def make_config(tmp_path):
    def _write(name: str, payload: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return _write


class TestEpsilonCommand:
    def test_text_output(self, capsys):
        assert main(["epsilon", "-t", "100", "-S", "2", "--n1", "10"]) == 0
        out = capsys.readouterr().out
        assert "largest batch n1=10" in out
        assert "epsilon = +0.210721" in out
        assert "difference IS - CIS = ln t = 4.605170" in out

    def test_derives_largest_batch_from_row_count(self, capsys):
        assert main(["epsilon", "-t", "3", "-S", "2", "--n", "11"]) == 0
        assert "largest batch n1=4" in capsys.readouterr().out

    def test_json_output_keeps_the_identity(self, capsys):
        assert main(
            ["epsilon", "-t", "100", "-S", "2", "--n1", "10", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n1"] == 10
        assert payload["ratio_per_batch"] == 1 / 81
        assert payload["epsilon_is"] == abs(payload["epsilon_is_signed"])
        gap = payload["epsilon_is_signed"] - payload["epsilon_cis_signed"]
        assert abs(gap - payload["ln_t"]) <= 1e-12
        assert payload["ln_t"] == math.log(100)

    def test_batch_count_past_the_float_range(self, capsys):
        t = 10**400
        assert main(
            ["epsilon", "-t", str(t), "-S", "2", "--n1", "3", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isfinite(payload["epsilon_is"])
        assert payload["epsilon_is"] == math.log(t) - 2 * math.log(2)

    def test_degenerate_batch_size_exits_nonzero(self, capsys):
        assert main(["epsilon", "-t", "2", "-S", "2", "--n1", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_row_count_and_batch_size_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["epsilon", "-t", "2", "-S", "2", "--n", "10", "--n1", "5"])


class TestTable3Command:
    def test_text_diff(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "DISCREPANCY" in out
        assert "matches: [2, 3, 6, 7, 9, 10]" in out

    def test_json_diff(self, capsys):
        assert main(["table3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["discrepancies"] == [1, 4, 5, 8]
        assert len(payload["rows"]) == 10

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "diff.json"
        assert main(["table3", "--json", "--out", str(target)]) == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        assert json.loads(target.read_text(encoding="utf-8")) == stdout_payload


class TestOracleCommand:
    def test_text_output(self, capsys):
        code = main(
            ["oracle-rr", "--n1", "2", "--shufflers", "2",
             "--trials", "20000", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic ratio:  1" in out
        assert "std errors away" in out

    def test_json_output(self, capsys):
        code = main(
            ["oracle-rr", "--n1", "3", "--shufflers", "2",
             "--trials", "50000", "--seed", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic_ratio"] == 0.25
        assert payload["trials"] == 50000
        assert payload["deviation_in_se"] < 5

    def test_thin_trials_exit_nonzero(self, capsys):
        assert main(
            ["oracle-rr", "--n1", "3", "--shufflers", "2", "--trials", "100"]
        ) == 1
        assert "at least 10000 trials" in capsys.readouterr().err


class TestRunCommand:
    def test_text_report(self, capsys, people_paths, make_config):
        dataset, schema = people_paths
        config = make_config("c.json", {"seed": 2, "t": 2, "S": 2})
        code = main(
            ["run", "--config", config, "--dataset", dataset,
             "--query", EXAMPLE_QUERY, "--schema", schema]
        )
        assert code == 0
        assert "released count: 3" in capsys.readouterr().out

    def test_json_report_and_out_file(
        self, capsys, tmp_path, people_paths, make_config
    ):
        dataset, schema = people_paths
        config = make_config("c.json", {"seed": 2, "t": 2, "S": 2,
                                        "schema": schema})
        target = tmp_path / "report.json"
        code = main(
            ["run", "--config", config, "--dataset", dataset,
             "--query", EXAMPLE_QUERY, "--json", "--out", str(target)]
        )
        assert code == 0
        stdout_text = capsys.readouterr().out
        assert target.read_text(encoding="utf-8") == stdout_text
        payload = json.loads(stdout_text)
        assert payload["c_prime"] == 3
        assert payload["bound_status"] == "satisfied"

    def test_byte_identical_reruns(self, capsys, people_paths, make_config):
        dataset, schema = people_paths
        config = make_config("c.json", {"seed": 7, "t": 3, "S": 2})
        args = ["run", "--config", config, "--dataset", dataset,
                "--query", EXAMPLE_QUERY, "--schema", schema, "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_refusal_exits_2_with_diagnostic(
        self, capsys, people_paths, make_config
    ):
        dataset, schema = people_paths
        config = make_config(
            "c.json", {"seed": 2, "t": 1, "S": 2, "mode": "CIS"}
        )
        code = main(
            ["run", "--config", config, "--dataset", dataset,
             "--query", EXAMPLE_QUERY, "--schema", schema]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("refused:")
        assert "negative privacy budget" in captured.err

    def test_exhaustion_exits_3(self, capsys, people_paths, make_config):
        dataset, schema = people_paths
        config = make_config(
            "c.json",
            {"seed": 13, "t": 2, "S": 2, "tied_attributes": ["Weight"],
             "max_retries": 2},
        )
        code = main(
            ["run", "--config", config, "--dataset", dataset,
             "--query", DRIFTY_QUERY, "--schema", schema]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "after 2 retries" in captured.err
        # An attempt's loss |c - c'| and bound c' * |e^eps - 1| are
        # functions of the input count c: the only figure named is the
        # retry count.
        assert re.findall(r"\d+(?:\.\d+)?", captured.err) == ["2"]

    def test_missing_dataset_exits_1(self, capsys, people_paths, make_config):
        _, schema = people_paths
        config = make_config("c.json", {"seed": 1, "t": 2, "S": 2})
        code = main(
            ["run", "--config", config, "--dataset", "no-such.csv",
             "--query", EXAMPLE_QUERY, "--schema", schema]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_exits_1(
        self, capsys, people_paths, make_config
    ):
        dataset, schema = people_paths
        config = make_config("c.json", {"seed": 1, "t": 2, "S": 2,
                                        "shuffle_mode": "IS"})
        code = main(
            ["run", "--config", config, "--dataset", dataset,
             "--query", EXAMPLE_QUERY, "--schema", schema]
        )
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "schema_text, message",
        [
            ('{"attributes": [\n', "invalid JSON (Expecting value: line 2"),
            ('{"attributes": "\xff"}', "invalid JSON ('utf-8' codec can't decode"),
            ('{"attributes": [{"name": "Age"}]}', "attribute 'Age' needs either"),
        ],
    )
    def test_bad_schema_file_is_named(
        self, capsys, tmp_path, people_paths, make_config, schema_text, message
    ):
        dataset, _ = people_paths
        schema = tmp_path / "schema.json"
        schema.write_text(schema_text, encoding="latin-1")
        config = make_config("c.json", {"seed": 1, "t": 2, "S": 2})
        code = main(
            ["run", "--config", config, "--dataset", dataset,
             "--query", EXAMPLE_QUERY, "--schema", str(schema)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {schema}: {message}")

    def test_non_utf8_dataset_is_named(
        self, capsys, tmp_path, people_paths, make_config
    ):
        _, schema = people_paths
        dataset = tmp_path / "latin.csv"
        dataset.write_bytes(b"id,Name,Age,Height,Weight\nRiya,Riya\xff,20,5.3,48\n")
        config = make_config("c.json", {"seed": 1, "t": 2, "S": 2})
        code = main(
            ["run", "--config", config, "--dataset", str(dataset),
             "--query", EXAMPLE_QUERY, "--schema", schema]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dataset}: 'utf-8' codec can't decode")

    def test_oversized_quoted_cell_is_named(
        self, capsys, tmp_path, people_paths, make_config
    ):
        # csv.reader refuses a field longer than csv.field_size_limit().
        _, schema = people_paths
        dataset = tmp_path / "long.csv"
        name = "x" * (csv.field_size_limit() + 1)
        dataset.write_text(
            f'id,Name,Age,Height,Weight\nRiya,"{name}",20,5.3,48\n', encoding="utf-8"
        )
        config = make_config("c.json", {"seed": 1, "t": 2, "S": 2})
        code = main(
            ["run", "--config", config, "--dataset", str(dataset),
             "--query", EXAMPLE_QUERY, "--schema", schema]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dataset}: field larger than field limit")

    def test_non_utf8_config_is_named(self, capsys, tmp_path, people_paths):
        dataset, schema = people_paths
        config = tmp_path / "c.json"
        config.write_bytes(b'{"seed": 1, "t": 2, "S": 2, "mode": "\xff"}')
        code = main(
            ["run", "--config", str(config), "--dataset", dataset,
             "--query", EXAMPLE_QUERY, "--schema", schema]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: invalid JSON ('utf-8' codec")

    def test_tied_channel_name_clash_exits_1(self, capsys, tmp_path, make_config):
        dataset = tmp_path / "clash.csv"
        dataset.write_text("id,a,b,a:b\nu0,x,y,x\nu1,y,x,y\n", encoding="utf-8")
        schema = make_config("schema.json", {"attributes": [
            {"name": name, "domain": ["x", "y"]} for name in ("a", "b", "a:b")
        ]})
        config = make_config("c.json", {"seed": 1, "t": 1, "S": 2})
        code = main(
            ["run", "--config", config, "--dataset", str(dataset),
             "--query", "count where a = x and b = y", "--schema", schema]
        )
        assert code == 1
        assert "clashes" in capsys.readouterr().err


@pytest.fixture()
def lone_row_paths(tmp_path):
    """300 rows in which only row 0 has A = x and B = p."""
    schema = tmp_path / "lone_schema.json"
    schema.write_text(json.dumps({"attributes": [
        {"name": "A", "domain": ["x", "y"]},
        {"name": "B", "domain": ["p", "q"]},
        {"name": "C", "domain": ["u", "v"]},
    ]}), encoding="utf-8")
    table = tmp_path / "lone.csv"
    rows = ["id,A,B,C", "r0,x,p,u"] + [f"r{i},y,q,u" for i in range(1, 300)]
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(table), str(schema)


LONE_QUERY = "count where A = x and B = p"


class TestSweepPastItsCeiling:
    # A sweep trial is one shuffle with no retry; here it releases 0
    # where the input count is 1, past the trial's loss bound.  That is
    # no error, and no message may carry the risk, a function of the
    # input count.
    @pytest.mark.parametrize("seed", [2, 3])
    def test_grid_run_releases(self, capsys, lone_row_paths, make_config, seed):
        dataset, schema = lone_row_paths
        config = make_config("c.json", {
            "seed": seed, "hypothesis_grid": [[100, 2]], "trials": 1,
            "tied_attributes": ["A"],
        })
        code = main(["run", "--config", config, "--dataset", dataset,
                     "--schema", schema, "--query", LONE_QUERY, "--json"])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert err == ""
        payload = json.loads(out)
        assert sorted(payload) == sorted(REPORT_FIELDS)
        # One row has A = x, and c' = 0 would break its bound of 0.
        assert payload["c_prime"] == 1

    def test_risk_sweep_reports_the_bound(self, capsys, lone_row_paths, make_config):
        dataset, schema = lone_row_paths
        config = make_config("c.json", {
            "seed": 2, "hypothesis_grid": [[100, 2]], "trials": 1,
            "tied_attributes": ["A"], "workload": [LONE_QUERY],
        })
        code = main(["risk-sweep", "--config", config, "--dataset", dataset,
                     "--schema", schema, "--json"])
        out, err = capsys.readouterr()
        assert code == 0, err
        (row,) = json.loads(out)["table"]
        assert row["risk"] > row["bound"] and row["epsilon"] > 0


class TestRiskSweepCommand:
    def test_text_table_and_selection(
        self, capsys, people_paths, make_config
    ):
        dataset, schema = people_paths
        config = make_config(
            "c.json",
            {"seed": 5, "hypothesis_grid": [[3, 2], [2, 2]],
             "workload": [EXAMPLE_QUERY], "schema": schema},
        )
        assert main(["risk-sweep", "--config", config,
                     "--dataset", dataset]) == 0
        out = capsys.readouterr().out
        assert "mean_loss" in out
        assert "selected scheme: t=2, S=2" in out

    def test_json_selection(self, capsys, people_paths, make_config):
        dataset, schema = people_paths
        config = make_config(
            "c.json",
            {"seed": 5, "hypothesis_grid": [[3, 2], [2, 2]],
             "workload": [EXAMPLE_QUERY]},
        )
        code = main(
            ["risk-sweep", "--config", config, "--dataset", dataset,
             "--schema", schema, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best"] == {"t": 2, "S": 2}
        assert len(payload["table"]) == 2

    def test_missing_workload_exits_1(
        self, capsys, people_paths, make_config
    ):
        dataset, schema = people_paths
        config = make_config(
            "c.json", {"seed": 5, "hypothesis_grid": [[2, 2]]}
        )
        code = main(
            ["risk-sweep", "--config", config, "--dataset", dataset,
             "--schema", schema]
        )
        assert code == 1
        assert "workload" in capsys.readouterr().err


class TestParser:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
