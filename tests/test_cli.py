import argparse
import csv
import json
import math
import re
import sys

import numpy as np
import pytest

from dpshuffle import cli as cli_module
from dpshuffle import dataset as dataset_module
from dpshuffle import pipeline as pipeline_module
from dpshuffle.cli import build_parser, main
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
            pytest.param(
                '{"attributes": [' + "9" * 5000 + "]}",
                "invalid JSON (Exceeds the limit (4300 digits)",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts integers of any length",
                ),
            ),
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

    @pytest.mark.parametrize("command", ["run", "risk-sweep"])
    def test_schema_nested_too_deep_for_the_decoder_is_named(
        self, capsys, tmp_path, people_paths, make_config, command
    ):
        dataset, _ = people_paths
        schema = tmp_path / "deep.json"
        schema.write_text("[" * 100_000, encoding="utf-8")
        config = make_config("c.json", {
            "seed": 1, "t": 2, "S": 2, "workload": [EXAMPLE_QUERY],
        })
        argv = [command, "--config", config, "--dataset", dataset, "--schema", str(schema)]
        if command == "run":
            argv += ["--query", EXAMPLE_QUERY]
        code = main(argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {schema}: invalid JSON (maximum recursion depth")

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


class TestGridInCumulativeMode:
    # The sweep's trials and budgets are IS, so a CIS grid is refused
    # before any trial rather than ranked on IS shapes.  On six rows the
    # sweep would pick t=2, whose CIS budget is negative, over t=3.  Every
    # trial draws its attribute groups and every release attempt builds a
    # plan, even one that draws no group orders.
    @pytest.fixture()
    def trials(self, monkeypatch):
        from dpshuffle import pipeline, utility

        calls = []
        for module, name in ((pipeline, "build_plan"), (utility, "_draw_groups")):
            original = getattr(module, name)

            def counting(*args, _original=original):
                calls.append(args)
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("command", ["run", "risk-sweep"])
    def test_exits_1_before_any_trial(
        self, capsys, people_paths, make_config, trials, command
    ):
        dataset, schema = people_paths
        config = make_config("c.json", {
            "seed": 1, "mode": "CIS", "hypothesis_grid": [[2, 2], [3, 2]],
            "workload": [EXAMPLE_QUERY],
        })
        argv = [command, "--config", config, "--dataset", dataset, "--schema", schema]
        if command == "run":
            argv += ["--query", EXAMPLE_QUERY]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "'CIS'" in err
        assert not re.search(r"[0-9]", err)
        assert trials == []


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


class TestNeighbouringTables:
    """``run`` on the fixture and on each neighbour of it that gives one
    row another row's values under its own ID: the first row's, which
    DRIFTY_QUERY names, or for the first row the second's.  Whatever
    the table, a run exits 0-3 without a traceback and prints only
    report fields, and a refusal or an exhaustion reads the same for
    both tables: it names no figure that depends on the rows."""

    # Config name -> (config, the exit codes its runs give).
    CONFIGS = {
        "is": ({"seed": 7, "t": 2, "S": 2}, {0}),
        "cis": ({"seed": 7, "t": 3, "S": 2, "mode": "CIS"}, {0}),
        "cis-refused": ({"seed": 7, "t": 2, "S": 2, "mode": "CIS"}, {2}),
        "exhausted": (
            {"seed": 13, "t": 2, "S": 2, "tied_attributes": ["Weight"], "max_retries": 2},
            {0, 3},
        ),
        "grid": (
            {"seed": 1, "hypothesis_grid": [[2, 2], [3, 2]], "tied_attributes": ["Age"],
             "workload": [EXAMPLE_QUERY]},
            {0},
        ),
    }
    QUERIES = (EXAMPLE_QUERY, DRIFTY_QUERY, "count where age < 40")

    @pytest.mark.parametrize("name", CONFIGS)
    def test_neighbours_fail_alike(self, name, tmp_path, capsys, data_dir, make_config):
        schema = str(data_dir / "people_schema.json")
        payload, expected_codes = self.CONFIGS[name]
        config = make_config("c.json", payload)
        header, *rows = (data_dir / "people.csv").read_text(encoding="utf-8").splitlines()
        table = tmp_path / "table.csv"

        def run(rows: list[str], query: str) -> tuple[int, str]:
            table.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
            code = main(["run", "--config", config, "--dataset", str(table),
                         "--schema", schema, "--query", query, "--json"])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3) and "Traceback" not in err
            if code == 0:
                assert sorted(json.loads(out)) == sorted(REPORT_FIELDS)
            return code, err

        codes, compared = set(), 0
        for query in self.QUERIES:
            first = run(rows, query)
            for i, row in enumerate(rows):
                donor = rows[1 if i == 0 else 0]
                neighbour = [*rows[:i], row.split(",")[0] + donor[donor.index(","):], *rows[i + 1:]]
                second = run(neighbour, query)
                codes |= {first[0], second[0]}
                if first[0] == second[0] in (2, 3):
                    assert first[1] == second[1], (query, i)
                    compared += 1
        assert codes == expected_codes
        assert compared or codes == {0}


COMMANDS = ("run", "epsilon", "risk-sweep", "table3", "oracle-rr")


def _usage_error(parse, argv, capsys) -> str:
    with pytest.raises(SystemExit) as info:
        parse(argv)
    assert info.value.code == 2
    return capsys.readouterr().err


# Arguments each subcommand accepts, a long option and its value first.
ACCEPTED = {
    "run": ["--config", "c.json", "--dataset", "d.csv", "--query", "q"],
    "epsilon": ["--batches", "3", "-S", "2", "--n1", "4"],
    "risk-sweep": ["--config", "c.json", "--dataset", "d.csv"],
    "table3": ["--out", "t.json"],
    "oracle-rr": ["--trials", "5", "--n1", "3", "-S", "2"],
}


def _parse_cases(name: str) -> list[list[str]]:
    option, value, *rest = accepted = ACCEPTED[name]
    return [
        [name, *accepted],
        [name, f"{option}={value}", *rest],
        [name, option[:4], value, *rest],  # abbreviated
        [name, *accepted, "--json", "--json"],
        [name, *accepted, option, "again"],
        [name, "--", *accepted],
        [name, *accepted, "--"],
        [name, *accepted, "--", "stray"],
        [name, *accepted, "stray"],
        [name, "stray", *accepted],
        [name, "--", "--"],
        [name, *accepted, "--bogus", "x"],
        [name, *accepted, "-x"],
        [name, *accepted, "--json=1"],  # a flag given a value
        [name, *accepted[2:]],  # a required option left out, if any
        [name, "-h"],
        [name, *accepted, "--help"],
    ]


def _outcome(call, argv, capsys) -> tuple:
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def _parse_with_full_parser(argv):
    args = build_parser().parse_args(argv)
    return args.func(args)


class TestParser:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["-h"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(COMMANDS) + "}" in out
        for name in COMMANDS:
            assert re.search(rf"^ +{name} +\S", out, re.M), name

    def test_main_builds_no_parser(self, monkeypatch, capsys):
        # The parser is built once, at import: no call of main, whether it
        # runs, asks for help or fails to parse, builds another.
        assert isinstance(cli_module._PARSER, argparse.ArgumentParser)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [
            _outcome(main, argv, capsys)[0]
            for name in COMMANDS
            for argv in ([name, "-h"], [name, "--bogus"])
        ]
        codes.append(_outcome(main, ["epsilon", "-t", "100", "-S", "2", "--n1", "10"], capsys)[0])
        codes.append(_outcome(main, [], capsys)[0])
        assert codes == [0, 2] * len(COMMANDS) + [0, 2]
        assert built == []

    @pytest.mark.parametrize("name", COMMANDS)
    def test_main_parses_as_the_full_parser(self, monkeypatch, capsys, name):
        # Each handler prints the namespace it was given instead of running.
        def echo(handler):
            def run(args):
                fields = {k: v for k, v in vars(args).items() if k != "func"}
                print(handler, sorted(fields.items()))
                return 0

            return run

        handlers = ("_cmd_run", "_cmd_epsilon", "_cmd_risk_sweep", "_cmd_table3", "_cmd_oracle")
        for handler in handlers:
            monkeypatch.setattr(cli_module, handler, echo(handler))
        # The shared parser holds the handlers it was built with.
        monkeypatch.setattr(cli_module, "_PARSER", build_parser())
        outcomes = set()
        for argv in _parse_cases(name):
            got = _outcome(main, argv, capsys)
            assert got == _outcome(_parse_with_full_parser, argv, capsys), argv
            outcomes.add(got[0])
        assert outcomes == {0, 2}

    def test_the_shared_parser_keeps_no_state_between_calls(
        self, monkeypatch, capsys, people_paths, make_config
    ):
        dataset, schema = people_paths
        common = ["--dataset", dataset, "--schema", schema]
        run = make_config("run.json", {"seed": 2, "t": 2, "S": 2})
        exhaust = make_config(
            "exhaust.json",
            {"seed": 13, "t": 2, "S": 2, "tied_attributes": ["Weight"], "max_retries": 2},
        )
        sweep = make_config(
            "sweep.json",
            {"seed": 5, "trials": 2, "hypothesis_grid": [[3, 2], [2, 2]],
             "workload": [EXAMPLE_QUERY]},
        )
        calls = {
            "run": ["--config", run, "--query", EXAMPLE_QUERY, *common, "--json"],
            "epsilon": ["-t", "100", "-S", "2", "--n1", "10"],
            "risk-sweep": ["--config", sweep, *common],
            "table3": ["--json"],
            "oracle-rr": ["--n1", "3", "-S", "2", "--trials", "10000"],
        }
        sequence = []
        for name, rest in calls.items():
            sequence += [
                [name, *rest],
                ["run", "--config", run, "--query", EXAMPLE_QUERY, *common, "--bogus", "x"],
                [name, "-h"],
                ["run", "--config", exhaust, "--query", DRIFTY_QUERY, *common],
                [name, *rest],
            ]
        # Each call, among usage errors, help and exhausted releases, gives
        # what it gives on a parser built just before it.
        got = [_outcome(main, argv, capsys) for argv in sequence]
        fresh = []
        for argv in sequence:
            monkeypatch.setattr(cli_module, "_PARSER", build_parser())
            fresh.append(_outcome(main, argv, capsys))
        assert got == fresh
        assert [code for code, *_ in got] == [0, 2, 0, 3, 0] * len(calls)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "c.json", "--dataset", "d.csv"],
            ["epsilon", "-t", "2", "-S", "2", "--n", "4", "--n1", "3"],
            ["oracle-rr", "--n1", "x"],
            ["table3", "--json", "stray"],
        ],
    )
    def test_usage_errors_match_the_full_parser(self, capsys, argv):
        err = _usage_error(main, argv, capsys)
        assert err == _usage_error(build_parser().parse_args, argv, capsys)
        assert err.startswith("usage: dpshuffle ")


def test_a_release_and_a_sweep_never_decode_the_row_ids(
    monkeypatch, capsys, people_paths, make_config
):
    # The fixture's IDs are loaded as bytes, which a read of Dataset.ids,
    # or of a tied or shuffled table's, would decode.
    dataset, schema = people_paths
    loaded, reads = [], []
    load_csv, ids = pipeline_module.load_csv, dataset_module.Dataset.ids

    def loading(*args):
        loaded.append(load_csv(*args))
        return loaded[-1]

    monkeypatch.setattr(pipeline_module, "load_csv", loading)
    reading = property(lambda d: reads.append(d) or ids.fget(d))
    monkeypatch.setattr(dataset_module.Dataset, "ids", reading)
    run = make_config("run.json", {"seed": 2, "t": 2, "S": 2})
    sweep = make_config(
        "sweep.json",
        {"seed": 5, "hypothesis_grid": [[3, 2], [2, 2]], "workload": [EXAMPLE_QUERY]},
    )
    common = ["--dataset", dataset, "--schema", schema]
    assert main(["run", "--config", run, "--query", EXAMPLE_QUERY, *common]) == 0
    assert main(["risk-sweep", "--config", sweep, *common]) == 0
    capsys.readouterr()
    assert len(loaded) == 2
    assert all(isinstance(d._ids, np.ndarray) for d in loaded)
    assert reads == []
