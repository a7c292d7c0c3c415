"""Golden outputs: released reports, risk tables and exported tables,
compared byte for byte against files recorded under tests/data/golden.

The input is a seeded 300-row table with categorical, bucketed and
open-top attributes, written to CSV inside the test.  Some numeric cells
are decimals or bucket labels, so every cell form the loader accepts is
exercised.  The ``run`` and ``risk-sweep`` cases go through the CLI
entry point only, so they pin what a user sees whatever the internals.
The ``cli-*`` cases pin the data-free subcommands the same way, and
``cli-table3-out.json`` is the file ``table3 --json --out`` writes, and
``cli-risk-sweep.json`` is the risk sweep on the people fixture that CI
runs through the installed console script and diffs against this file.

To re-record after a deliberate change of the random streams, run
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from dpshuffle import (
    Schema,
    build_plan,
    cumulative_iterative_shuffle,
    export_csv,
    iterative_shuffle,
    load_csv,
    tie_attributes,
)
from dpshuffle.cli import main

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"

SEEDS = (1, 2, 3)
ROWS = 300

REGIONS = ("north", "south", "east", "west")
WEIGHT_LABELS = ("light", "mid", "heavy", "max")
SCHEMA = {
    "attributes": [
        {"name": "Region", "domain": list(REGIONS)},
        {"name": "Age", "bins": [0, 18, 30, 45, 65, 130]},
        {"name": "Sex", "domain": ["F", "M"]},
        {"name": "Weight", "bins": [0, 50, 70, 90, 200], "labels": list(WEIGHT_LABELS)},
        {"name": "Income", "bins": [0, 20000, 50000, None]},
        {"name": "Time", "bins": list(range(13))},
    ]
}

# Config seed of the retry case per table seed: the first attempt of
# each violates its loss bound, so the release re-shuffles.  Each is the
# first config seed >= 0 whose release retries and then succeeds.
RETRY_SEEDS = {1: 0, 2: 2, 3: 1}


def write_table(path: Path, seed: int) -> None:
    rnd = random.Random(seed)
    lines = ["id,Region,Age,Sex,Weight,Income,Time"]
    for i in range(ROWS):
        age = rnd.randint(0, 99) if rnd.random() < 0.8 else f"{rnd.uniform(0, 99):.1f}"
        weight = rnd.randint(35, 160) if rnd.random() < 0.9 else rnd.choice(WEIGHT_LABELS)
        income = rnd.randint(0, 300_000) if rnd.random() < 0.9 else f"{rnd.uniform(0, 9):.2f}e4"
        cells = (
            f"s{seed}r{i:03d}",
            rnd.choice(REGIONS),
            age,
            rnd.choice("FM"),
            weight,
            income,
            rnd.randint(0, 11),
        )
        lines.append(",".join(map(str, cells)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_cases(seed: int) -> dict[str, tuple[dict, str]]:
    """Case name -> (config, query) for one table seed."""
    return {
        # Income is free of the tied Age, so the count drifts.
        "is": (
            {"seed": seed, "t": 12, "S": 2, "tied_attributes": ["Age"]},
            "count where age < 45 and income > 30000",
        ),
        # Time is free of the tied attributes, so the window drifts.
        "is-window": (
            {"seed": seed, "t": 20, "S": 3, "tied_attributes": ["Sex", "Weight"]},
            "count where sex = F and weight > 60 during 3..7",
        ),
        # 150 batches of 2 rows: the only CIS shape with a budget >= 0.
        "cis": (
            {"seed": seed, "t": 150, "S": 2, "mode": "CIS"},
            "count where region = north and age >= 30",
        ),
        "retry": (
            {"seed": RETRY_SEEDS[seed], "t": 60, "S": 3, "tied_attributes": ["Region"]},
            "count where region = south and sex = M",
        ),
        "grid": (
            {
                "seed": seed,
                "hypothesis_grid": [[10, 2], [20, 2], [20, 3]],
                "trials": 2,
                "tied_attributes": ["Age", "Weight"],
                "workload": [
                    "count where age < 30 and weight > 60",
                    "count where region = east and income > 20000",
                ],
            },
            "count where age < 30 and weight > 60",
        ),
    }


# Risk-sweep config per table seed.  Seeds 2 and 3 put a window query
# on an untied Time channel and grid candidates with more shufflers than
# channels (5 channels here), so some attribute groups are empty.
SWEEP_CONFIGS = {
    1: {
        "seed": 1,
        "lambda": 0.05,
        "trials": 3,
        "hypothesis_grid": [[10, 2], [25, 2], [25, 3], [60, 2]],
        "tied_attributes": ["Age", "Weight"],
        "workload": [
            "count where age < 30 and weight > 60",
            "count where region = west and sex = F",
            "count where income >= 50000 during 2..9",
        ],
    },
    2: {
        "seed": 2,
        "lambda": 0.02,
        "trials": 3,
        "hypothesis_grid": [[10, 2], [20, 4], [30, 6], [15, 7]],
        "tied_attributes": ["Age", "Weight"],
        "workload": [
            "count where sex = M and income < 50000 during 1..6",
            "count where age >= 30 and weight <= 70 during 4..11",
            "count where region = east",
        ],
    },
    3: {
        "seed": 3,
        "lambda": 0.01,
        "trials": 4,
        "hypothesis_grid": [[15, 3], [15, 6], [40, 2], [50, 8]],
        "tied_attributes": ["Region", "Sex"],
        "workload": [
            "count where region = north and weight <= 70 during 0..5",
            "count where age < 45 and sex = F",
        ],
    },
}


# File name -> argv of each data-free CLI golden.
CLI_CASES = {
    "cli-table3.txt": ["table3"],
    "cli-table3.json": ["table3", "--json"],
    "cli-epsilon.txt": ["epsilon", "-t", "100", "-S", "2", "--n1", "10"],
    "cli-epsilon.json": ["epsilon", "-t", "3", "-S", "2", "--n", "11", "--json"],
    "cli-oracle-rr.txt": ["oracle-rr", "--n1", "3", "-S", "2", "--trials", "20000", "--seed", "1"],
    "cli-oracle-rr.json": [
        "oracle-rr", "--n1", "3", "-S", "2", "--trials", "20000", "--seed", "1", "--json"
    ],
}


# The config of the CI step's risk sweep on the people fixture, whose
# output CI compares with cli-risk-sweep.json.
CLI_SWEEP_CONFIG = {
    "seed": 7,
    "trials": 4,
    "hypothesis_grid": [[3, 2], [2, 3]],
    "tied_attributes": ["Age"],
    "workload": [
        "count where age < 40 and weight > 60",
        "count where name = Riya and weight > 60",
    ],
}


def _cli(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


def _shuffled_table(csv_path: Path, schema_path: Path, mode: str):
    schema = Schema.from_dict(json.loads(schema_path.read_text(encoding="utf-8")))
    dataset = load_csv(str(csv_path), schema)
    tied = tie_attributes(dataset, ("Age", "Weight"))
    channels = [ch.name for ch in tied.channels]
    if mode == "IS":
        return iterative_shuffle(tied, build_plan(tied.n, 12, channels, 2, seed=5))
    return cumulative_iterative_shuffle(tied, build_plan(tied.n, 150, channels, 2, seed=5))


def golden_outputs(workdir: Path) -> dict[str, bytes]:
    """File name -> bytes of every golden case, computed afresh."""
    schema_path = workdir / "schema.json"
    schema_path.write_text(json.dumps(SCHEMA), encoding="utf-8")
    config_path = workdir / "config.json"
    outputs = {}
    for seed in SEEDS:
        csv_path = workdir / f"table-{seed}.csv"
        write_table(csv_path, seed)
        common = ["--dataset", str(csv_path), "--schema", str(schema_path), "--json"]
        for case, (config, query) in run_cases(seed).items():
            config_path.write_text(json.dumps(config), encoding="utf-8")
            outputs[f"run-{case}-seed{seed}.json"] = _cli(
                ["run", "--config", str(config_path), "--query", query, *common]
            )
        config_path.write_text(json.dumps(SWEEP_CONFIGS[seed]), encoding="utf-8")
        outputs[f"risk-sweep-seed{seed}.json"] = _cli(
            ["risk-sweep", "--config", str(config_path), *common]
        )
        if seed == 1:
            for mode in ("IS", "CIS"):
                name = f"export-{mode.lower()}-seed1.csv"
                target = workdir / name
                export_csv(_shuffled_table(csv_path, schema_path, mode), str(target))
                outputs[name] = target.read_bytes()
                outputs[name + ".provenance.json"] = Path(
                    str(target) + ".provenance.json"
                ).read_bytes()
    for name, argv in CLI_CASES.items():
        outputs[name] = _cli(argv)
    config_path.write_text(json.dumps(CLI_SWEEP_CONFIG), encoding="utf-8")
    outputs["cli-risk-sweep.json"] = _cli([
        "risk-sweep", "--config", str(config_path), "--json",
        "--dataset", str(DATA_DIR / "people.csv"),
        "--schema", str(DATA_DIR / "people_schema.json"),
    ])
    table3_out = workdir / "table3.json"
    _cli(["table3", "--json", "--out", str(table3_out)])
    outputs["cli-table3-out.json"] = table3_out.read_bytes()
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, bytes]:
    return golden_outputs(tmp_path_factory.mktemp("golden"))


def test_every_golden_file_is_produced(outputs):
    assert sorted(outputs) == sorted(p.name for p in GOLDEN_DIR.iterdir())


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()))
def test_output_matches_golden_bytes(outputs, name):
    assert outputs[name] == (GOLDEN_DIR / name).read_bytes()


def test_cases_cover_what_they_claim(outputs):
    for seed in SEEDS:
        assert json.loads(outputs[f"run-retry-seed{seed}.json"])["retries_used"] >= 1
        assert json.loads(outputs[f"run-cis-seed{seed}.json"])["mode"] == "CIS"
        grid = json.loads(outputs[f"run-grid-seed{seed}.json"])
        assert (grid["t"], grid["S"]) in {(10, 2), (20, 2), (20, 3)}
    for seed in SEEDS:
        table = json.loads(outputs[f"risk-sweep-seed{seed}.json"])["table"]
        assert len(table) == 4 and any(row["mean_loss"] > 0 for row in table)
    for seed in (2, 3):
        config = SWEEP_CONFIGS[seed]
        assert any("during" in query for query in config["workload"])
        assert max(s for _, s in config["hypothesis_grid"]) > 5


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in golden_outputs(Path(tmp)).items():
            (GOLDEN_DIR / name).write_bytes(data)
