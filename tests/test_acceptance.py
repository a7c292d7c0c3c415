"""Acceptance checklist.

One test per release criterion, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  The
tolerances are pinned here on purpose: loosening them is a release
decision, not a test fix.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from dpshuffle import (
    Attribute,
    Dataset,
    PipelineConfig,
    PipelineRefused,
    RiskConfig,
    Row,
    Scheme,
    Schema,
    build_plan,
    count_query,
    iterative_shuffle,
    mc_rr_estimate,
    parse_query,
    run_pipeline,
    select_scheme,
    tie_attributes,
)
from dpshuffle.partition import plan_batches
from dpshuffle.pipeline import reproduce_table3
from dpshuffle.privacy import epsilon_cis, epsilon_is, rr_batch
from dpshuffle.shuffler import apply_channel_permutations
from dpshuffle.utility import loss
from dpshuffle.cli import main
from conftest import (
    AFTER_SHUFFLE_PERMS,
    EXAMPLE_QUERY,
    channel_columns,
    random_tied_case,
)


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {summary}")
        raise
    print(f"criterion {number:2d} PASS: {summary}")


def rows_multiset(column, start: int, end: int) -> Counter:
    """Multiset of a channel's rows of domain indices in slots [start, end)."""
    return Counter(map(tuple, column[start:end].tolist()))


@pytest.fixture(scope="module")
def tied_suite():
    """1000 random shuffle cases shared by the exactness and multiset
    criteria: the query sits inside the tied channel, sizes and schemes
    vary, and every per-batch slice is compared against its input."""
    rnd = random.Random(20_260_819)
    cases = []
    for _ in range(1000):
        case = random_tied_case(rnd)
        tied_db = tie_attributes(case["dataset"], case["tied"])
        plan = build_plan(
            tied_db.n,
            case["t"],
            [ch.name for ch in tied_db.channels],
            case["S"],
            case["seed"],
        )
        shuffled = iterative_shuffle(tied_db, plan)
        c = count_query(tied_db, case["query"])
        c_prime = count_query(shuffled, case["query"])
        before, after = channel_columns(tied_db), channel_columns(shuffled)
        multiset_violations = 0
        for start, end in plan.bounds:
            for name in plan.channels:
                if rows_multiset(after[name], start, end) != rows_multiset(
                    before[name], start, end
                ):
                    multiset_violations += 1
        cases.append(
            {
                "c": c,
                "c_prime": c_prime,
                "violations": multiset_violations,
                "t": case["t"],
                "S": case["S"],
                "n": tied_db.n,
            }
        )
    return cases


def test_criterion_01_reference_table_regression():
    with criterion(1, "reference table recomputed; 6 matches within 0.015, "
                      "4 rows in the discrepancy section, under 1 s"):
        started = time.perf_counter()
        report = reproduce_table3()
        text = report.to_text()
        elapsed = time.perf_counter() - started

        assert [row.index for row in report.matches] == [2, 3, 6, 7, 9, 10]
        for row in report.matches:
            assert abs(row.epsilon_magnitude - row.reported) <= 0.015
        assert [row.index for row in report.discrepancies] == [1, 4, 5, 8]
        for row in report.discrepancies:
            assert row.note != ""
            assert f"row {row.index}:" in text
        assert "discrepancy section:" in text
        assert elapsed < 1.0


def test_criterion_02_headline_budget():
    with criterion(2, "1e6 rows in 1e4 batches of 100 at S=2 gives "
                      "epsilon 0.0201 +/- 0.0001"):
        sizes = plan_batches(1_000_000, 10_000)
        assert sizes[0] == 100
        assert abs(epsilon_is(10_000, sizes[0], 2) - 0.0201) <= 1e-4


def test_criterion_03_ratio_oracle():
    with criterion(3, "1e6-trial Monte-Carlo ratio within 3 SE of "
                      "1/(n1-1)^S for (3,2), (4,2), (5,3), under 60 s"):
        started = time.perf_counter()
        for n1, s in ((3, 2), (4, 2), (5, 3)):
            estimate = mc_rr_estimate(n1, s, 1_000_000, seed=0)
            assert estimate.analytic_ratio == rr_batch(n1, s)
            assert estimate.deviation_in_se <= 3.0
        assert time.perf_counter() - started < 60.0


def test_criterion_04_mode_identity():
    with criterion(4, "per-batch minus cumulative budget equals ln t "
                      "within 1e-12 on a 1000-point grid"):
        rnd = random.Random(404)
        for _ in range(1000):
            t = rnd.randint(1, 10**6)
            n1 = rnd.randint(2, 10**4)
            s = rnd.randint(2, 8)
            gap = epsilon_is(t, n1, s) - epsilon_cis(n1, s)
            assert abs(gap - math.log(t)) <= 1e-12


def test_criterion_05_tied_query_exactness(tied_suite):
    with criterion(5, f"{len(tied_suite)}/1000 random in-tie queries "
                      f"answered exactly (loss 0 <= bound)"):
        assert len(tied_suite) == 1000
        drifted = [case for case in tied_suite if case["c_prime"] != case["c"]]
        assert drifted == []
        assert all(
            loss(case["c"], case["c_prime"]) == 0.0 for case in tied_suite
        )


def test_criterion_06_batch_multiset_soundness(tied_suite):
    with criterion(6, "every channel of every batch keeps its value "
                      "multiset in the same 1000-case suite"):
        assert sum(case["violations"] for case in tied_suite) == 0


def test_criterion_07_cumulative_mode_refusal(
    tmp_path, capsys, data_dir
):
    with criterion(7, "cumulative budgets are negative for n1 >= 3 and "
                      "the pipeline refuses them with a diagnostic"):
        rnd = random.Random(707)
        for _ in range(400):
            n1 = rnd.randint(3, 10**6)
            s = rnd.randint(2, 8)
            assert epsilon_cis(n1, s) < 0

        config_path = tmp_path / "cis.json"
        config_path.write_text(
            json.dumps({"seed": 2, "t": 1, "S": 2, "mode": "CIS"}),
            encoding="utf-8",
        )
        dataset = str(data_dir / "people.csv")
        schema = str(data_dir / "people_schema.json")
        with pytest.raises(PipelineRefused, match="negative privacy budget"):
            run_pipeline(
                PipelineConfig(seed=2, t=1, S=2, mode="CIS"),
                dataset,
                EXAMPLE_QUERY,
                schema,
            )
        code = main(
            ["run", "--config", str(config_path), "--dataset", dataset,
             "--query", EXAMPLE_QUERY, "--schema", schema]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "refused:" in captured.err
        assert "negative privacy budget" in captured.err


def test_criterion_08_fixture_cross_group_counts(people_dataset):
    with criterion(8, "fixture counts 3 before and 2 after the injected "
                      "arrangement, loss 1"):
        query = parse_query(EXAMPLE_QUERY, people_dataset.schema)
        tied = tie_attributes(people_dataset, ("Height", "Weight"))
        after = apply_channel_permutations(tied, AFTER_SHUFFLE_PERMS)
        c = count_query(tied, query)
        c_prime = count_query(after, query)
        assert c == 3
        assert c_prime == 2
        assert loss(c, c_prime) == 1.0


def test_criterion_09_deterministic_reports(tmp_path, data_dir, capsys):
    with criterion(9, "identical runs release byte-identical reports"):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"seed": 7, "t": 2, "S": 2}), encoding="utf-8"
        )
        dataset = str(data_dir / "people.csv")
        schema = str(data_dir / "people_schema.json")

        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                ["run", "--config", str(config_path), "--dataset", dataset,
                 "--query", EXAMPLE_QUERY, "--schema", schema,
                 "--json", "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

        config = PipelineConfig(seed=7, t=2, S=2)
        first = run_pipeline(config, dataset, EXAMPLE_QUERY, schema)
        second = run_pipeline(config, dataset, EXAMPLE_QUERY, schema)
        assert first.to_json() == second.to_json()
        assert first.to_json().encode() == outputs[0]


def test_criterion_10_risk_selection():
    with criterion(10, "tied-only workload at t=100 selects S=2 over S=3"):
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
        config = RiskConfig(
            hypothesis_grid=(Scheme(100, 2), Scheme(100, 3)),
            workload=("count where color = c1",),
        )
        selection = select_scheme(config, Dataset(schema, rows), seed=10)
        assert selection.best == Scheme(100, 2)
        for row in selection.table:
            assert row.result.mean_loss == 0.0
