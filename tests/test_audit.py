"""Audit the privacy loss of a release with its seed hidden.

For a pair of neighbouring tables, hidden seeds 0..N-1 play the
release's randomness through ``run_on_dataset``, and each table's law of
what a release publishes is counted: ``(c_prime, retries_used)`` on exit
0, or the exhaustion of its retries (exit 3).  An event of the published
output then bounds the true loss from below: at confidence 95 % on each
side, its probability is at least the Hoeffding bound on one table and
at most the zero-count bound 1 - alpha^(1/N) on the other, where it was
never seen, so epsilon >= ln(lower / upper).  Closed forms only; the
README quotes the bounds computed here.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from dpshuffle import PipelineConfig, RetriesExhausted, load_csv, parse_query
from dpshuffle.pipeline import run_on_dataset

README = Path(__file__).parent.parent / "README.md"
ALPHA = 0.05  # one-sided, on each table's side
EXHAUSTED = "exit 3"


def _published(config, dataset, query, seeds: int) -> Counter:
    """How often each output is published over hidden seeds 0..seeds-1."""
    outcomes: Counter = Counter()
    for seed in range(seeds):
        try:
            report = run_on_dataset(replace(config, seed=seed), dataset, query)
        except RetriesExhausted:
            outcomes[EXHAUSTED] += 1
        else:
            outcomes[report.c_prime, report.retries_used] += 1
    return outcomes


def _audited_epsilon(hits: int, seeds: int) -> float:
    """Lower bound on the loss from an event seen ``hits`` times in
    ``seeds`` runs on one table and never in as many on its neighbour."""
    lower = hits / seeds - math.sqrt(math.log(1 / ALPHA) / (2 * seeds))
    upper = 1 - ALPHA ** (1 / seeds)
    return math.log(lower / upper)


@pytest.fixture()
def tables(data_dir, people_schema, tmp_path):
    """people.csv, and its neighbour in which Riya's row takes Sonal's
    values under its own ID."""
    header, *rows = (data_dir / "people.csv").read_text(encoding="utf-8").splitlines()
    sonal = next(row for row in rows if row.startswith("Sonal,"))
    neighbour = [("Riya," + sonal.split(",", 1)[1]) if row.startswith("Riya,") else row
                 for row in rows]
    path = tmp_path / "neighbour.csv"
    path.write_text("\n".join([header, *neighbour]) + "\n", encoding="utf-8")
    return load_csv(str(data_dir / "people.csv"), people_schema), load_csv(str(path), people_schema)


def _readme_quotes(epsilon: float, seeds: int) -> bool:
    text = " ".join(README.read_text(encoding="utf-8").split())
    return f"ε ≥ {epsilon:.2f} over N = {seeds:,} hidden seeds" in text


def test_retries_used_carries_the_loss_of_the_readme_release(tables):
    # The README's config and query: the table's release is retried or
    # runs out of retries a third of the time, its neighbour's never.
    table, neighbour = tables
    config = PipelineConfig(seed=0, t=2, S=2, tied_attributes=("Weight",), max_retries=2)
    query = parse_query("count where name = Riya and weight > 60", table.schema)
    seeds = 2_000
    on_table = _published(config, table, query, seeds)
    on_neighbour = _published(config, neighbour, query, seeds)
    assert on_table == {(0, 0): 1_335, (0, 1): 440, (0, 2): 148, EXHAUSTED: 77}
    assert on_neighbour == {(0, 0): seeds}

    retried = seeds - on_table[0, 0]
    epsilon = _audited_epsilon(retried, seeds)
    report = run_on_dataset(config, neighbour, query)
    assert round(epsilon, 2) == 5.32
    assert epsilon > report.epsilon_report == pytest.approx(math.log(2))
    assert _readme_quotes(epsilon, seeds)


def test_a_query_inside_the_default_tie_set_publishes_its_count(tables):
    # Under the default tie set the query's attributes form one channel,
    # so c' = c: a pair whose c differs never publishes the same count,
    # and the loss is infinite.
    table, neighbour = tables
    config = PipelineConfig(seed=0, t=2, S=2)
    query = parse_query("count where name = Riya", table.schema)
    seeds = 200
    assert _published(config, table, query, seeds) == {(1, 0): seeds}
    assert _published(config, neighbour, query, seeds) == {(0, 0): seeds}

    epsilon = _audited_epsilon(seeds, seeds)
    assert epsilon > run_on_dataset(config, table, query).epsilon_report
    assert _readme_quotes(epsilon, seeds)
