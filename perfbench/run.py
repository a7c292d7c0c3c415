"""dpshuffle benchmark: one workload, one seed, one closed-loop run.

Usage (from the repository root):

    python3 perfbench/run.py --workload release_is --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn.

The run generates its inputs from the seed, times several cold starts of
a worker process (``setup_s``), then lets one worker drive
``dpshuffle.cli.main`` with the argv a user would type, one op after the
other, for about ``--seconds`` seconds.  Every op's output is checked
against a numpy recomputation from the generated values.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
Lines before it name every metric with its unit and sample count and
give a digest of every released output.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import ROOT as ROOT_SPAN
from spans import check_scanner, read_spans, scan_for_leaks, self_times
from workloads import (
    CROSS_QUERY,
    REPORT_FIELDS,
    TIED_QUERY,
    WINDOW_QUERY,
    WORKLOADS,
    epsilon_closed_form,
    generate_table,
    reference_count,
    schema_dict,
)

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".perfbench-work"
WORKER = HERE / "worker.py"

# setup_s is the median over the measuring worker's start and
# SETUP_PROBES set-up-only starts before and after it.
SETUP_PROBES = 4
# Op times are reported at a reference machine speed: wall time scaled by
# CAL_REF_S over the worker's calibration time around the op.
CAL_REF_S = 0.02
DEADLINE_S = 170.0  # the whole run, set-up and checks included

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB"}

# Per-layer self time, seconds per op: metric -> span names.
LAYER_TIMES = {
    "cli.self_s": ("cli.main",),
    "pipeline.self_s": ("pipeline.run_pipeline", "pipeline.risk_sweep"),
    "dataset.load_csv_s": ("dataset.load_csv",),
    "dataset.one_hot_encode_s": ("dataset.one_hot_encode",),
    "queryplan.parse_query_s": ("queryplan.parse_query",),
    "queryplan.tie_attributes_s": ("queryplan.tie_attributes",),
    "partition.build_plan_s": ("partition.build_plan",),
    "shuffler.iterative_shuffle_s": ("shuffler.iterative_shuffle",),
    "shuffler.cumulative_iterative_shuffle_s": ("shuffler.cumulative_iterative_shuffle",),
    "seeds.derive_rng_s": ("seeds.derive_rng",),
    "utility.count_query_s": ("utility.count_query",),
    "utility.select_scheme_s": ("utility.select_scheme",),
}
COUNTS = (
    "partition.plans",
    "pipeline.attempts",
    "shuffler.stages",
    "shuffler.slot_moves",
    "seeds.derive_rng_calls",
    "utility.count_query_calls",
)
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in COUNTS},
    "dataset.us_per_row": "us/row",
    "pipeline.attempts_per_release": "attempts/release",
    "pipeline.exhausted_frac": "fraction",
    "trace.overhead_s": "s",
}


class RunError(RuntimeError):
    """The run could not produce a result (worker died, timed out...)."""


# ---------------------------------------------------------------- inputs


def prepare(workload, seed: int, workdir: Path) -> list:
    """Write the CSVs, schema, first config and plan; return the tables."""
    rng = np.random.default_rng(seed)
    tables = [generate_table(workload.rows, rng) for _ in range(workload.tables)]
    for index, table in enumerate(tables):
        (workdir / f"data-{index}.csv").write_text(table.to_csv(), encoding="utf-8")
    (workdir / "schema.json").write_text(json.dumps(schema_dict()), encoding="utf-8")
    first = workload.round_ops(seed, 0)[0]
    (workdir / "cfg.json").write_text(json.dumps(first.config), encoding="utf-8")
    return tables


# ---------------------------------------------------------------- workers


def start_worker(workdir: Path, deadline: float, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it printed ready."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(workdir), *extra],
        cwd=REPO,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
        line = proc.stdout.readline() if ready else ""
    except BaseException:  # never leave a worker behind; re-raised
        stop(proc)
        raise
    setup = perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise RunError("worker did not get ready (is dpshuffle importable from src/?)")
    return proc, setup


def probe_setup(workdir: Path, deadline: float) -> list[float]:
    """Set-up times of SETUP_PROBES workers that exit once ready."""
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start_worker(workdir, deadline, "--setup-only")
        finish(proc, deadline)
        setups.append(setup)
    return setups


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        code = proc.wait(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RunError("worker ran past the deadline") from None
    except BaseException:  # never leave a worker behind; re-raised
        stop(proc)
        raise
    proc.stdout.close()
    if code != 0:
        raise RunError(f"worker exited with code {code}")


# ---------------------------------------------------------------- checks


def check_release(op, record, table, c: int) -> str | None:
    if record["code"] == 3:
        return "a tied query exhausted its retries" if op.tied else None
    if record["code"] != 0:
        return f"exit code {record['code']}: {record['stderr'].strip()[-300:]}"
    report = json.loads(record["stdout"])
    if set(report) != REPORT_FIELDS:
        return f"report fields {sorted(report)} are not the publishable set"
    if record.get("out_file") != record["stdout"]:
        return "--out file differs from the printed report"
    cfg = op.config
    mode = cfg.get("mode", "IS")
    if (report["t"], report["S"], report["mode"], report["seed"]) != (cfg["t"], cfg["S"], mode, cfg["seed"]):
        return "report scheme or seed differs from the config"
    eps = epsilon_closed_form(mode, cfg["t"], table.n, cfg["S"])
    if abs(report["epsilon_signed"] - eps) > 1e-12 or report["epsilon_report"] != abs(report["epsilon_signed"]):
        return f"epsilon {report['epsilon_signed']} differs from the closed form {eps}"
    c_prime = report["c_prime"]
    if not math.isclose(report["loss_bound"], c_prime * abs(math.expm1(eps)), rel_tol=1e-9, abs_tol=1e-12):
        return "loss bound is not c' * |e^eps - 1|"
    if abs(c - c_prime) > report["loss_bound"] or report["bound_status"] != "satisfied":
        return "released count violates its loss bound"
    if op.tied and c_prime != c:
        return "tied query not answered exactly"
    return None


def check_sweep(op, record, table) -> str | None:
    if record["code"] != 0:
        return f"exit code {record['code']}: {record['stderr'].strip()[-300:]}"
    sweep = json.loads(record["stdout"])
    rows = sweep["table"]
    grid = sorted(tuple(s) for s in op.config["hypothesis_grid"])
    if sorted((row["t"], row["S"]) for row in rows) != grid:
        return "risk table does not cover the grid exactly once"
    for row in rows:
        if row["n1"] != -(-table.n // row["t"]):
            return f"n1 {row['n1']} is not ceil(n/t) for t={row['t']}"
        if abs(row["epsilon"] - epsilon_closed_form("IS", row["t"], table.n, row["S"])) > 1e-12:
            return f"epsilon of t={row['t']}, S={row['S']} differs from the closed form"
    # Documented tie-break: lowest risk, then fewer shufflers, then fewer batches.
    best = min(rows, key=lambda row: (row["risk"], row["S"], row["t"]))
    if sweep["best"] != {"t": best["t"], "S": best["S"]}:
        return f"best {sweep['best']} is not the table's argmin"
    return None


def check_ops(ops, tables, records) -> tuple[list[str], set[int]]:
    """Check every op; return its problems and every input and released count."""
    problems = []
    counts: set[int] = set()
    for record in records:
        op = ops[(record["round"], record["op"])]
        table = tables[op.table]
        where = f"round {record['round']} op {record['op']}{' (traced)' if record['traced'] else ''}"
        if "error" in record:
            problems.append(f"{where}: raised\n{record['error']}")
            continue
        try:
            if op.kind == "sweep":
                problem = check_sweep(op, record, table)
                queries = (TIED_QUERY, CROSS_QUERY, WINDOW_QUERY)
            else:
                c = reference_count(table, op.query)
                problem = check_release(op, record, table, c)
                queries = (op.query,)
                if record["code"] == 0:
                    counts.add(json.loads(record["stdout"])["c_prime"])
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output ({exc!r})"
        if problem:
            problems.append(f"{where}: {problem}")
        counts.update(reference_count(table, q) for q in queries)
    return problems, counts


def digests(records) -> tuple[dict, list[str]]:
    """sha256 of each op's released output; repeats must be identical."""
    by_op: dict = {}
    problems = []
    for record in records:
        text = record["stdout"] if record.get("code") == 0 else f"exit {record.get('code')}"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        key = (record["round"], record["op"])
        if by_op.setdefault(key, digest) != digest:
            problems.append(f"round {key[0]} op {key[1]}: traced output differs from untraced")
    return by_op, problems


# ---------------------------------------------------------------- metrics


def ref_seconds(record) -> float:
    """An op's wall time at the reference machine speed."""
    return record["wall_s"] * CAL_REF_S / record["cal_s"]


def end_to_end(workload, records, setups, maxrss_kb) -> tuple[dict, dict]:
    untraced = [r for r in records if not r["traced"]]
    times = [ref_seconds(r) for r in untraced]
    raw = statistics.median(r["wall_s"] for r in untraced)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "rows_per_s": workload.rows / statistics.median(times),
        "peak_rss_mb": maxrss_kb / 1024,
    }
    samples = {
        "setup_s": f"median of {len(setups)} cold starts",
        "op_s_p50": f"median of {len(times)} ops at reference speed (raw wall median {raw:.4g} s)",
        "rows_per_s": f"{workload.rows} input rows per op over the median op",
        "peak_rss_mb": "ru_maxrss of the one worker process",
    }
    return metrics, samples


def layer_metrics(workload, seed, trace_path: Path, records, secrets, row_ids) -> tuple[dict, list[str]]:
    """Per-layer self times and counts from the written trace."""
    text = trace_path.read_text(encoding="utf-8")
    legit = {workload.rows, workload.t, 2, 3, *range(17)}
    if workload.kind == "sweep":
        legit.update(t for t, _ in workload.round_ops(seed, 0)[0].config["hypothesis_grid"])
    problems = scan_for_leaks(text, secrets - legit, row_ids)
    spans = read_spans(str(trace_path))
    try:
        own = self_times(spans)
    except ValueError as exc:
        return {}, problems + [f"trace: {exc}"]

    # Self times go to reference speed with their op's calibration.
    scale = {(x["round"], x["op"]): CAL_REF_S / x["cal_s"] for x in records if x["traced"]}
    rounds: dict[int, list[dict]] = {}
    for span in spans:
        rounds.setdefault(span["round"], []).append(span)
    per_round = []
    for r, members in sorted(rounds.items()):
        roots = [s for s in members if s["name"] == ROOT_SPAN]
        for root in roots:
            op_spans = [s for s in members if s["op"] == root["op"]]
            if sum(own[s["span"]] for s in op_spans) != root["end_ns"] - root["start_ns"]:
                problems.append(f"round {r} op {root['op']}: self times do not sum to the op's wall time")
        ops = len(roots)
        by_name: dict[str, float] = {}
        for s in members:
            by_name[s["name"]] = by_name.get(s["name"], 0) + own[s["span"]] * scale[(r, s["op"])]
        values = {
            metric: sum(by_name.get(name, 0) for name in names) / ops / 1e9
            for metric, names in LAYER_TIMES.items()
        }
        encode_ns = by_name.get("dataset.load_csv", 0) + by_name.get("dataset.one_hot_encode", 0)
        values["dataset.us_per_row"] = encode_ns / 1e3 / (ops * workload.rows)
        walls = {t: sum(ref_seconds(x) for x in records if x["round"] == r and x["traced"] == t) for t in (False, True)}
        values["trace.overhead_s"] = (walls[True] - walls[False]) / ops
        plans = [s for s in members if s["name"] == "partition.build_plan"]
        shuffles = [s for s in members if s["name"].startswith("shuffler.")]
        values["partition.plans"] = len(plans)
        values["pipeline.attempts"] = sum(1 for s in plans if "attempt" in s)
        values["shuffler.stages"] = sum(s["stages"] for s in shuffles)
        values["shuffler.slot_moves"] = sum(s["slot_moves"] for s in shuffles)
        values["seeds.derive_rng_calls"] = sum(1 for s in members if s["name"] == "seeds.derive_rng")
        values["utility.count_query_calls"] = sum(1 for s in members if s["name"] == "utility.count_query")
        releases = sum(1 for s in members if s["name"] == "pipeline.run_pipeline")
        exhausted = sum(1 for x in records if x["round"] == r and x["traced"] and x.get("code") == 3)
        values["pipeline.attempts_per_release"] = values["pipeline.attempts"] / releases if releases else 0.0
        values["pipeline.exhausted_frac"] = exhausted / releases if releases else 0.0
        per_round.append(values)

    first_ops = workload.round_ops(seed, 0)
    for r, values in enumerate(per_round[1:], start=1):
        if workload.round_ops(seed, r) == first_ops:
            for name in COUNTS:
                if values[name] != per_round[0][name]:
                    problems.append(f"count {name} differs between round 0 and round {r}")
    counted = set(COUNTS) | {"pipeline.attempts_per_release", "pipeline.exhausted_frac"}
    metrics = {
        name: per_round[0][name] if name in counted else statistics.median(v[name] for v in per_round)
        for name in PER_LAYER_UNITS
    }
    return metrics, problems


# ---------------------------------------------------------------- main


def run(workload, seed: int, seconds: float, trace: int) -> int:
    """One run; prints its summary and result line and returns the exit code."""
    deadline = perf_counter() + DEADLINE_S
    workdir = WORK / f"{workload.name}-{seed}-{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        tables = prepare(workload, seed, workdir)
        (workdir / "plan.json").write_text(
            json.dumps({"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace}),
            encoding="utf-8",
        )
        setups = probe_setup(workdir, deadline)
        proc, setup = start_worker(workdir, deadline)
        setups.append(setup)
        finish(proc, deadline)
        setups += probe_setup(workdir, deadline)
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))

        records = result["ops"]
        rounds = [workload.round_ops(seed, r) for r in range(records[-1]["round"] + 1)]
        ops = {(r["round"], r["op"]): rounds[r["round"]][r["op"]] for r in records}
        problems, counts = check_ops(ops, tables, records)
        failed = len(problems)
        by_op, run_problems = digests(records)
        for (r, i), op in ops.items():
            if r and op == ops.get((0, i)) and by_op[(r, i)] != by_op[(0, i)]:
                run_problems.append(f"round {r} op {i}: output differs from round 0")
        if result["missing_bindings"]:
            print(f"perfbench: not traced, binding gone: {result['missing_bindings']}", file=sys.stderr)

        releases = [r for r in records if ops[(r["round"], r["op"])].kind == "run"]
        exhausted = sum(1 for r in releases if r.get("code") == 3)
        untraced = sum(1 for r in records if not r["traced"])
        print(f"perfbench {workload.name} seed={seed} trace={trace}: "
              f"closed loop, 1 caller, {len(rounds)} rounds, {len(records)} ops ({untraced} untraced)")
        if trace:
            row_ids = {uid for table in tables for uid in table.ids}
            check_scanner()
            trace_path = workdir / "trace.jsonl"
            metrics, trace_problems = layer_metrics(workload, seed, trace_path, records, counts, row_ids)
            run_problems += trace_problems
            shutil.copyfile(trace_path, WORK / f"trace-{workload.name}.jsonl")
            units = PER_LAYER_UNITS
            for name in units:
                print(f"  {name:40s} {metrics.get(name, float('nan')):>14.6g} {units[name]}")
        else:
            metrics, samples = end_to_end(workload, records, setups, result["maxrss_kb"])
            units = END_TO_END_UNITS
            for name in units:
                print(f"  {name:14s} {metrics[name]:>14.6g} {units[name]:8s} {samples[name]}")
        print(f"  {'failed_frac':14s} {failed / len(records):>14.6g} fraction ({failed} of {len(records)} ops)")
        print(f"  {'exhausted_frac':14s} {exhausted / max(1, len(releases)):>14.6g} fraction "
              f"({exhausted} of {len(releases)} releases, exit 3)")
        for (r, i), digest in sorted(by_op.items()):
            print(f"  digest round {r} op {i}: sha256 {digest}")
        for problem in problems + run_problems:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
        correct = not problems and not run_problems
        print(json.dumps({
            "correct": correct,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
        }))
        return 0 if correct else 1
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (REPO / "src" / "dpshuffle" / "__init__.py").is_file():
        sys.exit("perfbench: no src/dpshuffle in this checkout")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    sys.exit(max(run(WORKLOADS[name], args.seed, args.seconds, args.trace) for name in names))


if __name__ == "__main__":
    main()
