"""Child process that runs one workload against ``dpshuffle.cli.main``.

Usage: python3 perfbench/worker.py WORKDIR [--setup-only]

WORKDIR holds ``plan.json`` (written by run.py), the generated CSVs, the
schema and ``cfg.json``, the config of the first op.  The worker imports
dpshuffle from the checkout's ``src``, reads that config and the schema,
and prints ``ready``: that is the end of set-up.  With ``--setup-only``
it exits there.  Otherwise it runs ops back to back (a closed loop with
one caller) until the next one would end past the measuring time, then
writes ``result.json`` and, when tracing, ``trace.jsonl``.

Between ops it times ``calibrate``, a fixed piece of work, so run.py can
tell the machine's drifting speed apart from the program's.

With tracing on, whole rounds run twice: untraced, then traced, so the
difference of the two is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program():
    sys.path.insert(0, str(SRC))
    import dpshuffle.cli
    import dpshuffle.dataset
    import dpshuffle.pipeline

    if not Path(dpshuffle.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"dpshuffle imported from {dpshuffle.__file__}, not from {SRC}")
    return dpshuffle


def calibrate() -> float:
    """Seconds this core takes for a fixed mix of interpreter work.

    The mix resembles the program's own: building and scanning tuples,
    hashing small JSON payloads, drawing short numpy permutations.  It
    imports nothing from dpshuffle, so no change to the program moves
    it; only the machine's speed does.  It runs with the cyclic garbage
    collector off, so the heap the last op left cannot change its time.
    """
    gc.disable()
    start = perf_counter()
    rows = [tuple((i * 7 + j) & 15 for j in range(6)) for i in range(16_000)]
    columns = [[row[j] for row in rows] for j in range(6)]
    hits = sum(1 for row in rows if row[1] < 8 and row[3] > 4)
    for i in range(600):
        hashlib.sha256(json.dumps([i, "perm", hits]).encode()).digest()
    rng = np.random.default_rng(hits)
    for _ in range(200):
        rng.permutation(len(columns) + 15)
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


def argv_for(op, workdir: Path, query_text) -> list[str]:
    common = [
        "--config", str(workdir / "cfg.json"),
        "--dataset", str(workdir / f"data-{op.table}.csv"),
        "--schema", str(workdir / "schema.json"),
        "--json",
    ]
    if op.kind == "sweep":
        return ["risk-sweep", *common]
    return ["run", *common, "--query", query_text(op.query), "--out", str(workdir / "out.json")]


def run_op(workdir: Path, config: dict, invoke) -> dict:
    """Run one op; everything but the CLI call itself is untimed."""
    (workdir / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    record = {}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            record["code"] = invoke()
        except Exception:  # an op that raises is counted as failed, the loop goes on
            record["error"] = traceback.format_exc()
        record["wall_s"] = perf_counter() - start
    record["stdout"] = out.getvalue()
    record["stderr"] = err.getvalue()[-2000:]
    out_file = workdir / "out.json"
    if out_file.exists():
        record["out_file"] = out_file.read_text(encoding="utf-8")
        out_file.unlink()
    return record


def main() -> None:
    workdir = Path(sys.argv[1])
    plan = json.loads((workdir / "plan.json").read_text(encoding="utf-8"))

    dpshuffle = import_program()
    dpshuffle.pipeline.load_config(str(workdir / "cfg.json"))
    schema = json.loads((workdir / "schema.json").read_text(encoding="utf-8"))
    dpshuffle.dataset.Schema.from_dict(schema)
    print("ready", flush=True)
    if "--setup-only" in sys.argv[2:]:
        return

    sys.path.insert(0, str(HERE))
    from spans import Tracer
    from workloads import WORKLOADS, query_text

    workload = WORKLOADS[plan["workload"]]
    traced = bool(plan["trace"])
    cli_main = dpshuffle.cli.main
    tracer = Tracer()

    ops_out: list[dict] = []
    cal = 0.0

    def run_one(round_index: int, op_index: int, op, is_traced: bool) -> None:
        nonlocal cal
        argv = argv_for(op, workdir, query_text)
        if is_traced:
            invoke = functools.partial(tracer.op, round_index, op_index, cli_main, argv)
        else:
            invoke = functools.partial(cli_main, argv)
        record = run_op(workdir, op.config, invoke)
        # Each op starts from a clean heap, like a fresh CLI process, and
        # the collector never walks the records and spans kept so far.
        gc.collect()
        gc.freeze()
        after = calibrate()
        record.update(round=round_index, op=op_index, traced=is_traced, cal_s=(cal + after) / 2)
        cal = after
        ops_out.append(record)

    def fits(unit_times: list[float]) -> bool:
        """Whether one more unit of median length ends within the time."""
        elapsed = perf_counter() - loop_start
        return elapsed + statistics.median(unit_times) <= plan["seconds"]

    gc.collect()
    gc.freeze()
    calibrate()  # warm up
    cal = calibrate()
    loop_start = perf_counter()
    unit_times: list[float] = []
    round_index = 0
    running = True
    while running:
        ops = workload.round_ops(plan["seed"], round_index)
        if traced:
            # A whole round untraced, then the same round traced.
            start = perf_counter()
            for op_index, op in enumerate(ops):
                run_one(round_index, op_index, op, False)
            tracer.install()
            try:
                for op_index, op in enumerate(ops):
                    run_one(round_index, op_index, op, True)
            finally:
                tracer.uninstall()
            unit_times.append(perf_counter() - start)
            running = fits(unit_times)
        else:
            for op_index, op in enumerate(ops):
                start = perf_counter()
                run_one(round_index, op_index, op, False)
                unit_times.append(perf_counter() - start)
                if not fits(unit_times):
                    running = False
                    break
        round_index += 1

    if traced:
        tracer.write(str(workdir / "trace.jsonl"))
    result = {
        "ops": ops_out,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "missing_bindings": tracer.missing,
    }
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
