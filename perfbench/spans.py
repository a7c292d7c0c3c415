"""Span recording around dpshuffle's layers, installed from outside.

The recorder replaces public functions at the module bindings where
their callers look them up (``dpshuffle.pipeline.one_hot_encode``,
``dpshuffle.utility.iterative_shuffle``, ``dpshuffle.shuffler.derive_rng``
and so on) with wrappers that time the call.  Spans stay in memory and
are written as JSON lines when the run ends.

Spans carry shapes only: row count, batch count, shuffler count, channel
count, stages, slot moves and the attempt index.  They never carry a
count, a row ID, a value or a permutation; ``scan_for_leaks`` enforces
that on the written file.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
from time import perf_counter_ns

# Keys a span may hold.  SHAPE_KEYS are the only numeric payload.
SHAPE_KEYS = ("n", "t", "S", "channels", "stages", "slot_moves", "attempt", "candidates")
SPAN_KEYS = frozenset(("round", "op", "span", "parent", "name", "start_ns", "end_ns", *SHAPE_KEYS))

ROOT = "cli.main"


def _plan_shape(plan) -> dict:
    return {
        "n": plan.n,
        "t": plan.num_batches,
        "S": plan.num_shufflers,
        "channels": len(plan.channels),
    }


def _shuffle_shape(args, result) -> dict:
    plan = args[1]
    return {**_plan_shape(plan), "stages": plan.num_batches, "slot_moves": plan.n * len(plan.channels)}


def _cumulative_shape(args, result) -> dict:
    plan = args[1]
    prefix_rows = sum(end for _, end in plan.bounds)
    return {**_plan_shape(plan), "stages": plan.num_batches, "slot_moves": prefix_rows * len(plan.channels)}


def _plan_args_shape(args, result) -> dict:
    n, t, channels, s = args[:4]
    return {"n": n, "t": t, "S": s, "channels": len(channels)}


def _none(args, result) -> dict:
    return {}


# (module, binding, span name, shape of a finished call)
BINDINGS = (
    ("dpshuffle.cli", "run_pipeline", "pipeline.run_pipeline", _none),
    ("dpshuffle.cli", "risk_sweep", "pipeline.risk_sweep", _none),
    ("dpshuffle.pipeline", "load_csv", "dataset.load_csv", lambda a, r: {"n": r.n}),
    ("dpshuffle.pipeline", "one_hot_encode", "dataset.one_hot_encode", lambda a, r: {"n": r.n}),
    ("dpshuffle.utility", "one_hot_encode", "dataset.one_hot_encode", lambda a, r: {"n": r.n}),
    ("dpshuffle.pipeline", "parse_query", "queryplan.parse_query", _none),
    ("dpshuffle.utility", "parse_query", "queryplan.parse_query", _none),
    ("dpshuffle.pipeline", "tie_attributes", "queryplan.tie_attributes", lambda a, r: {"n": r.n, "channels": r.g}),
    ("dpshuffle.utility", "tie_attributes", "queryplan.tie_attributes", lambda a, r: {"n": r.n, "channels": r.g}),
    ("dpshuffle.pipeline", "build_plan", "partition.build_plan", _plan_args_shape),
    ("dpshuffle.utility", "build_plan", "partition.build_plan", _plan_args_shape),
    ("dpshuffle.pipeline", "iterative_shuffle", "shuffler.iterative_shuffle", _shuffle_shape),
    ("dpshuffle.utility", "iterative_shuffle", "shuffler.iterative_shuffle", _shuffle_shape),
    ("dpshuffle.pipeline", "cumulative_iterative_shuffle", "shuffler.cumulative_iterative_shuffle", _cumulative_shape),
    ("dpshuffle.pipeline", "count_query", "utility.count_query", lambda a, r: {"n": a[0].n}),
    ("dpshuffle.utility", "count_query", "utility.count_query", lambda a, r: {"n": a[0].n}),
    ("dpshuffle.pipeline", "select_scheme", "utility.select_scheme", lambda a, r: {"candidates": len(a[0].hypothesis_grid)}),
    ("dpshuffle.shuffler", "derive_rng", "seeds.derive_rng", _none),
    ("dpshuffle.partition", "derive_rng", "seeds.derive_rng", _none),
)


class Tracer:
    """Records nested spans for the ops run inside ``op()`` calls.

    A span is [name, start_ns, end_ns, parent index, round, op, shape].
    The wrappers are in place only between ``install`` and ``uninstall``,
    which bracket traced ops; untraced ops run the program's own
    functions.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: tuple[int, int] | None = None
        self._attempt = 0
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self) -> None:
        self.missing = []
        for module_name, attr, span_name, shape in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, shape, module_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self._op[0], self._op[1], None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name, fn, shape, module_name):
        counts_attempts = name == "partition.build_plan" and module_name == "dpshuffle.pipeline"
        starts_release = name == "pipeline.run_pipeline"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_release:
                self._attempt = 0
            span = self._open(name)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self._stack.pop()
            fields = shape(args, result)
            if counts_attempts:
                fields["attempt"] = self._attempt
                self._attempt += 1
            span[6] = fields
            return result

        return wrapper

    def op(self, round_index: int, op_index: int, fn, *args):
        """Call ``fn(*args)`` as the root span of one op."""
        self._op = (round_index, op_index)
        span = self._open(ROOT)
        span[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()
            span[6] = {}
            self._op = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, rnd, op, shape) in enumerate(self.spans):
                record = {
                    "round": rnd,
                    "op": op,
                    "span": index,
                    "parent": parent,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    **(shape or {}),
                }
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span index -> duration minus the durations of its direct children.

    Raises ValueError when a child does not lie inside its parent or
    when siblings overlap: then self times would not add up.
    """
    by_index = {s["span"]: s for s in spans}
    own = {s["span"]: s["end_ns"] - s["start_ns"] for s in spans}
    last_end: dict[int, int] = {}
    for s in spans:
        parent = s["parent"]
        if parent < 0:
            continue
        p = by_index[parent]
        if not (p["start_ns"] <= s["start_ns"] <= s["end_ns"] <= p["end_ns"]):
            raise ValueError(f"span {s['span']} ({s['name']}) escapes its parent {parent}")
        if s["start_ns"] < last_end.get(parent, p["start_ns"]):
            raise ValueError(f"span {s['span']} ({s['name']}) overlaps a sibling")
        last_end[parent] = s["end_ns"]
        own[parent] -= s["end_ns"] - s["start_ns"]
    return own


_ROW_ID = re.compile(r"r[0-9a-f]{8}")


def scan_for_leaks(text: str, secrets: set[int], row_ids: set[str]) -> list[str]:
    """Problems found in a trace file's text.

    ``secrets`` are the input and released counts that may appear in no
    shape field; ``row_ids`` are the generated row IDs, which may appear
    nowhere.
    """
    problems = []
    for line in text.splitlines():
        record = json.loads(line)
        extra = set(record) - SPAN_KEYS
        if extra:
            problems.append(f"span {record.get('span')} has non-shape keys {sorted(extra)}")
        for key in SHAPE_KEYS:
            if record.get(key) in secrets:
                problems.append(f"span {record['span']} {key}={record[key]} equals a count")
    leaked = set(_ROW_ID.findall(text)) & row_ids
    if leaked:
        problems.append(f"{len(leaked)} row IDs appear in the trace, e.g. {sorted(leaked)[0]}")
    return problems


def check_scanner() -> None:
    """Fail loudly unless the scan catches a planted count and row ID."""
    planted = json.dumps(
        {"round": 0, "op": 0, "span": 0, "parent": -1, "name": "x", "start_ns": 1, "end_ns": 2, "n": 4321, "note": "r0badc0de"}
    )
    found = scan_for_leaks(planted, {4321}, {"r0badc0de"})
    if len(found) != 3:
        raise RuntimeError(f"trace leak scan missed a planted leak: {found}")
