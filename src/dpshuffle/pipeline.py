"""End-to-end orchestration: tie, partition, shuffle, account, measure,
and release.

A run ties the query's attributes of a loaded dataset into one
channel, shuffles under the configured scheme, and releases the count
measured on the shuffled output together with its privacy budget.  The
tie and the query's one evaluation on the tied input rows are
``utility._tie_workload``, the setup a risk sweep shares: a grid run
ties its query and workload in one call and ranks on that table, in IS
mode only.  Each attempt counts through its shuffle's group orders
(``utility.count_through``) without building the shuffled table, and
draws none when the query's channels lie in one group of its plan, whose
count is then c (``utility._released_counts``).  If
the released count violates its loss bound the run re-shuffles with a
fresh derived seed, up to ``max_retries`` times.  CIS is refused unless
n1 = 2, where epsilon and loss bound are 0: exact count or no release.

The emitted report never contains the input count, raw rows, or the
permutations; reruns with the same inputs produce byte-identical JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .dataset import Dataset, DatasetError, Schema, fields_dict, load_csv
from .partition import build_plan, plan_batches
from .privacy import account, epsilon_is
from .queryplan import QuerySpec, parse_query, validate_query
from .seeds import derive_seed
from .shuffler import _stage_runs
from .utility import (
    RiskConfig,
    Scheme,
    SchemeSelection,
    _rank,
    _released_counts,
    _tie_workload,
    count_hits,
    measure_utility,
    select_scheme,
)


class ConfigError(ValueError):
    """Raised for malformed or incomplete run configurations."""


class PipelineRefused(RuntimeError):
    """Raised instead of releasing under a negative privacy budget."""

    def __init__(self, message: str, epsilon: float):
        super().__init__(message)
        self.epsilon = epsilon


class RetriesExhausted(RuntimeError):
    """Raised when no retry produced a bound-satisfying release.

    ``attempts`` holds each attempt's c', loss and bound, which are
    functions of the input count; the message names none of them.
    """

    def __init__(self, message: str, attempts: tuple[AttemptRecord, ...]):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class AttemptRecord:
    attempt: int
    c_prime: int
    loss: float
    loss_bound: float


@dataclass(frozen=True)
class PipelineConfig:
    """Run parameters, usually loaded from a JSON config file."""

    seed: int
    t: int | None = None
    S: int | None = None
    mode: str = "IS"
    lam: float = 0.01
    max_retries: int = 16
    hypothesis_grid: tuple[Scheme, ...] = ()
    trials: int = 4
    tied_attributes: tuple[str, ...] | None = None
    time_attribute: str | None = None
    schema_path: str | None = None
    workload: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("IS", "CIS"):
            raise ConfigError(f"mode must be 'IS' or 'CIS', got {self.mode!r}")
        if (self.t is None) != (self.S is None):
            raise ConfigError("t and S must be configured together")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.tied_attributes is not None and not self.tied_attributes:
            raise ConfigError("'tied_attributes' must name at least one attribute")


_KINDS = {"an integer": int, "a number": (int, float), "a string": str, "a list": list}


def _check(value: object, kind: str, key: str):
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        raise ConfigError(f"{key!r} must be {kind}, got {value!r}")
    return value


def _float(value: int | float, key: str) -> float:
    """A JSON number as a float; an integer too large for one is rejected."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(
            f"{key} must be finite, got an integer too large for a float"
        ) from None


def _same(value: object, key: str) -> object:
    return value


def _strings(items: list, key: str) -> tuple[str, ...]:
    return tuple(_check(item, "a string", key) for item in items)


def _parse_grid(entries: list, key: str) -> tuple[Scheme, ...]:
    grid = []
    for entry in entries:
        if isinstance(entry, dict) and entry.keys() <= {"t", "S"}:
            missing = [name for name in ("t", "S") if name not in entry]
            if missing:
                raise ConfigError(
                    f'{key!r} must be [t, S] or {{"t": t, "S": S}}; entry '
                    f"{entry!r} lacks {' and '.join(map(repr, missing))}"
                )
            entry = [entry["t"], entry["S"]]
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(
                f"{key!r} entries must be [t, S] or "
                f'{{"t": t, "S": S}}, got {entry!r}'
            )
        t, s = (_check(v, "an integer", key) for v in entry)
        grid.append(Scheme(t, s))
    return tuple(grid)


# Every config key, in the order load_config checks them: the JSON key,
# then the PipelineConfig field it sets, the JSON kind it must have and
# the conversion of a value of that kind.  A key that is absent or null
# leaves the field at its PipelineConfig default.
_CONFIG_KEYS = {
    "seed": ("seed", "an integer", _same),
    "t": ("t", "an integer", _same),
    "S": ("S", "an integer", _same),
    "mode": ("mode", "a string", _same),
    "lambda": ("lam", "a number", _float),
    "max_retries": ("max_retries", "an integer", _same),
    "hypothesis_grid": ("hypothesis_grid", "a list", _parse_grid),
    "trials": ("trials", "an integer", _same),
    "tied_attributes": ("tied_attributes", "a list", _strings),
    "time_attribute": ("time_attribute", "a string", _same),
    "schema": ("schema_path", "a string", _same),
    "workload": ("workload", "a list", _strings),
}


def _read_json(path: str, error: type[ValueError]) -> object:
    """The JSON value in the file ``path``; a file that holds none raises
    ``error`` naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError: malformed JSON, bytes that are not UTF-8, or an
            # integer literal too long to convert; RecursionError: arrays
            # or objects nested too deep to decode.
            raise error(f"{path}: invalid JSON ({exc})") from None


def load_config(path: str) -> PipelineConfig:
    """Read a JSON config file, rejecting unknown keys and ill-typed values."""
    raw = _read_json(path, ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = raw.keys() - _CONFIG_KEYS.keys()
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)!r}")
    if raw.get("seed") is None:
        raise ConfigError(f"{path}: config needs a 'seed'")
    given = {}
    try:
        for key, (name, kind, convert) in _CONFIG_KEYS.items():
            if raw.get(key) is not None:
                given[name] = convert(_check(raw[key], kind, key), key)
        return PipelineConfig(**given)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class DPReport:
    """The released artifact: answer, budget, and audit trail.

    Deliberately excludes the input count, the rows, and the drawn
    permutations; everything here is safe to publish.
    """

    query: str
    c_prime: int
    epsilon_signed: float
    epsilon_report: float
    loss_bound: float
    plan_digest: str
    seed: int
    retries_used: int
    t: int
    S: int
    mode: str
    bound_status: str

    def to_dict(self) -> dict:
        return fields_dict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [
            f"query:          {self.query}",
            f"released count: {self.c_prime}",
            f"epsilon:        {self.epsilon_report:.6f} "
            f"(signed {self.epsilon_signed:+.6f})",
            f"loss bound:     {self.loss_bound:.6f} ({self.bound_status})",
            f"scheme:         t={self.t} batches, S={self.S} shufflers, "
            f"mode {self.mode}",
            f"retries used:   {self.retries_used}",
            f"seed:           {self.seed}",
            f"plan digest:    {self.plan_digest}",
        ]
        return "\n".join(lines) + "\n"


REPORT_FIELDS = tuple(f.name for f in fields(DPReport))


def _risk_config(config: PipelineConfig) -> RiskConfig:
    """The sweep inputs of ``config``, whose grid is about to be ranked."""
    if config.mode != "IS":
        raise ConfigError(
            f"a hypothesis_grid is ranked by IS trials, not {config.mode!r}; configure t and S"
        )
    return RiskConfig(
        hypothesis_grid=config.hypothesis_grid,
        workload=config.workload,
        lam=config.lam,
        trials_per_scheme=config.trials,
        tied_attributes=config.tied_attributes,
        time_attribute=config.time_attribute,
    )


def run_on_dataset(
    config: PipelineConfig, dataset: Dataset, query: QuerySpec
) -> DPReport:
    """Run the full release flow on an in-memory dataset; a grid is ranked
    on the workload, or else the query, in the table the release shuffles."""
    query = validate_query(query, dataset.schema)
    if config.t is None and not config.hypothesis_grid:
        raise ConfigError("configure t and S, or provide a hypothesis_grid to search")
    risk = None if config.t is not None else _risk_config(config)
    workload = risk.workload if risk else ()
    tied_db, (hits, *workload_hits) = _tie_workload(
        dataset, (query, *workload), config.tied_attributes, config.time_attribute
    )
    channels = tuple(ch.name for ch in tied_db.channels)
    if risk is None:
        scheme = Scheme(config.t, config.S)
    else:
        seed = derive_seed(config.seed, "select")
        scheme = _rank(risk, tied_db, workload_hits or [hits], seed).best

    sizes = plan_batches(tied_db.n, scheme.t)
    acct = account(config.mode, sizes, scheme.S)
    if config.mode == "CIS" and acct.epsilon < 0:
        raise PipelineRefused(
            f"cumulative shuffling with t={scheme.t}, S={scheme.S} on "
            f"{tied_db.n} rows (largest batch {sizes[0]}) has negative "
            f"privacy budget {acct.epsilon:.6f}; release refused, use "
            f"per-batch mode or a larger batch count",
            epsilon=acct.epsilon,
        )

    c = count_hits(hits)
    runs = _stage_runs(sizes, config.mode)
    attempts: list[AttemptRecord] = []
    for attempt in range(config.max_retries + 1):
        plan = build_plan(
            tied_db.n,
            scheme.t,
            channels,
            scheme.S,
            derive_seed(config.seed, "attempt", attempt),
        )
        (c_prime,) = _released_counts(
            tied_db.n, runs, plan.attribute_groups, plan.seed, config.mode, [hits], [c]
        )
        util = measure_utility(c, c_prime, acct.epsilon)
        if util.bound_satisfied:
            return DPReport(
                query=query.text(),
                c_prime=c_prime,
                epsilon_signed=acct.epsilon,
                epsilon_report=acct.epsilon_report,
                loss_bound=util.loss_bound,
                plan_digest=plan.digest(),
                seed=config.seed,
                retries_used=attempt,
                t=scheme.t,
                S=scheme.S,
                mode=config.mode,
                bound_status="satisfied",
            )
        attempts.append(
            AttemptRecord(attempt, c_prime, util.loss, util.loss_bound)
        )
    raise RetriesExhausted(
        f"loss bound still violated after {config.max_retries} retries; "
        f"no report released",
        attempts=tuple(attempts),
    )


def _load_inputs(
    config: PipelineConfig, dataset_path: str, schema_path: str | None
) -> Dataset:
    schema_file = schema_path or config.schema_path
    if schema_file is None:
        raise ConfigError(
            "a schema file is required (flag --schema or config 'schema')"
        )
    raw = _read_json(schema_file, DatasetError)
    try:
        schema = Schema.from_dict(raw)
    except DatasetError as exc:
        raise DatasetError(f"{schema_file}: {exc}") from None
    return load_csv(dataset_path, schema)


def run_pipeline(
    config: PipelineConfig,
    dataset_path: str,
    query_text: str,
    schema_path: str | None = None,
) -> DPReport:
    """Run the full release flow from files on disk."""
    dataset = _load_inputs(config, dataset_path, schema_path)
    query = parse_query(query_text, dataset.schema, config.time_attribute)
    return run_on_dataset(config, dataset, query)


def risk_sweep(
    config: PipelineConfig, dataset_path: str, schema_path: str | None = None
) -> SchemeSelection:
    """Rank the configured hypothesis grid on the configured workload."""
    dataset = _load_inputs(config, dataset_path, schema_path)
    if not config.workload:
        raise ConfigError("a risk sweep needs a non-empty 'workload' in the config")
    return select_scheme(_risk_config(config), dataset, derive_seed(config.seed, "select"))


# Reference configurations: rows, batches, largest batch as stated,
# shufflers, and the previously reported budget magnitude.
REFERENCE_EPSILONS: tuple[tuple[int, int, int, int, float], ...] = (
    (1_000, 130, 7, 3, 0.50),
    (11_000, 1_000, 11, 3, 0.0),
    (100_000, 5_500, 18, 3, 0.11),
    (1_000_000, 31_000, 32, 3, 0.03),
    (100_000_000, 1_000_000, 99, 3, 0.03),
    (1_000, 100, 10, 2, 0.2),
    (11_000, 500, 22, 2, 0.12),
    (100_000, 2_200, 45, 2, 0.1),
    (1_000_000, 10_000, 100, 2, 0.02),
    (100_000_000, 218_000, 458, 2, 0.04),
)

# A recomputed row counts as matching when its signed budget is
# non-negative and its magnitude lands within max(0.005, 10%) of the
# reported value; the rest are listed as discrepancies.
_ABS_TOL = 0.005
_REL_TOL = 0.10


@dataclass(frozen=True)
class ReferenceRow:
    index: int
    n: int
    t: int
    n1: int
    S: int
    reported: float
    epsilon_signed: float
    epsilon_magnitude: float
    delta: float
    matches: bool
    note: str = ""


@dataclass(frozen=True)
class ReferenceReport:
    rows: tuple[ReferenceRow, ...]
    note: str = field(
        default=(
            "Budgets recomputed as ln(t / (n1-1)^S) with the batch sizes as "
            "stated; rows whose stated n1 disagrees with n/t are taken at "
            "face value.  Reported values are magnitudes, so rows with a "
            "negative recomputed budget are flagged."
        )
    )

    @property
    def matches(self) -> tuple[ReferenceRow, ...]:
        return tuple(row for row in self.rows if row.matches)

    @property
    def discrepancies(self) -> tuple[ReferenceRow, ...]:
        return tuple(row for row in self.rows if not row.matches)

    def to_dict(self) -> dict:
        return {
            "note": self.note,
            "rows": [fields_dict(row) for row in self.rows],
            "matches": [row.index for row in self.matches],
            "discrepancies": [row.index for row in self.discrepancies],
        }

    def to_text(self) -> str:
        header = (
            f"{'row':>3} {'n':>11} {'t':>9} {'n1':>5} {'S':>2} "
            f"{'reported':>9} {'computed':>9} {'signed':>10} {'delta':>8}  status"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            status = "ok" if row.matches else "DISCREPANCY"
            lines.append(
                f"{row.index:>3} {row.n:>11} {row.t:>9} {row.n1:>5} {row.S:>2} "
                f"{row.reported:>9.2f} {row.epsilon_magnitude:>9.4f} "
                f"{row.epsilon_signed:>+10.4f} {row.delta:>8.4f}  {status}"
            )
        lines.append("")
        lines.append(f"matches: {[r.index for r in self.matches]}")
        lines.append("discrepancy section:")
        for row in self.discrepancies:
            lines.append(f"  row {row.index}: {row.note}")
        lines.append("")
        lines.append(self.note)
        return "\n".join(lines) + "\n"


def reproduce_table3() -> ReferenceReport:
    """Recompute every reference configuration's budget and diff it."""
    rows = []
    for index, (n, t, n1, s, reported) in enumerate(REFERENCE_EPSILONS, start=1):
        signed = epsilon_is(t, n1, s)
        magnitude = abs(signed)
        delta = abs(magnitude - reported)
        tolerance = max(_ABS_TOL, _REL_TOL * reported)
        matches = signed >= 0 and delta <= tolerance
        notes = []
        if signed < 0:
            notes.append(f"recomputed budget is negative ({signed:+.4f})")
        if delta > tolerance:
            notes.append(
                f"magnitude {magnitude:.4f} is {delta:.4f} from the reported "
                f"{reported}"
            )
        if n1 != math.ceil(n / t):
            notes.append(f"stated n1={n1} but n/t gives {math.ceil(n / t)}")
        rows.append(
            ReferenceRow(
                index=index,
                n=n,
                t=t,
                n1=n1,
                S=s,
                reported=reported,
                epsilon_signed=signed,
                epsilon_magnitude=magnitude,
                delta=delta,
                matches=matches,
                note="; ".join(notes),
            )
        )
    return ReferenceReport(rows=tuple(rows))
