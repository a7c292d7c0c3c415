"""Command-line interface.

Subcommands:

    run         release a count-query answer as a DPReport
    epsilon     recompute privacy budgets for a (t, n1, S) configuration
    risk-sweep  rank a hypothesis grid by regularized empirical risk
    table3      recompute the bundled reference configurations and diff
    oracle-rr   Monte-Carlo check of the single-batch likelihood ratio

One parser, built once per process at import, parses every call of
``main``.

Exit codes: 0 success, 1 invalid input, 2 release refused, 3 retries
exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .dataset import fields_dict
from .partition import batch_runs
from .pipeline import (
    PipelineRefused,
    RetriesExhausted,
    load_config,
    reproduce_table3,
    risk_sweep,
    run_pipeline,
)
from .privacy import epsilon_cis, epsilon_is, mc_rr_estimate, rr_batch


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: top-level usage and help, and every subcommand
    with its help text, handler and arguments.  Module scope builds it
    once, as ``_PARSER``, which ``main`` parses with."""
    parser = argparse.ArgumentParser(
        prog="dpshuffle",
        description="Differentially private count reporting via batched "
        "iterative shuffling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="release one count-query answer")
    run.set_defaults(func=_cmd_run)
    run.add_argument("--config", required=True, help="JSON config file")
    run.add_argument("--dataset", required=True, help="CSV dataset, first column is the row ID")
    run.add_argument(
        "--query", required=True, help='e.g. "count where age < 40 and weight > 60"'
    )
    run.add_argument("--schema", help="JSON schema file (overrides the config)")
    run.add_argument("--json", action="store_true", help="emit the report as JSON")
    run.add_argument("--out", help="also write the JSON report to this file")

    eps = sub.add_parser("epsilon", help="recompute privacy budgets")
    eps.set_defaults(func=_cmd_epsilon)
    eps.add_argument("--batches", "-t", type=int, required=True, help="batch count t")
    eps.add_argument("--shufflers", "-S", type=int, required=True, help="shuffler count S")
    size = eps.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, help="row count; the largest batch is derived")
    size.add_argument("--n1", type=int, help="largest batch size, given directly")
    eps.add_argument("--json", action="store_true")

    sweep = sub.add_parser("risk-sweep", help="rank candidate (t, S) schemes")
    sweep.set_defaults(func=_cmd_risk_sweep)
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--dataset", required=True)
    sweep.add_argument("--schema")
    sweep.add_argument("--json", action="store_true")

    table = sub.add_parser("table3", help="recompute the bundled reference configurations")
    table.set_defaults(func=_cmd_table3)
    table.add_argument("--json", action="store_true")
    table.add_argument("--out", help="write the JSON diff to this file")

    oracle = sub.add_parser("oracle-rr", help="Monte-Carlo check of the single-batch ratio")
    oracle.set_defaults(func=_cmd_oracle)
    oracle.add_argument("--n1", type=int, required=True, help="batch size")
    oracle.add_argument("--shufflers", "-S", type=int, required=True)
    oracle.add_argument("--trials", type=int, default=1_000_000)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--json", action="store_true")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    return _write_report(args, run_pipeline(config, args.dataset, args.query, args.schema))


def _cmd_epsilon(args: argparse.Namespace) -> int:
    t, s = args.batches, args.shufflers
    n1 = args.n1 if args.n is None else batch_runs(args.n, t)[0][0]
    is_eps = epsilon_is(t, n1, s)
    cis_eps = epsilon_cis(n1, s)
    payload = {
        "t": t,
        "S": s,
        "n1": n1,
        "ratio_per_batch": rr_batch(n1, s),
        "epsilon_is_signed": is_eps,
        "epsilon_is": abs(is_eps),
        "epsilon_cis_signed": cis_eps,
        "epsilon_cis": abs(cis_eps),
        "ln_t": math.log(t),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"t={t} batches, S={s} shufflers, largest batch n1={n1}")
        print(f"per-batch ratio 1/(n1-1)^S: {payload['ratio_per_batch']:.6g}")
        print(f"per-batch mode (IS):  epsilon = {is_eps:+.6f} (magnitude {abs(is_eps):.6f})")
        print(f"cumulative mode (CIS): epsilon = {cis_eps:+.6f} (magnitude {abs(cis_eps):.6f})")
        print(f"difference IS - CIS = ln t = {math.log(t):.6f}")
    return 0


def _cmd_risk_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    selection = risk_sweep(config, args.dataset, args.schema)
    if args.json:
        _emit_json(selection.to_dict())
        return 0
    header = (
        f"{'t':>7} {'S':>3} {'n1':>6} {'mean_loss':>10} {'penalty':>9} "
        f"{'risk':>10} {'bound':>10} {'epsilon':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in selection.table:
        print(
            f"{row.scheme.t:>7} {row.scheme.S:>3} {row.n1:>6} "
            f"{row.result.mean_loss:>10.4f} {row.result.penalty:>9.4f} "
            f"{row.result.risk:>10.4f} {row.result.bound:>10.4f} "
            f"{row.result.epsilon:>+10.4f}"
        )
    print(f"selected scheme: t={selection.best.t}, S={selection.best.S}")
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    return _write_report(args, reproduce_table3())


def _cmd_oracle(args: argparse.Namespace) -> int:
    estimate = mc_rr_estimate(args.n1, args.shufflers, args.trials, args.seed)
    if args.json:
        payload = fields_dict(estimate)
        payload["S"] = payload.pop("num_shufflers")
        _emit_json({**payload, "deviation_in_se": estimate.deviation_in_se})
    else:
        print(
            f"n1={estimate.n1}, S={estimate.num_shufflers}, "
            f"trials={estimate.trials}"
        )
        print(
            f"fixed in all groups:     {estimate.fixed_runs}\n"
            f"displaced in all groups: {estimate.displaced_runs}"
        )
        print(
            f"estimated ratio: {estimate.ratio:.6g} "
            f"(std error {estimate.std_error:.3g})"
        )
        print(
            f"analytic ratio:  {estimate.analytic_ratio:.6g} "
            f"({estimate.deviation_in_se:.2f} std errors away)"
        )
    return 0


def _write_report(args: argparse.Namespace, report) -> int:
    """Print the report's text, or its JSON with ``--json``; ``--out``
    also writes the JSON to that file."""
    as_json = _json_text(report.to_dict()) if args.json or args.out else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(as_json)
    sys.stdout.write(as_json if args.json else report.to_text())
    return 0


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_json(payload: dict) -> None:
    sys.stdout.write(_json_text(payload))


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) with ``_PARSER``, run the
    subcommand and give its exit code; a usage error or help exits through
    ``SystemExit``."""
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except PipelineRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except RetriesExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# Built at import, so that building it is a cost of starting the process,
# not of each call: a parse keeps no state in the parser.
_PARSER = build_parser()


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
