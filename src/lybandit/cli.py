"""Command-line frontend: oracle / run / sweep over a JSON experiment config.

Exit codes: 0 success, 1 usage or schema or I/O error, 2 infeasible model
(no admissible mixture, no Slater arm, or a scheduled delta reaching c).

Config document::

    {
      "instance": {
        "arms": [{"x_mean": 0.4, "r_mean": 0.8, "y_mean": 0.6,
                  "kind": "independent-bernoulli"}, ...],
        "c": 0.8
      },
      "policies": [{"name": "lyon", "type": "lyon", "v0": 1.0, "delta0": 0.5,
                    "alpha": 2.0, "index_variant": "lcb-both",
                    "exploration": 1}, ...],
      "budgets": [250, 500, 1000],
      "runs": 2000,
      "seed": 12345
    }

Policy types: stationary (optional "p", default is the oracle mixture),
lyoff, lyon, ucb_bwi, and static:<k> with a 1-based arm index.  Arm ids in
all output (alloc columns, oracle support) are 1-based.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .harness import AggregateResult, CellStats, RunConfig, run_batch, sweep_scaling
from .model import (
    KIND_BERNOULLI,
    KIND_SCALED_UNIFORM,
    ArmSpec,
    Instance,
    SlaterViolation,
)
from .oracle import Infeasible, OracleSolution, solve_lfp
from .policies import DeltaOutOfRange, PolicySpec

__all__ = ["ConfigError", "load_config", "main", "write_results_csv"]

_ARM_KINDS = (KIND_BERNOULLI, KIND_SCALED_UNIFORM)


class ConfigError(ValueError):
    """Experiment config violates the schema."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # infeasible models, so remap usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"missing {key!r} in {where}")
    return doc[key]


def _mean(doc: dict, key: str, where: str) -> float:
    value = _need(doc, key, where)
    if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
        raise ConfigError(f"{where}.{key} must be a number in [0, 1]")
    return float(value)


def _parse_instance(doc: dict) -> Instance:
    inst = _need(doc, "instance", "config")
    arms_doc = _need(inst, "arms", "instance")
    if not isinstance(arms_doc, list) or not arms_doc:
        raise ConfigError("instance.arms must be a non-empty list")
    arms = []
    for i, arm in enumerate(arms_doc):
        where = f"instance.arms[{i}]"
        kind = arm.get("kind", KIND_BERNOULLI)
        if kind not in _ARM_KINDS:
            raise ConfigError(
                f"{where}.kind must be one of {_ARM_KINDS} "
                "(joint tables are library-only)"
            )
        arms.append(
            ArmSpec(
                kind,
                _mean(arm, "x_mean", where),
                _mean(arm, "r_mean", where),
                _mean(arm, "y_mean", where),
            )
        )
    c = _need(inst, "c", "instance")
    if not isinstance(c, (int, float)) or not 0.0 < float(c) <= 1.0:
        raise ConfigError("instance.c must be a number in (0, 1]")
    return Instance(arms, float(c))


def _parse_policy(doc: dict, index: int) -> PolicySpec:
    where = f"policies[{index}]"
    ptype = _need(doc, "type", where)
    arm = None
    if isinstance(ptype, str) and ptype.startswith("static:"):
        try:
            arm_id = int(ptype.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"{where}.type static arm must be an integer") from None
        ptype, arm = "static", arm_id - 1

    p = doc.get("p")
    if p is not None and not isinstance(p, list):
        raise ConfigError(f"{where}.p must be a list of probabilities")
    exploration = doc.get("exploration", 1)
    if isinstance(exploration, bool) or not isinstance(exploration, (int, str)):
        raise ConfigError(f"{where}.exploration must be an integer or 'theoretical'")
    try:
        return PolicySpec(
            name=str(doc.get("name", doc["type"])),
            type=ptype,
            arm=arm,
            p=None if p is None else tuple(float(v) for v in p),
            v0=float(doc.get("v0", 1.0)),
            delta0=float(doc.get("delta0", 0.5)),
            alpha=float(doc.get("alpha", 2.0)),
            index_variant=str(doc.get("index_variant", "lcb-both")),
            exploration=exploration,
            schedule=str(doc.get("schedule", "sqrt")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate an experiment config document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    try:
        instance = _parse_instance(doc)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    policies_doc = doc.get("policies", [])
    if not isinstance(policies_doc, list):
        raise ConfigError("policies must be a list")
    policies = tuple(_parse_policy(p, i) for i, p in enumerate(policies_doc))

    budgets = doc.get("budgets", [])
    if not isinstance(budgets, list) or not all(
        isinstance(b, (int, float)) and not isinstance(b, bool) for b in budgets
    ):
        raise ConfigError("budgets must be a list of numbers")
    runs = doc.get("runs", 1)
    if isinstance(runs, bool) or not isinstance(runs, int) or runs < 1:
        raise ConfigError("runs must be a positive integer")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    try:
        return RunConfig(
            instance=instance,
            policies=policies,
            budgets=tuple(float(b) for b in budgets),
            runs=runs,
            master_seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def results_header(n_arms: int) -> str:
    alloc = ",".join(f"alloc_{k + 1}" for k in range(n_arms))
    return (
        "policy,B,runs,mean_reward_rate,se_reward_rate,mean_violation,"
        "se_violation,mean_regret,se_regret,mean_n_pulls,cap_hits," + alloc
    )


def _results_row(cell: CellStats) -> str:
    fields = [
        cell.policy,
        _fmt(cell.budget),
        str(cell.runs),
        _fmt(cell.mean_reward_rate),
        _fmt(cell.se_reward_rate),
        _fmt(cell.mean_violation),
        _fmt(cell.se_violation),
        _fmt(cell.mean_regret),
        _fmt(cell.se_regret),
        _fmt(cell.mean_n_pulls),
        str(cell.cap_hits),
    ]
    fields.extend(_fmt(a) for a in cell.alloc_cost)
    return ",".join(fields)


def write_results_csv(result: AggregateResult, n_arms: int, path: str | Path) -> None:
    """Write the aggregate table; bytes are deterministic given the seed."""
    lines = [results_header(n_arms)]
    lines.extend(_results_row(cell) for cell in result.cells)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_scaling_csv(result: AggregateResult, path: str | Path) -> list[str]:
    """Write per-policy normalized regret/violation columns; returns summaries."""
    lines = ["policy,B,mean_regret,regret_norm,violation_norm,loglog_slope"]
    summaries = []
    for spec_name in dict.fromkeys(c.policy for c in result.cells):
        report = sweep_scaling(result.series(spec_name))
        for i, b in enumerate(report.budgets):
            lines.append(
                ",".join(
                    [
                        report.policy,
                        _fmt(b),
                        _fmt(report.mean_regret[i]),
                        _fmt(report.regret_norm[i]),
                        _fmt(report.violation_norm[i]),
                        _fmt(report.loglog_slope),
                    ]
                )
            )
        summaries.append(f"{report.policy}: log-log regret slope {report.loglog_slope:.4f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return summaries


def _oracle_json(sol: OracleSolution) -> dict:
    return {
        "p_star": [float(v) for v in sol.p_star],
        "r_star": sol.r_star,
        "y_star": sol.y_star,
        "support": [k + 1 for k in sol.support],
    }


def _cells_json(result: AggregateResult) -> dict:
    return {
        "oracle": _oracle_json(result.oracle),
        "regret_benchmark": "r_star * B (stationary-oracle lower bound)",
        "cells": [
            {
                "policy": c.policy,
                "B": c.budget,
                "runs": c.runs,
                "mean_reward_rate": c.mean_reward_rate,
                "se_reward_rate": c.se_reward_rate,
                "mean_violation": c.mean_violation,
                "se_violation": c.se_violation,
                "mean_regret": c.mean_regret,
                "se_regret": c.se_regret,
                "mean_n_pulls": c.mean_n_pulls,
                "cap_hits": c.cap_hits,
                "alloc_cost": [float(a) for a in c.alloc_cost],
                "alloc_pulls": [float(a) for a in c.alloc_pulls],
            }
            for c in result.cells
        ],
    }


def cmd_oracle(args) -> int:
    config = load_config(args.config)
    solution = solve_lfp(config.instance)
    if args.json:
        print(json.dumps(_oracle_json(solution)))
    else:
        p_txt = ", ".join(_fmt(v) for v in solution.p_star)
        print(f"p* = [{p_txt}]")
        print(f"r* = {_fmt(solution.r_star)}")
        print(f"y* = {_fmt(solution.y_star)}")
        print(f"support = {[k + 1 for k in solution.support]}")
    return 0


def _run_config(args) -> RunConfig:
    config = load_config(args.config)
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, master_seed=args.seed)
    return config


def cmd_run(args) -> int:
    config = _run_config(args)
    result = run_batch(config, threads=args.threads)
    write_results_csv(result, config.instance.n_arms, args.out)
    if args.json:
        print(json.dumps(_cells_json(result)))
    else:
        print(f"wrote {len(result.cells)} rows to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    config = _run_config(args)
    if len(config.budgets) < 3:
        raise ConfigError("need >=3 budgets")
    result = run_batch(config, threads=args.threads)
    write_results_csv(result, config.instance.n_arms, args.out)
    scaling_path = args.scaling_out or _default_scaling_path(args.out)
    summaries = write_scaling_csv(result, scaling_path)
    if args.json:
        print(json.dumps(_cells_json(result)))
    else:
        print(f"wrote {len(result.cells)} rows to {args.out}")
        print(f"wrote scaling report to {scaling_path}")
        for line in summaries:
            print(line)
    return 0


def _default_scaling_path(out: str) -> str:
    path = Path(out)
    return str(path.with_name(path.stem + "_scaling" + (path.suffix or ".csv")))


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        return max(1, value)
    env = os.environ.get("LYON_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"LYON_THREADS must be an integer, got {env!r}") from None
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lybandit",
        description="Constrained budgeted bandit experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out: bool):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        if needs_out:
            p.add_argument("--out", required=True, help="results CSV path")
            p.add_argument("--threads", type=int, default=None,
                           help="worker threads (never affects output bytes); "
                                "falls back to LYON_THREADS")
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")

    p_oracle = sub.add_parser("oracle", help="solve the stationary benchmark")
    common(p_oracle, needs_out=False)
    p_oracle.set_defaults(func=cmd_oracle)

    p_run = sub.add_parser("run", help="simulate the policy/budget grid")
    common(p_run, needs_out=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run plus budget-scaling report")
    common(p_sweep, needs_out=True)
    p_sweep.add_argument("--scaling-out", default=None,
                         help="scaling CSV path (default: <out>_scaling.csv)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if hasattr(args, "threads"):
        try:
            args.threads = _resolve_threads(args.threads)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (Infeasible, SlaterViolation, DeltaOutOfRange) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
