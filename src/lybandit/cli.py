"""Command-line frontend: oracle / run / sweep over a JSON experiment config.

Exit codes: 0 success, 1 usage, schema or I/O error, out of memory or any
other input the library refuses (one ``error:`` line), 2 infeasible model
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

Arm means lie in [0, 1], with x_mean in (0, 1].  Policy types: stationary
(optional "p", default is the oracle mixture), lyoff, lyon, ucb_bwi, and
static:<k> with a 1-based arm index in ASCII digits.  Omitted policy fields
take the PolicySpec defaults.  A key not shown above is refused.
"policies" and "budgets" are required, with at least one policy and
distinct budgets; the config and the output files must be distinct files.
Arm ids in all output (alloc columns, oracle support) are 1-based.

The ``lybandit`` console script and ``python -m lybandit.cli`` both enter
through :func:`console`, which freezes the heap built at import
(``gc.freeze()``) before it runs :func:`main`, so the interpreter's exit
collections skip it.  :func:`main` itself never freezes: in-process callers
keep normal collection.  ``oracle`` never loads the engine.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import json
import numbers
import os
import sys
from dataclasses import replace
from pathlib import Path

from .harness import AggregateResult, RunConfig, run_batch, sweep_scaling
from .model import (
    KIND_BERNOULLI,
    KIND_SCALED_UNIFORM,
    ArmSpec,
    Instance,
    SlaterViolation,
    check_real,
)
from .oracle import Infeasible, OracleSolution, solve_lfp
from .policies import DeltaOutOfRange, PolicySpec

__all__ = ["ConfigError", "console", "load_config", "main", "write_results_csv"]

_ARM_KINDS = (KIND_BERNOULLI, KIND_SCALED_UNIFORM)
# optional policy fields, passed to PolicySpec as given; it owns their
# defaults and checks
_POLICY_FIELDS = ("p", "v0", "delta0", "alpha", "index_variant", "exploration", "schedule")
# the keys each config object may have
_CONFIG_KEYS = ("instance", "policies", "budgets", "runs", "seed")
_INSTANCE_KEYS = ("arms", "c")
_ARM_KEYS = ("x_mean", "r_mean", "y_mean", "kind")
_POLICY_KEYS = ("type", "name", *_POLICY_FIELDS)


class ConfigError(ValueError):
    """Experiment config violates the schema."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # infeasible models, so remap usage problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _need(doc, key: str, where: str, keys: tuple[str, ...]):
    """``doc[key]``, where ``doc`` must be a JSON object with only the given ``keys``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = [k for k in doc if k not in keys]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    if key not in doc:
        raise ConfigError(f"missing {key!r} in {where}")
    return doc[key]


def _parse_instance(doc: dict) -> Instance:
    inst = _need(doc, "instance", "config", _CONFIG_KEYS)
    arms_doc = _need(inst, "arms", "instance", _INSTANCE_KEYS)
    if not isinstance(arms_doc, list) or not arms_doc:
        raise ConfigError("instance.arms must be a non-empty list")
    arms = []
    for i, arm in enumerate(arms_doc):
        where = f"instance.arms[{i}]"
        means = [_need(arm, key, where, _ARM_KEYS) for key in ("x_mean", "r_mean", "y_mean")]
        kind = arm.get("kind", KIND_BERNOULLI)
        if kind not in _ARM_KINDS:
            raise ConfigError(
                f"{where}.kind must be one of {_ARM_KINDS} "
                "(joint tables are library-only)"
            )
        try:
            # a zero-cost arm never depletes a budget: library-only, with a cap
            check_real(means[0], "x_mean", 0.0, 1.0, open_low=True)
            arms.append(ArmSpec(kind, *means))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    c = _need(inst, "c", "instance", _INSTANCE_KEYS)
    try:
        return Instance(arms, check_real(c, "instance.c", 0.0, 1.0, open_low=True))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_policy(doc, index: int, n_arms: int) -> PolicySpec:
    where = f"policies[{index}]"
    ptype = _need(doc, "type", where, _POLICY_KEYS)
    arm = None
    if isinstance(ptype, str) and ptype.startswith("static:"):
        # int() would also take signs, spaces, underscores and non-ASCII digits
        digits = ptype.split(":", 1)[1]
        if not (digits.isascii() and digits.isdigit()):
            raise ConfigError(f"{where}.type static arm must be an integer in ASCII digits")
        k = int(digits)
        # checked here so the message names the 1-based k the config wrote
        if not 1 <= k <= n_arms:
            raise ConfigError(f"{where}: static arm {k} is out of range 1..{n_arms}")
        arm = k - 1
    try:
        return PolicySpec(
            name=doc["name"] if "name" in doc else str(ptype),
            type="static" if arm is not None else ptype,
            arm=arm,
            **{key: doc[key] for key in _POLICY_FIELDS if key in doc},
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
    instance = _parse_instance(doc)
    policies_doc = _need(doc, "policies", "config", _CONFIG_KEYS)
    if not isinstance(policies_doc, list):
        raise ConfigError("policies must be a list")
    policies = tuple(
        _parse_policy(p, i, instance.n_arms) for i, p in enumerate(policies_doc)
    )

    budgets = _need(doc, "budgets", "config", _CONFIG_KEYS)
    if not isinstance(budgets, list):
        raise ConfigError("budgets must be a list of numbers")
    try:
        return RunConfig(
            instance=instance,
            policies=policies,
            budgets=tuple(budgets),
            runs=doc.get("runs", 1),
            master_seed=doc.get("seed", 0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, numbers.Integral):
        return str(value)
    return format(float(value), ".9g")


# CellStats fields of a results row, between the budget and the allocation
_STAT_COLUMNS = (
    "runs",
    "mean_reward_rate",
    "se_reward_rate",
    "mean_violation",
    "se_violation",
    "mean_regret",
    "se_regret",
    "mean_n_pulls",
    "cap_hits",
)


def results_header(n_arms: int) -> str:
    alloc = [f"alloc_{k + 1}" for k in range(n_arms)]
    return ",".join(["policy", "B", *_STAT_COLUMNS, *alloc])


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    # csv quoting keeps a policy name with a comma, quote or newline in one field
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(result: AggregateResult, path: str | Path) -> None:
    """Write the aggregate table; bytes are deterministic given the seed."""
    rows = (
        [c.policy, _fmt(c.budget)]
        + [_fmt(getattr(c, name)) for name in _STAT_COLUMNS]
        + [_fmt(a) for a in c.alloc_cost]
        for c in result.cells
    )
    _write_csv(path, results_header(result.oracle.p_star.size).split(","), rows)


def write_scaling_csv(result: AggregateResult, path: str | Path) -> list[str]:
    """Write per-policy normalized regret/violation columns; returns summaries."""
    rows = []
    summaries = []
    for spec_name in dict.fromkeys(c.policy for c in result.cells):
        report = sweep_scaling(result.series(spec_name))
        for i, b in enumerate(report.budgets):
            values = (b, report.mean_regret[i], report.regret_norm[i],
                      report.violation_norm[i], report.loglog_slope)
            rows.append([report.policy, *map(_fmt, values)])
        summaries.append(f"{report.policy}: log-log regret slope {report.loglog_slope:.4f}")
    header = ["policy", "B", "mean_regret", "regret_norm", "violation_norm", "loglog_slope"]
    _write_csv(path, header, rows)
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
                **{name: getattr(c, name) for name in _STAT_COLUMNS},
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


def cmd_run(args) -> int:
    """``run``, and ``sweep`` (``args.command``), which adds the scaling report."""
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    sweep = args.command == "sweep"
    if sweep and len(config.budgets) < 3:
        raise ConfigError("need >=3 budgets")
    scaling_path = (args.scaling_out or _default_scaling_path(args.out)) if sweep else None
    # no output may overwrite the config or the other output
    named = {}
    for flag, path in (("--config", args.config), ("--out", args.out),
                       ("--scaling-out", scaling_path)):
        if path is None:
            continue
        other = named.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ConfigError(f"{other} and {flag} name the same file {path!r}")
    # an output that cannot be written fails here, not after the simulation;
    # the probe leaves no file that was not there
    for path in filter(None, (args.out, scaling_path)):
        existed = os.path.lexists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)
    result = run_batch(config)
    write_results_csv(result, args.out)
    lines = [f"wrote {len(result.cells)} rows to {args.out}"]
    if sweep:
        summaries = write_scaling_csv(result, scaling_path)
        lines += [f"wrote scaling report to {scaling_path}", *summaries]
    print(json.dumps(_cells_json(result)) if args.json else "\n".join(lines))
    return 0


def _default_scaling_path(out: str) -> str:
    path = Path(out)
    return str(path.with_name(path.stem + "_scaling" + (path.suffix or ".csv")))


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
    p_sweep.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (Infeasible, SlaterViolation, DeltaOutOfRange) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    # a config error, any other input the library refuses during the run, or
    # an engine worker process that died: an OSError, but no I/O fault
    except (ValueError, ChildProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # the engine's shared mmap and its fork report exhausted memory as ENOMEM
        kind = "error: out of memory" if exc.errno == errno.ENOMEM else "io error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    """The ``lybandit`` process: :func:`main` on ``sys.argv``, then exit with its code.

    Every object alive here (the interpreter's, numpy's and this package's)
    lives until the process ends, so it moves to the permanent generation
    first: no collection during the run, nor at exit, visits or frees it,
    and the engine's forked workers inherit it frozen.  Only the process
    entry freezes; :func:`main` called in process does not.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    console()
