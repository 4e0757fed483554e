"""Correctness checks, run outside the timed region.

Every check names the cell it condemns, so a run reports how many of the
cells it attempted failed.  A cell is one (policy, budget) row of a CLI
results CSV.
"""

from __future__ import annotations

import math

import numpy as np

# mean total reward of stationary / static cells may sit this many standard
# errors outside the Wald band before the cell fails; the bar is wide because
# every run draws a fresh seed and a false alarm would reject a sound program
WALD_SE = 5.0


def episode_record(res) -> list:
    """Every field of an :class:`EpisodeResult` as plain Python numbers."""
    return [
        int(res.n_pulls),
        float(res.total_cost),
        float(res.total_reward),
        float(res.total_penalty),
        [float(v) for v in res.pulls_per_arm],
        [float(v) for v in res.cost_per_arm],
        float(res.q_final),
        float(res.q_max),
    ]


def batch_record(batch, e: int) -> list:
    """Row ``e`` of a :class:`BatchResult` in the layout of ``episode_record``."""
    return [
        int(batch.n_pulls[e]),
        float(batch.total_cost[e]),
        float(batch.total_reward[e]),
        float(batch.total_penalty[e]),
        [float(v) for v in batch.pulls_per_arm[e]],
        [float(v) for v in batch.cost_per_arm[e]],
        float(batch.q_final[e]),
        float(batch.q_max[e]),
    ]


def _bounds_or_none(instance):
    from lybandit.model import derive_bounds

    try:
        return derive_bounds(instance)
    except ValueError:
        return None


def cell_keys(config) -> list[tuple[str, float]]:
    return [(p.name, b) for p in config.policies for b in config.budgets]


def csv_rows(text: str, config, problems: list[str]) -> tuple[dict, set]:
    """Parse a results CSV; returns rows by cell and the cells that fail.

    Checks the header, the row count and order, the runs column, that every
    number is finite and that no episode hit the epoch cap.
    """
    from lybandit.cli import results_header

    keys = cell_keys(config)
    lines = text.splitlines()
    if not lines or lines[0] != results_header(config.instance.n_arms):
        problems.append("results header differs from results_header(K)")
        return {}, set(keys)
    body = lines[1:]
    if len(body) != len(keys):
        problems.append(f"{len(body)} rows, expected {len(keys)}")
        return {}, set(keys)
    rows, bad = {}, set()
    header = lines[0].split(",")
    for key, line in zip(keys, body):
        fields = line.split(",")
        if len(fields) != len(header) or fields[0] != key[0]:
            problems.append(f"row for {key} is malformed: {line[:80]}")
            bad.add(key)
            continue
        row = dict(zip(header, fields))
        nums = [float(v) for v in fields[1:]]
        if not all(math.isfinite(v) for v in nums):
            problems.append(f"non-finite value in row {key}")
            bad.add(key)
        elif float(row["B"]) != key[1] or int(row["runs"]) != config.runs:
            problems.append(f"row {key} has B={row['B']} runs={row['runs']}")
            bad.add(key)
        elif int(row["cap_hits"]) != 0:
            problems.append(f"row {key} hit the epoch cap {row['cap_hits']} times")
            bad.add(key)
        rows[key] = row
    return rows, bad


def csv_pulls(rows: dict) -> int:
    """Simulated pulls: sum over rows of runs x mean_n_pulls (an integer)."""
    return sum(round(int(r["runs"]) * float(r["mean_n_pulls"])) for r in rows.values())


def wald_cells(rows: dict, config, problems: list[str]) -> set:
    """Stationary / static cells whose mean total reward leaves the Wald band."""
    from lybandit.oracle import solve_lfp, wald_interval

    p_star = solve_lfp(config.instance).p_star
    specs = {p.name: p for p in config.policies}
    bad = set()
    for (name, budget), row in rows.items():
        spec = specs[name]
        if spec.type == "stationary":
            p = np.asarray(spec.p) if spec.p is not None else p_star
        elif spec.type == "static":
            p = np.eye(config.instance.n_arms)[spec.arm]
        else:
            continue
        lo, hi = wald_interval(p, config.instance, budget)
        mean = float(row["mean_reward_rate"]) * budget
        se = float(row["se_reward_rate"]) * budget
        if not lo - WALD_SE * se <= mean <= hi + WALD_SE * se:
            problems.append(
                f"cell {(name, budget)}: mean total reward {mean} outside "
                f"Wald band [{lo}, {hi}] +- {WALD_SE} SE ({se})"
            )
            bad.add((name, budget))
    return bad


def lockstep_cells(config, problems: list[str]) -> set:
    """Cells where a fixed subsample of episodes differs from run_episode.

    The last two run indices of every cell are re-simulated by the lockstep
    engine alone (a batch of two starting mid-chunk) and by the sequential
    runner; the two must agree bit for bit in every field.
    """
    from lybandit.engine import simulate_batch
    from lybandit.model import episode_env_rng, episode_policy_rng, run_episode
    from lybandit.oracle import solve_lfp

    instance = config.instance
    p_star = solve_lfp(instance).p_star
    bounds = _bounds_or_none(instance)
    seed = config.master_seed
    first = max(0, config.runs - 2)
    bad = set()
    for spec in config.policies:
        for budget in config.budgets:
            batch = simulate_batch(
                instance, spec, budget, config.runs - first, seed, run_start=first,
                p_default=p_star, bounds=bounds,
            )
            for e, run in enumerate(range(first, config.runs)):
                policy = spec.build(
                    instance, budget, episode_policy_rng(seed, run),
                    p_default=p_star, bounds=bounds,
                )
                seq = run_episode(instance, policy, budget, episode_env_rng(seed, run))
                if batch_record(batch, e) != episode_record(seq):
                    problems.append(
                        f"cell {(spec.name, budget)} run {run}: lockstep != sequential"
                    )
                    bad.add((spec.name, budget))
    return bad

