"""Monte-Carlo experiment harness: metrics, budget sweeps, aggregation.

Regret is measured against the stationary-oracle lower bound r(p*) B, the
violation is realized penalty per unit budget minus c, and the time
allocation is each arm's share of consumed budget (with a pull-count share
kept alongside).  The harness solves the oracle, hands every (policy, budget)
cell to :func:`~lybandit.engine.simulate_cells` (each spec meets the instance
in :meth:`PolicySpec.build`) and aggregates what it returns.  Aggregation is a
fixed-order fold over run indices, so results are byte-reproducible for a
given master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import EpisodeResult, Instance, as_tuple, check_int, check_real, episode_cap
from .oracle import OracleSolution, solve_lfp
from .policies import PolicySpec

if TYPE_CHECKING:
    from .engine import BatchResult

__all__ = [
    "AggregateResult",
    "CellStats",
    "RunConfig",
    "ScalingReport",
    "pseudo_regret",
    "run_batch",
    "sweep_scaling",
    "violation",
]


def pseudo_regret(result: EpisodeResult | BatchResult, r_star: float, budget: float):
    """Benchmark reward r* B minus the realized total reward.

    Can be negative for lucky runs; the mean over runs is the reported
    statistic.  On a :class:`BatchResult` it is computed per episode.
    """
    return r_star * budget - result.total_reward


def violation(result: EpisodeResult | BatchResult, c: float, budget: float):
    """Realized penalty per unit budget minus the admissible level c.

    On a :class:`BatchResult` it is computed per episode.
    """
    return result.total_penalty / budget - c


@dataclass(frozen=True)
class RunConfig:
    """One experiment grid: policies x budgets, many runs each.

    ``policies`` and ``budgets`` may be any sequence other than a string, a
    1-D numpy array included, and are stored as tuples.  Both must be
    non-empty, the budgets distinct and the policy names unique, so every
    (policy, budget) cell is one row of the report.
    """

    instance: Instance
    policies: tuple[PolicySpec, ...]
    budgets: tuple[float, ...]
    runs: int
    master_seed: int
    cap: int | None = None

    def __post_init__(self):
        check_int(self.runs, "runs", 1)
        check_int(self.master_seed, "seed", 0)
        budgets = as_tuple(self.budgets, "budgets")
        if not budgets:
            raise ValueError("at least one budget is required")
        # B > 1 keeps ln(B) of the budget schedules positive
        budgets = tuple(check_real(b, "budgets", 1.0, open_low=True) for b in budgets)
        object.__setattr__(self, "budgets", budgets)
        for budget in budgets:  # checks the cap, and that every episode is bounded
            episode_cap(self.instance, budget, self.cap)
        if len(set(budgets)) != len(budgets):
            raise ValueError("budgets must be distinct")
        policies = as_tuple(self.policies, "policies")
        if not policies:
            raise ValueError("at least one policy is required")
        for spec in policies:
            if not isinstance(spec, PolicySpec):
                raise ValueError(f"policies must hold PolicySpec entries, got {spec!r}")
            spec.check_arms(self.instance.n_arms)
        object.__setattr__(self, "policies", policies)
        names = [p.name for p in policies]
        if len(set(names)) != len(names):
            raise ValueError("policy names must be unique")


@dataclass(frozen=True)
class CellStats:
    """Aggregated metrics of one (policy, budget) cell."""

    policy: str
    budget: float
    runs: int
    mean_reward_rate: float
    se_reward_rate: float
    mean_violation: float
    se_violation: float
    mean_regret: float
    se_regret: float
    mean_n_pulls: float
    cap_hits: int
    alloc_cost: np.ndarray
    alloc_pulls: np.ndarray
    mean_total_reward: float
    se_total_reward: float


@dataclass(frozen=True)
class AggregateResult:
    """All cells of a run plus the oracle benchmark they were scored against."""

    cells: tuple[CellStats, ...]
    oracle: OracleSolution

    def cell(self, policy: str, budget: float) -> CellStats:
        for cell in self.cells:
            if cell.policy == policy and cell.budget == budget:
                return cell
        raise KeyError(f"no cell for policy {policy!r} at budget {budget}")

    def series(self, policy: str) -> tuple[CellStats, ...]:
        return tuple(c for c in self.cells if c.policy == policy)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def _aggregate_cell(
    spec: PolicySpec, budget: float, batch: BatchResult, r_star: float, c: float
) -> CellStats:
    runs = batch.runs
    reward_rate = batch.total_reward / budget
    viol = violation(batch, c, budget)
    regret = pseudo_regret(batch, r_star, budget)

    consumed = batch.total_cost > 0.0
    if consumed.any():
        shares_cost = batch.cost_per_arm[consumed] / batch.total_cost[consumed, None]
        alloc_cost = shares_cost.mean(axis=0)
        shares_pulls = batch.pulls_per_arm[consumed] / batch.n_pulls[consumed, None]
        alloc_pulls = shares_pulls.mean(axis=0)
    else:
        alloc_cost = np.zeros(batch.pulls_per_arm.shape[1])
        alloc_pulls = np.zeros_like(alloc_cost)

    m_rr, se_rr = _mean_se(reward_rate)
    m_v, se_v = _mean_se(viol)
    m_rg, se_rg = _mean_se(regret)
    m_tr, se_tr = _mean_se(batch.total_reward)
    return CellStats(
        policy=spec.name,
        budget=budget,
        runs=runs,
        mean_reward_rate=m_rr,
        se_reward_rate=se_rr,
        mean_violation=m_v,
        se_violation=se_v,
        mean_regret=m_rg,
        se_regret=se_rg,
        mean_n_pulls=float(np.mean(batch.n_pulls)),
        cap_hits=int(np.count_nonzero(batch.capped)),
        alloc_cost=alloc_cost,
        alloc_pulls=alloc_pulls,
        mean_total_reward=m_tr,
        se_total_reward=se_tr,
    )


def run_batch(config: RunConfig) -> AggregateResult:
    """Simulate every (policy, budget) cell and aggregate in run-index order.

    A stationary spec without its own ``p`` runs the oracle mixture.
    """
    # imported here, so a process that only solves the oracle never loads it
    from .engine import simulate_cells

    instance = config.instance
    oracle = solve_lfp(instance)
    cells = [(spec, budget) for spec in config.policies for budget in config.budgets]
    batches = simulate_cells(
        instance, cells, config.runs, config.master_seed,
        cap=config.cap, p_default=oracle.p_star,
    )
    stats = [_aggregate_cell(spec, budget, batch, oracle.r_star, instance.c)
             for (spec, budget), batch in zip(cells, batches)]
    return AggregateResult(cells=tuple(stats), oracle=oracle)


@dataclass(frozen=True)
class ScalingReport:
    """Budget-growth normalization of one policy's regret and violation.

    ``regret_norm`` is mean regret divided by sqrt(B ln B) and stays bounded
    for policies with square-root-times-log regret growth; ``violation_norm``
    is mean violation times B / ln B.  ``loglog_slope`` is the least-squares
    slope of ln|mean regret| against ln(B): the magnitude is used because a
    policy that overshoots the stationary benchmark by violating the
    constraint has negative mean pseudo-regret, and the growth order of the
    deviation is what the slope measures.  Budgets with zero mean regret are
    excluded; NaN when fewer than two points remain.
    """

    policy: str
    budgets: np.ndarray
    mean_regret: np.ndarray
    regret_norm: np.ndarray
    mean_violation: np.ndarray
    violation_norm: np.ndarray
    loglog_slope: float


def sweep_scaling(cells: tuple[CellStats, ...]) -> ScalingReport:
    """Normalize one policy's series over budgets; needs at least 3 points."""
    if len(cells) < 3:
        raise ValueError("need >=3 budgets")
    policies = {c.policy for c in cells}
    if len(policies) != 1:
        raise ValueError("scaling report expects cells of a single policy")
    cells = tuple(sorted(cells, key=lambda c: c.budget))
    budgets = np.array([c.budget for c in cells])
    regret = np.array([c.mean_regret for c in cells])
    viol = np.array([c.mean_violation for c in cells])
    log_b = np.log(budgets)
    regret_norm = regret / np.sqrt(budgets * log_b)
    violation_norm = viol * budgets / log_b

    nonzero = regret != 0.0
    if np.count_nonzero(nonzero) >= 2:
        slope = float(
            np.polyfit(np.log(budgets[nonzero]), np.log(np.abs(regret[nonzero])), 1)[0]
        )
    else:
        slope = float("nan")
    return ScalingReport(
        policy=cells[0].policy,
        budgets=budgets,
        mean_regret=regret,
        regret_norm=regret_norm,
        mean_violation=viol,
        violation_norm=violation_norm,
        loglog_slope=slope,
    )
