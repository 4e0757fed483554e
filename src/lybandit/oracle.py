"""Stationary randomized benchmark: rate functionals and the optimal mixture.

A stationary randomized policy pulls arm k with a fixed probability ``p_k``
each epoch.  Its long-run reward per unit budget is the ratio of mixture-mean
reward to mixture-mean cost, and likewise for the penalty.  The benchmark
mixture maximizes the reward rate subject to the penalty rate staying at or
below c.  Because that program is a single linear-fractional objective with
one ratio constraint over the simplex, an optimum is supported on at most two
arms.  The exact solver scores every single arm and every constraint-tight
two-arm mix in closed form, in one array pass, and returns the first of those
within ``FEASIBILITY_TOL`` of the best reward rate; a brute-force lattice
search is kept alongside as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import Instance, check_real, check_simplex

__all__ = [
    "FEASIBILITY_TOL",
    "Infeasible",
    "OracleSolution",
    "penalty_rate",
    "reward_rate",
    "solve_lfp",
    "solve_lfp_grid",
    "wald_interval",
]

# absolute tolerance on the penalty-rate constraint y(p) <= c
FEASIBILITY_TOL = 1e-9
# most lattice points (n + 1)^(K - 1) that solve_lfp_grid will enumerate
_MAX_LATTICE_POINTS = 2.5e8


class Infeasible(ValueError):
    """No arm mixture satisfies the penalty-rate constraint."""


def _mixture_rates(p: np.ndarray, instance: Instance) -> tuple[float, float]:
    ex, er, ey = instance.rate_means()
    denom = float(p @ ex)
    return float(p @ er) / denom, float(p @ ey) / denom


def reward_rate(p, instance: Instance) -> float:
    """Mixture-mean reward divided by mixture-mean cost."""
    return _mixture_rates(check_simplex(p, instance.n_arms), instance)[0]


def penalty_rate(p, instance: Instance) -> float:
    """Mixture-mean penalty divided by mixture-mean cost."""
    return _mixture_rates(check_simplex(p, instance.n_arms), instance)[1]


@dataclass(frozen=True)
class OracleSolution:
    """Optimal stationary mixture and its reward / penalty rates."""

    p_star: np.ndarray
    r_star: float
    y_star: float
    support: tuple[int, ...]


def _solution(p: np.ndarray, instance: Instance) -> OracleSolution:
    r, y = _mixture_rates(p, instance)
    support = tuple(int(i) for i in np.nonzero(p > 0.0)[0])
    return OracleSolution(p_star=p, r_star=r, y_star=y, support=support)


def solve_lfp(instance: Instance) -> OracleSolution:
    """Maximize the reward rate subject to penalty rate <= c, exactly.

    The candidates are (a) the K single arms and (b) each arm pair (j, k),
    j < k, of opposite constraint slack E[Y] - c E[X], mixed at the unique
    weight w = slack[k] / (slack[k] - slack[j]) on arm j that makes the
    constraint tight.  Their mixture cost, reward and penalty come in closed
    form from the arm means, in one array pass.  The best admissible
    candidate is optimal because the program is linear after the classic
    ratio-to-linear transform, whose basic solutions have at most two
    nonzero weights.

    Ties: the winner is the first admissible candidate in scan order (single
    arms by index, then pairs lexicographically) whose reward rate is within
    ``FEASIBILITY_TOL`` of the best, so rounding cannot pick a higher-index
    copy of an equal mixture.

    Raises
    ------
    Infeasible
        If every arm and every pair violates the constraint.
    """
    ex, er, ey = instance.rate_means()
    c = instance.c
    k_arms = instance.n_arms
    slack = ey - c * ex  # negative means the arm alone is feasible
    j, k = np.triu_indices(k_arms, 1)
    opposite = slack[j] * slack[k] < 0.0  # else the edge has no tight point inside
    j, k = j[opposite], k[opposite]
    w = slack[k] / (slack[k] - slack[j])  # weight on arm j; in (0, 1)

    # (cost, reward, penalty) means of every candidate: single arms, then pairs
    means = np.stack([ex, er, ey])
    cost, reward, penalty = np.concatenate(
        [means, w * means[:, j] + (1.0 - w) * means[:, k]], axis=1
    )
    rate = reward / cost
    admissible = penalty / cost <= c + FEASIBILITY_TOL
    if not admissible.any():
        raise Infeasible(
            f"no mixture attains penalty rate <= {c}; "
            f"minimum single-arm rate is {float(np.min(ey / ex))}"
        )
    rate[~admissible] = -np.inf
    best = int(np.argmax(rate >= rate.max() - FEASIBILITY_TOL))
    p = np.zeros(k_arms)
    if best < k_arms:
        p[best] = 1.0
    else:
        i = best - k_arms
        p[j[i]], p[k[i]] = w[i], 1.0 - w[i]
    return _solution(p, instance)


@lru_cache(maxsize=8)
def _simplex_lattice(k_arms: int, n: int) -> np.ndarray:
    """All probability vectors with coordinates that are multiples of 1/n.

    Instance-independent, so cached across calls; the returned array is
    marked read-only.
    """
    if k_arms == 1:
        grid = np.ones((1, 1))
    else:
        if float(n + 1) ** (k_arms - 1) > _MAX_LATTICE_POINTS:
            raise ValueError(
                f"simplex lattice with step 1/{n} and K={k_arms} is too large; "
                "use a coarser step"
            )
        axes = np.meshgrid(
            *([np.arange(n + 1, dtype=np.int32)] * (k_arms - 1)), indexing="ij"
        )
        head = np.stack([a.ravel() for a in axes], axis=1)
        rest = n - head.sum(axis=1, dtype=np.int64)
        keep = rest >= 0
        counts = np.column_stack([head[keep], rest[keep]])
        grid = counts.astype(np.float64) / n
    grid.setflags(write=False)
    return grid


def solve_lfp_grid(instance: Instance, step: float) -> OracleSolution:
    """Brute-force oracle: exhaustive lattice search over the simplex.

    Enumerates every mixture whose coordinates are multiples of ``step``
    (so the lattice has C(1/step + K - 1, K - 1) points; exponential in K,
    intended for K <= 6) and returns the best feasible one.  The returned
    objective is within a Lipschitz-times-step band of the true optimum.
    """
    step = check_real(step, "step", 0.0, 1.0, open_low=True)
    ex, er, ey = instance.rate_means()
    c = instance.c
    n = max(1, int(round(1.0 / step)))
    grid = _simplex_lattice(instance.n_arms, n)

    mean_x = grid @ ex
    mean_r = grid @ er
    mean_y = grid @ ey
    feasible = mean_y <= (c + FEASIBILITY_TOL) * mean_x
    if not feasible.any():
        raise Infeasible(f"no lattice mixture attains penalty rate <= {c}")
    values = np.where(feasible, mean_r / mean_x, -np.inf)
    best = int(np.argmax(values))
    return _solution(grid[best], instance)


def wald_interval(p, instance: Instance, budget: float) -> tuple[float, float]:
    """Band bracketing the expected total reward of the stationary policy.

    Over a full episode with budget B, the expectation of the cumulative
    reward lies in [r(p) B, r(p) (B + 1 / mu_min^2)] where mu_min is the
    smallest expected arm cost.
    """
    budget = check_real(budget, "budget", 0.0, open_low=True)
    r = reward_rate(p, instance)
    mu_min = float(np.min(instance.true_means()[0]))
    return r * budget, r * (budget + 1.0 / mu_min**2)
