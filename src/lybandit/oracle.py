"""Stationary randomized benchmark: rate functionals and the optimal mixture.

A stationary randomized policy pulls arm k with a fixed probability ``p_k``
each epoch.  Its long-run reward per unit budget is the ratio of mixture-mean
reward to mixture-mean cost, and likewise for the penalty.  The benchmark
mixture maximizes the reward rate subject to the penalty rate staying at or
below c.  Because that program is a single linear-fractional objective with
one ratio constraint over the simplex, an optimum is supported on at most two
arms, so exact pair enumeration solves it; a brute-force lattice search is
kept alongside as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import Instance, check_simplex

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


class Infeasible(ValueError):
    """No arm mixture satisfies the penalty-rate constraint."""


def _mixture_rates(p: np.ndarray, instance: Instance) -> tuple[float, float]:
    ex, er, ey = instance.true_means()
    if np.any(ex <= 0.0):
        raise ValueError("rates need positive expected cost for every arm")
    denom = float(p @ ex)
    return float(p @ er) / denom, float(p @ ey) / denom


def reward_rate(p, instance: Instance) -> float:
    """Mixture-mean reward divided by mixture-mean cost."""
    return _mixture_rates(check_simplex(p), instance)[0]


def penalty_rate(p, instance: Instance) -> float:
    """Mixture-mean penalty divided by mixture-mean cost."""
    return _mixture_rates(check_simplex(p), instance)[1]


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

    Candidates are (a) single arms whose own penalty rate is admissible and
    (b) for each arm pair of opposite constraint slack, the unique mixing
    weight that makes the constraint tight.  The best candidate is optimal
    because the program is linear after the classic ratio-to-linear transform,
    whose basic solutions have at most two nonzero weights.

    Ties are broken toward the candidate found first in a fixed scan order
    (single arms by index, then pairs lexicographically), which realizes the
    lowest-arm-index, lowest-mixing-weight rule.

    Raises
    ------
    Infeasible
        If every arm and every pair violates the constraint.
    """
    ex, er, ey = instance.true_means()
    if np.any(ex <= 0.0):
        raise ValueError("oracle needs positive expected cost for every arm")
    c = instance.c
    k_arms = instance.n_arms
    slack = ey - c * ex  # negative means the arm alone is feasible

    best: OracleSolution | None = None

    def consider(p: np.ndarray):
        nonlocal best
        cand = _solution(p, instance)
        if cand.y_star > c + FEASIBILITY_TOL:
            return
        if best is None or cand.r_star > best.r_star:
            best = cand

    for k in range(k_arms):
        p = np.zeros(k_arms)
        p[k] = 1.0
        consider(p)

    for j in range(k_arms):
        for k in range(j + 1, k_arms):
            a_j, a_k = slack[j], slack[k]
            if a_j * a_k >= 0.0:
                continue  # constraint cannot be tight strictly inside the edge
            w = a_k / (a_k - a_j)  # weight on arm j; in (0, 1) by sign check
            p = np.zeros(k_arms)
            p[j] = w
            p[k] = 1.0 - w
            consider(p)

    if best is None:
        raise Infeasible(
            f"no mixture attains penalty rate <= {c}; "
            f"minimum single-arm rate is {float(np.min(ey / ex))}"
        )
    return best


@lru_cache(maxsize=8)
def _simplex_lattice(k_arms: int, n: int, max_points: float = 2.5e8) -> np.ndarray:
    """All probability vectors with coordinates that are multiples of 1/n.

    Instance-independent, so cached across calls; the returned array is
    marked read-only.
    """
    if k_arms == 1:
        grid = np.ones((1, 1))
    else:
        if float(n + 1) ** (k_arms - 1) > max_points:
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
    if not 0.0 < step <= 1.0:
        raise ValueError("step must lie in (0, 1]")
    ex, er, ey = instance.true_means()
    if np.any(ex <= 0.0):
        raise ValueError("oracle needs positive expected cost for every arm")
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
    if not budget > 0.0:
        raise ValueError("budget must be positive")
    r = reward_rate(p, instance)
    ex, _, _ = instance.true_means()
    mu_min = float(np.min(ex))
    return r * budget, r * (budget + 1.0 / mu_min**2)
