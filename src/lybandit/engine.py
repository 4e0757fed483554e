"""Lockstep Monte-Carlo engine: many independent episodes advanced together.

Each episode owns two random streams derived from (master seed, run index):
an environment stream consuming exactly three uniforms per epoch and a policy
stream consuming one uniform per epoch for randomized policies.  Because an
episode's trajectory depends only on its own streams, running episodes in
lockstep (one shared epoch counter, vectorized across runs) produces results
bitwise identical to the sequential per-episode runner; tests assert this.

The engine does not know any policy rule.  It builds the rule from the
:class:`~lybandit.policies.PolicySpec` and drives its vector form
(:class:`~lybandit.policies.VectorPolicy`), the same code the sequential
runner calls through the m = 1 ``select`` / ``observe``; the engine itself
refills the random streams, draws outcomes through the same
:class:`~lybandit.model.Sampler` as the sequential runner, and keeps the
per-arm tallies and episode totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Instance,
    Sampler,
    default_cap,
    episode_env_rng,
    episode_policy_rng,
)
from .policies import PolicySpec

__all__ = ["BatchResult", "simulate_batch"]

_BLOCK = 1024


@dataclass
class BatchResult:
    """Per-episode outcome arrays for one (policy, budget) cell."""

    n_pulls: np.ndarray
    total_cost: np.ndarray
    total_reward: np.ndarray
    total_penalty: np.ndarray
    pulls_per_arm: np.ndarray
    cost_per_arm: np.ndarray
    q_final: np.ndarray
    q_max: np.ndarray
    capped: np.ndarray
    lcb_ok: np.ndarray | None = None

    @property
    def runs(self) -> int:
        return self.n_pulls.shape[0]


def simulate_batch(
    instance: Instance,
    spec: PolicySpec,
    budget: float,
    runs: int,
    master_seed: int,
    run_start: int = 0,
    cap: int | None = None,
    p_default: np.ndarray | None = None,
    bounds=None,
    track_lcb: bool = False,
) -> BatchResult:
    """Simulate ``runs`` independent episodes of one policy at one budget.

    Episode i uses the streams of run index ``run_start + i``, so splitting a
    batch into consecutive sub-batches changes nothing in the results.
    ``track_lcb`` additionally records, for the online policy, whether the
    optimistic index stayed at or below the true-mean score for every arm at
    every post-exploration decision.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if not budget > 0.0:
        raise ValueError("budget must be positive")
    spec.check_arms(instance.n_arms)
    if cap is None:
        cap = default_cap(instance, budget)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    m = runs
    rule = spec.build(instance, budget, None, p_default=p_default, bounds=bounds)
    rule.start(m, instance if track_lcb else None)
    sampler = Sampler(instance.arms)

    env_gens = [episode_env_rng(master_seed, run_start + e) for e in range(m)]
    env_buf = np.empty((m, _BLOCK, 3))
    pol_gens = []
    if rule.uses_stream:
        pol_gens = [episode_policy_rng(master_seed, run_start + e) for e in range(m)]
        pol_buf = np.empty((m, _BLOCK))

    active = np.ones(m, dtype=bool)
    row_base = np.arange(m) * instance.n_arms
    n_pulls = np.zeros(m, dtype=np.int64)
    total_cost = np.zeros(m)
    total_reward = np.zeros(m)
    total_penalty = np.zeros(m)
    pulls = np.zeros((m, instance.n_arms))
    cost_arm = np.zeros((m, instance.n_arms))
    q_max = np.zeros(m)
    u = None

    for epoch in range(cap):
        off = epoch % _BLOCK
        if off == 0:
            for e in np.flatnonzero(active):
                env_buf[e] = env_gens[e].random((_BLOCK, 3))
                if pol_gens:
                    pol_buf[e] = pol_gens[e].random(_BLOCK)
        if pol_gens:
            u = pol_buf[:, off]

        # selection sees only outcomes of earlier epochs
        arms = rule.select_batch(epoch, pulls, cost_arm, active, u)
        outcome = sampler.draw(arms, env_buf[:, off, :])
        # finished episodes observe zero outcomes, which change no state
        outcome[~active] = 0.0
        x, r, y = outcome.T
        rule.observe_batch(arms, x, r, y)

        # each row pulls one arm: scatter at its flat (row, arm) entry
        flat = row_base + arms
        pulls.reshape(-1)[flat] += active
        cost_arm.reshape(-1)[flat] += x
        total_cost += x
        total_reward += r
        total_penalty += y
        n_pulls += active
        np.maximum(q_max, rule.q, out=q_max)

        active &= ~(total_cost > budget)
        if not active.any():
            break

    return BatchResult(
        n_pulls=n_pulls,
        total_cost=total_cost,
        total_reward=total_reward,
        total_penalty=total_penalty,
        pulls_per_arm=pulls,
        cost_per_arm=cost_arm,
        q_final=rule.q.copy(),
        q_max=q_max,
        capped=active.copy(),
        lcb_ok=rule.lcb_ok,
    )
