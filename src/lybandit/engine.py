"""Lockstep Monte-Carlo engine: many independent episodes advanced together.

Each episode owns two random streams derived from (master seed, run index):
an environment stream consuming exactly three uniforms per epoch and a policy
stream consuming one uniform per epoch for randomized policies.  Because an
episode's trajectory depends only on its own streams, running episodes in
lockstep (one shared epoch counter, vectorized across runs) produces results
bitwise identical to the sequential per-episode runner; tests assert this.
Since streams depend only on (seed, run), the harness draws each chunk's
first block once (a ``_Streams``) for every (policy, budget) cell to read;
past it, a batch re-derives a running episode's generators and advances
them over that block.

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
from functools import cached_property

import numpy as np

from .model import Instance, Sampler, episode_cap, episode_env_rng, episode_policy_rng
from .policies import PolicySpec

__all__ = ["BatchResult", "simulate_batch"]

_BLOCK = 1024


class _Streams:
    """Block 0 of the streams of runs ``run_start .. run_start + m - 1``.

    The (m, ``_BLOCK``, 3) env block is drawn here, the (m, ``_BLOCK``)
    policy block at the first read of :attr:`policy`.
    """

    def __init__(self, master_seed: int, run_start: int, m: int):
        self.key = (master_seed, run_start, m)
        self.env = self._draw(episode_env_rng, (_BLOCK, 3))

    def _draw(self, derive, shape) -> np.ndarray:
        seed, start, m = self.key
        out = np.empty((m, *shape))
        for e in range(m):
            derive(seed, start + e).random(out=out[e])
        return out

    @cached_property
    def policy(self) -> np.ndarray:
        return self._draw(episode_policy_rng, (_BLOCK,))

    def resume(self, e: int, policy: bool) -> list:
        """Row e's env (and policy) generator, advanced past block 0."""
        seed, run = self.key[0], self.key[1] + e
        gens = [episode_env_rng(seed, run)]
        gens[0].bit_generator.advance(3 * _BLOCK)
        if policy:
            gens.append(episode_policy_rng(seed, run))
            gens[1].bit_generator.advance(_BLOCK)
        return gens


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
    streams: _Streams | None = None,
) -> BatchResult:
    """Simulate ``runs`` independent episodes of one policy at one budget.

    Episode i uses the streams of run index ``run_start + i``, so splitting a
    batch into consecutive sub-batches changes nothing in the results.
    ``track_lcb`` additionally records, for the online policy, whether the
    optimistic index stayed at or below the true-mean score for every arm at
    every post-exploration decision.  ``streams`` (drawn for exactly these
    runs) lets several calls share one seeding; by default a call draws its own.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    cap = episode_cap(instance, budget, cap)
    spec.check_arms(instance.n_arms)
    key = (master_seed, run_start, runs)
    if streams is None:
        streams = _Streams(*key)
    elif streams.key != key:
        raise ValueError(f"streams drawn for {streams.key}, not for {key}")
    m = runs
    rule = spec.build(instance, budget, None, p_default=p_default, bounds=bounds)
    rule.start(m, instance if track_lcb else None)
    sampler = Sampler(instance.arms)

    env_buf = streams.env
    pol_buf = streams.policy if rule.uses_stream else None

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
        if off == 0 and epoch > 0:
            live = np.flatnonzero(active)
            if epoch == _BLOCK:
                # later blocks go to buffers of this batch's own, so the
                # shared block stays intact; finished rows read zeros
                env_buf = np.zeros_like(env_buf)
                pol_buf = None if pol_buf is None else np.zeros_like(pol_buf)
                gens = {e: streams.resume(e, pol_buf is not None) for e in live}
            for e in live:
                for gen, buf in zip(gens[e], (env_buf, pol_buf)):
                    gen.random(out=buf[e])
        if pol_buf is not None:
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
