"""Lockstep Monte-Carlo engine: many independent episodes advanced together.

Each episode owns two random streams derived from (master seed, run index):
an environment stream consuming exactly three uniforms per epoch and a policy
stream consuming one uniform per epoch for randomized policies.  Because an
episode's trajectory depends only on its own streams, running episodes in
lockstep (one shared epoch counter, vectorized across runs) produces results
bitwise identical to the sequential per-episode runner; tests assert this.

:func:`simulate_cells` walks the run indices in chunks and each chunk
block by block: each chunk builds every (policy, budget) cell's rule once,
then every cell runs to the end of a block of the chunk's streams (a
``_Streams``), which then draw the next block once for the episodes that
any cell still runs, and every cell writes its rows in place into its one
result.  A ``_Streams`` derives each run's generators once, for all its
blocks, in one vectorized pass per stream
(:func:`~lybandit.model.episode_rngs`).  At 128 epochs a block of a
1,024-run chunk's environment stream is 3 MB, and a run that every cell
has ended draws fewer than 128 epochs past its end.

The engine does not know any policy rule.  It builds the rule from the
:class:`~lybandit.policies.PolicySpec` and drives its vector form
(:class:`~lybandit.policies.VectorPolicy`), the same code the sequential
runner calls through the m = 1 ``select`` / ``observe``; the engine itself
refills the random streams, draws outcomes through the same
:class:`~lybandit.model.Sampler` as the sequential runner, and keeps the
episode totals and the per-arm tallies, which the rule binds at the start
and reads.  Each pull enters the tallies at its flat (row, arm) index
before the rule observes it at that same index.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import Instance, Sampler, check_int, episode_cap, episode_rngs
from .policies import PolicySpec

__all__ = ["BatchResult", "simulate_batch", "simulate_cells"]

_BLOCK = 128
# runs per chunk: bounds the (runs, _BLOCK, 3) uniform block its cells share
_CHUNK = 1024


class _Streams:
    """The current block of the streams of runs ``run_start .. run_start + m - 1``.

    ``env`` (m, ``_BLOCK``, 3) and ``policy`` (m, ``_BLOCK``; None unless the
    ``policy`` flag is set) hold block 0 of every row until :meth:`advance`
    moves rows on.  Each row's generators are derived once, here, in one
    vectorized pass per stream, and kept for the later blocks.
    """

    def __init__(self, master_seed: int, run_start: int, m: int, policy: bool):
        self.env = np.empty((m, _BLOCK, 3))
        self.policy = np.empty((m, _BLOCK)) if policy else None
        self._streams = [(episode_rngs(master_seed, run_start, m, stream), block)
                         for stream, block in enumerate((self.env, self.policy))
                         if block is not None]
        self.advance(range(m))

    def advance(self, rows) -> None:
        """Overwrite each of ``rows``' current block with that row's next block."""
        for gens, block in self._streams:
            for e in rows:
                gens[e].random(out=block[e])


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


def _rows(result: BatchResult, rows: slice) -> BatchResult:
    """The given rows of every array of ``result``, as views."""
    values = (getattr(result, f.name) for f in fields(result))
    return BatchResult(*(None if v is None else v[rows] for v in values))


def simulate_batch(instance: Instance, spec: PolicySpec, budget: float, runs: int,
                   master_seed: int, run_start: int = 0, cap: int | None = None,
                   p_default: np.ndarray | None = None, bounds=None,
                   track_lcb: bool = False) -> BatchResult:
    """Simulate ``runs`` independent episodes of one policy at one budget.

    Episode i uses the streams of run index ``run_start + i``, so splitting a
    batch into consecutive sub-batches changes nothing in the results.
    ``track_lcb`` additionally records, for the online policy, whether the
    optimistic index stayed at or below the true-mean score for every arm at
    every post-exploration decision.  This is :func:`simulate_cells` for one
    cell.
    """
    return simulate_cells(instance, [(spec, budget)], runs, master_seed, run_start,
                          cap=cap, p_default=p_default, bounds=bounds,
                          track_lcb=track_lcb)[0]


def simulate_cells(instance, cells, runs, master_seed, run_start=0, *, cap=None,
                   p_default=None, bounds=None, track_lcb=False) -> list[BatchResult]:
    """One :class:`BatchResult` per (spec, budget) pair of the non-empty list ``cells``.

    The runs go in chunks of ``_CHUNK``.  Each chunk builds every cell's rule
    once, which runs every check of the cell, before it derives its streams,
    so every cell is checked before the first stream is drawn; the chunk
    draws policy streams only if some rule uses them.  Within a chunk the
    cells go block by block: every cell runs to the end of a block, then the
    chunk's streams draw the next block once for the rows that any cell
    still runs.  The arguments are as for :func:`simulate_batch`.
    """
    check_int(runs, "runs", 1)
    check_int(master_seed, "master_seed", 0)
    check_int(run_start, "run_start", 0)
    if not cells:
        raise ValueError("cells must name at least one (spec, budget) pair")
    caps = [episode_cap(instance, budget, cap) for _, budget in cells]
    per_arm = (runs, instance.n_arms)
    results = [BatchResult(
        n_pulls=np.zeros(runs, dtype=np.int64),
        **{name: np.zeros(runs) for name in ("total_cost", "total_reward", "total_penalty",
                                             "q_final", "q_max")},
        pulls_per_arm=np.zeros(per_arm), cost_per_arm=np.zeros(per_arm),
        capped=np.ones(runs, dtype=bool), lcb_ok=np.ones(runs, dtype=bool) if track_lcb else None,
    ) for _ in cells]
    for start in range(0, runs, _CHUNK):
        rows = slice(start, min(start + _CHUNK, runs))
        # building runs every check of a cell, so chunk 0 checks them all
        # before its streams are derived
        rules = [spec.build(instance, budget, None, p_default=p_default, bounds=bounds)
                 for spec, budget in cells]
        streams = _Streams(master_seed, run_start + start, rows.stop - start,
                           any(rule.uses_stream for rule in rules))
        running = [_simulate_chunk(instance, rule, budget, cell_cap, streams, _rows(result, rows))
                   for rule, (_, budget), cell_cap, result in zip(rules, cells, caps, results)]
        # each rule now lives only in its cell's generator, as long as the cell
        # runs, so a finished cell's (m, K) state is freed before the others end
        del rules
        while running:
            masks = [next(cell, None) for cell in running]
            running = [cell for cell, mask in zip(running, masks) if mask is not None]
            masks = [mask for mask in masks if mask is not None]
            if masks:
                streams.advance(np.flatnonzero(np.any(masks, axis=0)))
        # released before the next chunk's streams are drawn
        del streams
    return results


def _simulate_chunk(instance, rule, budget, cap, streams, out):
    """One cell's built ``rule`` over the runs of ``streams``, with its cap resolved.

    ``out`` holds the chunk's rows of the cell's result, as views, and the
    rule binds its per-arm arrays as the tallies.  A generator: at each block
    boundary it yields the running mask, and it goes on once ``streams`` hold
    the next block of those rows.
    """
    rule.start(out.pulls_per_arm, out.cost_per_arm, None if out.lcb_ok is None else instance)
    sampler = Sampler(instance.arms)
    active = out.capped
    row_base = np.arange(active.size) * instance.n_arms

    for epoch in range(cap):
        off = epoch % _BLOCK
        if off == 0 and epoch > 0:
            yield active
        # rules that draw no policy uniform ignore u
        u = None if streams.policy is None else streams.policy[:, off]

        # selection sees only outcomes of earlier epochs
        arms = rule.select_batch(epoch, active, u)
        # finished rows read stale uniforms or another cell's live ones; their
        # outcome is zeroed, and a zero outcome changes no state
        outcome = sampler.draw(arms, streams.env[:, off, :])
        outcome[~active] = 0.0
        x, r, y = outcome.T

        # each row pulls one arm: scatter at its flat (row, arm) entry; the
        # rule reads these tallies, so they take the pull before it observes
        flat = row_base + arms
        out.pulls_per_arm.reshape(-1)[flat] += active
        out.cost_per_arm.reshape(-1)[flat] += x
        rule.observe_batch(flat, x, r, y)
        out.total_cost += x
        out.total_reward += r
        out.total_penalty += y
        out.n_pulls += active
        np.maximum(out.q_max, rule.q, out=out.q_max)

        active &= ~(out.total_cost > budget)
        if not active.any():
            break

    out.q_final[:] = rule.q
    if out.lcb_ok is not None:
        out.lcb_ok[:] = rule.lcb_ok
