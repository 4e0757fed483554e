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
any cell still runs, and every cell writes its rows into its one result.
A ``_Streams`` derives each run's generators once, for all its blocks, in
one vectorized pass per stream
(:func:`~lybandit.model.episode_rngs`).  A block is epoch-major: a
1,024-run chunk's environment block is (128, 1,024, 3), 3 MiB, and its
policy block (128, 1,024), 1 MiB, so each epoch's uniforms are one
contiguous slab that every cell reads.  Rows are drawn through a tile of
about 256 KiB per stream, and a run that every cell has ended draws fewer
than 128 epochs past its end.

A cell stops computing the episodes it has finished: once half the rows it
holds have ended, it writes them to its result and keeps only the running
rows, in its own arrays and, through
:meth:`~lybandit.policies.VectorPolicy.keep`, in the rule's, and it reads
the shared block through its map of kept rows.  Every per-row operation is
elementwise or a per-row reduction, and ln n is shared by all rows, so
which rows a cell holds changes no value.

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
# runs per chunk: bounds the (_BLOCK, runs, 3) uniform block its cells share
_CHUNK = 1024
# bytes of the row-major tile through which each stream's block is drawn
_TILE = 1 << 18
# a cell drops its finished rows once its live rows fall to this share of
# the rows it holds, so at 0.5 at most log2(_CHUNK) times per chunk
_COMPACT = 0.5


class _Streams:
    """The current block of the streams of runs ``run_start .. run_start + m - 1``.

    ``env`` (``_BLOCK``, m, 3) and ``policy`` (``_BLOCK``, m; None unless the
    ``policy`` flag is set) hold block 0 of every row until :meth:`advance`
    moves rows on.  They are epoch-major, so each epoch's uniforms are one
    contiguous slab.  Each row's generators are derived once, here, in one
    vectorized pass per stream, and kept for the later blocks.
    """

    def __init__(self, master_seed: int, run_start: int, m: int, policy: bool):
        self.env = np.empty((_BLOCK, m, 3))
        self.policy = np.empty((_BLOCK, m)) if policy else None
        self._streams = []
        for stream, block in enumerate((self.env, self.policy)):
            if block is not None:
                # a generator fills only a contiguous array, so rows are drawn
                # row-major into a tile of about _TILE bytes and copied across
                row = block[:, 0]
                tile = np.zeros((min(m, max(1, _TILE // row.nbytes)), *row.shape))
                self._streams.append((episode_rngs(master_seed, run_start, m, stream),
                                      block, tile))
        self.advance(np.ones(m, dtype=bool))

    def advance(self, running: np.ndarray) -> None:
        """Overwrite each ``running`` row's current block with that row's next block.

        The other rows of a tile that holds a running row get stale values.
        """
        for gens, block, tile in self._streams:
            for start in range(0, running.size, len(tile)):
                rows = np.flatnonzero(running[start:start + len(tile)])
                if rows.size:
                    for e in rows.tolist():
                        gens[start + e].random(out=tile[e])
                    part = block[:, start:start + len(tile)]
                    part[...] = tile[:part.shape[1]].swapaxes(0, 1)


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
                streams.advance(np.any(masks, axis=0))
        # released before the next chunk's streams are drawn
        del streams
    return results


def _simulate_chunk(instance, rule, budget, cap, streams, out):
    """One cell's built ``rule`` over the runs of ``streams``, with its cap resolved.

    ``out`` holds the chunk's rows of the cell's result, as views.  The cell
    holds its rows compacted: ``held`` maps each of them to its row of the
    chunk.  Once the live rows fall to ``_COMPACT`` of the rows it holds, it
    writes every held row to ``out`` (the totals, both tallies, ``q_max``,
    ``capped``, ``q_final`` and ``lcb_ok``) and keeps only the live rows, in
    its own arrays and, through ``rule.keep``, in the rule's.  A generator:
    at each block boundary it yields the chunk-wide running mask, and it goes
    on once ``streams`` hold the next block of those rows.
    """
    m, k = out.pulls_per_arm.shape
    held = np.arange(m)
    # the tallies start as views of the result and become compacted copies
    pulls, cost = out.pulls_per_arm, out.cost_per_arm
    rule.start(pulls, cost, None if out.lcb_ok is None else instance)
    sampler = Sampler(instance.arms)
    active = np.ones(m, dtype=bool)
    n_pulls = np.zeros(m, dtype=np.int64)
    # running (cost, reward, penalty) of each row
    totals = np.zeros((m, 3))
    q_max = np.zeros(m)
    row_base = np.arange(m) * k

    # finished rows stay as they ended, so writing every held row is exact
    def write_back():
        out.n_pulls[held] = n_pulls
        out.total_cost[held], out.total_reward[held], out.total_penalty[held] = totals.T
        if pulls is not out.pulls_per_arm:
            out.pulls_per_arm[held] = pulls
            out.cost_per_arm[held] = cost
        out.q_max[held] = q_max
        out.capped[held] = active
        out.q_final[held] = rule.q
        if out.lcb_ok is not None:
            out.lcb_ok[held] = rule.lcb_ok

    for epoch in range(cap):
        off = epoch % _BLOCK
        if off == 0 and epoch > 0:
            running = np.zeros(m, dtype=bool)
            running[held] = active
            yield running
        env = streams.env[off]
        # rules that draw no policy uniform ignore u
        u = None if streams.policy is None else streams.policy[off]
        if held.size < m:
            env = env[held]
            u = None if u is None else u[held]

        # selection sees only outcomes of earlier epochs
        arms = rule.select_batch(epoch, active, u)
        # finished rows read stale uniforms (a skipped row's old block, or
        # another row's values left in the tile it was drawn through) or
        # another cell's live ones; their outcome is zeroed, and a zero
        # outcome changes no state
        outcome = sampler.draw(arms, env)
        outcome[~active] = 0.0
        x, r, y = outcome.T

        # each row pulls one arm: scatter at its flat (row, arm) entry; the
        # rule reads these tallies, so they take the pull before it observes
        flat = row_base + arms
        pulls.reshape(-1)[flat] += active
        cost.reshape(-1)[flat] += x
        rule.observe_batch(flat, x, r, y)
        totals += outcome
        n_pulls += active
        np.maximum(q_max, rule.q, out=q_max)

        active &= ~(totals[:, 0] > budget)
        live = np.count_nonzero(active)
        if not live:
            break
        if live <= _COMPACT * held.size:
            write_back()
            rows = np.flatnonzero(active)
            held, active, n_pulls, totals, q_max, pulls, cost = (
                a[rows] for a in (held, active, n_pulls, totals, q_max, pulls, cost))
            rule.keep(rows, pulls, cost)
            row_base = row_base[:live]

    write_back()
