"""Lockstep Monte-Carlo engine: many independent episodes advanced together.

Each episode owns two random streams derived from (master seed, run index):
an environment stream consuming exactly three uniforms per epoch and a policy
stream consuming one uniform per epoch for randomized policies.  Because an
episode's trajectory depends only on its own streams, running episodes in
lockstep (one shared epoch counter, vectorized across runs) produces results
bitwise identical to the sequential per-episode runner; tests assert this.

:func:`simulate_cells` walks the run indices in chunks and each chunk
block by block.  Every (policy, budget) cell's rule is built once per call;
each chunk starts it.  Every pass of a rule goes to a block boundary of the
chunk's streams (a ``_Streams``), the first epoch included, which then draw
that block once for the episodes that any pass still runs, so every block is
drawn when the passes reach it; every pass writes its rows into its results.
A rule makes one pass per cell, except a ``budget_free`` one (``static`` and
``stationary``): it is built the same at every budget, and its episode
reads the budget only to stop, so the episode at a budget is an exact
prefix of the episode at any larger one.  The cells of such a spec share
one pass, to the largest budget and its cap.  Each row copies its state
into a smaller budget's result at the pull that ends that budget's episode
(its cost first exceeds the budget, or the pull reaches the budget's cap),
so the copy is that episode bit for bit.
A ``_Streams`` derives each run's generators once, for all its blocks, in
one vectorized pass per stream (:func:`~lybandit.model.episode_rngs`), and
draws nothing itself.  A block is epoch-major: a
1,024-run chunk's environment block is (128, 1,024, 3), 3 MiB, and its
policy block (128, 1,024), 1 MiB, so each epoch's uniforms are one
contiguous slab that every pass reads.  Rows are drawn through a tile of
about 256 KiB per stream, and a run that every pass has ended draws fewer
than 128 epochs past its end.

A pass stops computing the episodes it has finished: once half the rows it
holds have ended, it writes them to its largest budget's result and keeps
only the running rows, in its own arrays and, through
:meth:`~lybandit.policies.VectorPolicy.keep`, in the rule's, and it reads
the shared block through its map of kept rows.  Every per-row operation is
elementwise or a per-row reduction, and ln n is shared by all rows, so
which rows a pass holds changes no value.

The engine does not know any policy rule.  It builds the rule from the
:class:`~lybandit.policies.PolicySpec` and drives its vector form
(:class:`~lybandit.policies.VectorPolicy`), the same code the sequential
runner calls through the m = 1 ``select`` / ``observe``; the engine itself
refills the random streams, draws outcomes through the same
:class:`~lybandit.model.Sampler` as the sequential runner, and keeps the
episode totals and the per-arm tallies, which the rule binds at the start
and reads; an episode's pull count is the sum of its pull tallies.  Each
pull enters the tallies at its flat (row, arm) index before the rule
observes it at that same index.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import Instance, Sampler, check_int, episode_cap, episode_rngs
from .policies import PolicySpec

__all__ = ["BatchResult", "simulate_batch", "simulate_cells"]

_BLOCK = 128
# runs per chunk: bounds the (_BLOCK, runs, 3) uniform block its passes share
_CHUNK = 1024
# bytes of the row-major tile through which each stream's block is drawn
_TILE = 1 << 18
# a pass drops its finished rows once its live rows fall to this share of
# the rows it holds, so at 0.5 at most log2(_CHUNK) times per chunk
_COMPACT = 0.5


class _Streams:
    """The current block of the streams of runs ``run_start .. run_start + m - 1``.

    ``env`` (``_BLOCK``, m, 3) and ``policy`` (``_BLOCK``, m; None unless the
    ``policy`` flag is set) hold each row's current block, which
    :meth:`advance` draws: a row's first ``advance`` draws its block 0, each
    later one its next block.  They are epoch-major, so each epoch's uniforms
    are one contiguous slab.  Each row's generators are derived once, here,
    in one vectorized pass per stream, and kept for every block; nothing is
    drawn here.
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

    def advance(self, running: np.ndarray) -> None:
        """Draw each ``running`` row's next block, block 0 at first, over its current one.

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

    Every cell's rule is built once per call, which runs the cell's checks,
    before the first chunk derives its streams.  The runs go in chunks of
    ``_CHUNK``; each chunk starts every rule (the ``track_lcb`` checks run
    there) before it draws its first block, and draws policy streams only if
    some rule uses them.  The arguments are as for :func:`simulate_batch`.
    """
    check_int(runs, "runs", 1)
    check_int(master_seed, "master_seed", 0)
    check_int(run_start, "run_start", 0)
    if not cells:
        raise ValueError("cells must name at least one (spec, budget) pair")
    caps = [episode_cap(instance, budget, cap) for _, budget in cells]
    # building runs every check of a cell, so every cell is checked before
    # the first stream is derived
    rules = [spec.build(instance, budget, None, p_default=p_default, bounds=bounds)
             for spec, budget in cells]
    groups = _groups(cells, rules)
    stacks = [_stack(len(group) * runs, instance.n_arms, track_lcb) for group in groups]
    results = [None] * len(cells)
    for group, stack in zip(groups, stacks):
        for stage, i in enumerate(group):
            results[i] = _rows(stack, slice(stage * runs, (stage + 1) * runs))
    for start in range(0, runs, _CHUNK):
        m = min(_CHUNK, runs - start)
        streams = _Streams(master_seed, run_start + start, m, any(r.uses_stream for r in rules))
        need = np.zeros(m, dtype=bool)
        passes = [_simulate_chunk(instance, rules[group[-1]], [cells[i][1] for i in group],
                                  [caps[i] for i in group], streams, need, stack,
                                  np.arange(len(group)) * runs + start)
                  for group, stack in zip(groups, stacks)]
        # a list, so that every pass goes on to its next block boundary or its end
        while any([next(p, False) for p in passes]):
            streams.advance(need)
            need[:] = False
        # released before the next chunk's streams are made
        del streams
    return results


def _groups(cells, rules) -> list[list[int]]:
    """The cells of each pass, as indices by ascending budget.

    A ``budget_free`` rule's cells of one spec share a pass; every other cell
    has its own.  :func:`episode_cap` resolves every cap from one ``cap``, so
    the caps ascend with the budgets too.
    """
    groups = {}
    for i, ((spec, _), rule) in enumerate(zip(cells, rules)):
        groups.setdefault((spec, None if rule.budget_free else i), []).append(i)
    return [sorted(group, key=lambda i: cells[i][1]) for group in groups.values()]


def _stack(rows, k, track_lcb) -> BatchResult:
    """A zeroed result of ``rows`` episodes: a pass's results, one after the other."""
    return BatchResult(
        n_pulls=np.zeros(rows, dtype=np.int64),
        **{name: np.zeros(rows) for name in ("total_cost", "total_reward", "total_penalty",
                                             "q_final", "q_max")},
        pulls_per_arm=np.zeros((rows, k)), cost_per_arm=np.zeros((rows, k)),
        capped=np.ones(rows, dtype=bool), lcb_ok=np.ones(rows, dtype=bool) if track_lcb else None,
    )


def _simulate_chunk(instance, rule, budgets, caps, streams, need, out, first):
    """One pass of ``rule``, started here, over the runs of ``streams``, at each of ``budgets``.

    The ``budgets`` ascend, and ``caps`` are their resolved epoch caps.
    ``out`` holds each budget's result in that order, and ``first`` the row
    of ``out`` that takes the chunk's row 0 for each budget.  A generator:
    at each block boundary, epoch 0 included, it marks in ``need`` the rows of
    the chunk that it still runs and yields True, and it goes on once
    ``streams`` hold that block.
    """
    last, budget = len(budgets) - 1, budgets[-1]
    budgets = np.array(budgets)
    m = streams.env.shape[1]
    # the chunk's row of each row the pass holds
    held = np.arange(m)
    # the tallies start as views of the last result and become compacted copies
    chunk = slice(first[last], first[last] + m)
    pulls, cost = out.pulls_per_arm[chunk], out.cost_per_arm[chunk]
    rule.start(pulls, cost, None if out.lcb_ok is None else instance)
    sampler = Sampler(instance.arms)
    active = np.ones(m, dtype=bool)
    # running (cost, reward, penalty) of each row
    totals = np.zeros((m, 3))
    q_max = np.zeros(m)
    row_base = np.arange(m) * out.pulls_per_arm.shape[1]
    # a row's stage is the first budget whose episode it has not ended; it
    # ends it, and writes its state to that budget's result, at the pull whose
    # cost passes limits[stage] (one pull may pass several).  The last
    # stage's limit is inf, since the loop itself ends it, and an earlier
    # stage's falls to -inf at its cap, where every row still in it passes it
    stage = np.zeros(m, dtype=np.intp)
    limits = np.array([*budgets[:-1], np.inf])
    cap_ends = set(caps[:-1])

    # finished rows stay as they ended, so writing every held row is exact
    def write(stages, rows):
        at = first[stages] + held[rows]
        # the tallies count whole pulls, so their sum is exact
        out.n_pulls[at] = pulls[rows].sum(axis=1)
        row_totals = totals[rows]
        out.total_cost[at], out.total_reward[at], out.total_penalty[at] = row_totals.T
        out.capped[at] = ~(row_totals[:, 0] > budgets[stages])
        out.pulls_per_arm[at] = pulls[rows]
        out.cost_per_arm[at] = cost[rows]
        out.q_max[at] = q_max[rows]
        out.q_final[at] = rule.q[rows]
        if out.lcb_ok is not None:
            out.lcb_ok[at] = rule.lcb_ok[rows]

    for epoch in range(caps[-1]):
        off = epoch % _BLOCK
        if off == 0:
            need[held[active]] = True
            yield True
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
        # another pass's live ones; their outcome is zeroed, and a zero
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
        np.maximum(q_max, rule.q, out=q_max)

        spent = totals[:, 0]
        active &= ~(spent > budget)
        if last:
            if epoch + 1 in cap_ends:
                limits[:last][np.equal(caps[:-1], epoch + 1)] = -np.inf
            rows = np.flatnonzero(spent > limits[stage])
            while rows.size:
                passed = stage[rows]
                write(passed, rows)
                passed += 1
                stage[rows] = passed
                rows = rows[spent[rows] > limits[passed]]
        live = np.count_nonzero(active)
        if not live:
            break
        if live <= _COMPACT * held.size:
            write(last, slice(None))
            rows = np.flatnonzero(active)
            held, active, totals, q_max, pulls, cost, stage = (
                a[rows] for a in (held, active, totals, q_max, pulls, cost, stage))
            rule.keep(rows, pulls, cost)
            row_base = row_base[:live]

    write(last, slice(None))
