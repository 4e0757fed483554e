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
that block once for every run of the chunk, so every block is drawn when the
passes reach it; every pass writes its rows into its results.
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
about 256 KiB per stream, every row each block, so a run that every pass has
ended still draws to the end of the last block that a pass reaches.

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
episode totals.  The rule owns the per-arm pull and cost tallies, which the
engine reads when it writes a result; an episode's pull count is the sum
of its pull tallies.

A call's runs are split across W processes.  W is the number of CPUs this
process may use (``os.sched_getaffinity``, or ``os.cpu_count`` where that
does not exist), but at most ``runs // _MIN_PART`` and at least 1; it is 1
where ``os.fork`` does not exist.  Every rule is built, and so checked,
before anything else, and every result array is made in anonymous shared
memory; then ``[0, runs)`` is cut into W even, contiguous parts.  The
calling process forks W - 1 children and runs part 0 through the chunk loop
above while each child runs its own part through the same loop, and every
process writes its rows of the results in place, so nothing is copied
back.  An episode reads only its own (master seed, run index) streams, so
which process runs it, and beside which others, changes no byte: a split
equals W = 1, which is the loop run in the calling process alone.  Every
child leaves through ``os._exit`` and is reaped before the call returns; if
the call fails, the children still running are killed first.  A child's
pipe carries only its exception, which is raised again in the parent; a
child that ends with a nonzero status and no exception raises
:class:`ChildProcessError`, naming its runs and its exit status.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .model import (Bounds, Instance, Sampler, as_tuple, check_int, check_simplex, episode_cap,
                    episode_rngs)
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
# least runs per worker process.  Forking, and the copy-on-write faults that
# follow it, cost 5-7 ms per call on a 2-vCPU host, so two processes beat
# one only on enough work: at K = 2 and B = 100 (lyon, lyoff and static
# alone, medians of 21 alternating calls) W = 2 took 1.08-1.15 times as long
# as W = 1 at 512 runs and 0.96-1.02 times at 768, so it breaks even at
# about 2 x 384 runs.  At B = 20 it broke even only at about 1,536 runs
_MIN_PART = 384


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

    def advance(self) -> None:
        """Draw every row's next block, block 0 at first, over its current one."""
        for gens, block, tile in self._streams:
            for start in range(0, len(gens), len(tile)):
                rows = gens[start:start + len(tile)]
                for gen, row in zip(rows, tile):
                    gen.random(out=row)
                block[:, start:start + len(rows)] = tile[:len(rows)].swapaxes(0, 1)


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
    """One :class:`BatchResult` per (spec, budget) pair of the non-empty sequence ``cells``.

    An ``instance`` that is not an :class:`~lybandit.model.Instance`,
    ``cells`` that are not such a sequence of :class:`PolicySpec` and budget
    pairs, a ``track_lcb`` that is not a bool, ``bounds`` that are neither
    None nor a :class:`~lybandit.model.Bounds`, and a given ``p_default``
    that is not a probability vector over the instance's arms, read or not,
    each raise one ValueError naming the argument.

    Every cell's rule is built once per call, which runs the cell's checks,
    before any process is forked or any chunk derives its streams.  The
    results live in shared memory, and the runs are cut into W even,
    contiguous parts, one per process (see the module notes for how W is
    chosen): the calling process runs the first and a forked child each other
    one, and every process writes its own rows in place.  No byte depends on
    W, since each episode reads only its own streams.  A child's exception is
    raised here; a child that dies without one raises
    :class:`ChildProcessError`.  Each part goes in chunks of
    ``_CHUNK``; each chunk starts every rule (the ``track_lcb`` checks run
    there) before it draws its first block, and draws policy streams only if
    some rule uses them.  The arguments are as for :func:`simulate_batch`.
    """
    check_int(runs, "runs", 1)
    check_int(master_seed, "master_seed", 0)
    check_int(run_start, "run_start", 0)
    cells = as_tuple(cells, "cells")
    if not cells:
        raise ValueError("cells must name at least one (spec, budget) pair")
    for cell in cells:
        if not (isinstance(cell, Sequence) and len(cell) == 2 and isinstance(cell[0], PolicySpec)):
            raise ValueError(f"cells must hold (PolicySpec, budget) pairs, got {cell!r}")
    caps = [episode_cap(instance, budget, cap) for _, budget in cells]
    if not isinstance(track_lcb, (bool, np.bool_)):
        raise ValueError(f"track_lcb must be a bool, got {track_lcb!r}")
    if not (bounds is None or isinstance(bounds, Bounds)):
        raise ValueError(f"bounds must be None or a Bounds, got {bounds!r}")
    try:
        if p_default is not None and len(check_simplex(p_default)) != instance.n_arms:
            raise ValueError(f"p has {len(p_default)} entries for {instance.n_arms} arms")
    except ValueError as exc:
        raise ValueError(f"p_default: {exc}") from None
    # building runs every check of a cell, so every cell is checked before
    # any process is forked or any stream is derived
    rules = [spec.build(instance, budget, None, p_default=p_default, bounds=bounds)
             for spec, budget in cells]
    policy = any(rule.uses_stream for rule in rules)
    groups = _groups(cells, rules)
    stacks = [_stack(len(group) * runs, instance.n_arms, track_lcb) for group in groups]
    results = [None] * len(cells)
    for group, stack in zip(groups, stacks):
        for stage, i in enumerate(group):
            results[i] = _rows(stack, slice(stage * runs, (stage + 1) * runs))

    # runs lo .. hi - 1 of the call, chunk by chunk, in this process
    def run_part(lo, hi):
        for start in range(lo, hi, _CHUNK):
            streams = _Streams(master_seed, run_start + start, min(_CHUNK, hi - start), policy)
            passes = [_simulate_chunk(instance, rules[group[-1]], [cells[i][1] for i in group],
                                      [caps[i] for i in group], streams, stack,
                                      np.arange(len(group)) * runs + start)
                      for group, stack in zip(groups, stacks)]
            # a list, so that every pass goes on to its next block boundary or its end
            while any([next(p, False) for p in passes]):
                streams.advance()
            # released before the next chunk's streams are made
            del streams

    workers = _workers(runs)
    _run_parts([runs * w // workers for w in range(workers + 1)], run_part)
    return results


def _workers(runs) -> int:
    """The number of processes that share a call of ``runs`` runs: see the module notes."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, runs // _MIN_PART))


def _run_parts(bounds, run_part) -> None:
    """``run_part(lo, hi)`` for each part [lo, hi) of the ascending ``bounds``.

    The first part runs here; each other part runs in a forked child, which
    writes its rows into the results in place, since they live in shared
    memory.  The pipe from each child carries only its exception.
    """
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():
                    # numpy's BLAS thread pool makes this process
                    # multi-threaded, and Python 3.12 and later warn when such
                    # a process forks.  The child makes no BLAS call, so it
                    # never needs the pool threads that it does not have
                    warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                            DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _child(write, run_part, lo, hi)
            os.close(write)
            children.append((pid, open(read, "rb"), lo, hi))
        run_part(bounds[0], bounds[1])
        for child in children:
            _receive(*child)
    finally:
        for pid, pipe, _, _ in children:
            # _receive closes the pipe of a child before it reaps it, and a
            # reaped child's pid may already name another process
            if not pipe.closed:
                pipe.close()
                # imported only here: making its enums would add about 1.5 ms
                # to every start of the CLI
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(write, run_part, lo, hi):
    """Run one part in a forked child, send its exception if it fails, and exit."""
    code = 1
    try:
        with open(write, "wb") as pipe:
            try:
                run_part(lo, hi)
            except BaseException as exc:
                # every exception, an interrupt included, is raised again in
                # the parent; it is pickled before anything is sent, so a
                # failure to pickle it sends nothing
                pipe.write(pickle.dumps(exc))
        code = 0
    finally:
        # never the parent's cleanup: no atexit handler, no flush of its buffers
        os._exit(code)


def _receive(pid, pipe, lo, hi) -> None:
    """Read a child's pipe to its end and reap it; raise its exception, or its death."""
    sent = pipe.read()
    pipe.close()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if sent:
        raise pickle.loads(sent)
    if status:
        raise ChildProcessError(f"the worker process for runs {lo}..{hi - 1} ended with "
                                f"status {status} before sending its results")


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


def _shared(shape, dtype=np.float64) -> np.ndarray:
    """A zeroed array in anonymous shared memory, which forked children write in place."""
    dtype = np.dtype(dtype)
    return np.ndarray(shape, dtype, mmap.mmap(-1, dtype.itemsize * math.prod(shape)))


def _stack(rows, k, track_lcb) -> BatchResult:
    """A shared result of ``rows`` episodes: a pass's results, one after the other.

    Every row is written by its pass, so no field needs a starting value.
    """
    return BatchResult(
        n_pulls=_shared((rows,), np.int64),
        **{name: _shared((rows,)) for name in ("total_cost", "total_reward", "total_penalty",
                                               "q_final", "q_max")},
        pulls_per_arm=_shared((rows, k)), cost_per_arm=_shared((rows, k)),
        capped=_shared((rows,), bool), lcb_ok=_shared((rows,), bool) if track_lcb else None,
    )


def _simulate_chunk(instance, rule, budgets, caps, streams, out, first):
    """One pass of ``rule``, started here, over the runs of ``streams``, at each of ``budgets``.

    The ``budgets`` ascend, and ``caps`` are their resolved epoch caps.
    ``out`` holds each budget's result in that order, and ``first`` the row
    of ``out`` that takes the chunk's row 0 for each budget.  A generator:
    at each block boundary, epoch 0 included, it yields True, and it goes on
    once ``streams`` hold that block for every row of the chunk.
    """
    last, budget = len(budgets) - 1, budgets[-1]
    budgets = np.array(budgets)
    m = streams.env.shape[1]
    # the chunk's row of each row the pass holds
    held = np.arange(m)
    rule.start(m, None if out.lcb_ok is None else instance)
    sampler = Sampler(instance.arms)
    active = np.ones(m, dtype=bool)
    # running (cost, reward, penalty) of each row
    totals = np.zeros((m, 3))
    q_max = np.zeros(m)
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
        pulls = rule.pulls[rows]
        # the tallies count whole pulls, so their sum is exact
        out.n_pulls[at] = pulls.sum(axis=1)
        row_totals = totals[rows]
        out.total_cost[at], out.total_reward[at], out.total_penalty[at] = row_totals.T
        out.capped[at] = ~(row_totals[:, 0] > budgets[stages])
        out.pulls_per_arm[at] = pulls
        out.cost_per_arm[at] = rule.cost[rows]
        out.q_max[at] = q_max[rows]
        out.q_final[at] = rule.q[rows]
        if out.lcb_ok is not None:
            out.lcb_ok[at] = rule.lcb_ok[rows]

    for epoch in range(caps[-1]):
        off = epoch % _BLOCK
        if off == 0:
            yield True
        env = streams.env[off]
        # rules that draw no policy uniform ignore u
        u = None if streams.policy is None else streams.policy[off]
        if held.size < m:
            env = env[held]
            u = None if u is None else u[held]

        # selection sees only outcomes of earlier epochs
        arms = rule.select_batch(epoch, active, u)
        # finished rows read their own streams' next uniforms; their outcome
        # is zeroed, and a zero outcome changes no state
        outcome = sampler.draw(arms, env)
        outcome[~active] = 0.0
        rule.observe_batch(arms, active, *outcome.T)
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
            held, active, totals, q_max, stage = (
                a[rows] for a in (held, active, totals, q_max, stage))
            rule.keep(rows)

    write(last, slice(None))
