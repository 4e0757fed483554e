from __future__ import annotations

import math
import os
import pickle
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import lybandit.engine as engine
import lybandit.model as model
from lybandit import ArmSpec, Instance, PolicySpec, run_episode, solve_lfp
from lybandit.engine import simulate_batch, simulate_cells
from lybandit.model import derive_bounds, episode_env_rng, episode_policy_rng
from lybandit.policies import LyOffPolicy, LyOnPolicy, StaticPolicy, VectorPolicy

from conftest import MIXED_KINDS, assert_no_child_left, force_workers, random_feasible_instance

SPECS = [
    PolicySpec("stationary", "stationary"),
    PolicySpec("static", "static", arm=0),
    PolicySpec("lyoff", "lyoff", v0=1.0, delta0=0.5),
    PolicySpec("lyon", "lyon", v0=1.0, delta0=0.5),
    PolicySpec("lyon-log", "lyon", v0=1.0, delta0=0.5, schedule="sqrt-log"),
    PolicySpec("lyon-lit", "lyon", v0=1.0, delta0=0.5, index_variant="literal-paper"),
    PolicySpec("ucb", "ucb_bwi", v0=1.0),
]


def assert_batch_matches_sequential(instance, spec, budget, runs, seed, run_start=0):
    sol = solve_lfp(instance)
    bounds = derive_bounds(instance)
    batch = simulate_batch(
        instance, spec, budget, runs, seed, run_start=run_start, p_default=sol.p_star,
        bounds=bounds
    )
    for e in range(runs):
        policy = spec.build(
            instance,
            budget,
            episode_policy_rng(seed, run_start + e),
            p_default=sol.p_star,
            bounds=bounds,
        )
        res = run_episode(instance, policy, budget, episode_env_rng(seed, run_start + e))
        assert res.n_pulls == batch.n_pulls[e]
        assert res.total_cost == batch.total_cost[e]
        assert res.total_reward == batch.total_reward[e]
        assert res.total_penalty == batch.total_penalty[e]
        assert np.array_equal(res.pulls_per_arm.astype(float), batch.pulls_per_arm[e])
        assert np.array_equal(res.cost_per_arm, batch.cost_per_arm[e])
        assert res.q_final == batch.q_final[e]
        assert res.q_max == batch.q_max[e]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_lockstep_equals_sequential(two_arm_instance, spec):
    assert_batch_matches_sequential(two_arm_instance, spec, 60.0, 25, 20260810)


def test_lockstep_equals_sequential_across_blocks(two_arm_instance, monkeypatch):
    # 16-epoch blocks: episodes of about 65-100 epochs refill several times
    # past the shared block 0, from the generators that drew it, while rows
    # that ended earlier draw blocks that they ignore
    monkeypatch.setattr(engine, "_BLOCK", 16)
    for spec in SPECS:
        assert_batch_matches_sequential(two_arm_instance, spec, 40.0, 12, 77)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_lockstep_equals_sequential_across_run_index_words(two_arm_instance, spec):
    # runs 2**32 - 3 .. 2**32 + 2: the chunk's run indices go from one uint32
    # word to two, so its streams are hashed in two stretches
    assert_batch_matches_sequential(two_arm_instance, spec, 60.0, 6, 20260810,
                                    run_start=2**32 - 3)


def test_lockstep_check_does_not_share_the_seed_hash(two_arm_instance, monkeypatch):
    # with bit 0 of each row's first seed word flipped in the engine's
    # vectorized hash, the one-episode streams stay numpy's own, so every
    # lockstep run must differ from its sequential twin
    def flipped(entropy, n, _hash=model._pcg64_seeds):
        seeds = _hash(entropy, n)
        seeds[:, 0] ^= np.uint64(1)
        return seeds

    monkeypatch.setattr(model, "_pcg64_seeds", flipped)
    seed, budget = 20260810, 60.0
    for run in range(3):
        for stream, episode_rng in enumerate((episode_env_rng, episode_policy_rng)):
            want = np.random.default_rng(np.random.SeedSequence((seed, run, stream)))
            assert episode_rng(seed, run).bit_generator.state == want.bit_generator.state
    sol = solve_lfp(two_arm_instance)
    for spec in (PolicySpec("lyon", "lyon", v0=1.0, delta0=0.5),
                 PolicySpec("stationary", "stationary")):
        batch = simulate_batch(two_arm_instance, spec, budget, 3, seed, p_default=sol.p_star)
        for e in range(3):
            policy = spec.build(two_arm_instance, budget, episode_policy_rng(seed, e),
                                p_default=sol.p_star)
            res = run_episode(two_arm_instance, policy, budget, episode_env_rng(seed, e))
            assert ((res.n_pulls, res.total_cost, res.total_reward, res.total_penalty)
                    != (batch.n_pulls[e], batch.total_cost[e], batch.total_reward[e],
                        batch.total_penalty[e])), (spec.name, e)


def test_lockstep_equality_on_mixed_kind_instance():
    instance = Instance(
        [
            ArmSpec.bernoulli(0.5, 0.9, 0.2),
            ArmSpec.scaled_uniform(0.6, 0.5, 0.3),
            ArmSpec.table([(0.4, 0.2, 1.0, 0.1), (0.6, 0.8, 0.3, 0.4)]),
        ],
        c=0.8,
    )
    for spec in (PolicySpec("stationary", "stationary"),
                 PolicySpec("lyon", "lyon", v0=1.0, delta0=0.2)):
        assert_batch_matches_sequential(instance, spec, 40.0, 20, 7)


def test_lockstep_equality_on_uniform_instance():
    instance = Instance(
        [ArmSpec.scaled_uniform(0.5, 0.9, 0.2), ArmSpec.scaled_uniform(0.7, 0.5, 0.4)],
        c=0.8,
    )
    for spec in (PolicySpec("stationary", "stationary"),
                 PolicySpec("lyoff", "lyoff", v0=1.0, delta0=0.2)):
        assert_batch_matches_sequential(instance, spec, 40.0, 20, 13)


def test_lockstep_equality_at_fifty_arms():
    # between two decisions most of the 50 arms go unpulled, so nearly every
    # entry of the online index comes from earlier epochs' refreshes
    instance = random_feasible_instance(np.random.default_rng(50), 50)
    for spec in SPECS:
        if spec.name in ("lyon", "lyon-lit", "ucb"):
            assert_batch_matches_sequential(instance, spec, 80.0, 8, 2026)


def test_episodes_ending_inside_exploration(two_arm_instance):
    # tiny budgets end some episodes before exploration completes; dead rows
    # must not poison later index computations with divide-by-zero
    instance = Instance(
        [
            ArmSpec.bernoulli(0.5, 0.9, 0.2),
            ArmSpec.bernoulli(0.6, 0.5, 0.3),
            ArmSpec.bernoulli(0.7, 0.4, 0.1),
        ],
        c=0.8,
    )
    spec = PolicySpec("lyon", "lyon", v0=1.0, delta0=0.2, exploration=4)
    with np.errstate(divide="raise", invalid="raise"):
        assert_batch_matches_sequential(instance, spec, 1.5, 30, 123)


def test_capped_batches(two_arm_instance):
    instance = Instance([ArmSpec.bernoulli(0.0, 0.5, 0.0)], c=0.9)
    batch = simulate_batch(
        instance, PolicySpec("s", "static", arm=0), 5.0, 8, 1, cap=40
    )
    assert batch.capped.all()
    assert (batch.n_pulls == 40).all()
    assert (batch.total_cost == 0.0).all()


@pytest.mark.parametrize(
    "spec",
    [
        PolicySpec("s", "stationary", p=(1.0,)),  # one entry for two arms
        PolicySpec("s", "static", arm=5),  # no such arm
    ],
)
def test_spec_checked_against_instance(two_arm_instance, spec):
    with pytest.raises(ValueError, match="2 arms"):
        simulate_batch(two_arm_instance, spec, 10.0, 2, 1)


@pytest.mark.parametrize("p_default", [[1.0], [0.2, 0.3, 0.5]], ids=["short", "long"])
def test_oracle_mixture_checked_before_any_stream(two_arm_instance, monkeypatch, p_default):
    # a one-entry default once ran every pull on arm 0, and a three-entry one
    # died mid-run in an IndexError
    derived = []
    def counted(*args, _derive=engine.episode_rngs):
        derived.append(args)
        return _derive(*args)
    monkeypatch.setattr(engine, "episode_rngs", counted)
    with pytest.raises(ValueError, match=f"p has {len(p_default)} entries for 2 arms"):
        simulate_batch(two_arm_instance, PolicySpec("s", "stationary"), 10.0, 2, 1,
                       p_default=np.array(p_default))
    assert derived == []


def test_chunking_does_not_change_results(two_arm_instance, monkeypatch):
    # each rule is built once and carries its state from chunk to chunk, so
    # only its start resets it: every spec at two budgets in one call (the
    # budget-free ones sharing a pass), 23 runs in chunks of 7 (7, 7, 7, 2)
    # against one chunk, in every field, the LCB record included
    cells = [(spec, budget) for spec in SPECS for budget in (20.0, 50.0)]
    kwargs = dict(p_default=solve_lfp(two_arm_instance).p_star, track_lcb=True)
    whole = simulate_cells(two_arm_instance, cells, 23, 3, **kwargs)
    monkeypatch.setattr(engine, "_CHUNK", 7)
    chunked = simulate_cells(two_arm_instance, cells, 23, 3, **kwargs)
    for got, want in zip(chunked, whole):
        assert_results_equal(got, want)


@pytest.mark.parametrize("spec", [s for s in SPECS if s.name in ("stationary", "lyon")],
                         ids=lambda s: s.name)
def test_mid_chunk_batch_equals_rows_of_one_chunk(two_arm_instance, monkeypatch, spec):
    # chunks of 7 from run 5 (5-11, 12-14) do not line up with those of a
    # batch from run 0; the rows depend only on their run indices
    sol = solve_lfp(two_arm_instance)
    kwargs = dict(p_default=sol.p_star, track_lcb=True)
    whole = simulate_batch(two_arm_instance, spec, 40.0, 15, 4, **kwargs)
    monkeypatch.setattr(engine, "_CHUNK", 7)
    part = simulate_batch(two_arm_instance, spec, 40.0, 10, 4, run_start=5, **kwargs)
    for f in fields(engine.BatchResult):
        assert np.array_equal(getattr(part, f.name), getattr(whole, f.name)[5:]), f.name


def assert_results_equal(got, want):
    """Every field of ``got`` has the dtype, shape and bytes of ``want``'s.

    Bytes, since ``np.array_equal`` reads any nonzero bool byte as True.
    """
    for f in fields(engine.BatchResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None) == (b is None), f.name
        if a is not None:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


def test_results_equal_compares_bytes():
    # a bool byte of 0xA5 reads as True to np.array_equal
    want = engine.BatchResult(*(np.zeros(3) for _ in range(8)), np.ones(3, bool))
    got = engine.BatchResult(*(np.zeros(3) for _ in range(8)), np.ones(3, bool))
    assert_results_equal(got, want)
    got.capped.view(np.uint8)[...] = 0xA5
    assert np.array_equal(got.capped, want.capped)
    with pytest.raises(AssertionError, match="capped"):
        assert_results_equal(got, want)
    for name, other in (("n_pulls", np.zeros(3, np.int64)), ("q_max", np.zeros((3, 1)))):
        got = engine.BatchResult(*(np.zeros(3) for _ in range(8)), np.ones(3, bool))
        setattr(got, name, other)
        with pytest.raises(AssertionError, match=name):
            assert_results_equal(got, want)


@pytest.mark.parametrize("mixed", [False, True], ids=["two-arm", "mixed-kinds"])
def test_compaction_changes_no_result(two_arm_instance, monkeypatch, mixed):
    # 16-epoch blocks and 7-run chunks (7, 7, 7, 2): every cell compacts at
    # every epoch, or never, or at the default threshold, and the three runs
    # agree bit for bit in every field, the LCB record included
    instance = MIXED_KINDS if mixed else two_arm_instance
    monkeypatch.setattr(engine, "_BLOCK", 16)
    monkeypatch.setattr(engine, "_CHUNK", 7)
    kept = []
    def keep(rule, rows, _keep=VectorPolicy.keep):
        kept.append(len(rows))
        _keep(rule, rows)
    monkeypatch.setattr(VectorPolicy, "keep", keep)
    cells = [(spec, budget) for spec in SPECS for budget in (10.0, 40.0)]
    p_default = solve_lfp(instance).p_star
    results, calls, default = {}, {}, engine._COMPACT
    for compact in (0.0, 1.0, default):
        monkeypatch.setattr(engine, "_COMPACT", compact)
        kept.clear()
        results[compact] = simulate_cells(instance, cells, 23, 31, p_default=p_default,
                                          track_lcb=True)
        calls[compact] = len(kept)
    assert calls[0.0] == 0 and calls[1.0] > calls[default] > 0
    never = results.pop(0.0)
    for other in results.values():
        for got, want in zip(other, never):
            assert_results_equal(got, want)
    assert all((r.n_pulls > 16).any() for r in never)


def as_arrays(value):
    if isinstance(value, dict):
        return tuple(value.values())
    return value if isinstance(value, tuple) else (value,)


def unnarrowed(rule, m):
    """Attributes of ``rule`` that still hold ``m`` rows (entries of a tuple or dict included)."""
    return [name for name, value in vars(rule).items()
            if any(isinstance(a, np.ndarray) and a.ndim and a.shape[0] == m
                   for a in as_arrays(value))]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_keep_narrows_every_per_row_array(spec):
    # 13 rows of 3 arms narrowed to 4 after a few epochs of random pulls past
    # exploration, so that the rule has made its work buffers and its tallies
    # hold pulls: no array of the rule keeps 13 rows, and the per-row state
    # keeps the values of the rows it kept
    m, rows = 13, np.array([1, 4, 5, 11])
    p_default = solve_lfp(MIXED_KINDS).p_star
    rule = spec.build(MIXED_KINDS, 40.0, None, p_default=p_default)
    rng = np.random.default_rng(3)
    rule.start(m, MIXED_KINDS)
    rule.q = rng.random(m)
    live = np.ones(m, dtype=bool)
    for n in range(10, 14):
        rule.select_batch(n, live, rng.random(m))
        rule.observe_batch(rng.integers(0, 3, m), live, *rng.random((3, m)))
    before = {name: getattr(rule, name) for name in rule._rows}
    assert before["pulls"].sum() == 4 * m and before["cost"].any()
    rule.keep(rows)
    assert unnarrowed(rule, m) == []
    assert rule.pulls.shape == rule.cost.shape == (4, 3)
    for name, value in before.items():
        for old, new in zip(as_arrays(value), as_arrays(getattr(rule, name))):
            assert np.array_equal(new, old[rows]), name


@pytest.mark.parametrize("unlisted", ["sum_y", "pulls", "cost"])
def test_keep_registry_check_catches_an_unlisted_array(unlisted):
    class Unlisted(LyOnPolicy):
        _rows = tuple(name for name in LyOnPolicy._rows if name != unlisted)

    rule = Unlisted(3, 0.8, 40.0, 6.0)
    rule.start(13)
    rule.keep(np.arange(4))
    assert unnarrowed(rule, 13) == [unlisted]


def test_streams_never_wider_than_a_chunk(two_arm_instance, monkeypatch):
    widths = []

    class Recorded(engine._Streams):
        def __init__(self, master_seed, run_start, m, policy):
            widths.append((run_start, m))
            super().__init__(master_seed, run_start, m, policy)

    monkeypatch.setattr(engine, "_Streams", Recorded)
    monkeypatch.setattr(engine, "_CHUNK", 8)
    batch = simulate_batch(two_arm_instance, PolicySpec("s", "stationary", p=(0.5, 0.5)),
                           10.0, 20, 1, run_start=3)
    assert widths == [(3, 8), (11, 8), (19, 4)]
    assert batch.runs == 20


@pytest.mark.parametrize("m", [1, 1024, 1536, 2048])
def test_stream_block_is_bounded_by_row_epochs(m):
    # 128 epochs up to 1,024 runs, fewer beyond, never over 128 x 1,024
    # row-epochs: 85 epochs at 1,536 runs and 64 at 2,048
    streams = engine._Streams(5, 0, m, policy=True)
    epochs = streams.env.shape[0]
    assert streams.env.shape == (epochs, m, 3) and streams.policy.shape == (epochs, m)
    assert epochs * m <= 128 * 1024
    assert epochs == (128 if m <= 1024 else 128 * 1024 // m)


@pytest.mark.parametrize("k, widths", [(2, [2048, 52]), (10, [2048, 52]), (16, [1280, 820]),
                                       (20, [1024, 1024, 52]), (50, [1024, 1024, 52])])
def test_chunk_holds_at_most_row_arms_but_half_a_chunk(k, widths, monkeypatch):
    # 2,048 runs up to K = 10, 20,480 row-arms between, 1,024 runs from K = 20
    force_workers(monkeypatch, 1)
    seen = []

    class Recorded(engine._Streams):
        def __init__(self, master_seed, run_start, m, policy):
            seen.append(m)
            super().__init__(master_seed, run_start, m, policy)

    monkeypatch.setattr(engine, "_Streams", Recorded)
    instance = Instance([ArmSpec.bernoulli(0.5, 0.5, 0.1)] * k, c=0.8)
    simulate_batch(instance, PolicySpec("s", "static", arm=0), 1.0, 2100, 1)
    assert seen == widths


def test_a_part_of_up_to_a_chunk_starts_each_rule_once(two_arm_instance, monkeypatch):
    # 1,536 runs at W = 1 are one chunk, not a 1,024-run chunk and a 512-run
    # one: every pass starts its rule once, over all of them
    force_workers(monkeypatch, 1)
    starts = []
    def start(rule, m, truth=None, _start=VectorPolicy.start):
        starts.append((id(rule), m))
        _start(rule, m, truth)
    monkeypatch.setattr(VectorPolicy, "start", start)
    cells = [(spec, budget) for spec in SPECS for budget in (5.0, 10.0)]
    simulate_cells(two_arm_instance, cells, 1536, 3, p_default=solve_lfp(two_arm_instance).p_star)
    # the rules start at m = 1 when they are built; a budget-free spec's two
    # cells share one pass
    passes = [(rule, m) for rule, m in starts if m > 1]
    assert len(passes) == len(SPECS) * 2 - 2
    assert len({rule for rule, _ in passes}) == len(passes)
    assert all(m == 1536 for _, m in passes)


def test_row_epoch_bound_changes_no_result(two_arm_instance, monkeypatch):
    # a bound of 69 row-epochs gives the 23-run chunk 3-epoch blocks, so every
    # episode crosses many block boundaries; every field of every cell, the
    # LCB record included, equals the default geometry's
    cells = [(spec, budget) for spec in SPECS for budget in (10.0, 40.0)]
    kwargs = dict(p_default=solve_lfp(two_arm_instance).p_star, track_lcb=True)
    want = simulate_cells(two_arm_instance, cells, 23, 11, **kwargs)
    monkeypatch.setattr(engine, "_ROW_EPOCHS", 69)
    blocks = []
    def advance(streams, _advance=engine._Streams.advance):
        blocks.append(streams.env.shape[:2])
        _advance(streams)
    monkeypatch.setattr(engine._Streams, "advance", advance)
    got = simulate_cells(two_arm_instance, cells, 23, 11, **kwargs)
    assert len(blocks) > 20 and set(blocks) == {(3, 23)}
    for g, w in zip(got, want):
        assert_results_equal(g, w)


def test_stream_blocks_are_epoch_major_and_each_row_its_own_stream(monkeypatch):
    # 16-epoch blocks drawn through tiles of 2 env rows and 7 policy rows, so
    # 23 runs end in a partial tile of each stream
    monkeypatch.setattr(engine, "_BLOCK", 16)
    monkeypatch.setattr(engine, "_TILE", 1_000)
    seed, run_start, m = 91, 40, 23
    streams = engine._Streams(seed, run_start, m, policy=True)
    envs = [episode_env_rng(seed, run_start + e) for e in range(m)]
    pols = [episode_policy_rng(seed, run_start + e) for e in range(m)]
    # a new _Streams draws nothing; each advance draws every row's next
    # block, block 0 first
    for _ in range(3):
        streams.advance()
        for e in range(m):
            assert np.array_equal(streams.env[:, e], envs[e].random((16, 3))), e
            assert np.array_equal(streams.policy[:, e], pols[e].random(16)), e
        assert all(streams.env[t].flags.c_contiguous and streams.policy[t].flags.c_contiguous
                   for t in range(16))


def test_memory_peak_is_the_shared_stream_blocks(two_arm_instance, monkeypatch):
    # at B = 700 every episode of the four rule types runs 1,100-1,800
    # epochs, into a second block: each later block is drawn into the
    # chunk's own stream arrays, with no per-cell copy of them.  1,024-epoch
    # blocks keep the blocks, not the fixed cost of the cells' state, the
    # bulk of the peak at 64 runs
    monkeypatch.setattr(engine, "_BLOCK", 1024)
    specs = [PolicySpec("stationary", "stationary"), PolicySpec("static", "static", arm=0),
             PolicySpec("lyoff", "lyoff"), PolicySpec("lyon", "lyon")]
    cells = [(spec, 700.0) for spec in specs]
    p_default = solve_lfp(two_arm_instance).p_star
    # a first call imports what numpy loads lazily, outside the trace
    simulate_cells(two_arm_instance, cells, 1, 5, p_default=p_default)
    runs = 64
    stream_blocks = runs * engine._BLOCK * (3 + 1) * 8  # env and policy, float64
    tracemalloc.start()
    try:
        results = simulate_cells(two_arm_instance, cells, runs, 5, p_default=p_default)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all((r.n_pulls > engine._BLOCK).all() for r in results)
    assert peak < 1.5 * stream_blocks, peak


@pytest.mark.parametrize("cap", [0, -5])
def test_nonpositive_cap_rejected(two_arm_instance, cap):
    with pytest.raises(ValueError, match="cap must be at least 1"):
        simulate_batch(two_arm_instance, PolicySpec("s", "static", arm=0), 10.0, 2, 1, cap=cap)


@pytest.mark.parametrize("cap", [2.5, True])
def test_non_integer_cap_rejected(two_arm_instance, cap):
    with pytest.raises(ValueError, match="cap must be at least 1 and an integer"):
        simulate_batch(two_arm_instance, PolicySpec("s", "static", arm=0), 10.0, 2, 1, cap=cap)


@pytest.mark.parametrize("budget", [0.0, -3.0, float("nan")])
def test_nonpositive_budget_rejected(two_arm_instance, budget):
    # NaN never compares above the cost, so every episode would run to the cap
    with pytest.raises(ValueError, match=r"budget must be a finite number in \(0, inf\)"):
        simulate_batch(two_arm_instance, PolicySpec("s", "static", arm=0), budget, 2, 1, cap=50)


@pytest.mark.parametrize("cap", [None, 50])
def test_infinite_budget_rejected(two_arm_instance, cap):
    # never exceeded: without a cap the default cap overflows, with one every
    # episode would silently run into it
    match = r"budget must be a finite number in \(0, inf\)"
    with pytest.raises(ValueError, match=match):
        simulate_batch(two_arm_instance, PolicySpec("s", "static", arm=0), math.inf,
                       2, 1, cap=cap)
    with pytest.raises(ValueError, match=match):
        run_episode(two_arm_instance, StaticPolicy(0, two_arm_instance.n_arms), math.inf,
                    episode_env_rng(1, 0), cap=cap)


@pytest.mark.parametrize(
    "runs, seed, name",
    [
        (2.5, 1, "runs"),
        (True, 1, "runs"),
        (2, 1.5, "master_seed"),
        (2, True, "master_seed"),
        (2, -1, "master_seed"),
    ],
    ids=["runs=2.5", "runs=True", "master_seed=1.5", "master_seed=True", "master_seed=-1"],
)
def test_runs_and_seed_must_be_integers(two_arm_instance, runs, seed, name):
    spec = PolicySpec("s", "static", arm=0)
    match = f"{name} must be at least . and an integer"
    with pytest.raises(ValueError, match=match):
        simulate_batch(two_arm_instance, spec, 10.0, runs, seed)
    with pytest.raises(ValueError, match=match):
        simulate_cells(two_arm_instance, [(spec, 10.0)], runs, seed)


@pytest.mark.parametrize("run_start", [-1, 1.5, True])
def test_run_start_must_be_a_nonnegative_integer(two_arm_instance, run_start):
    spec = PolicySpec("s", "static", arm=0)
    with pytest.raises(ValueError, match="run_start must be at least 0 and an integer"):
        simulate_batch(two_arm_instance, spec, 10.0, 2, 1, run_start=run_start)


def test_empty_cell_rejected(two_arm_instance):
    with pytest.raises(ValueError, match="runs must be at least 1"):
        simulate_batch(two_arm_instance, PolicySpec("s", "static", arm=0), 10.0, 0, 1)


def test_empty_cell_list_rejected_before_any_stream(two_arm_instance, monkeypatch):
    # an empty list once derived every run's streams and returned []
    derived = []
    def counted(*args, _derive=engine.episode_rngs):
        derived.append(args)
        return _derive(*args)
    monkeypatch.setattr(engine, "episode_rngs", counted)
    with pytest.raises(ValueError, match="cells must name at least one"):
        simulate_cells(two_arm_instance, [], 5, 1)
    assert derived == []


SPEC = PolicySpec("s", "static", arm=0)


@pytest.mark.parametrize("instance, cells, words", [
    ("x", lambda: [(SPEC, 10.0)], "instance must be an Instance, got 'x'"),
    (None, lambda: [("x", 10.0)], r"cells must hold \(PolicySpec, budget\) pairs, got \('x'"),
    (None, lambda: [SPEC], r"cells must hold \(PolicySpec, budget\) pairs, got PolicySpec"),
    (None, lambda: [(SPEC,)], r"cells must hold \(PolicySpec, budget\) pairs, got \(PolicySpec"),
    (None, lambda: [(SPEC, 10.0, 1)], r"cells must hold \(PolicySpec, budget\) pairs"),
    (None, lambda: ((SPEC, b) for b in (10.0,)), "cells must be a sequence, got <generator"),
    (None, lambda: "ab", "cells must be a sequence, got 'ab'"),
], ids=["instance", "spec-name", "bare-spec", "one-tuple", "triple", "generator", "string"])
def test_bad_cells_or_instance_refused_before_any_build(two_arm_instance, monkeypatch,
                                                        instance, cells, words):
    # these once raised AttributeError, TypeError or a bare unpacking error
    def refuse(*args, **kwargs):
        pytest.fail("a rule was built or a stream derived")
    monkeypatch.setattr(PolicySpec, "build", refuse)
    monkeypatch.setattr(engine, "episode_rngs", refuse)
    instance = two_arm_instance if instance is None else instance
    with pytest.raises(ValueError, match=f"^{words}"):
        simulate_cells(instance, cells(), 5, 1)
    if instance == "x":
        with pytest.raises(ValueError, match=f"^{words}"):
            simulate_batch(instance, SPEC, 10.0, 5, 1)


@pytest.mark.parametrize("spec, kwargs, words", [
    (SPEC, dict(track_lcb="no"), "track_lcb must be a bool, got 'no'"),
    (SPEC, dict(track_lcb=np.array([True, False])), r"track_lcb must be a bool, got array"),
    (PolicySpec("l", "lyon"), dict(bounds="x"), "bounds must be None or a Bounds, got 'x'"),
    (SPEC, dict(p_default="ab"), "p_default: p must be a one-dimensional probability vector"),
    (SPEC, dict(p_default=[0.5, 0.7]), "p_default: probabilities must sum to 1, got 1.2"),
    (SPEC, dict(p_default=[1.0]), "p_default: p has 1 entries for 2 arms"),
    (PolicySpec("s", "stationary"), dict(p_default=np.array([0.5, 0.7])),
     "p_default: probabilities must sum to 1"),
], ids=["track-lcb-string", "track-lcb-array", "bounds", "p-default-string",
        "p-default-sum", "p-default-unread-short", "p-default-read-sum"])
def test_bad_options_refused_before_any_build(two_arm_instance, monkeypatch, spec, kwargs, words):
    # a string track_lcb once ran and tracked the bound, an array raised
    # numpy's own error, and a bad bounds or p_default ran without a word
    # unless some rule read it
    def refuse(*args, **kwargs):
        pytest.fail("a rule was built or a stream derived")
    monkeypatch.setattr(PolicySpec, "build", refuse)
    monkeypatch.setattr(engine, "episode_rngs", refuse)
    with pytest.raises(ValueError, match=f"^{words}"):
        simulate_cells(two_arm_instance, [(spec, 10.0)], 4, 1, **kwargs)
    with pytest.raises(ValueError, match=f"^{words}"):
        simulate_batch(two_arm_instance, spec, 10.0, 4, 1, **kwargs)


def test_each_cell_built_once(two_arm_instance, monkeypatch):
    # 23 runs in chunks of 7 are 4 chunks, and each chunk only starts the
    # rules; a separate check pass once made it 15 builds for 3 cells, and a
    # build per chunk 12
    built = []
    def build(spec, *args, _build=PolicySpec.build, **kwargs):
        built.append(spec.name)
        return _build(spec, *args, **kwargs)
    monkeypatch.setattr(PolicySpec, "build", build)
    monkeypatch.setattr(engine, "_CHUNK", 7)
    cells = [(PolicySpec("stationary", "stationary"), 20.0),
             (PolicySpec("lyon", "lyon"), 20.0), (PolicySpec("lyon", "lyon"), 40.0)]
    p_default = solve_lfp(two_arm_instance).p_star
    simulate_cells(two_arm_instance, cells, 23, 9, p_default=p_default)
    assert built == ["stationary", "lyon", "lyon"]


@pytest.mark.parametrize("x_mean, v0, words", [
    (0.0, 1.0, "rates need positive expected cost"),
    (1e-10, 1e298, "overflows the offline scores"),
], ids=["zero-cost", "overflow"])
def test_track_lcb_refusal_draws_no_block(monkeypatch, x_mean, v0, words):
    # the online rule checks the true means it tracks against when it starts;
    # every pass starts its rule before the chunk draws its first block, so
    # the static pass ahead of it has drawn nothing either
    instance = Instance([ArmSpec.bernoulli(x_mean, 0.5, 0.1),
                         ArmSpec.bernoulli(0.5, 0.5, 0.1)], c=0.8)
    advanced = []
    def advance(streams, _advance=engine._Streams.advance):
        advanced.append(streams)
        _advance(streams)
    monkeypatch.setattr(engine._Streams, "advance", advance)
    cells = [(PolicySpec("s", "static", arm=1), 50.0), (PolicySpec("l", "lyon", v0=v0), 50.0)]
    with pytest.raises(ValueError, match=words):
        simulate_cells(instance, cells, 8, 1, cap=500, track_lcb=True)
    assert advanced == []


def test_lcb_tracking_shape(two_arm_instance):
    sol = solve_lfp(two_arm_instance)
    spec = PolicySpec("lyon", "lyon")
    batch = simulate_batch(
        two_arm_instance, spec, 30.0, 10, 5, p_default=sol.p_star, track_lcb=True
    )
    assert batch.lcb_ok is not None and batch.lcb_ok.shape == (10,)
    batch = simulate_batch(
        two_arm_instance, spec, 30.0, 10, 5, p_default=sol.p_star, track_lcb=False
    )
    assert batch.lcb_ok is None


# Bernoulli costs, and table arms whose cost atoms are 0 or 1
MIXED_01_COSTS = Instance(
    [
        ArmSpec.bernoulli(0.4, 0.8, 0.6),
        ArmSpec.table([(0.3, 1.0, 1.0, 0.0), (0.2, 1.0, 0.0, 1.0), (0.5, 0.0, 0.5, 0.0)]),
        ArmSpec.table([(0.7, 1.0, 0.2, 0.1), (0.3, 0.0, 1.0, 0.0)]),
    ],
    c=0.6,
)


@pytest.mark.parametrize("mixed", [False, True], ids=["bernoulli", "mixed-table"])
def test_budget_free_rules_match_the_negative_binomial_reference(two_arm_instance, mixed):
    """Exact reference for the stop rule and the outcome draw.

    With 0/1 costs, an episode stops at the first pull whose cumulative cost
    exceeds B, which is exactly N = floor(B) + 1.  Under a fixed mixture p with
    mean cost mu = p.E[X], the pull count is negative binomial with mean N/mu,
    and by Wald's identity the total reward has mean (p.E[R]) N/mu and arm k
    is pulled p_k N/mu times on average.
    """
    instance = MIXED_01_COSTS if mixed else two_arm_instance
    ex, er, _ = instance.true_means()
    p_star = solve_lfp(instance).p_star
    runs = 2000
    for spec in (PolicySpec("arm2", "static", arm=1), PolicySpec("mix", "stationary")):
        p = np.eye(instance.n_arms)[1] if spec.type == "static" else p_star
        for budget in (100.0, 10.5):
            batch = simulate_batch(instance, spec, budget, runs, 8, p_default=p_star)
            n_cost = math.floor(budget) + 1
            assert np.all(batch.total_cost == n_cost), (spec.name, budget)
            mean_n = n_cost / float(p @ ex)
            expected = [
                (batch.n_pulls, mean_n),
                (batch.total_reward, float(p @ er) * mean_n),
                *((batch.pulls_per_arm[:, k], p_k * mean_n) for k, p_k in enumerate(p)),
            ]
            # an arm the rule never pulls has zero spread about a zero mean
            for values, mean in expected:
                se = np.std(values, ddof=1) / math.sqrt(runs)
                assert abs(np.mean(values) - mean) <= 4.0 * se + 1e-12, (spec.name, budget)


# budgets out of order, 5.0 and 5.1 (one pull of a 0/1 cost passes both)
# and 10.0 twice
SHARED_BUDGETS = (40.0, 5.1, 10.0, 5.0, 20.0, 10.0)
BUDGET_FREE = [PolicySpec("stationary", "stationary"), PolicySpec("static", "static", arm=0)]


def assert_shared_pass_equals_per_budget(instance, specs, cap, runs, run_start):
    """Every cell of one ``simulate_cells`` call equals its own ``simulate_batch``."""
    kwargs = dict(cap=cap, p_default=solve_lfp(instance).p_star, track_lcb=True)
    cells = [(spec, budget) for spec in specs for budget in SHARED_BUDGETS]
    shared = simulate_cells(instance, cells, runs, 17, run_start, **kwargs)
    for (spec, budget), got in zip(cells, shared):
        want = simulate_batch(instance, spec, budget, runs, 17, run_start, **kwargs)
        assert_results_equal(got, want)
    return dict(zip(cells, shared))


@pytest.mark.parametrize("cap", [None, 25, 60])
def test_shared_pass_equals_per_budget_cells(monkeypatch, cap):
    # 7-run chunks from run 5 and 16-epoch blocks; lyon among the cells has
    # its own pass.  A cap of 25 or 60 binds at the larger budgets only
    monkeypatch.setattr(engine, "_CHUNK", 7)
    monkeypatch.setattr(engine, "_BLOCK", 16)
    specs = [*BUDGET_FREE, PolicySpec("lyon", "lyon", v0=1.0, delta0=0.2)]
    results = assert_shared_pass_equals_per_budget(MIXED_KINDS, specs, cap, 23, 5)
    static = {budget: results[BUDGET_FREE[1], budget] for budget in SHARED_BUDGETS}
    assert np.array_equal(static[5.0].n_pulls, static[5.1].n_pulls)
    assert (static[5.0].n_pulls < static[40.0].n_pulls).all()
    if cap is not None:
        assert not static[5.0].capped.any() and static[40.0].capped.any()


def test_shared_pass_equals_per_budget_cells_over_chunks(monkeypatch):
    # 2,100 runs in one process: a full 2,048-run chunk and a 52-run one
    force_workers(monkeypatch, 1)
    assert_shared_pass_equals_per_budget(MIXED_KINDS, BUDGET_FREE, None, 2100, 0)


def test_shared_pass_equals_sequential(two_arm_instance):
    # the last runs of each budget, against the one-episode runner
    sol = solve_lfp(two_arm_instance)
    runs, seed = 30, 20260810
    for spec in BUDGET_FREE:
        cells = [(spec, budget) for budget in SHARED_BUDGETS]
        shared = simulate_cells(two_arm_instance, cells, runs, seed, p_default=sol.p_star)
        for budget, batch in zip(SHARED_BUDGETS, shared):
            for e in range(runs - 5, runs):
                policy = spec.build(two_arm_instance, budget, episode_policy_rng(seed, e),
                                    p_default=sol.p_star)
                res = run_episode(two_arm_instance, policy, budget, episode_env_rng(seed, e))
                assert res.n_pulls == batch.n_pulls[e]
                assert (res.total_cost, res.total_reward, res.total_penalty) == (
                    batch.total_cost[e], batch.total_reward[e], batch.total_penalty[e])
                assert np.array_equal(res.pulls_per_arm.astype(float), batch.pulls_per_arm[e])
                assert np.array_equal(res.cost_per_arm, batch.cost_per_arm[e])
                assert (res.q_final, res.q_max) == (batch.q_final[e], batch.q_max[e])
                assert not batch.capped[e]


def test_budget_free_flag_names_exactly_the_budget_free_rules(monkeypatch):
    p_default = solve_lfp(MIXED_KINDS).p_star
    free = {spec.type for spec in SPECS
            if spec.build(MIXED_KINDS, 40.0, None, p_default=p_default).budget_free}
    assert free == {"static", "stationary"}
    # a rule that reads its budget, flagged budget-free, shares a pass it must not
    monkeypatch.setattr(LyOffPolicy, "budget_free", True)
    with pytest.raises(AssertionError):
        assert_shared_pass_equals_per_budget(MIXED_KINDS, [PolicySpec("lyoff", "lyoff")],
                                            None, 9, 0)


def test_shared_pass_selects_as_often_as_its_largest_budget(two_arm_instance, monkeypatch):
    # the saving of the shared pass: its select_batch calls per chunk are
    # those of the B = 40 cell alone, not the sum over the four budgets
    monkeypatch.setattr(engine, "_CHUNK", 16)
    calls = []
    def counted(rule, *args, _select=StaticPolicy.select_batch):
        calls.append(1)
        return _select(rule, *args)
    monkeypatch.setattr(StaticPolicy, "select_batch", counted)
    spec = PolicySpec("static", "static", arm=0)
    simulate_cells(two_arm_instance, [(spec, b) for b in (5.0, 10.0, 20.0, 40.0)], 40, 3)
    shared = len(calls)
    calls.clear()
    simulate_batch(two_arm_instance, spec, 40.0, 40, 3)
    assert shared == len(calls) > 0


def fail_past(monkeypatch, first, fail):
    """Make every chunk that starts at run ``first`` or later call ``fail()``."""
    def streams(self, master_seed, run_start, m, policy, _init=engine._Streams.__init__):
        if run_start >= first:
            fail()
        _init(self, master_seed, run_start, m, policy)
    monkeypatch.setattr(engine._Streams, "__init__", streams)


@pytest.mark.parametrize("workers", [2, 3])
def test_split_changes_no_result(monkeypatch, workers):
    # 23 runs in 7-run chunks divide by neither 2 nor 3 nor 7: the parts are
    # 11 and 12 runs, or 7, 8 and 8, each of several chunks.  Every spec at
    # two budgets, the budget-free ones sharing a pass, in every field
    monkeypatch.setattr(engine, "_CHUNK", 7)
    cells = [(spec, budget) for spec in SPECS for budget in (10.0, 40.0)]
    kwargs = dict(p_default=solve_lfp(MIXED_KINDS).p_star, track_lcb=True)
    force_workers(monkeypatch, 1)
    whole = simulate_cells(MIXED_KINDS, cells, 23, 29, **kwargs)
    force_workers(monkeypatch, workers)
    split = simulate_cells(MIXED_KINDS, cells, 23, 29, **kwargs)
    for got, want in zip(split, whole):
        assert_results_equal(got, want)
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 3])
def test_every_result_row_is_written(monkeypatch, workers):
    # the shared result arrays start at zero, so each pass must write every
    # row of its results: arrays that start as 0xA5 bytes instead must give
    # the same bytes.  Every spec at three budgets, the cap binding at the
    # larger two, the LCB record included
    monkeypatch.setattr(engine, "_CHUNK", 7)
    cells = [(spec, budget) for spec in SPECS for budget in (5.0, 10.0, 40.0)]
    kwargs = dict(cap=25, p_default=solve_lfp(MIXED_KINDS).p_star, track_lcb=True)
    force_workers(monkeypatch, workers)
    want = simulate_cells(MIXED_KINDS, cells, 23, 31, **kwargs)

    def filled(shape, dtype=np.float64, _shared=engine._shared):
        array = _shared(shape, dtype)
        array.view(np.uint8)[...] = 0xA5
        return array
    monkeypatch.setattr(engine, "_shared", filled)
    got = simulate_cells(MIXED_KINDS, cells, 23, 31, **kwargs)
    capped = np.concatenate([r.capped for r in want])
    assert capped.any() and not capped.all()
    for g, w in zip(got, want):
        for f in fields(engine.BatchResult):
            assert getattr(g, f.name).tobytes() == getattr(w, f.name).tobytes(), f.name
    assert_no_child_left()


def test_results_are_ordinary_arrays(monkeypatch):
    # a split call's results are views of shared memory that the children
    # wrote; each cell's arrays still behave as its own arrays
    force_workers(monkeypatch, 3)
    cells = [(spec, budget) for spec in (*BUDGET_FREE, SPECS[3]) for budget in (5.0, 20.0)]
    k, runs = MIXED_KINDS.n_arms, 23
    results = simulate_cells(MIXED_KINDS, cells, runs, 7,
                             p_default=solve_lfp(MIXED_KINDS).p_star, track_lcb=True)
    shapes = {"pulls_per_arm": (runs, k), "cost_per_arm": (runs, k)}
    dtypes = {"n_pulls": np.int64, "capped": np.bool_, "lcb_ok": np.bool_}
    copies = []
    for result in results:
        for f in fields(result):
            array = getattr(result, f.name)
            assert array.flags.writeable, f.name
            assert array.shape == shapes.get(f.name, (runs,)), f.name
            assert array.dtype == dtypes.get(f.name, np.float64), f.name
        assert_results_equal(pickle.loads(pickle.dumps(result)), result)
        copies.append({f.name: getattr(result, f.name).copy() for f in fields(result)})
    assert_no_child_left()
    # the first cell's writes stay in its own rows
    first = results[0]
    for f in fields(first):
        getattr(first, f.name)[...] = 1
    for result, copy in zip(results[1:], copies[1:]):
        for name, array in copy.items():
            assert np.array_equal(getattr(result, name), array), name
    # and a cell outlives the call's other results
    last = results[-1]
    del results, first, result
    for name, array in copies[-1].items():
        assert np.array_equal(getattr(last, name), array), name


def test_workers_follow_the_usable_cpus_and_the_least_part(monkeypatch):
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(3)))
    least = engine._MIN_PART
    assert [engine._workers(runs) for runs in (1, 2 * least - 1, 2 * least, 9 * least)] == [
        1, 1, 2, 3]
    monkeypatch.delattr(engine.os, "fork")
    assert engine._workers(9 * least) == 1


@pytest.mark.parametrize("workers", [2, 3])
def test_child_failure_is_raised_in_the_parent(two_arm_instance, monkeypatch, workers):
    # only the children's chunks fail; the parent's part runs to its end
    def refuse():
        raise ValueError("a child's refusal")
    force_workers(monkeypatch, workers)
    fail_past(monkeypatch, 8, refuse)
    with pytest.raises(ValueError, match="^a child's refusal$"):
        simulate_batch(two_arm_instance, PolicySpec("lyon", "lyon"), 20.0, 23, 1)
    assert_no_child_left()


def test_child_that_dies_raises_child_process_error(two_arm_instance, monkeypatch):
    force_workers(monkeypatch, 3)
    fail_past(monkeypatch, 7, lambda: os._exit(3))
    match = r"worker process for runs 7\.\.14 ended with status 3 before sending its results"
    with pytest.raises(ChildProcessError, match=match):
        simulate_batch(two_arm_instance, PolicySpec("lyon", "lyon"), 20.0, 23, 1)
    assert_no_child_left()


def test_parent_failure_stops_every_child(two_arm_instance, monkeypatch):
    # the parent's own part raises while its children still run
    force_workers(monkeypatch, 3)
    def streams(self, master_seed, run_start, m, policy, _init=engine._Streams.__init__):
        if run_start == 0:
            raise MemoryError("the parent's part")
        _init(self, master_seed, run_start, m, policy)
    monkeypatch.setattr(engine._Streams, "__init__", streams)
    with pytest.raises(MemoryError, match="the parent's part"):
        simulate_batch(two_arm_instance, PolicySpec("lyon", "lyon"), 2000.0, 23, 1)
    assert_no_child_left()
