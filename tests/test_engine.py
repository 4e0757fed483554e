from __future__ import annotations

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import lybandit.engine as engine
from lybandit import ArmSpec, Instance, PolicySpec, run_episode, solve_lfp
from lybandit.engine import simulate_batch, simulate_cells
from lybandit.model import derive_bounds, episode_env_rng, episode_policy_rng
from lybandit.policies import StaticPolicy

from conftest import random_feasible_instance

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
    # that ended earlier stop refilling
    monkeypatch.setattr(engine, "_BLOCK", 16)
    for spec in SPECS:
        assert_batch_matches_sequential(two_arm_instance, spec, 40.0, 12, 77)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_lockstep_equals_sequential_across_run_index_words(two_arm_instance, spec):
    # runs 2**32 - 3 .. 2**32 + 2: the chunk's run indices go from one uint32
    # word to two, so its streams are hashed in two stretches
    assert_batch_matches_sequential(two_arm_instance, spec, 60.0, 6, 20260810,
                                    run_start=2**32 - 3)


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
    sol = solve_lfp(two_arm_instance)
    spec = PolicySpec("lyon", "lyon", v0=1.0, delta0=0.5)
    whole = simulate_batch(two_arm_instance, spec, 50.0, 23, 3, p_default=sol.p_star)

    monkeypatch.setattr(engine, "_CHUNK", 7)
    cell = simulate_batch(two_arm_instance, spec, 50.0, 23, 3, p_default=sol.p_star)
    for field in ("n_pulls", "total_cost", "total_reward", "total_penalty",
                  "pulls_per_arm", "cost_per_arm", "q_final", "q_max"):
        assert np.array_equal(getattr(cell, field), getattr(whole, field))


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
        run_episode(two_arm_instance, StaticPolicy(0), math.inf, episode_env_rng(1, 0),
                    cap=cap)


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


def test_each_cell_built_once_per_chunk(two_arm_instance, monkeypatch):
    # 23 runs in chunks of 7 are 4 chunks; a separate check pass once made
    # it 15 builds for 3 cells
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
    assert built == ["stationary", "lyon", "lyon"] * 4


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
