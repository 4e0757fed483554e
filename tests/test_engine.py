from __future__ import annotations

import numpy as np
import pytest

import lybandit.engine as engine
import lybandit.harness as harness
from lybandit import ArmSpec, Instance, PolicySpec, run_episode, solve_lfp
from lybandit.engine import simulate_batch
from lybandit.harness import simulate_cell
from lybandit.model import derive_bounds, episode_env_rng, episode_policy_rng

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


def assert_batch_matches_sequential(instance, spec, budget, runs, seed):
    sol = solve_lfp(instance)
    bounds = derive_bounds(instance)
    batch = simulate_batch(
        instance, spec, budget, runs, seed, p_default=sol.p_star, bounds=bounds
    )
    for e in range(runs):
        policy = spec.build(
            instance,
            budget,
            episode_policy_rng(seed, e),
            p_default=sol.p_star,
            bounds=bounds,
        )
        res = run_episode(instance, policy, budget, episode_env_rng(seed, e))
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
    # past the shared block 0, from generators advanced over it, while rows
    # that ended earlier stop refilling
    monkeypatch.setattr(engine, "_BLOCK", 16)
    for spec in SPECS:
        assert_batch_matches_sequential(two_arm_instance, spec, 40.0, 12, 77)


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


def test_chunking_does_not_change_results(two_arm_instance, monkeypatch):
    sol = solve_lfp(two_arm_instance)
    spec = PolicySpec("lyon", "lyon", v0=1.0, delta0=0.5)
    whole = simulate_batch(two_arm_instance, spec, 50.0, 23, 3, p_default=sol.p_star)

    monkeypatch.setattr(harness, "_CHUNK", 7)
    cell = simulate_cell(two_arm_instance, spec, 50.0, 23, 3, p_default=sol.p_star)
    for field in ("n_pulls", "total_cost", "total_reward", "total_penalty",
                  "pulls_per_arm", "cost_per_arm", "q_final", "q_max"):
        assert np.array_equal(getattr(cell, field), getattr(whole, field))


@pytest.mark.parametrize("key", [(2, 0, 4), (1, 1, 4), (1, 0, 3)])
def test_streams_must_cover_the_batch(two_arm_instance, key):
    streams = engine._Streams(1, 0, 4)
    seed, start, runs = key
    with pytest.raises(ValueError, match="streams drawn for"):
        simulate_batch(two_arm_instance, PolicySpec("s", "static", arm=0), 10.0,
                       runs, seed, run_start=start, streams=streams)


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
    with pytest.raises(ValueError, match="budget must be positive"):
        simulate_batch(two_arm_instance, PolicySpec("s", "static", arm=0), budget, 2, 1, cap=50)


def test_empty_cell_rejected(two_arm_instance):
    with pytest.raises(ValueError, match="runs must be at least 1"):
        simulate_cell(two_arm_instance, PolicySpec("s", "static", arm=0), 10.0, 0, 1)


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
