from __future__ import annotations

import math

import numpy as np
import pytest

from lybandit import (
    ArmSpec,
    BanditPolicy,
    EpisodeOverrun,
    Instance,
    Outcome,
    SlaterViolation,
    StationaryPolicy,
    episode_env_rng,
    episode_policy_rng,
    run_episode,
)
from lybandit.model import Bounds, Sampler, derive_bounds
from lybandit.policies import LyOnPolicy, LyParams, StaticPolicy


def rng(seed=0):
    return np.random.default_rng(seed)


def draw_block(arm, u):
    """(x, r, y) arrays of one arm drawn from an (n, 3) uniform block."""
    return Sampler([arm]).draw(np.zeros(len(u), dtype=np.int64), u).T


class TestArmSampling:
    def test_degenerate_point_masses(self):
        ones = ArmSpec.bernoulli(1.0, 1.0, 1.0)
        zeros = ArmSpec.bernoulli(0.0, 0.0, 0.0)
        r = rng()
        for _ in range(50):
            assert ones.sample(r) == (1.0, 1.0, 1.0)
            assert zeros.sample(r) == (0.0, 0.0, 0.0)

    def test_bernoulli_law_of_large_numbers(self):
        arm = ArmSpec.bernoulli(0.4, 0.8, 0.6)
        x, r_, y = draw_block(arm, rng(7).random((1_000_000, 3)))
        assert abs(x.mean() - 0.4) < 0.005
        assert abs(r_.mean() - 0.8) < 0.005
        assert abs(y.mean() - 0.6) < 0.005

    def test_block_matches_scalar_stream(self):
        arm = ArmSpec.scaled_uniform(0.3, 0.7, 0.5)
        xs, rs, ys = draw_block(arm, rng(3).random((500, 3)))
        r2 = rng(3)
        for i in range(500):
            o = arm.sample(r2)
            assert (o.x, o.r, o.y) == (xs[i], rs[i], ys[i])

    def test_scaled_uniform_support_and_mean(self):
        for m in (0.0, 0.2, 0.5, 0.7, 1.0):
            arm = ArmSpec.scaled_uniform(m, m, m)
            x, _, _ = draw_block(arm, rng(int(m * 10)).random((200_000, 3)))
            lo, hi = max(0.0, 2 * m - 1), min(1.0, 2 * m)
            assert x.min() >= lo and x.max() <= hi
            assert abs(x.mean() - m) < 0.005

    def test_joint_table_sampling(self):
        arm = ArmSpec.table([(0.25, 0.1, 1.0, 0.0), (0.75, 0.9, 0.2, 0.5)])
        assert arm.means == pytest.approx((0.25 * 0.1 + 0.75 * 0.9,
                                           0.25 * 1.0 + 0.75 * 0.2,
                                           0.75 * 0.5))
        x, r_, y = draw_block(arm, rng(11).random((200_000, 3)))
        frac_first = np.mean(x == 0.1)
        assert abs(frac_first - 0.25) < 0.01
        assert set(np.unique(r_)) <= {1.0, 0.2}

    def test_mixed_block_matches_written_out_formulas(self):
        means = [(0.4, 0.8, 0.6), (0.3, 0.7, 0.5)]
        atoms = [(0.25, 0.1, 1.0, 0.0), (0.5, 0.9, 0.2, 0.5), (0.25, 0.4, 0.6, 0.3)]
        arms = [ArmSpec.bernoulli(*means[0]), ArmSpec.scaled_uniform(*means[1]),
                ArmSpec.table(atoms)]
        u = rng(21).random((300, 3))
        pulled = np.arange(300) % 3
        v = Sampler(arms).draw(pulled, u)
        assert v.shape == (300, 3)

        cum = np.cumsum([a[0] for a in atoms])
        for i in range(300):
            if pulled[i] == 0:
                expect = [float(u[i, j] < means[0][j]) for j in range(3)]
            elif pulled[i] == 1:
                lo = [max(0.0, 2 * m - 1) for m in means[1]]
                hi = [min(1.0, 2 * m) for m in means[1]]
                expect = [lo[j] + (hi[j] - lo[j]) * u[i, j] for j in range(3)]
            else:
                expect = atoms[np.searchsorted(cum, u[i, 0], "right")][1:]
            assert np.array_equal(v[i], expect), i

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ArmSpec.bernoulli(1.2, 0.5, 0.5)
        with pytest.raises(ValueError):
            ArmSpec.table([(0.5, 0.1, 0.1, 0.1)])  # probs sum to 0.5
        with pytest.raises(ValueError):
            ArmSpec.table([(0.5, 0.1, 0.1, 0.1), (0.5, 1.5, 0.0, 0.0)])
        with pytest.raises(ValueError):
            ArmSpec("no-such-kind", 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("bad", ["0.5", None, [0.5], True, math.nan])
    def test_non_number_mean_names_field(self, bad):
        with pytest.raises(ValueError, match="r_mean"):
            ArmSpec.bernoulli(0.5, bad, 0.5)
        assert isinstance(ArmSpec.bernoulli(1, 0, 0.5).x_mean, float)


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Instance([], c=0.5)
        with pytest.raises(ValueError):
            Instance([ArmSpec.bernoulli(0.5, 0.5, 0.5)], c=0.0)
        inst = Instance([ArmSpec.bernoulli(0.5, 0.5, 0.5)], c=2.0)
        assert inst.c == 2.0

    def test_nan_c_rejected(self):
        # an infinite c is refused too: inf * 0 turns a queue to NaN at the
        # first zero-cost pull
        for c in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Instance([ArmSpec.bernoulli(0.5, 0.5, 0.5)], c=c)

    def test_true_means(self, two_arm_instance):
        ex, er, ey = two_arm_instance.true_means()
        assert list(ex) == [0.4, 0.6]
        assert list(er) == [0.8, 0.6]
        assert list(ey) == [0.6, 0.3]


class TestDeriveBounds:
    def test_reference_instance(self, two_arm_instance):
        b = derive_bounds(two_arm_instance)
        assert b.mu_min == pytest.approx(0.4)
        assert b.r_max == pytest.approx(2.0)
        assert b.y_max == pytest.approx(1.5)
        assert b.epsilon == pytest.approx(0.18)

    def test_single_arm(self):
        inst = Instance([ArmSpec.bernoulli(1.0, 1.0, 0.0)], c=0.5)
        b = derive_bounds(inst)
        assert b.epsilon == pytest.approx(0.5)
        assert b.mu_min == 1.0

    def test_slater_violation(self):
        inst = Instance([ArmSpec.bernoulli(0.5, 0.5, 0.5)], c=0.5)
        with pytest.raises(SlaterViolation):
            derive_bounds(inst)

    def test_zero_cost_arm_rejected(self):
        inst = Instance([ArmSpec.bernoulli(0.0, 0.5, 0.0)], c=0.5)
        with pytest.raises(ValueError):
            derive_bounds(inst)

    @pytest.mark.parametrize("field", ["mu_min", "epsilon"])
    def test_nan_bounds_rejected(self, field):
        values = dict(mu_min=0.4, r_max=2.0, y_max=1.5, epsilon=0.18)
        with pytest.raises(ValueError):
            Bounds(**{**values, field: math.nan})


def constant_cost_instance(x: float, r: float = 0.5, y: float = 0.0) -> Instance:
    return Instance([ArmSpec.table([(1.0, x, r, y)])], c=0.9)


class TestRunEpisode:
    def test_half_cost_stopping_rule(self):
        # costs 0.5 each pull, B=1: S_2 = 1.0 is not > 1, S_3 = 1.5 is
        inst = constant_cost_instance(0.5)
        res = run_episode(inst, StaticPolicy(0), 1.0, rng())
        assert res.n_pulls == 3
        assert res.total_cost == pytest.approx(1.5)

    def test_unit_cost(self):
        inst = constant_cost_instance(1.0)
        res = run_episode(inst, StaticPolicy(0), 5.0, rng())
        assert res.n_pulls == 6
        assert res.total_cost == pytest.approx(6.0)

    def test_zero_cost_overrun(self):
        inst = Instance([ArmSpec.bernoulli(0.0, 0.5, 0.0)], c=0.9)
        with pytest.raises(EpisodeOverrun) as exc_info:
            run_episode(inst, StaticPolicy(0), 2.0, rng(), cap=100)
        partial = exc_info.value.result
        assert partial.capped
        assert partial.n_pulls == 100
        assert partial.total_cost == 0.0

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan])
    def test_nonpositive_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be positive"):
            run_episode(constant_cost_instance(0.5), StaticPolicy(0), budget, rng())

    @pytest.mark.parametrize("cap", [0, 2.5, True])
    def test_bad_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="cap must be at least 1 and an integer"):
            run_episode(constant_cost_instance(0.5), StaticPolicy(0), 10.0, rng(), cap=cap)

    def test_zero_cost_needs_explicit_cap(self):
        inst = Instance([ArmSpec.bernoulli(0.0, 0.5, 0.0)], c=0.9)
        with pytest.raises(ValueError):
            run_episode(inst, StaticPolicy(0), 2.0, rng())

    def test_budget_bracketing(self, two_arm_instance):
        class Recorder(BanditPolicy):
            def __init__(self, inner):
                self.inner = inner
                self.last = None

            def select(self):
                return self.inner.select()

            def observe(self, arm, outcome):
                self.last = outcome
                self.inner.observe(arm, outcome)

        for seed in range(200):
            pol = Recorder(StationaryPolicy([0.5, 0.5], episode_policy_rng(1, seed)))
            res = run_episode(two_arm_instance, pol, 20.0, episode_env_rng(1, seed))
            assert res.total_cost > 20.0
            assert res.total_cost - pol.last.x <= 20.0
            assert res.pulls_per_arm.sum() == res.n_pulls
            assert res.cost_per_arm.sum() == pytest.approx(res.total_cost, abs=1e-9)

    def test_stopping_time_tail(self, two_arm_instance, two_arm_oracle):
        budget, mu_min = 50.0, 0.4
        threshold = math.ceil(2 * budget / mu_min)
        long_runs = 0
        for seed in range(1000):
            pol = StationaryPolicy(two_arm_oracle.p_star, episode_policy_rng(2, seed))
            res = run_episode(two_arm_instance, pol, budget, episode_env_rng(2, seed))
            if res.n_pulls >= threshold:
                long_runs += 1
        assert long_runs / 1000 < 0.01

    def test_determinism(self, two_arm_instance):
        def go():
            pol = StationaryPolicy([0.3, 0.7], episode_policy_rng(9, 4))
            return run_episode(two_arm_instance, pol, 50.0, episode_env_rng(9, 4))

        a, b = go(), go()
        assert a.n_pulls == b.n_pulls
        assert a.total_cost == b.total_cost
        assert a.total_reward == b.total_reward
        assert a.total_penalty == b.total_penalty
        assert np.array_equal(a.pulls_per_arm, b.pulls_per_arm)
        assert np.array_equal(a.cost_per_arm, b.cost_per_arm)

    def test_causality(self, two_arm_instance):
        """Changing an epoch's outcome after selection leaves earlier picks alone."""

        def drive(outcomes):
            pol = LyOnPolicy(2, 0.8, LyParams(v=5.0, delta=0.01), budget=100.0)
            picks = []
            for o in outcomes:
                k = pol.select()
                picks.append(k)
                pol.observe(k, o)
            return picks

        base = [
            Outcome(*episode_env_rng(5, i).random(3)) for i in range(40)
        ]
        tampered = list(base)
        tampered[20] = Outcome(1.0, 0.0, 1.0)  # replaced after epoch 20's selection
        a, b = drive(base), drive(tampered)
        assert a[:21] == b[:21]

    def test_invalid_budget(self, two_arm_instance):
        with pytest.raises(ValueError):
            run_episode(two_arm_instance, StaticPolicy(0), 0.0, rng())
