from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

import lybandit.model as model
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
from lybandit.model import Bounds, Sampler, derive_bounds, episode_cap, episode_rngs
from lybandit.oracle import penalty_rate, reward_rate, solve_lfp_grid, wald_interval
from lybandit.policies import (
    LyOffPolicy,
    LyOnPolicy,
    PolicySpec,
    StaticPolicy,
    confidence_radius,
    param_schedule,
)
from lybandit.harness import RunConfig


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

    @pytest.mark.parametrize("arms", [
        [ArmSpec.bernoulli(0.4, 0.8, 0.6), ArmSpec.bernoulli(0.6, 0.6, 0.3)],
        [ArmSpec.scaled_uniform(0.3, 0.7, 0.5), ArmSpec.scaled_uniform(0.9, 0.2, 0.5)],
        [ArmSpec.bernoulli(0.4, 0.8, 0.6), ArmSpec.scaled_uniform(0.3, 0.7, 0.5),
         ArmSpec.table([(0.25, 0.1, 1.0, 0.0), (0.75, 0.9, 0.2, 0.5)])],
    ], ids=["bernoulli", "scaled-uniform", "mixed"])
    def test_repeated_draws_equal_a_fresh_sampler(self, arms):
        # draw writes into buffers the sampler keeps: each call, including
        # one at another width, must still equal a first draw
        kept = Sampler(arms)
        r = rng(31)
        last = None
        for m in (300, 300, 7, 7, 300, 1):
            pulled = r.integers(len(arms), size=m)
            u = r.random((m, 3))
            v = kept.draw(pulled, u)
            assert v.dtype == np.float64 and v.shape == (m, 3)
            assert np.array_equal(v, Sampler(arms).draw(pulled, u)), m
            if last is not None and len(last) == m:
                assert v is last
            last = v

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ArmSpec.bernoulli(1.2, 0.5, 0.5)
        with pytest.raises(ValueError):
            ArmSpec.table([(0.5, 0.1, 0.1, 0.1)])  # probs sum to 0.5
        with pytest.raises(ValueError):
            ArmSpec.table([(0.5, 0.1, 0.1, 0.1), (0.5, 1.5, 0.0, 0.0)])
        with pytest.raises(ValueError):
            ArmSpec("no-such-kind", 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="needs at least one atom"):
            ArmSpec.table([])

    @pytest.mark.parametrize("bad", ["0.5", None, [0.5], True, math.nan])
    def test_non_number_mean_names_field(self, bad):
        with pytest.raises(ValueError, match="r_mean"):
            ArmSpec.bernoulli(0.5, bad, 0.5)
        assert isinstance(ArmSpec.bernoulli(1, 0, 0.5).x_mean, float)


class TestInstance:
    @pytest.mark.parametrize("arms", [[1, 2], 5, [ArmSpec.bernoulli(0.5, 0.5, 0.1), None]],
                             ids=["ints", "int", "none"])
    def test_arms_must_be_arm_specs(self, arms):
        # [1, 2] once built and failed at the first solve_lfp with an AttributeError
        with pytest.raises(ValueError, match="^arms must be a non-empty sequence of ArmSpec"):
            Instance(arms, 0.5)

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


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 11, 20260810])
def test_episode_rngs_are_their_seed_sequences(seed):
    # seeds of three and four words make more entropy words than the pool's
    # four; runs 2**32 - 400 .. 2**32 + 399 go from one run word to two; one
    # row, alone or in a one-row stretch, is hashed as a one-row array
    for start, m in ((0, 100), (2**32 - 400, 800), (2**32 - 1, 2), (7, 1)):
        for stream in (0, 1):
            gens = episode_rngs(seed, start, m, stream)
            assert len(gens) == m
            for run, gen in enumerate(gens, start):
                want = np.random.default_rng(np.random.SeedSequence((seed, run, stream)))
                assert gen.bit_generator.state == want.bit_generator.state, (run, stream)


@pytest.mark.parametrize("call", [
    lambda: episode_env_rng(-1, 0),
    lambda: episode_env_rng(0, -1),
    lambda: episode_env_rng(1.5, 0),
    lambda: episode_policy_rng(0, 2.0),
    lambda: episode_rngs(True, 0, 4, 0),
    lambda: episode_rngs(0, 0, 0, 0),
    lambda: episode_rngs(0, 0, 4, -1),
], ids=["negative-seed", "negative-run", "float-seed", "float-run", "bool-seed", "no-rows",
        "negative-stream"])
def test_episode_rngs_reject_bad_arguments(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("request_", [(8,), (4,), (4, np.uint32), (2, np.uint64)],
                         ids=["8-uint32", "4-uint32", "4-uint32-explicit", "2-uint64"])
def test_hashed_seed_serves_only_pcg64s_request(request_):
    # the hashed seed of episode_rngs stands in for a SeedSequence only inside PCG64
    seed = model._seed_type()(np.arange(4, dtype=np.uint64))
    assert seed.generate_state(4, np.uint64) is seed.state
    with pytest.raises(NotImplementedError, match="four uint64 words"):
        seed.generate_state(*request_)


@pytest.mark.parametrize("m", [1, 3])
def test_one_episode_rngs_behave_as_their_seed_sequences(m):
    # beyond the state: the seed sequence's other words, spawning and pickle
    for stream, episode_rng in enumerate((episode_env_rng, episode_policy_rng)):
        gen = episode_rng(11, 2**32 + 4 + m)
        want = np.random.default_rng(np.random.SeedSequence((11, 2**32 + 4 + m, stream)))
        seq, want_seq = gen.bit_generator.seed_seq, want.bit_generator.seed_seq
        assert np.array_equal(seq.generate_state(8), want_seq.generate_state(8))
        assert np.array_equal(seq.generate_state(4, np.uint64),
                              want_seq.generate_state(4, np.uint64))
        for n in (2, 1):  # a second spawn goes on from the first
            kids, want_kids = gen.spawn(n), want.spawn(n)
            assert [k.random() for k in kids] == [k.random() for k in want_kids]
        again = pickle.loads(pickle.dumps(gen))
        first = want.random(5)
        assert np.array_equal(gen.random(5), first)
        assert np.array_equal(again.random(5), first)
        assert again.spawn(1)[0].random() == want.spawn(1)[0].random()


def constant_cost_instance(x: float, r: float = 0.5, y: float = 0.0) -> Instance:
    return Instance([ArmSpec.table([(1.0, x, r, y)])], c=0.9)


class TestRunEpisode:
    def test_half_cost_stopping_rule(self):
        # costs 0.5 each pull, B=1: S_2 = 1.0 is not > 1, S_3 = 1.5 is
        inst = constant_cost_instance(0.5)
        res = run_episode(inst, StaticPolicy(0, inst.n_arms), 1.0, rng())
        assert res.n_pulls == 3
        assert res.total_cost == pytest.approx(1.5)

    def test_unit_cost(self):
        inst = constant_cost_instance(1.0)
        res = run_episode(inst, StaticPolicy(0, inst.n_arms), 5.0, rng())
        assert res.n_pulls == 6
        assert res.total_cost == pytest.approx(6.0)

    def test_zero_cost_overrun(self):
        inst = Instance([ArmSpec.bernoulli(0.0, 0.5, 0.0)], c=0.9)
        with pytest.raises(EpisodeOverrun) as exc_info:
            run_episode(inst, StaticPolicy(0, inst.n_arms), 2.0, rng(), cap=100)
        partial = exc_info.value.result
        assert partial.capped
        assert partial.n_pulls == 100
        assert partial.total_cost == 0.0

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan])
    def test_nonpositive_budget_rejected(self, budget):
        inst = constant_cost_instance(0.5)
        with pytest.raises(ValueError, match=r"budget must be a finite number in \(0, inf\)"):
            run_episode(inst, StaticPolicy(0, inst.n_arms), budget, rng())

    @pytest.mark.parametrize("cap", [0, 2.5, True])
    def test_bad_cap_rejected(self, cap):
        inst = constant_cost_instance(0.5)
        with pytest.raises(ValueError, match="cap must be at least 1 and an integer"):
            run_episode(inst, StaticPolicy(0, inst.n_arms), 10.0, rng(), cap=cap)

    def test_zero_cost_needs_explicit_cap(self):
        inst = Instance([ArmSpec.bernoulli(0.0, 0.5, 0.0)], c=0.9)
        with pytest.raises(ValueError):
            run_episode(inst, StaticPolicy(0, inst.n_arms), 2.0, rng())

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
            pol = LyOnPolicy(2, 0.8, budget=100.0, v=5.0, delta=0.01)
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
            run_episode(two_arm_instance, StaticPolicy(0, two_arm_instance.n_arms), 0.0, rng())

    @pytest.mark.parametrize("arm", [-1, 2])
    def test_arm_outside_the_instance_refused(self, two_arm_instance, arm):
        class Stray(BanditPolicy):
            def select(self):
                return arm

            def observe(self, arm, outcome):
                raise AssertionError("a stray arm was pulled")

        with pytest.raises(IndexError, match=rf"^policy selected arm {arm} outside \[0, 2\)"):
            run_episode(two_arm_instance, Stray(), 10.0, rng())


_ARM = ArmSpec.bernoulli(0.5, 0.5, 0.1)
_INST = Instance([_ARM], c=0.5)
_PAIR = Instance([_ARM, _ARM], c=0.5)
_BOUNDS = dict(mu_min=0.5, r_max=1.0, y_max=0.2, epsilon=0.15)

# every real-valued parameter: (name in the error, call with the value)
REAL_PARAMETERS = [
    ("x_mean", lambda v: ArmSpec.bernoulli(v, 0.5, 0.5)),
    ("r_mean", lambda v: ArmSpec.bernoulli(0.5, v, 0.5)),
    ("y_mean", lambda v: ArmSpec.scaled_uniform(0.5, 0.5, v)),
    ("atom entry", lambda v: ArmSpec.table([(1.0, 0.5, v, 0.5)])),
    ("atom entry", lambda v: ArmSpec.table([(v, 0.5, 0.5, 0.5)])),
    ("c", lambda v: Instance([_ARM], c=v)),
    *((field, lambda v, f=field: Bounds(**{**_BOUNDS, f: v})) for field in _BOUNDS),
    ("budget", lambda v: episode_cap(_INST, v, None)),
    ("budget", lambda v: wald_interval([1.0], _INST, v)),
    ("step", lambda v: solve_lfp_grid(_INST, v)),
    ("t", lambda v: confidence_radius(v, 2.0, 2.0)),
    ("n", lambda v: confidence_radius(1, v, 2.0)),
    ("alpha", lambda v: confidence_radius(1, 2.0, v)),
    ("v", lambda v: LyOnPolicy(2, 0.8, 100.0, v=v)),
    ("delta", lambda v: LyOnPolicy(2, 0.8, 100.0, v=1.0, delta=v)),
    ("alpha", lambda v: LyOnPolicy(2, 0.8, 100.0, v=1.0, alpha=v)),
    ("budget", lambda v: param_schedule(v, 1.0, 0.5, "sqrt", 0.8)),
    ("v0", lambda v: param_schedule(100.0, v, 0.5, "sqrt", 0.8)),
    ("delta0", lambda v: param_schedule(100.0, 1.0, v, "sqrt", 0.8)),
    ("v0", lambda v: PolicySpec("p", "lyon", v0=v)),
    ("delta0", lambda v: PolicySpec("p", "lyon", delta0=v)),
    ("alpha", lambda v: PolicySpec("p", "lyon", alpha=v)),
    ("budgets", lambda v: RunConfig(_INST, (), (10.0, v), 1, 0)),
    # p = (True, 0) and ("1", 0) once passed as (1.0, 0.0)
    ("probability", lambda v: PolicySpec("p", "stationary", p=(v, 0.0))),
    ("probability", lambda v: StationaryPolicy((v, 0.0), rng())),
    ("probability", lambda v: reward_rate((v, 0.0), _PAIR)),
    ("probability", lambda v: penalty_rate((v, 0.0), _PAIR)),
    # the drift rules check their own arguments: delta = True once passed as
    # 1.0, and a NaN budget or c built a rule that always picked arm 0
    ("delta", lambda v: LyOffPolicy(_INST, v=1.0, delta=v)),
    ("budget", lambda v: LyOnPolicy(2, 0.8, v, v=1.0)),
    ("c", lambda v: LyOnPolicy(2, v, 100.0, v=1.0)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1"],
                         ids=["nan", "inf", "-inf", "True", "str"])
@pytest.mark.parametrize("name, call", REAL_PARAMETERS,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(REAL_PARAMETERS)])
def test_real_parameter_refuses_non_finite_and_non_numbers(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number in "):
        call(bad)


@pytest.mark.parametrize("atom", [(1.0, 0.5, 0.5), (1.0, 0.5, 0.5, 0.5, 0.5), 0.5],
                         ids=["3-tuple", "5-tuple", "number"])
def test_table_atom_of_the_wrong_arity_is_named(atom):
    with pytest.raises(ValueError, match=r"^a table atom is \(prob, x, r, y\), got "):
        ArmSpec.table([atom])


@pytest.mark.parametrize("make", [
    lambda: ArmSpec("joint-discrete-table", 0, 0, 0, atoms=5),
    lambda: ArmSpec.table(5),
], ids=["direct", "table"])
def test_table_atoms_that_are_not_a_list_are_named(make):
    with pytest.raises(ValueError, match=r"^a table atom is \(prob, x, r, y\), got 5$"):
        make()


@pytest.mark.parametrize("delta", [None, "0.1"])
def test_lyoff_delta_must_be_a_number(delta):
    # both once ended in a raw TypeError
    with pytest.raises(ValueError, match="^delta must be a finite number in "):
        LyOffPolicy(_INST, v=1.0, delta=delta)


@pytest.mark.parametrize("n_arms", [0, 2.5, True])
def test_lyon_n_arms_must_be_a_positive_integer(n_arms):
    # 0 once failed at the first select, and 2.5 was truncated to 2
    with pytest.raises(ValueError, match="^n_arms must be at least 1 and an integer"):
        LyOnPolicy(n_arms, 0.8, 100.0, v=1.0)


def test_table_arm_means_come_from_its_atoms():
    # the means given are ignored: the oracle must see what Sampler draws
    arm = ArmSpec("joint-discrete-table", 0.5, 0, 0, atoms=((1, 1, 1, 1),))
    assert arm.means == (1.0, 1.0, 1.0)
    assert arm.sample(rng()) == (1.0, 1.0, 1.0)
    atoms = [(0.25, 1, 0, 0.5), (0.75, 0.2, 1, 0)]
    arm = ArmSpec("joint-discrete-table", 0, 0, 0, atoms=atoms)
    assert arm == ArmSpec.table(atoms)
    assert arm.means == pytest.approx((0.4, 0.75, 0.125))
    assert arm.atoms == ((0.25, 1.0, 0.0, 0.5), (0.75, 0.2, 1.0, 0.0))
    hash(arm)  # a list of atoms would make the frozen spec unhashable
