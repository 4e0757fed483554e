from __future__ import annotations

import math

import numpy as np
import pytest

from lybandit import ArmSpec, DeltaOutOfRange, Instance, Outcome, PolicySpec, StationaryPolicy
from lybandit.model import episode_env_rng
from lybandit.policies import (
    LyOffPolicy,
    LyOnPolicy,
    LyParams,
    _combine,
    _empirical_rates,
    _index_terms,
    confidence_radius,
    denominator_floor,
    exploration_schedule,
    param_schedule,
)

LIVE = np.ones(1, dtype=bool)


def lyoff(instance, q0=0.0, v=10.0, delta=0.0):
    return LyOffPolicy(instance, v=v, delta=delta, q0=q0)


def lyon_select(stats, q, n, v, queue_enabled=True):
    """Arm the online rule picks at m = 1 after n completed pulls.

    ``stats`` lists per-arm (pulls, cost sum, reward sum, penalty sum); the
    budget is large enough that the cost floor is 1e-6.
    """
    t, sum_x, sum_r, sum_y = (np.array([[s[i] for s in stats]]) for i in range(4))
    pol = LyOnPolicy(len(stats), 0.8, LyParams(v=v), 1e6, queue_enabled=queue_enabled)
    pol.sum_r[:], pol.sum_y[:], pol.q[:] = sum_r, sum_y, q
    return int(pol.select_batch(n, t, sum_x, LIVE, None)[0])


class TestQueue:
    def test_update_examples(self, two_arm_instance):
        pol = lyoff(two_arm_instance, q0=0.0)
        pol.observe(0, Outcome(1.0, 0.0, 0.0))
        assert pol.queue == 0.0

        pol = lyoff(two_arm_instance, q0=0.3)
        pol.observe(0, Outcome(0.0, 0.0, 1.0))
        assert pol.queue == pytest.approx(1.3)

        pol = lyoff(two_arm_instance, q0=0.1, delta=0.1)
        pol.observe(0, Outcome(1.0, 0.0, 0.0))
        assert pol.queue == 0.0

    def test_validation(self, two_arm_instance):
        with pytest.raises(ValueError):
            lyoff(two_arm_instance, q0=-0.1)
        with pytest.raises(ValueError):
            lyoff(two_arm_instance, delta=0.8)

    def test_fuzz_matches_raw_recursion(self):
        rng = np.random.default_rng(17)
        inst = Instance([ArmSpec.bernoulli(0.5, 0.5, 0.1)], c=0.7)
        pol = lyoff(inst, delta=0.05)
        q_raw = 0.0
        cd = 0.7 - 0.05
        for x, y in rng.random((10_000, 2)):
            pol.observe(0, Outcome(x, 0.0, y))
            q_raw = max(0.0, q_raw + y - cd * x)
            assert pol.queue == q_raw
            assert pol.queue >= 0.0


class TestOfflineScores:
    def test_psi_examples(self, two_arm_instance):
        scores = lyoff(two_arm_instance, q0=5.0, v=10.0).scores()
        assert scores[0, 0] == pytest.approx(-12.5)
        assert scores[0, 1] == pytest.approx(-7.5)

    def test_select_examples(self, two_arm_instance):
        assert lyoff(two_arm_instance, q0=5.0, v=10.0).select() == 0
        assert lyoff(two_arm_instance, q0=0.0, v=10.0).select() == 0

    def test_tie_break_lowest_index(self):
        inst = Instance([ArmSpec.bernoulli(0.5, 0.4, 0.2)] * 3, c=0.9)
        assert lyoff(inst, q0=2.0, v=3.0).select() == 0

    def test_zero_queue_reduces_to_best_rate(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            ex = rng.uniform(0.2, 1.0, k)
            er = rng.uniform(0.0, 1.0, k)
            inst = Instance(
                [ArmSpec.bernoulli(ex[i], er[i], 0.1) for i in range(k)], c=0.9
            )
            assert lyoff(inst, q0=0.0, v=2.0).select() == int(np.argmax(er / ex))

    def test_scale_invariance_of_argmin(self, two_arm_instance):
        lam = 3.7
        base = lyoff(two_arm_instance, q0=5.0, v=10.0).scores()[0]
        scaled = lyoff(two_arm_instance, q0=lam * 5.0, v=lam * 10.0).scores()[0]
        assert np.argmin(base) == np.argmin(scaled)
        assert list(scaled) == pytest.approx([lam * v for v in base])

    def test_rows_are_independent(self, two_arm_instance):
        pol = lyoff(two_arm_instance, v=10.0)
        pol.start(3)
        pol.q[:] = [0.0, 0.3, 0.1]
        pol.observe_batch(np.zeros(3, dtype=np.int64), np.array([1.0, 0.0, 0.0]),
                          np.zeros(3), np.array([0.0, 1.0, 0.0]))
        assert list(pol.q) == [0.0, pytest.approx(1.3), 0.1]


class TestConfidenceRadius:
    def test_examples(self):
        assert confidence_radius(5, 1, 2.0) == 0.0
        assert confidence_radius(8, math.e, 2.0) == pytest.approx(math.sqrt(0.5))
        assert confidence_radius(32, math.e, 2.0) == pytest.approx(math.sqrt(0.125))

    def test_monotone(self):
        for n in (2, 10, 100):
            values = [confidence_radius(t, n, 2.0) for t in range(1, 50)]
            assert all(a >= b for a, b in zip(values, values[1:]))
        for t in (1, 5, 20):
            values = [confidence_radius(t, n, 2.0) for n in range(1, 100)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_errors(self):
        with pytest.raises(ValueError):
            confidence_radius(0, 5, 2.0)
        with pytest.raises(ValueError):
            confidence_radius(1, 0.5, 2.0)
        with pytest.raises(ValueError):
            confidence_radius(math.nan, 5, 2.0)
        with pytest.raises(ValueError):
            confidence_radius(5, 5, -1.0)


class TestEmpiricalRates:
    def test_basic(self):
        assert _empirical_rates(10, 5.0, 6.0, 3.0, 1e-6) == pytest.approx((0.5, 1.2, 0.6))

    def test_floor_engages(self):
        x_hat, r_hat, y_hat = _empirical_rates(4, 0.0, 2.0, 1.0, 0.01)
        assert x_hat == 0.01
        assert math.isfinite(r_hat) and math.isfinite(y_hat)
        assert r_hat == pytest.approx(0.5 / 0.01)

    def test_single_unit_sample(self):
        assert _empirical_rates(1, 1.0, 1.0, 1.0, 1e-6) == (1.0, 1.0, 1.0)

    def test_update_accumulates(self):
        # at m = 1 the pull and cost tallies are the scalar runner's own
        pol = LyOnPolicy(2, 0.8, LyParams(v=1.0), budget=100.0)
        pol.observe(0, Outcome(0.5, 1.0, 0.0))
        pol.observe(0, Outcome(0.5, 0.2, 0.6))
        assert pol._pulls[0, 0] == 2
        assert pol._cost[0, 0] == 1.0
        assert pol.sum_r[0, 0] == pytest.approx(1.2)
        assert pol.sum_r[0, 1] == 0.0


def gamma_index(t, sum_x, sum_r, sum_y, q, log_n_prev, v, alpha, floor, variant):
    """The online index from per-arm tallies: its terms, combined."""
    terms = _index_terms(t, sum_x, sum_r, sum_y, v, alpha, floor)
    return _combine(terms, q, log_n_prev, variant)


def index_value(x_hat, r_hat, y_hat, q, v, rad, variant="lcb-both"):
    """The index at one pull with the given rates and radius (alpha = 1/2)."""
    return gamma_index(1.0, x_hat, r_hat * x_hat, y_hat * x_hat, q, rad**2, v,
                       0.5, 1e-6, variant)


class TestGammaIndex:
    def test_value_examples(self):
        # ten pulls with sums (5, 6, 3) and radius sqrt(2 * 2 * 0.025 / 10) = 0.1
        got = gamma_index(10.0, 5.0, 6.0, 3.0, 2.0, 0.025, 10.0, 2.0, 1e-6, "lcb-both")
        assert got == pytest.approx(-15.84)
        got = gamma_index(10.0, 5.0, 6.0, 3.0, 2.0, 0.025, 10.0, 2.0, 1e-6,
                          "literal-paper")
        assert got == pytest.approx(-14.56)

    def test_zero_radius_equals_psi_hat(self):
        # decision epoch 2 uses the radius at epoch 1, which is zero
        for variant in ("lcb-both", "literal-paper"):
            got = gamma_index(1.0, 0.5, 0.6, 0.3, 2.0, math.log(2 - 1), 10.0, 2.0,
                              1e-6, variant)
            assert got == pytest.approx(-10.8)

    def test_variant_ordering(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            x_hat = rng.uniform(0.05, 1.0)
            r_hat = rng.uniform(0.0, 1.0) / x_hat
            y_hat = rng.uniform(0.0, 1.0) / x_hat
            v = rng.uniform(0.1, 50.0)
            q = rng.uniform(0.0, 30.0)
            rad = rng.uniform(0.0, 2.0)
            lcb = index_value(x_hat, r_hat, y_hat, q, v, rad)
            lit = index_value(x_hat, r_hat, y_hat, q, v, rad, "literal-paper")
            if q > 0.0 and rad > 0.0:
                assert lit >= lcb
            if q == 0.0 or rad == 0.0:
                assert lit == lcb

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            LyParams(v=1.0, index_variant="nope")

    def test_matches_unfactored_formula(self):
        rng = np.random.default_rng(29)
        floor = 1e-3
        for _ in range(500):
            t = float(rng.integers(1, 200))
            sum_x, sum_r, sum_y = rng.uniform(0.0, 1.2 * t, 3)
            q = rng.uniform(0.0, 30.0)
            log_n = rng.uniform(0.0, 10.0)
            v = rng.uniform(0.1, 50.0)
            alpha = rng.uniform(0.1, 4.0)
            x_hat = max(floor, min(1.0, sum_x / t))
            r_hat = min(1.0, sum_r / t) / x_hat
            y_hat = min(1.0, sum_y / t) / x_hat
            rad = math.sqrt(2.0 * alpha * log_n / t)
            psi_hat = -v * r_hat + q * y_hat
            for variant, sign in (("lcb-both", -1.0), ("literal-paper", 1.0)):
                want = (psi_hat - rad * v * (1.0 + r_hat) / x_hat
                        + sign * rad * q * (1.0 + y_hat) / x_hat)
                got = gamma_index(t, sum_x, sum_r, sum_y, q, log_n, v, alpha, floor,
                                  variant)
                assert got == pytest.approx(want, rel=1e-12)

    def test_refresh_matches_rebuild(self):
        # a driver's loop over random pulls; rows 0 and 1 end inside the
        # exploration phase (14 epochs), so some of their arms are never
        # pulled, and every fifth decision is followed by two observations
        rng = np.random.default_rng(30)
        m, k = 8, 7
        params = LyParams(v=3.0, alpha=2.0, exploration_pulls=2)
        floor = denominator_floor(50.0)
        pol = LyOnPolicy(k, 0.8, params, 50.0)
        pol.start(m)
        pulls, cost = np.zeros((m, k)), np.zeros((m, k))
        live = np.ones(m, dtype=bool)
        rows = np.arange(m)
        checked = 0
        for n in range(200):
            live[:2] = n < 5
            pol.select_batch(n, pulls, cost, live, None)
            if pol.terms is not None:
                rebuilt = _index_terms(np.maximum(pulls, 1.0), cost, pol.sum_r,
                                       pol.sum_y, params.v, params.alpha, floor)
                for term, want in zip(pol.terms, rebuilt):
                    assert np.array_equal(term, want)
                checked += 1
            for _ in range(2 if n % 5 == 0 else 1):
                arms = rng.integers(0, k, m)
                x, r, y = rng.random((3, m)) * live
                pol.observe_batch(arms, x, r, y)
                pulls[rows, arms] += live
                cost[rows, arms] += x
        assert checked == 200 - 2 * k


class TestLyonSelect:
    def test_tie_breaks_to_lowest_index(self):
        stats = [(3, 1.5, 1.0, 0.5)] * 2
        assert lyon_select(stats, 0.0, 6, v=5.0) == 0

    def test_penalty_term_flips_choice_at_large_queue(self):
        high = (10_000, 4000.0, 8000.0, 6000.0)
        low = (10_000, 6000.0, 6000.0, 3000.0)
        n = 20_000
        assert lyon_select([high, low], 0.0, n, v=10.0) == 0
        assert lyon_select([high, low], 1000.0, n, v=10.0) == 1

    def test_ucb_reduction_matches_zero_queue(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            stats = [
                (
                    int(rng.integers(1, 30)),
                    float(rng.uniform(0.1, 10.0)),
                    float(rng.uniform(0.0, 10.0)),
                    float(rng.uniform(0.0, 10.0)),
                )
                for _ in range(3)
            ]
            n = int(rng.integers(5, 200)) - 1
            assert lyon_select(stats, 0.0, n, v=7.0, queue_enabled=False) == lyon_select(
                stats, 0.0, n, v=7.0
            )


class TestSchedules:
    def test_exploration_beta0(self, two_arm_bounds):
        # budget chosen so ln(2B / mu_min) = 1; count is then ceil(beta0)
        budget = math.e * two_arm_bounds.mu_min / 2.0
        count = exploration_schedule(budget, two_arm_bounds, 2.0)
        assert count == 77_161  # beta0 = 32*2*(1+1.5)^2 / (0.4^2 * 0.18^2) ~ 77160.5

    def test_exploration_clamped_to_one(self, two_arm_bounds):
        budget = two_arm_bounds.mu_min / 2.0  # ln(1) = 0
        assert exploration_schedule(budget, two_arm_bounds, 2.0) == 1

    def test_offline_schedule(self):
        v, delta = param_schedule(10_000.0, 1.0, 0.5, "sqrt", c=0.8)
        assert v == pytest.approx(100.0)
        assert delta == pytest.approx(0.005)

    def test_online_log_augmented_schedule(self):
        v, delta = param_schedule(10_000.0, 1.0, 0.5, "sqrt-log", c=0.8)
        assert v == pytest.approx(303.49, abs=0.01)
        assert delta == pytest.approx(0.0151747, abs=1e-6)

    def test_delta_guard(self):
        with pytest.raises(DeltaOutOfRange):
            param_schedule(100.0, 1.0, 15.0, "sqrt-log", c=0.8)
        with pytest.raises(DeltaOutOfRange):
            param_schedule(100.0, 1.0, 8.5, "sqrt", c=0.8)

    def test_small_budget_rejected(self):
        with pytest.raises(ValueError):
            param_schedule(1.0, 1.0, 0.5, "sqrt", c=0.8)

    @pytest.mark.parametrize(
        "args",
        [(math.nan, 1.0, 0.5), (100.0, math.nan, 0.5), (100.0, 1.0, math.nan)],
    )
    def test_nan_rejected(self, args):
        with pytest.raises(ValueError):
            param_schedule(*args, "sqrt", c=0.8)

    @pytest.mark.parametrize("field", ["v", "delta", "alpha"])
    def test_nan_params_rejected(self, field):
        with pytest.raises(ValueError):
            LyParams(**{"v": 1.0, field: math.nan})

    @pytest.mark.parametrize("pulls", [1.5, True])
    def test_non_integer_exploration_pulls_rejected(self, pulls):
        with pytest.raises(ValueError):
            LyParams(v=1.0, exploration_pulls=pulls)


class TestStationarySelect:
    def test_point_mass(self):
        pol = StationaryPolicy([1.0, 0.0], np.random.default_rng(1))
        assert all(pol.select() == 0 for _ in range(100))

    def test_frequencies(self, two_arm_oracle):
        # one batch row per draw: the rule maps each policy uniform to an arm
        for seed, p, share in ((8, [0.5, 0.5], 0.5), (9, two_arm_oracle.p_star, 9 / 23)):
            u = np.random.default_rng(seed).random(1_000_000)
            pol = StationaryPolicy(p, None)
            pol.start(u.size)
            arms = pol.select_batch(0, None, None, np.ones(u.size, dtype=bool), u)
            assert abs((arms == 0).mean() - share) < 0.003


class TestPolicyObjects:
    def test_lyon_matches_ucb_on_zero_queue_trace(self):
        # zero-penalty outcomes keep the queue at zero, so the two rules
        # must produce identical selection sequences
        inst = Instance(
            [ArmSpec.bernoulli(0.4, 0.8, 0.0), ArmSpec.bernoulli(0.6, 0.6, 0.0)],
            c=0.8,
        )
        params = dict(v0=1.0, delta0=0.1)
        lyon = PolicySpec("a", "lyon", **params).build(inst, 200.0, None)
        ucb = PolicySpec("b", "ucb_bwi", **params).build(inst, 200.0, None)
        rng = episode_env_rng(3, 0)
        for _ in range(400):
            k1, k2 = lyon.select(), ucb.select()
            assert k1 == k2
            assert lyon.queue == 0.0
            outcome = inst.arms[k1].sample(rng)
            lyon.observe(k1, outcome)
            ucb.observe(k2, outcome)

    def test_lyoff_negative_drift_above_threshold(self, two_arm_instance,
                                                  two_arm_bounds):
        # one-step drift, conditioned on a queue at or above V r_max / eps,
        # must be negative in mean
        v = 20.0
        threshold = v * two_arm_bounds.r_max / two_arm_bounds.epsilon
        rng = np.random.default_rng(21)
        drifts = []
        for _ in range(2000):
            q0 = threshold + float(rng.uniform(0.0, 50.0))
            pol = LyOffPolicy(two_arm_instance, v=v, delta=0.0, q0=q0)
            arm = pol.select()
            pol.observe(arm, two_arm_instance.arms[arm].sample(rng))
            drifts.append(pol.queue - q0)
        assert np.mean(drifts) < -0.05

    def test_lyon_delta_guard(self):
        with pytest.raises(DeltaOutOfRange):
            LyOnPolicy(2, c=0.8, params=LyParams(v=1.0, delta=0.9), budget=100.0)

    def test_policy_spec_validation(self):
        with pytest.raises(ValueError):
            PolicySpec("x", "no-such-type")
        with pytest.raises(ValueError):
            PolicySpec("x", "static")  # arm missing
        with pytest.raises(ValueError):
            PolicySpec("x", "lyon", exploration=0)
        with pytest.raises(ValueError):
            PolicySpec("x", "lyon", exploration="sometimes")
        with pytest.raises(ValueError):
            PolicySpec("x", "lyon", schedule="cubic")

    def test_policy_spec_field_types(self):
        spec = PolicySpec("x", "stationary", p=[0.25, 0.75], v0=2, alpha=3)
        assert spec.p == (0.25, 0.75)
        hash(spec)  # a list p would make the frozen spec unhashable
        assert isinstance(spec.v0, float) and isinstance(spec.alpha, float)
        for fields in (
            dict(exploration=True),
            dict(exploration=1.0),
            dict(v0=[1]),
            dict(delta0="0.5"),
            dict(alpha=True),
            dict(v0=math.nan),
        ):
            with pytest.raises(ValueError):
                PolicySpec("x", "lyon", **fields)

    @pytest.mark.parametrize("arm", [1.5, True, "1", -0.0])
    def test_policy_spec_arm_must_be_int(self, arm):
        with pytest.raises(ValueError, match="arm must be an integer"):
            PolicySpec("s", "static", arm=arm)
        assert PolicySpec("s", "static", arm=np.int64(1)).arm == 1

    def test_policy_spec_schedules(self):
        spec_sqrt = PolicySpec("a", "lyon", v0=1.0, delta0=0.5)
        spec_log = PolicySpec("b", "lyon", v0=1.0, delta0=0.5, schedule="sqrt-log")
        p_sqrt = spec_sqrt.ly_params(10_000.0, c=0.8, bounds=None)
        p_log = spec_log.ly_params(10_000.0, c=0.8, bounds=None)
        assert p_sqrt.v == pytest.approx(100.0)
        assert p_sqrt.delta == pytest.approx(0.005)
        assert p_log.v == pytest.approx(303.49, abs=0.01)
        assert p_log.delta == pytest.approx(0.0151747, abs=1e-6)
