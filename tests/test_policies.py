from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lybandit import ArmSpec, DeltaOutOfRange, Instance, Outcome, PolicySpec, StationaryPolicy
from lybandit import SlaterViolation, wald_interval
from lybandit.engine import simulate_batch
from lybandit.model import derive_bounds, episode_env_rng, run_episode
from lybandit.policies import (
    LyOffPolicy,
    LyOnPolicy,
    StaticPolicy,
    _combine,
    _empirical_rates,
    _envelope,
    _index_terms,
    confidence_radius,
    denominator_floor,
    exploration_schedule,
    param_schedule,
)

LIVE = np.ones(1, dtype=bool)


def lyoff(instance, q0=0.0, v=10.0, delta=0.0):
    pol = LyOffPolicy(instance, v=v, delta=delta)
    pol.q[:] = q0
    return pol


def lyon_select(stats, q, n, v, queue_enabled=True):
    """Arm the online rule picks at m = 1 after n completed pulls.

    ``stats`` lists per-arm (pulls, cost sum, reward sum, penalty sum); the
    budget is large enough that the cost floor is 1e-6.  Each arm's tallies
    start one pull short, at its cost sum; its last pull then reaches the
    rule as one observation of zero cost that carries the arm's reward and
    penalty sums, so every sum stays exact.
    """
    t, sum_x = (np.array([s[i] for s in stats]) for i in range(2))
    pol = LyOnPolicy(len(stats), 0.8, 1e6, v=v, queue_enabled=queue_enabled)
    pol.start(1)
    pol.pulls[0], pol.cost[0] = t - 1, sum_x
    for arm, (_, _, sum_r, sum_y) in enumerate(stats):
        r, y = np.array([sum_r]), np.array([sum_y])
        pol.observe_batch(np.array([arm]), LIVE, np.zeros(1), r, y)
    pol.q[:] = q
    return int(pol.select_batch(n, LIVE, None)[0])


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
        pol.observe_batch(np.zeros(3, dtype=np.int64), np.ones(3, dtype=bool),
                          np.array([1.0, 0.0, 0.0]), np.zeros(3), np.array([0.0, 1.0, 0.0]))
        assert list(pol.q) == [0.0, pytest.approx(1.3), 0.1]


def offline_arms(draw, k):
    """K Bernoulli arms from small pools of means, so equal arms, slopes and intercepts recur."""
    means = st.floats(0.01, 1.0) | st.sampled_from([0.0, 0.25, 0.5, 1.0])
    pool = [draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4)),
            draw(st.lists(means, min_size=1, max_size=4)),
            draw(st.lists(means, min_size=1, max_size=4))]
    picks = draw(st.lists(st.tuples(*(st.integers(0, len(p) - 1) for p in pool)),
                          min_size=k, max_size=k))
    return [ArmSpec.bernoulli(*(p[i] for p, i in zip(pool, pick))) for pick in picks]


@st.composite
def offline_rules(draw):
    """A lyoff rule on 1..60 arms, and queues at and around its interval ends."""
    k = draw(st.integers(1, 60))
    arms = offline_arms(draw, k)
    rule = LyOffPolicy(Instance(arms, c=1.0), v=draw(st.floats(1e-3, 1e3)), delta=0.0)
    ends = np.concatenate([rule._lo, rule._hi])
    ends = ends[np.isfinite(ends) & (ends >= 0.0)]
    # the crossings of every pair of score lines, where rounding decides
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = ((rule._neg_vr[:, None] - rule._neg_vr)
                 / (rule._y_rates - rule._y_rates[:, None])).ravel()
    cross = cross[np.isfinite(cross) & (cross >= 0.0)]
    random_q = draw(st.lists(st.floats(0.0, 1e6), max_size=20))
    edges = np.concatenate([ends, cross])
    with np.errstate(over="ignore"):
        above = np.nextafter(edges, np.inf)
    q = np.concatenate([[0.0, 1e300, 1e308, np.finfo(float).max], random_q, edges, above,
                        np.nextafter(edges, -np.inf)])
    return rule, q[q >= 0.0]


class TestOfflineEnvelope:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=offline_rules())
    def test_envelope_arm_is_the_argmin_of_the_scores(self, case):
        rule, q = case
        m = q.size
        rule.start(m)
        rule.q[:] = q
        # a queue near the float maximum overflows q y; both sides see inf
        with np.errstate(over="ignore", invalid="ignore"):
            got = rule.select_batch(0, np.ones(m, dtype=bool), None)
            want = np.argmin(rule.scores(), axis=1)
        assert np.array_equal(got, want)

    def test_equal_arms_merge_into_the_lowest_index(self):
        a, b = np.array([-2.0, -1.0, -2.0, -1.0]), np.array([1.0, 0.5, 1.0, 0.5])
        lo, hi, arm = _envelope(a, b)
        assert set(arm[1:].tolist()) == {0, 1}
        assert hi[0] == -np.inf and np.all(np.diff(lo) > 0)

    def test_one_arm_is_one_interval(self):
        lo, hi, arm = _envelope(np.array([-3.0]), np.array([0.7]))
        assert lo.tolist() == [-np.inf] and arm.tolist() == [0, 0]
        assert hi[1] == np.finfo(float).max / 1.4

    def test_no_row_scan_outside_the_fallback(self):
        # K = 50 and m = 1024 rows at queues inside the intervals: no (m, K)
        # score array is made, so a return to full scans shows; one row at a
        # crossing of two lines falls back alone
        rng = np.random.default_rng(24)
        k, m = 50, 1024
        arms = [ArmSpec.bernoulli(0.5, *rng.uniform(0.05, 1.0, 2)) for _ in range(k)]
        rule = LyOffPolicy(Instance(arms, c=0.8), v=12.0, delta=0.0)
        lo, hi = rule._lo, rule._hi[1:]
        inner = np.maximum(lo, 0.0) + (np.minimum(hi, 1e3) - np.maximum(lo, 0.0)) / 2
        rule.start(m)
        rule.q[:] = rng.choice(inner, m)
        first, second = rule._arms[1:3]
        rule.q[0] = ((rule._neg_vr[first] - rule._neg_vr[second])
                     / (rule._y_rates[second] - rule._y_rates[first]))
        inside = rule.q < rule._hi[np.searchsorted(rule._lo, rule.q)]
        assert np.flatnonzero(~inside).tolist() == [0]
        tracemalloc.start()
        try:
            got = rule.select_batch(0, np.ones(m, dtype=bool), None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "scores" not in rule._scratch
        assert peak < m * k * 8 // 4, peak
        assert np.array_equal(got, np.argmin(rule.scores(), axis=1))


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
        pol = LyOnPolicy(2, 0.8, budget=100.0, v=1.0)
        pol.observe(0, Outcome(0.5, 1.0, 0.0))
        pol.observe(0, Outcome(0.5, 0.2, 0.6))
        assert pol.pulls[0, 0] == 2
        assert pol.cost[0, 0] == 1.0
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


def overflow_edge(accepted) -> float:
    """The largest positive float ``accepted`` takes, for ``accepted`` true up to an edge.

    Bisects the bit patterns of the positive floats, which order as the floats.
    """
    def value(bits):
        return float(np.int64(bits).view(np.float64))

    low, high = 1, int(np.float64(np.finfo(float).max).view(np.int64))
    if accepted(value(high)):
        return value(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if accepted(value(mid)) else (low, mid)
    return value(low)


@st.composite
def online_rules(draw):
    """An accepted online rule, its arm count and arguments; V is often at its overflow edge."""
    k = draw(st.integers(1, 60))
    args = dict(budget=draw(st.floats(1e-6, 1e12)), alpha=draw(st.floats(1e-12, 1e12)),
                index_variant=draw(st.sampled_from(["lcb-both", "literal-paper"])),
                queue_enabled=draw(st.booleans()), delta=draw(st.floats(0.0, 0.79)))

    def accepted(v):
        try:
            LyOnPolicy(k, 0.8, v=v, **args)
        except ValueError:
            return False
        return True

    assume(accepted(np.finfo(float).tiny))
    edge = overflow_edge(accepted)
    near = st.sampled_from([edge, float(np.nextafter(edge, 0.0))])
    args["v"] = draw(near | st.floats(np.finfo(float).tiny, edge))
    return LyOnPolicy(k, 0.8, **args), k, args


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
            LyOnPolicy(2, 0.8, budget=100.0, v=1.0, index_variant="nope")

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
        # pulled, and every fifth decision is followed by two observations.
        # The loop keeps its own tallies, which the rule's must equal
        rng = np.random.default_rng(30)
        m, k = 8, 7
        params = dict(v=3.0, alpha=2.0, exploration_pulls=2)
        floor = denominator_floor(50.0)
        pol = LyOnPolicy(k, 0.8, 50.0, **params)
        pulls, cost = np.zeros((m, k)), np.zeros((m, k))
        pol.start(m)
        live = np.ones(m, dtype=bool)
        rows = np.arange(m)
        checked = 0
        for n in range(200):
            live[:2] = n < 5
            pol.select_batch(n, live, None)
            assert np.array_equal(pol.pulls, pulls) and np.array_equal(pol.cost, cost)
            rebuilt = _index_terms(np.maximum(pulls, 1.0), cost, pol.sum_r,
                                   pol.sum_y, params["v"], params["alpha"], floor)
            for term, want in zip(pol.terms, rebuilt):
                assert np.array_equal(term, want)
            checked += 1
            for _ in range(2 if n % 5 == 0 else 1):
                arms = rng.integers(0, k, m)
                x, r, y = rng.random((3, m)) * live
                pulls[rows, arms] += live
                cost[rows, arms] += x
                pol.observe_batch(arms, live, x, r, y)
        assert checked == 200

    def test_scalar_refresh_matches_rebuild(self):
        # at m = 1 the wrapper's own tallies must hold each pull before the
        # rule observes it, or the refreshed entry reads the previous counts
        params = dict(v=3.0, alpha=2.0, exploration_pulls=2)
        floor = denominator_floor(50.0)
        pol = LyOnPolicy(3, 0.8, 50.0, **params)
        rng = np.random.default_rng(31)
        for _ in range(60):
            arm = pol.select()
            pol.observe(arm, Outcome(*rng.random(3)))
            rebuilt = _index_terms(np.maximum(pol.pulls, 1.0), pol.cost, pol.sum_r,
                                   pol.sum_y, params["v"], params["alpha"], floor)
            for term, want in zip(pol.terms, rebuilt):
                assert np.array_equal(term, want)

    @settings(max_examples=200, deadline=None)
    @given(case=online_rules(), m=st.integers(1, 4))
    def test_start_terms_equal_a_rebuild_from_zero_tallies(self, case, m):
        # a first start, then pulls of random arms with random outcomes, then
        # a second start: it begins fresh episodes, so every tally is zero
        # again and every term is a rebuild from those zero tallies
        rule, k, args = case
        rng = np.random.default_rng(m)
        live = np.ones(m, dtype=bool)
        rule.start(m)
        for _ in range(3):
            rule.observe_batch(rng.integers(0, k, m), live, *rng.random((3, m)))
        assert rule.pulls.sum() == 3 * m
        rule.start(m)
        tallies = (rule.pulls, rule.cost, rule.sum_r, rule.sum_y)
        assert all(a.shape == (m, k) and not a.any() for a in tallies)
        rebuilt = _index_terms(np.maximum(rule.pulls, 1.0), rule.cost, rule.sum_r, rule.sum_y,
                               args["v"], args["alpha"], denominator_floor(args["budget"]))
        for term, want in zip(rule.terms, rebuilt):
            assert term.shape == (m, k) and term.tobytes() == want.tobytes()

    def test_start_makes_only_its_state(self):
        # at m = 1,024 and K = 50 start makes the eight (m, K) arrays that the
        # rule then holds, the four tallies and the four terms, and no
        # temporary of that shape: the peak stays below half an array more
        m, k = 1024, 50
        rule = LyOnPolicy(k, 0.8, 100.0, v=5.0)
        tracemalloc.start()
        try:
            rule.start(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = [a for value in vars(rule).values()
                for a in (value if isinstance(value, tuple) else (value,))
                if isinstance(a, np.ndarray) and a.shape == (m, k)]
        assert len(held) == 8
        assert peak < (len(held) + 0.5) * m * k * 8, peak / (m * k * 8)


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

    def test_exploration_count_beyond_a_float_rejected(self):
        # mu_min^2 eps^2 underflows to zero, which once raised ZeroDivisionError
        instance = Instance([ArmSpec.bernoulli(1e-300, 0.5, 0.0),
                             ArmSpec.bernoulli(0.5, 0.5, 0.0)], c=1e-10)
        with pytest.raises(ValueError, match="^theoretical exploration count must be"):
            exploration_schedule(20.0, derive_bounds(instance), 2.0)

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

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="^unknown schedule: 'cubic'"):
            param_schedule(100.0, 1.0, 0.5, "cubic", c=0.8)

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
            LyOnPolicy(2, 0.8, 100.0, **{"v": 1.0, field: math.nan})

    @pytest.mark.parametrize("pulls", [1.5, True])
    def test_non_integer_exploration_pulls_rejected(self, pulls):
        with pytest.raises(ValueError):
            LyOnPolicy(2, 0.8, 100.0, v=1.0, exploration_pulls=pulls)


class TestStaticSelect:
    @pytest.mark.parametrize("arm", [2, 7])
    def test_arm_outside_the_arms_refused(self, arm):
        # refused when built, not at the first scalar observe
        with pytest.raises(ValueError, match=rf"^n_arms for arm index {arm} must be at least"):
            StaticPolicy(arm, 2)

    def test_tallies_span_every_arm(self):
        pol = StaticPolicy(1, 3)
        pol.observe(pol.select(), Outcome(0.5, 1.0, 0.0))
        assert pol.pulls.tolist() == [[0.0, 1.0, 0.0]]
        assert pol.cost.tolist() == [[0.0, 0.5, 0.0]]


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
            arms = pol.select_batch(0, np.ones(u.size, dtype=bool), u)
            assert abs((arms == 0).mean() - share) < 0.003

    def test_scalar_select_needs_a_policy_stream(self, two_arm_instance):
        # the lockstep build passes no policy stream; run one episode at a time
        # such a rule refuses at its first pull
        rule = PolicySpec("s", "stationary", p=(0.5, 0.5)).build(two_arm_instance, 10.0, None)
        with pytest.raises(ValueError, match="policy stream"):
            run_episode(two_arm_instance, rule, 10.0, np.random.default_rng(0))


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
            pol = LyOffPolicy(two_arm_instance, v=v, delta=0.0)
            pol.q[:] = q0
            arm = pol.select()
            pol.observe(arm, two_arm_instance.arms[arm].sample(rng))
            drifts.append(pol.queue - q0)
        assert np.mean(drifts) < -0.05

    def test_true_rate_scores_need_positive_costs(self):
        # both the offline scores and the online rule's coverage check divide
        # by the expected cost
        inst = Instance([ArmSpec.bernoulli(0.0, 0.5, 0.1), ArmSpec.bernoulli(0.5, 0.5, 0.1)],
                        c=0.8)
        match = "rates need positive expected cost for every arm"
        with pytest.raises(ValueError, match=match):
            LyOffPolicy(inst, v=1.0, delta=0.0)
        with pytest.raises(ValueError, match=match):
            simulate_batch(inst, PolicySpec("l", "lyon"), 10.0, 4, 1, cap=50,
                           track_lcb=True)

    def test_index_that_overflows_past_its_terms_is_refused(self):
        # at B = 10 the extreme terms are finite (C = 220 V = 1.5e308), but the
        # index A - sqrt(ln n) C is not once ln n > 1.2: five arms, each pulled
        # once at zero cost, reach it at n = 5
        v = 6.8e305
        assert np.isfinite(_index_terms(1.0, 0.0, 1.0, 1.0, v, 2.0, 0.1)).all()
        with pytest.raises(ValueError, match="overflow the online index"):
            LyOnPolicy(5, 0.8, 10.0, v, queue_enabled=False)
        LyOnPolicy(5, 0.8, 10.0, v / 10, queue_enabled=False)

    def test_lyon_delta_guard(self):
        for delta in (0.9, 0.8):
            with pytest.raises(DeltaOutOfRange):
                LyOnPolicy(2, c=0.8, budget=100.0, v=1.0, delta=delta)
        # a pinned queue is never tightened
        LyOnPolicy(2, c=0.8, budget=100.0, v=1.0, delta=0.9, queue_enabled=False)

    def test_lyoff_delta_guard(self, two_arm_instance):
        with pytest.raises(DeltaOutOfRange):
            LyOffPolicy(two_arm_instance, v=1.0, delta=two_arm_instance.c)

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

    @pytest.mark.parametrize("fields, message", [
        (dict(type="static", arm=0, p=(0.5, 0.5)), "p is only valid for stationary policies"),
        (dict(type="lyon", arm=1), "arm is only valid for static policies"),
        (dict(type="stationary", arm=0), "arm is only valid for static policies"),
    ], ids=["p-on-static", "arm-on-lyon", "arm-on-stationary"])
    def test_field_of_another_policy_type_refused(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PolicySpec("a", **fields)

    def test_stationary_build_needs_a_mixture(self, two_arm_instance):
        with pytest.raises(ValueError, match="^stationary policy needs p or an oracle default"):
            PolicySpec("s", "stationary").build(two_arm_instance, 10.0, None)

    @pytest.mark.parametrize("p_default", [[1.0], [0.2, 0.3, 0.5]], ids=["short", "long"])
    def test_build_refuses_an_oracle_mixture_that_does_not_fit(self, two_arm_instance,
                                                               p_default):
        spec = PolicySpec("s", "stationary")
        with pytest.raises(ValueError, match=f"p has {len(p_default)} entries for 2 arms"):
            spec.build(two_arm_instance, 10.0, None, p_default=np.array(p_default))
        # a spec's own p is the mixture; the default is then not read
        own = PolicySpec("s", "stationary", p=(0.5, 0.5))
        own.build(two_arm_instance, 10.0, None, p_default=np.array(p_default))

    def test_build_refuses_a_static_arm_that_does_not_fit(self, two_arm_instance):
        with pytest.raises(ValueError, match="static arm index 2 is out of range for 2 arms"):
            PolicySpec("s", "static", arm=2).build(two_arm_instance, 10.0, None)

    def test_build_derives_bounds_for_theoretical_exploration(self, two_arm_instance):
        spec = PolicySpec("on", "lyon", exploration="theoretical")
        bounds = derive_bounds(two_arm_instance)
        derived = spec.build(two_arm_instance, 50.0, None)
        given = spec.build(two_arm_instance, 50.0, None, bounds=bounds)
        pulls = exploration_schedule(50.0, bounds, spec.alpha)
        assert derived._explore_total == given._explore_total == 2 * pulls
        no_slater = Instance([ArmSpec.bernoulli(0.5, 0.5, 0.5)], c=0.5)
        with pytest.raises(SlaterViolation):
            spec.build(no_slater, 50.0, None)
        # a fixed pull count reads no problem constant
        PolicySpec("on", "lyon").build(no_slater, 50.0, None)

    @pytest.mark.parametrize("name", [["a"], 3, None])
    def test_policy_spec_name_must_be_a_string(self, name):
        # a list name once built and broke RunConfig's duplicate-name set
        with pytest.raises(ValueError, match="^name must be a string"):
            PolicySpec(name, "lyon")

    def test_one_tolerance_for_every_probability_vector(self, two_arm_instance):
        near = (0.3333333333, 0.6666666666)  # sums to 1 - 1e-10
        assert PolicySpec("s", "stationary", p=near).p == near
        wald_interval(near, two_arm_instance, 10.0)
        off = (0.333334, 0.666667)  # sums to 1 + 1e-6
        messages = []
        for check in (lambda p: PolicySpec("s", "stationary", p=p),
                      lambda p: wald_interval(p, two_arm_instance, 10.0)):
            with pytest.raises(ValueError, match="^probabilities must sum to 1") as err:
                check(off)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_ragged_stationary_p_is_named(self):
        # numpy's shape inference once refused it with its own message
        with pytest.raises(ValueError, match="^p must be a one-dimensional probability"):
            PolicySpec("s", "stationary", p=[[0.5], 0.5])

    @pytest.mark.parametrize("arm", [1.5, True, "1", -0.0])
    def test_policy_spec_arm_must_be_int(self, arm):
        with pytest.raises(ValueError, match="arm must be an integer"):
            PolicySpec("s", "static", arm=arm)
        assert PolicySpec("s", "static", arm=np.int64(1)).arm == 1

    def test_policy_spec_schedules(self):
        spec_sqrt = PolicySpec("a", "lyon", v0=1.0, delta0=0.5)
        spec_log = PolicySpec("b", "lyon", v0=1.0, delta0=0.5, schedule="sqrt-log")
        v_sqrt, delta_sqrt = param_schedule(10_000.0, spec_sqrt.v0, spec_sqrt.delta0,
                                            spec_sqrt.schedule, c=0.8)
        v_log, delta_log = param_schedule(10_000.0, spec_log.v0, spec_log.delta0,
                                          spec_log.schedule, c=0.8)
        assert v_sqrt == pytest.approx(100.0)
        assert delta_sqrt == pytest.approx(0.005)
        assert v_log == pytest.approx(303.49, abs=0.01)
        assert delta_log == pytest.approx(0.0151747, abs=1e-6)
