from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from lybandit import (
    ArmSpec,
    Infeasible,
    Instance,
    penalty_rate,
    reward_rate,
    solve_lfp,
    solve_lfp_grid,
    wald_interval,
)
from lybandit.model import check_simplex
from lybandit.oracle import FEASIBILITY_TOL

from conftest import random_feasible_instance


class TestRates:
    def test_vertices(self, two_arm_instance):
        assert reward_rate([1, 0], two_arm_instance) == pytest.approx(2.0)
        assert reward_rate([0, 1], two_arm_instance) == pytest.approx(1.0)
        assert penalty_rate([1, 0], two_arm_instance) == pytest.approx(1.5)
        assert penalty_rate([0, 1], two_arm_instance) == pytest.approx(0.5)

    def test_identical_arms_flat(self):
        inst = Instance([ArmSpec.bernoulli(0.5, 0.4, 0.2)] * 3, c=0.9)
        for p in ([1, 0, 0], [0.2, 0.5, 0.3], [1 / 3] * 3):
            assert reward_rate(p, inst) == pytest.approx(0.8)
            assert penalty_rate(p, inst) == pytest.approx(0.4)

    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            check_simplex([0.5, 0.4])
        with pytest.raises(ValueError):
            check_simplex([-0.1, 1.1])
        # with an arm count, the one home of the mixture-arity rule
        assert check_simplex([0.5, 0.5], 2).tolist() == [0.5, 0.5]
        with pytest.raises(ValueError, match=r"^p has 2 entries for 3 arms$"):
            check_simplex([0.5, 0.5], 3)

    @pytest.mark.parametrize("call", [reward_rate, penalty_rate,
                                      lambda p, inst: wald_interval(p, inst, 50.0)],
                             ids=["reward_rate", "penalty_rate", "wald_interval"])
    def test_mixture_of_the_wrong_length_is_refused(self, call):
        # once numpy's matmul core-dimension error
        inst = Instance([ArmSpec.bernoulli(0.5, 0.4, 0.2)] * 3, c=0.9)
        with pytest.raises(ValueError, match=r"^p has 2 entries for 3 arms$"):
            call([0.5, 0.5], inst)


class TestSolveLfp:
    def test_reference_instance(self, two_arm_instance, two_arm_oracle):
        sol = two_arm_oracle
        assert sol.p_star[0] == pytest.approx(9 / 23, abs=1e-9)
        assert sol.p_star[1] == pytest.approx(14 / 23, abs=1e-9)
        assert sol.r_star == pytest.approx(1.3, abs=1e-9)
        assert sol.y_star == pytest.approx(0.8, abs=1e-9)
        assert sol.support == (0, 1)

    def test_single_arm(self):
        inst = Instance([ArmSpec.bernoulli(0.5, 0.5, 0.1)], c=0.5)
        sol = solve_lfp(inst)
        assert list(sol.p_star) == [1.0]
        assert sol.r_star == pytest.approx(1.0)

    def test_slack_constraint_picks_best_vertex(self, two_arm_instance):
        slack = Instance(two_arm_instance.arms, c=2.0)
        sol = solve_lfp(slack)
        assert list(sol.p_star) == [1.0, 0.0]
        assert sol.r_star == pytest.approx(2.0)

    def test_infeasible(self):
        inst = Instance([ArmSpec.bernoulli(0.4, 0.5, 0.6)], c=0.5)  # y-rate 1.5
        with pytest.raises(Infeasible):
            solve_lfp(inst)
        with pytest.raises(Infeasible):
            solve_lfp_grid(inst, 0.01)

    def test_equal_mixtures_go_to_the_lower_arm_pair(self):
        # arms 0 and 2 are copies, so pairs (0, 1) and (1, 2) are one mixture
        # whose two computed rates differ by rounding
        copy = ArmSpec.bernoulli(0.25, 0.18, 0.14)
        inst = Instance([copy, ArmSpec.bernoulli(0.54, 0.83, 0.79), copy], c=0.62)
        ex, _, ey = inst.true_means()
        slack = ey - inst.c * ex
        w = slack[1] / (slack[1] - slack[0])
        sol = solve_lfp(inst)
        assert sol.support == (0, 1)
        assert np.array_equal(sol.p_star, [w, 1.0 - w, 0.0])

    def test_matches_brute_force_scan(self):
        # single arms, then opposite-slack pairs (j, k), j < k; the winner is
        # the first admissible one within FEASIBILITY_TOL of the best rate
        rng = np.random.default_rng(2024)
        for _ in range(200):
            base = random_feasible_instance(rng, int(rng.integers(1, 13)))
            arms = list(base.arms)
            for _ in range(int(rng.integers(0, 3))):
                arms.insert(int(rng.integers(0, len(arms) + 1)),
                            arms[int(rng.integers(0, len(arms)))])
            inst = Instance(arms, c=base.c)
            k_arms = inst.n_arms
            ex, _, ey = inst.true_means()
            slack = ey - inst.c * ex
            scan = list(np.eye(k_arms))
            for j in range(k_arms):
                for k in range(j + 1, k_arms):
                    if slack[j] * slack[k] < 0.0:
                        w = slack[k] / (slack[k] - slack[j])
                        p = np.zeros(k_arms)
                        p[j], p[k] = w, 1.0 - w
                        scan.append(p)
            admissible = [p for p in scan if penalty_rate(p, inst) <= inst.c + FEASIBILITY_TOL]
            best = max(reward_rate(p, inst) for p in admissible)
            want = next(p for p in admissible
                        if reward_rate(p, inst) >= best - FEASIBILITY_TOL)
            sol = solve_lfp(inst)
            assert np.array_equal(sol.p_star, want)
            assert sol.support == tuple(int(i) for i in np.flatnonzero(want))

    def test_matches_grid_on_random_instances(self):
        rng = np.random.default_rng(777)
        steps = {2: 1e-4, 3: 2e-3, 4: 1e-2, 5: 2e-2}
        for _ in range(60):
            k = int(rng.integers(2, 6))
            inst = random_feasible_instance(rng, k)
            exact = solve_lfp(inst)
            grid = solve_lfp_grid(inst, steps[k])
            # the lattice can never beat the exact optimum ...
            assert grid.r_star <= exact.r_star + 1e-9
            # ... and approaches it at the lattice resolution
            assert exact.r_star - grid.r_star <= 10 * steps[k]

    def test_matches_charnes_cooper_lp(self):
        # z = p / (ex . p) turns the ratio program into an LP:
        # maximize er . z  s.t.  ex . z = 1, (ey - c ex) . z <= 0, z >= 0
        rng = np.random.default_rng(1962)
        for _ in range(50):
            inst = random_feasible_instance(rng, int(rng.integers(2, 9)))
            ex, er, ey = inst.true_means()
            lp = linprog(-er, A_ub=[ey - inst.c * ex], b_ub=[0.0], A_eq=[ex],
                         b_eq=[1.0], bounds=(0.0, None), method="highs")
            assert lp.status == 0
            assert solve_lfp(inst).r_star == pytest.approx(-lp.fun, rel=1e-9)

    def test_feasibility_and_support(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            inst = random_feasible_instance(rng, int(rng.integers(2, 6)))
            sol = solve_lfp(inst)
            assert penalty_rate(sol.p_star, inst) <= inst.c + 1e-9
            assert len(sol.support) <= 2
            assert sol.p_star.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(sol.p_star >= 0.0)

    def test_vertex_dominance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            inst = random_feasible_instance(rng, 4)
            ex, er, ey = inst.true_means()
            best = int(np.argmax(er / ex))
            if ey[best] / ex[best] <= inst.c:  # best-rate arm already admissible
                sol = solve_lfp(inst)
                expected = np.zeros(4)
                expected[best] = 1.0
                assert np.array_equal(sol.p_star, expected)

    def test_reward_scale_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            ex = rng.uniform(0.3, 1.0, 3)
            er = rng.uniform(0.05, 0.45, 3)
            ey = rng.uniform(0.05, 1.0, 3)
            c = float((ey / ex).min() + 0.05)
            base = Instance([ArmSpec.bernoulli(*v) for v in zip(ex, er, ey)], c)
            scaled = Instance(
                [ArmSpec.bernoulli(x, 2.0 * r, y) for x, r, y in zip(ex, er, ey)], c
            )
            a, b = solve_lfp(base), solve_lfp(scaled)
            assert np.allclose(a.p_star, b.p_star, atol=1e-12)
            assert b.r_star == pytest.approx(2.0 * a.r_star, rel=1e-12)


class TestGrid:
    def test_reference_instance(self, two_arm_instance):
        sol = solve_lfp_grid(two_arm_instance, 1e-4)
        assert sol.r_star == pytest.approx(1.3, abs=1e-3)

    def test_identical_arms(self):
        inst = Instance([ArmSpec.bernoulli(0.5, 0.4, 0.2)] * 2, c=0.9)
        sol = solve_lfp_grid(inst, 0.01)
        assert sol.r_star == pytest.approx(0.8)

    def test_single_arm(self):
        inst = Instance([ArmSpec.bernoulli(0.5, 0.5, 0.1)], c=0.5)
        assert list(solve_lfp_grid(inst, 0.1).p_star) == [1.0]

    def test_oversized_lattice_rejected(self):
        inst = Instance([ArmSpec.bernoulli(0.5, 0.5, 0.1)] * 5, c=0.9)
        with pytest.raises(ValueError):
            solve_lfp_grid(inst, 1e-4)


class TestWaldInterval:
    def test_reference_instance(self, two_arm_instance, two_arm_oracle):
        low, high = wald_interval(two_arm_oracle.p_star, two_arm_instance, 100.0)
        assert low == pytest.approx(130.0, abs=1e-9)
        assert high == pytest.approx(138.125, abs=1e-9)

    def test_zero_reward(self):
        inst = Instance([ArmSpec.bernoulli(0.5, 0.0, 0.1)], c=0.5)
        assert wald_interval([1.0], inst, 50.0) == (0.0, 0.0)

    def test_budget_precondition(self, two_arm_instance):
        with pytest.raises(ValueError):
            wald_interval([0.5, 0.5], two_arm_instance, 0.0)
        with pytest.raises(ValueError):
            wald_interval([0.5, 0.5], two_arm_instance, float("nan"))
