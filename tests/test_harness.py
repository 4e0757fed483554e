from __future__ import annotations

import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import lybandit.engine as engine
import lybandit.harness as harness
import lybandit.policies as policies
from lybandit import (
    ArmSpec,
    CellStats,
    DeltaOutOfRange,
    EpisodeResult,
    Instance,
    PolicySpec,
    RunConfig,
    run_batch,
    solve_lfp,
    sweep_scaling,
    wald_interval,
)
from lybandit.engine import BatchResult, simulate_batch
from lybandit.harness import pseudo_regret, violation
from lybandit.model import derive_bounds

SPEC = PolicySpec("s", "static", arm=0)


def make_result(**kw) -> EpisodeResult:
    base = dict(
        n_pulls=10,
        total_cost=5.0,
        total_reward=6.0,
        total_penalty=3.0,
        pulls_per_arm=np.array([6, 4]),
        cost_per_arm=np.array([3.0, 2.0]),
        q_final=0.0,
        q_max=0.0,
    )
    base.update(kw)
    return EpisodeResult(**base)


def alloc_cost(**kw) -> np.ndarray:
    """``alloc_cost`` of a one-episode cell whose episode is ``make_result(**kw)``."""
    episode = make_result(**kw)
    batch = BatchResult(**{f.name: np.array([getattr(episode, f.name)])
                           for f in fields(EpisodeResult)})
    spec = PolicySpec("s", "static", arm=0)
    return harness._aggregate_cell(spec, 100.0, batch, 1.3, 0.8).alloc_cost


class TestMetrics:
    def test_pseudo_regret(self):
        assert pseudo_regret(make_result(total_reward=120.0), 1.3, 100.0) == pytest.approx(10.0)
        assert pseudo_regret(make_result(total_reward=130.0), 1.3, 100.0) == 0.0

    def test_violation(self):
        assert violation(make_result(total_penalty=85.0), 0.8, 100.0) == pytest.approx(0.05)
        assert violation(make_result(total_penalty=0.0), 0.8, 100.0) == pytest.approx(-0.8)
        assert violation(make_result(total_penalty=80.0), 0.8, 100.0) == 0.0

    def test_allocation(self):
        single = alloc_cost(pulls_per_arm=np.array([10]), cost_per_arm=np.array([5.0]))
        assert list(single) == [1.0]
        assert alloc_cost() == pytest.approx([0.6, 0.4])

    def test_allocation_zero_cost(self):
        # an episode that consumed no budget is left out of the shares
        shares = alloc_cost(total_cost=0.0, cost_per_arm=np.array([0.0, 0.0]))
        assert list(shares) == [0.0, 0.0]


class TestRunBatch:
    def test_single_run_has_zero_stderr(self, two_arm_instance):
        config = RunConfig(
            instance=two_arm_instance,
            policies=(PolicySpec("stat", "stationary"),),
            budgets=(50.0,),
            runs=1,
            master_seed=5,
        )
        result = run_batch(config)
        cell = result.cell("stat", 50.0)
        assert cell.se_reward_rate == 0.0
        assert cell.se_violation == 0.0
        assert cell.se_regret == 0.0

    def test_bitwise_determinism(self, two_arm_instance):
        config = RunConfig(
            instance=two_arm_instance,
            policies=(PolicySpec("lyon", "lyon"), PolicySpec("stat", "stationary")),
            budgets=(40.0, 80.0),
            runs=50,
            master_seed=33,
        )
        a, b = run_batch(config), run_batch(config)
        for ca, cb in zip(a.cells, b.cells):
            assert ca.mean_reward_rate == cb.mean_reward_rate
            assert ca.se_reward_rate == cb.se_reward_rate
            assert ca.mean_regret == cb.mean_regret
            assert np.array_equal(ca.alloc_cost, cb.alloc_cost)
            assert np.array_equal(ca.alloc_pulls, cb.alloc_pulls)

    GRID = (
        PolicySpec("stat", "stationary"),
        PolicySpec("lyon", "lyon", v0=1.0, delta0=0.5),
        PolicySpec("static", "static", arm=1),
    )

    def test_grid_equals_per_cell_batches(self, two_arm_instance, monkeypatch):
        # the grid shares each 7-run chunk's streams among its nine cells; a
        # one-cell batch draws its own.  With 16-epoch blocks the cells cross
        # block boundaries at different epochs, and every later block is drawn
        # once for the rows that any cell still runs
        instance = two_arm_instance
        sol, bounds = solve_lfp(instance), derive_bounds(instance)
        monkeypatch.setattr(engine, "_CHUNK", 7)
        budgets = (5.0, 20.0, 60.0)
        for block in (engine._BLOCK, 16):
            monkeypatch.setattr(engine, "_BLOCK", block)
            grid = run_batch(RunConfig(instance, self.GRID, budgets, 23, 9))
            for spec in self.GRID:
                for budget in budgets:
                    batch = simulate_batch(instance, spec, budget, 23, 9,
                                           p_default=sol.p_star, bounds=bounds)
                    want = harness._aggregate_cell(spec, budget, batch, sol.r_star,
                                                   instance.c)
                    got = grid.cell(spec.name, budget)
                    for f in fields(CellStats):
                        assert np.array_equal(getattr(got, f.name), getattr(want, f.name))

    @staticmethod
    def count_derivations(monkeypatch) -> Counter:
        """Counter of (stream, run index) over every stream the engine derives."""
        calls = Counter()
        def counted(seed, run_start, m, stream, _derive=engine.episode_rngs):
            calls.update((stream, run) for run in range(run_start, run_start + m))
            return _derive(seed, run_start, m, stream)
        monkeypatch.setattr(engine, "episode_rngs", counted)
        return calls

    @pytest.mark.parametrize("with_stationary", [True, False])
    def test_streams_seeded_once_per_run(self, two_arm_instance, monkeypatch,
                                         with_stationary):
        calls = self.count_derivations(monkeypatch)
        monkeypatch.setattr(engine, "_CHUNK", 7)
        policies = self.GRID if with_stationary else self.GRID[1:]
        # episodes of at most about 80 epochs stay inside the shared block
        run_batch(RunConfig(two_arm_instance, policies, (5.0, 20.0, 40.0), 23, 9))
        streams = (0, 1)[:2 if with_stationary else 1]
        assert calls == {(stream, run): 1 for stream in streams for run in range(23)}

    def test_streams_derived_once_per_run_across_blocks(self, two_arm_instance, monkeypatch):
        # 16-epoch blocks: every episode outlives block 0, in nine cells that
        # end at different epochs; a run's streams are derived once, for all
        # its blocks, whatever the number of cells
        calls = self.count_derivations(monkeypatch)
        monkeypatch.setattr(engine, "_CHUNK", 7)
        monkeypatch.setattr(engine, "_BLOCK", 16)
        run_batch(RunConfig(two_arm_instance, self.GRID, (5.0, 20.0, 60.0), 23, 9))
        assert set(calls) == {(stream, run) for stream in (0, 1) for run in range(23)}
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("exploration, derived", [(1, 0), ("theoretical", 1)])
    def test_bounds_derived_only_for_theoretical_exploration(
        self, two_arm_instance, monkeypatch, exploration, derived
    ):
        # the bounds are derived in PolicySpec.build: once per build of the
        # theoretical cell, never for the others
        calls, lyon_builds = [], []
        def counted(instance, _derive=policies.derive_bounds):
            calls.append(instance)
            return _derive(instance)
        def build(spec, *args, _build=PolicySpec.build, **kwargs):
            if spec.name == "lyon":
                lyon_builds.append(spec)
            return _build(spec, *args, **kwargs)
        monkeypatch.setattr(policies, "derive_bounds", counted)
        monkeypatch.setattr(PolicySpec, "build", build)
        specs = (PolicySpec("lyon", "lyon", exploration=exploration),
                 PolicySpec("lyoff", "lyoff"), PolicySpec("stat", "stationary"))
        run_batch(RunConfig(two_arm_instance, specs, (5.0,), 3, 9))
        assert lyon_builds
        assert calls == [two_arm_instance] * (derived * len(lyon_builds))

    def test_infeasible_last_cell_fails_before_any_stream(self, two_arm_instance,
                                                          monkeypatch):
        derived = []
        def counted(*args, _derive=engine.episode_rngs):
            derived.append(args)
            return _derive(*args)
        monkeypatch.setattr(engine, "episode_rngs", counted)
        # at B = 10 the last cell's delta = 3 / sqrt(10) reaches c = 0.8
        policies = self.GRID + (PolicySpec("tight", "lyon", delta0=3.0),)
        config = RunConfig(two_arm_instance, policies, (10.0,), 5, 9)
        with pytest.raises(DeltaOutOfRange):
            run_batch(config)
        assert derived == []

    def test_missing_cell_is_a_key_error(self, two_arm_instance):
        spec = PolicySpec("stat", "stationary")
        result = run_batch(RunConfig(two_arm_instance, (spec,), (5.0,), 2, 9))
        assert result.cell("stat", 5.0).runs == 2
        for policy, budget in (("stat", 6.0), ("other", 5.0)):
            with pytest.raises(KeyError, match="no cell for policy"):
                result.cell(policy, budget)

    def test_cap_hits_counted_not_fatal(self):
        instance = Instance(
            [ArmSpec.table([(1.0, 0.01, 0.5, 0.0)]), ArmSpec.bernoulli(0.5, 0.5, 0.1)],
            c=0.9,
        )
        config = RunConfig(
            instance=instance,
            policies=(PolicySpec("slow", "static", arm=0),),
            budgets=(10.0,),
            runs=6,
            master_seed=1,
            cap=20,  # 20 pulls at cost 0.01 cannot deplete B=10
        )
        cell = run_batch(config).cells[0]
        assert cell.cap_hits == 6
        assert cell.mean_n_pulls == 20.0

    def test_validation(self, two_arm_instance):
        with pytest.raises(ValueError):
            RunConfig(two_arm_instance, (), (0.5,), 10, 0)  # budget <= 1
        with pytest.raises(ValueError):
            RunConfig(two_arm_instance, (), (10.0,), 0, 0)  # runs < 1
        with pytest.raises(ValueError):
            RunConfig(
                two_arm_instance,
                (PolicySpec("a", "lyon"), PolicySpec("a", "lyoff")),
                (10.0,),
                1,
                0,
            )  # duplicate names

    @pytest.mark.parametrize("runs", [0, -1, 2.5, True, "3", None])
    def test_bad_runs_rejected(self, two_arm_instance, runs):
        with pytest.raises(ValueError, match="runs"):
            RunConfig(two_arm_instance, (), (10.0,), runs, 0)

    @pytest.mark.parametrize("cap", [0, -5, 2.5, True, "10"])
    def test_bad_cap_rejected(self, two_arm_instance, cap):
        with pytest.raises(ValueError, match="cap"):
            RunConfig(two_arm_instance, (), (10.0,), 1, 0, cap=cap)
        spec = PolicySpec("s", "static", arm=0)
        assert RunConfig(two_arm_instance, (spec,), (10.0,), 1, 0, cap=1).cap == 1

    def test_empty_policy_grid_rejected(self, two_arm_instance):
        # an empty grid once ran and reported header-only CSVs
        with pytest.raises(ValueError, match="^at least one policy is required$"):
            RunConfig(two_arm_instance, (), (10.0,), 1, 0)

    @pytest.mark.parametrize("budgets", [(20, 20.0, 40), (20.0, 40.0, 20.0)])
    def test_duplicate_budgets_rejected(self, two_arm_instance, budgets):
        # 20 and 20.0 once gave two identical rows, and the scaling fit
        # counted the repeated budget as two points
        spec = PolicySpec("s", "static", arm=0)
        with pytest.raises(ValueError, match="^budgets must be distinct$"):
            RunConfig(two_arm_instance, (spec,), budgets, 1, 0)

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "3"])
    def test_bad_master_seed_rejected(self, two_arm_instance, seed):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(two_arm_instance, (), (10.0,), 1, seed)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_rejected(self, two_arm_instance, budget):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(two_arm_instance, (), (10.0, budget), 1, 0)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(type="stationary", p=(0.2, 0.2)),  # sums to 0.4
            dict(type="stationary", p=(0.3,)),  # one entry for two arms
            dict(type="stationary", p=(1.5, -0.5)),  # negative entry
            dict(type="static", arm=5),  # no such arm
            dict(type="static", arm=-1),
        ],
    )
    def test_bad_policy_spec_rejected(self, two_arm_instance, fields):
        with pytest.raises(ValueError):
            RunConfig(two_arm_instance, (PolicySpec("s", **fields),), (10.0,), 1, 0)

    @pytest.mark.parametrize(
        "policies, budgets",
        [
            ([SPEC], [100.0, 200.0]),  # a list once left the frozen config unhashable
            ((SPEC,), np.array([100.0, 200.0])),  # once numpy's ambiguous truth value
            (np.array([SPEC], dtype=object), (100, 200.0)),
        ],
        ids=["lists", "budget-array", "policy-array"],
    )
    def test_any_sequence_is_stored_as_a_tuple(self, two_arm_instance, policies, budgets):
        config = RunConfig(two_arm_instance, policies, budgets, 1, 0)
        assert config.policies == (SPEC,)
        assert config.budgets == (100.0, 200.0)
        assert all(type(b) is float for b in config.budgets)
        hash(config)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("budgets", 100.0),
            ("budgets", "100"),  # once complained about '1'
            ("budgets", b"12"),
            ("budgets", np.array(100.0)),
            ("budgets", np.array([[100.0, 200.0]])),
            ("budgets", None),
            ("policies", SPEC),  # a lone spec once raised TypeError
            ("policies", "s"),
            ("policies", [SPEC, "s"]),
            ("policies", [SPEC, None]),
            ("policies", {SPEC}),
            ("instance", "two arms"),
            ("instance", None),
        ],
        ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
    )
    def test_malformed_field_refused_naming_it(self, two_arm_instance, field, value):
        args = dict(instance=two_arm_instance, policies=(SPEC,), budgets=(10.0,), runs=1,
                    master_seed=0)
        # the whole value is refused, not one of its characters or entries
        shape = "be a sequence|hold PolicySpec entries|be an Instance"
        with pytest.raises(ValueError, match=f"^{field} must ({shape}), got"):
            RunConfig(**{**args, field: value})

    def test_stationary_allocation_is_cost_weighted(self, two_arm_instance):
        config = RunConfig(
            instance=two_arm_instance,
            policies=(
                PolicySpec("even", "stationary", p=(0.5, 0.5)),
                PolicySpec("opt", "stationary"),
            ),
            budgets=(2000.0,),
            runs=1000,
            master_seed=12,
        )
        result = run_batch(config)
        even = result.cell("even", 2000.0)
        assert even.alloc_cost[0] == pytest.approx(0.4, abs=0.02)
        assert even.alloc_cost[1] == pytest.approx(0.6, abs=0.02)
        # pull shares stay even by construction
        assert even.alloc_pulls[0] == pytest.approx(0.5, abs=0.02)
        opt = result.cell("opt", 2000.0)
        assert opt.alloc_cost[0] == pytest.approx(0.3, abs=0.02)
        for cell in result.cells:
            assert cell.alloc_cost.sum() == pytest.approx(1.0, abs=1e-9)
            assert cell.alloc_pulls.sum() == pytest.approx(1.0, abs=1e-9)
            assert min(cell.se_reward_rate, cell.se_violation, cell.se_regret) >= 0.0

    def test_stationary_reward_within_wald_band(self, two_arm_instance, two_arm_oracle):
        config = RunConfig(
            instance=two_arm_instance,
            policies=(PolicySpec("opt", "stationary"),),
            budgets=(100.0, 500.0),
            runs=1000,
            master_seed=3,
        )
        result = run_batch(config)
        for budget in (100.0, 500.0):
            cell = result.cell("opt", budget)
            low, high = wald_interval(two_arm_oracle.p_star, two_arm_instance, budget)
            margin = 3 * cell.se_total_reward
            assert cell.mean_total_reward >= low - margin
            assert cell.mean_total_reward <= high + margin

    def test_unconstrained_reduction_ignores_penalty(self, two_arm_instance):
        # with the queue pinned at zero the online rule chases pure reward
        # rate, so almost all budget ends up on the high-rate arm
        batch = simulate_batch(
            two_arm_instance,
            PolicySpec("ucb", "ucb_bwi", v0=1.0),
            5000.0,
            300,
            5,
        )
        share = float((batch.cost_per_arm[:, 0] / batch.total_cost).mean())
        assert share > 0.9

    def test_static_dichotomy(self, two_arm_instance):
        budgets = (250.0, 500.0, 1000.0, 2000.0)
        config = RunConfig(
            instance=two_arm_instance,
            policies=(
                PolicySpec("arm1", "static", arm=0),
                PolicySpec("arm2", "static", arm=1),
            ),
            budgets=budgets,
            runs=400,
            master_seed=28,
        )
        result = run_batch(config)
        for budget in budgets:
            assert result.cell("arm1", budget).mean_violation > 0.1
        regrets = [result.cell("arm2", b).mean_regret for b in budgets]
        slope = np.polyfit(budgets, regrets, 1)[0]
        assert slope == pytest.approx(0.3, rel=0.2)


def synthetic_cells(budgets, regrets, violations=None, policy="p"):
    violations = violations if violations is not None else [0.0] * len(budgets)
    return tuple(
        CellStats(
            policy=policy,
            budget=float(b),
            runs=100,
            mean_reward_rate=0.0,
            se_reward_rate=0.0,
            mean_violation=float(v),
            se_violation=0.0,
            mean_regret=float(r),
            se_regret=0.0,
            mean_n_pulls=0.0,
            cap_hits=0,
            alloc_cost=np.array([1.0]),
            alloc_pulls=np.array([1.0]),
            mean_total_reward=0.0,
            se_total_reward=0.0,
        )
        for b, r, v in zip(budgets, regrets, violations)
    )


class TestSweepScaling:
    budgets = [500.0, 1000.0, 2000.0, 4000.0, 8000.0]

    def test_sqrt_log_series_normalizes_to_constant(self):
        regrets = [math.sqrt(b * math.log(b)) for b in self.budgets]
        report = sweep_scaling(synthetic_cells(self.budgets, regrets))
        assert np.allclose(report.regret_norm, 1.0, atol=1e-12)
        assert 0.5 < report.loglog_slope < 0.6

    def test_linear_series_grows_like_sqrt_b_over_log(self):
        regrets = [0.3 * b for b in self.budgets]
        report = sweep_scaling(synthetic_cells(self.budgets, regrets))
        assert report.loglog_slope == pytest.approx(1.0, abs=1e-9)
        for i in range(len(self.budgets) - 1):
            b1, b2 = self.budgets[i], self.budgets[i + 1]
            expect = math.sqrt(b2 / b1 * math.log(b1) / math.log(b2))
            assert report.regret_norm[i + 1] / report.regret_norm[i] == pytest.approx(expect)

    def test_violation_normalization(self):
        violations = [1.0 / b for b in self.budgets]
        report = sweep_scaling(
            synthetic_cells(self.budgets, [1.0] * len(self.budgets), violations)
        )
        assert np.allclose(report.violation_norm, 1.0 / np.log(self.budgets))

    def test_negative_regret_uses_magnitude(self):
        regrets = [-0.3 * b for b in self.budgets]
        report = sweep_scaling(synthetic_cells(self.budgets, regrets))
        assert report.loglog_slope == pytest.approx(1.0, abs=1e-9)
        assert (report.mean_regret < 0).all()

    def test_slope_is_nan_below_two_nonzero_regrets(self):
        report = sweep_scaling(synthetic_cells(self.budgets[:3], [0.0, 0.0, 2.0]))
        assert math.isnan(report.loglog_slope)

    def test_needs_three_budgets(self):
        with pytest.raises(ValueError, match="3 budgets"):
            sweep_scaling(synthetic_cells([100.0, 200.0], [1.0, 2.0]))

    def test_rejects_mixed_policies(self):
        cells = synthetic_cells(self.budgets[:2], [1.0, 2.0]) + synthetic_cells(
            self.budgets[2:3], [3.0], policy="other"
        )
        with pytest.raises(ValueError, match="single policy"):
            sweep_scaling(cells)
