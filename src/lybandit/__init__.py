"""Constrained budgeted bandit optimization.

Simulation of K-armed bandits whose pulls draw joint (cost, reward, penalty)
outcomes under a hard budget on total cost and a soft ceiling on penalty per
unit budget, an exact solver for the optimal stationary randomized mixture,
virtual-queue drift-plus-penalty policies for the offline and online
(learning) settings, and a Monte-Carlo harness reproducing regret, violation,
and time-allocation curves.
"""

from .engine import BatchResult, simulate_batch
from .harness import (
    AggregateResult,
    CellStats,
    RunConfig,
    ScalingReport,
    ZeroCost,
    allocation,
    pseudo_regret,
    run_batch,
    sweep_scaling,
    violation,
)
from .model import (
    ArmSpec,
    BanditPolicy,
    Bounds,
    EpisodeOverrun,
    EpisodeResult,
    Instance,
    Outcome,
    SlaterViolation,
    derive_bounds,
    episode_env_rng,
    episode_policy_rng,
    run_episode,
)
from .oracle import (
    Infeasible,
    OracleSolution,
    penalty_rate,
    reward_rate,
    solve_lfp,
    solve_lfp_grid,
    wald_interval,
)
from .policies import (
    DeltaOutOfRange,
    LyOffPolicy,
    LyOnPolicy,
    LyParams,
    PolicySpec,
    StaticPolicy,
    StationaryPolicy,
    confidence_radius,
    denominator_floor,
    exploration_schedule,
    param_schedule,
)

__version__ = "0.1.0"
