"""Constrained budgeted bandit optimization.

Simulation of K-armed bandits whose pulls draw joint (cost, reward, penalty)
outcomes under a hard budget on total cost and a soft ceiling on penalty per
unit budget, an exact solver for the optimal stationary randomized mixture,
virtual-queue drift-plus-penalty policies for the offline and online
(learning) settings, and a Monte-Carlo harness reproducing regret, violation,
and time-allocation curves.

The package root holds what a driver script needs, plus the types it gets
back and the exceptions it may catch.  Everything else is imported from its
module: the policy classes and schedules from :mod:`lybandit.policies`, the
lockstep engine from :mod:`lybandit.engine`, the per-episode metrics from
:mod:`lybandit.harness` and the problem constants from :mod:`lybandit.model`.
"""

from .harness import (
    AggregateResult,
    CellStats,
    RunConfig,
    ScalingReport,
    run_batch,
    sweep_scaling,
)
from .model import (
    ArmSpec,
    BanditPolicy,
    EpisodeOverrun,
    EpisodeResult,
    Instance,
    Outcome,
    SlaterViolation,
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
from .policies import DeltaOutOfRange, PolicySpec, StationaryPolicy

__version__ = "0.1.0"
