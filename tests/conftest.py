from __future__ import annotations

import os

import numpy as np
import pytest

import lybandit.engine as engine
from lybandit import ArmSpec, Instance, solve_lfp
from lybandit.model import derive_bounds


# high-rate/high-penalty arm vs low-rate/low-penalty arm, c = 0.8
TWO_ARM = Instance([ArmSpec.bernoulli(0.4, 0.8, 0.6), ArmSpec.bernoulli(0.6, 0.6, 0.3)], c=0.8)

# Bernoulli, scaled-uniform and table arms together
MIXED_KINDS = Instance(
    [
        ArmSpec.bernoulli(0.5, 0.9, 0.2),
        ArmSpec.scaled_uniform(0.6, 0.5, 0.3),
        ArmSpec.table([(0.4, 0.2, 1.0, 0.1), (0.6, 0.8, 0.3, 0.4)]),
    ],
    c=0.8,
)


@pytest.fixture(scope="session")
def two_arm_instance() -> Instance:
    """High-rate/high-penalty arm vs low-rate/low-penalty arm, c = 0.8."""
    return TWO_ARM


@pytest.fixture(scope="session")
def two_arm_oracle(two_arm_instance):
    return solve_lfp(two_arm_instance)


@pytest.fixture(scope="session")
def two_arm_bounds(two_arm_instance):
    return derive_bounds(two_arm_instance)


def random_feasible_instance(rng: np.random.Generator, k_arms: int) -> Instance:
    """Random Bernoulli instance guaranteed to have an admissible arm."""
    ex = rng.uniform(0.25, 1.0, k_arms)
    er = rng.uniform(0.05, 1.0, k_arms)
    ey = rng.uniform(0.05, 1.0, k_arms)
    y_rates = ey / ex
    c = float(
        y_rates.min() + rng.uniform(0.05, 0.8) * (y_rates.max() - y_rates.min()) + 0.01
    )
    arms = [ArmSpec.bernoulli(ex[i], er[i], ey[i]) for i in range(k_arms)]
    return Instance(arms, c=min(c, 4.0))


def force_workers(monkeypatch, workers: int) -> None:
    """Split every ``simulate_cells`` call into ``workers`` processes, however few its runs."""
    monkeypatch.setattr(engine, "_MIN_PART", 1)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(workers)))


def assert_no_child_left() -> None:
    """Assert that this process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
