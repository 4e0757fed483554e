"""Workload inputs, generated from the benchmark seed.

Each generator returns the CLI config the program will see; run.py
validates it with the library before anything is timed: the oracle must be
feasible and some arm must satisfy the penalty constraint strictly, so that
no policy raises and no episode runs into the epoch cap.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# smallest accepted Slater margin max_k (c E[X_k] - E[Y_k])
_MIN_MARGIN = 0.02
# every generated arm has this expected cost, so episode lengths (and with
# them the work of a run) do not depend on the seed; rewards and penalties do
_COST_MEAN = 0.5

# why each workload exists is recorded in README.md and BENCHMARK.json
WORKLOADS = ("lyon-k50", "short-episodes")


def master_seed(seed: int, workload: str) -> int:
    """Monte-Carlo master seed of a workload, a pure function of the bench seed."""
    tag = sum(ord(ch) * 31**i for i, ch in enumerate(workload)) % 2**31
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, master_seed(seed, workload), 7])


def _slater_arm(rng: np.random.Generator, ex, ey, c: float) -> None:
    """Make one random arm's penalty rate sit well below c, in place."""
    k = int(rng.integers(ex.size))
    ey[k] = round(float(rng.uniform(0.2, 0.6)) * c * float(ex[k]), 6)


def _arms_doc(kind: str, ex, er, ey) -> list[dict]:
    return [
        {"x_mean": float(x), "r_mean": float(r), "y_mean": float(y), "kind": kind}
        for x, r, y in zip(ex, er, ey)
    ]


def lyon_k50_config(seed: int) -> dict:
    """K=50 Bernoulli config with one chunk per cell; online index heavy."""
    rng = _rng(seed, "lyon-k50")
    k_arms = 50
    ex = np.full(k_arms, _COST_MEAN)
    er = np.round(rng.uniform(0.1, 1.0, k_arms), 6)
    ey = np.round(rng.uniform(0.05, 0.9, k_arms), 6)
    c = round(float(rng.uniform(0.5, 0.9)), 6)
    _slater_arm(rng, ex, ey, c)
    return {
        "instance": {"arms": _arms_doc("independent-bernoulli", ex, er, ey), "c": c},
        "policies": [
            {"name": "lyon", "type": "lyon", "v0": 1.0, "delta0": 0.5,
             "alpha": 2.0, "index_variant": "lcb-both", "exploration": 1},
            {"name": "ucb_bwi", "type": "ucb_bwi", "v0": 1.0, "alpha": 2.0},
            {"name": "lyoff", "type": "lyoff", "v0": 1.0, "delta0": 0.5},
        ],
        "budgets": [150],
        "runs": 1024,
        "seed": master_seed(seed, "lyon-k50"),
    }


def short_episodes_config(seed: int) -> dict:
    """K=10 scaled-uniform config: tiny budgets, three chunks per cell.

    It has four budgets, so ``lybandit sweep`` can run on it.
    """
    rng = _rng(seed, "short-episodes")
    k_arms = 10
    ex = np.full(k_arms, _COST_MEAN)
    er = np.round(rng.uniform(0.1, 1.0, k_arms), 6)
    ey = np.round(rng.uniform(0.05, 0.9, k_arms), 6)
    c = round(float(rng.uniform(0.5, 0.9)), 6)
    _slater_arm(rng, ex, ey, c)
    static_arm = int(np.argmax(c * ex - ey)) + 1  # 1-based, the Slater arm
    return {
        "instance": {
            "arms": _arms_doc("independent-scaled-uniform", ex, er, ey),
            "c": c,
        },
        "policies": [
            {"name": "stationary", "type": "stationary"},
            {"name": "static", "type": f"static:{static_arm}"},
            {"name": "lyon", "type": "lyon", "v0": 1.0, "delta0": 0.5,
             "alpha": 2.0, "exploration": 1},
        ],
        "budgets": [5, 10, 20, 40],
        "runs": 3072,
        "seed": master_seed(seed, "short-episodes"),
    }


def check_feasible(instance) -> None:
    """Raise unless the oracle is feasible with a strictly feasible arm."""
    from lybandit.model import derive_bounds
    from lybandit.oracle import solve_lfp

    bounds = derive_bounds(instance)
    if bounds.epsilon < _MIN_MARGIN:
        raise ValueError(f"Slater margin {bounds.epsilon} below {_MIN_MARGIN}")
    solve_lfp(instance)


def write_json(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path
