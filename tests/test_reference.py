"""Independent scalar reference for the drift-plus-penalty rules.

``lyoff``, ``lyon`` (both index variants) and ``ucb_bwi`` are written here
again in plain Python from the paper's unfactored formulas, sharing no code
with ``lybandit.policies``: V = v0 sqrt(B), delta = delta0 / sqrt(B), the
queue q' = max(0, q + y - (c - delta) x), and the online index

    psi_hat - rad V (1 + r_hat) / x_hat -/+ rad q (1 + y_hat) / x_hat,

with psi_hat = -V r_hat + q y_hat and rad = sqrt(2 alpha ln n / t), where n
is the number of completed pulls and t the arm's pull count.  Outcomes come
from the episode's environment uniforms, three per epoch, and every argmin
takes the lowest index among equal scores.

The engine evaluates the index in a factored, reassociated form, so two
scores that are equal in exact arithmetic may round apart.  An episode may
therefore differ from the engine only if the reference made a decision
whose top two scores lie within 1e-9 (relative) of each other.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from lybandit import ArmSpec, Instance, PolicySpec
from lybandit.engine import simulate_batch
from lybandit.model import episode_env_rng

TIE = 1e-9


def _draw(kind, means, u):
    """(x, r, y) of one pull from three uniforms."""
    if kind == "independent-bernoulli":
        return tuple(float(ui < mi) for ui, mi in zip(u, means))
    # the widest [0, 1]-supported uniform with mean m
    out = []
    for ui, mi in zip(u, means):
        lo = max(0.0, 2.0 * mi - 1.0)
        out.append(lo + (min(1.0, 2.0 * mi) - lo) * ui)
    return tuple(out)


def _argmin(scores):
    """Lowest index of the least score, and whether the top two nearly tie."""
    best = 0
    for k in range(1, len(scores)):
        if scores[k] < scores[best]:
            best = k
    rest = [s for k, s in enumerate(scores) if k != best]
    near = bool(rest) and min(rest) - scores[best] <= TIE * max(abs(scores[best]),
                                                               abs(min(rest)))
    return best, near


def reference_episode(arms, c, budget, spec, rng):
    """One episode of ``spec`` on (kind, means) ``arms``; its totals and a near-tie flag."""
    k_arms = len(arms)
    v = spec.v0 * math.sqrt(budget)
    delta = 0.0 if spec.type == "ucb_bwi" else spec.delta0 / math.sqrt(budget)
    queue = spec.type != "ucb_bwi"
    floor = max(1.0 / budget, 1e-6)
    q = 0.0
    t = [0] * k_arms
    sx, sr, sy = [0.0] * k_arms, [0.0] * k_arms, [0.0] * k_arms
    cost = reward = penalty = 0.0
    n = 0
    near_tie = False
    while True:
        if spec.type == "lyoff":
            scores = [-v * (mr / mx) + q * (my / mx) for _, (mx, mr, my) in arms]
            arm, near = _argmin(scores)
        elif n < k_arms * spec.exploration:
            arm, near = n % k_arms, False
        else:
            scores = []
            for k in range(k_arms):
                tk = max(t[k], 1)
                x_hat = max(floor, min(1.0, sx[k] / tk))
                r_hat = min(1.0, sr[k] / tk) / x_hat
                y_hat = min(1.0, sy[k] / tk) / x_hat
                rad = math.sqrt(2.0 * spec.alpha * math.log(n) / tk)
                psi_hat = -v * r_hat + q * y_hat
                queue_side = rad * q * (1.0 + y_hat) / x_hat
                if spec.index_variant == "literal-paper":
                    queue_side = -queue_side
                scores.append(psi_hat - rad * v * (1.0 + r_hat) / x_hat - queue_side)
            arm, near = _argmin(scores)
        near_tie |= near
        x, r, y = _draw(arms[arm][0], arms[arm][1], rng.random(3).tolist())
        t[arm] += 1
        sx[arm] += x
        sr[arm] += r
        sy[arm] += y
        if queue:
            q = max(0.0, q + y - (c - delta) * x)
        cost += x
        reward += r
        penalty += y
        n += 1
        if cost > budget:
            return (n, t, cost, reward, penalty, q), near_tie


def check_against_reference(instance, spec, budget, runs, seed, ties_exempt=True):
    """Compare every episode with the reference; the number that differ after a near tie."""
    arms = [(arm.kind, arm.means) for arm in instance.arms]
    batch = simulate_batch(instance, spec, budget, runs, seed)
    exempt = 0
    for e in range(runs):
        ref, near_tie = reference_episode(arms, instance.c, budget, spec,
                                          episode_env_rng(seed, e))
        got = (int(batch.n_pulls[e]), batch.pulls_per_arm[e].astype(int).tolist(),
               float(batch.total_cost[e]), float(batch.total_reward[e]),
               float(batch.total_penalty[e]), float(batch.q_final[e]))
        if got != ref:
            assert ties_exempt and near_tie, (spec.name, e, got, ref)
            exempt += 1
    return exempt


THREE_ARMS = Instance(
    [ArmSpec.bernoulli(0.4, 0.8, 0.6), ArmSpec.bernoulli(0.6, 0.6, 0.3),
     ArmSpec.bernoulli(0.55, 0.63, 0.38)],
    c=0.8,
)
RULES = [
    PolicySpec("lyoff", "lyoff", v0=1.0, delta0=0.5),
    PolicySpec("lyon", "lyon", v0=1.0, delta0=0.5),
    PolicySpec("lyon-lit", "lyon", v0=1.0, delta0=0.5, index_variant="literal-paper"),
    PolicySpec("ucb", "ucb_bwi", v0=1.0),
]


@pytest.mark.parametrize("budget, runs", [(100.0, 60), (400.0, 12)])
@pytest.mark.parametrize("spec", RULES, ids=lambda s: s.name)
def test_drift_rules_match_the_scalar_reference(spec, budget, runs):
    # at B = 100 the lyoff queue moves on a 0.25 lattice and reaches V = 10,
    # where arms 1 and 2 score equal
    exempt = check_against_reference(THREE_ARMS, spec, budget, runs, 17)
    assert exempt <= runs // 10, exempt


@pytest.mark.parametrize("spec", [RULES[1], RULES[2],
                                  PolicySpec("ucb", "ucb_bwi", v0=1.0, exploration=2)],
                         ids=lambda s: s.name)
def test_ten_uniform_arms_match_the_scalar_reference(spec):
    rng = np.random.default_rng(10)
    arms = [ArmSpec.scaled_uniform(*rng.uniform(0.1, 0.9, 3)) for _ in range(10)]
    exempt = check_against_reference(Instance(arms, c=0.6), spec, 60.0, 16, 5)
    assert exempt <= 2, exempt


def test_equal_scores_go_to_the_lowest_index():
    # arms 0 and 2 are the same arm, so lyoff scores them equal bit for bit at
    # every decision in both implementations: no tie is exempt, and arm 2 is
    # never pulled
    instance = Instance(
        [ArmSpec.bernoulli(0.6, 0.6, 0.3), ArmSpec.bernoulli(0.4, 0.8, 0.6),
         ArmSpec.bernoulli(0.6, 0.6, 0.3)],
        c=0.8,
    )
    check_against_reference(instance, RULES[0], 100.0, 20, 3, ties_exempt=False)
    batch = simulate_batch(instance, RULES[0], 100.0, 20, 3)
    assert (batch.pulls_per_arm[:, 2] == 0).all() and (batch.pulls_per_arm[:, 0] > 0).all()
