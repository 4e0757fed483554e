"""Bandit environment: arms, instances, and the budget-limited episode runner.

An episode repeatedly pulls arms of a K-armed bandit where each pull draws a
joint (cost, reward, penalty) outcome supported on [0, 1], and stops at the
first epoch whose cumulative cost strictly exceeds the budget.  The reward and
penalty of that final, budget-crossing pull are both collected.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Integral, Real
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "ArmSpec",
    "Bounds",
    "EpisodeOverrun",
    "EpisodeResult",
    "Instance",
    "Outcome",
    "BanditPolicy",
    "Sampler",
    "SlaterViolation",
    "derive_bounds",
    "episode_env_rng",
    "episode_policy_rng",
    "run_episode",
]

KIND_BERNOULLI = "independent-bernoulli"
KIND_SCALED_UNIFORM = "independent-scaled-uniform"
KIND_JOINT_TABLE = "joint-discrete-table"

_SIMPLEX_TOL = 1e-12


def _is_real(value) -> bool:
    """True for an int or float (numpy scalars included), False for a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """True for an int (numpy integers included), False for a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_simplex(p, tol: float = _SIMPLEX_TOL) -> np.ndarray:
    """Validate and return ``p`` as a probability vector summing to 1 within ``tol``."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("p must be a one-dimensional probability vector")
    if not np.all(p >= 0.0):
        raise ValueError("probabilities must be nonnegative")
    if not abs(float(p.sum()) - 1.0) <= tol:
        raise ValueError(f"probabilities must sum to 1, got {float(p.sum())!r}")
    return p


class SlaterViolation(ValueError):
    """No arm has expected penalty strictly below c times expected cost."""


class EpisodeOverrun(RuntimeError):
    """Episode hit the epoch cap with the budget still not depleted.

    Carries the partial result accumulated up to the cap in ``result``.
    """

    def __init__(self, message: str, result: "EpisodeResult"):
        super().__init__(message)
        self.result = result


class Outcome(NamedTuple):
    """One pull's (cost, reward, penalty) sample, each in [0, 1]."""

    x: float
    r: float
    y: float


@dataclass(frozen=True)
class ArmSpec:
    """Distribution of the joint (cost, reward, penalty) outcome of one arm.

    Three families are supported, all with support inside [0, 1]:

    * ``independent-bernoulli``: the three coordinates are independent
      Bernoulli variables parameterized by their means.
    * ``independent-scaled-uniform``: independent uniforms parameterized by
      their means; the mean ``m`` maps to Uniform[max(0, 2m-1), min(1, 2m)],
      the widest [0, 1]-supported uniform with that mean.
    * ``joint-discrete-table``: a finite list of atoms ``(prob, x, r, y)``
      drawn jointly, allowing correlated coordinates and point masses.

    Outcomes are drawn through :class:`Sampler`, which consumes exactly three
    uniforms per outcome whatever the arm kind.
    """

    kind: str
    x_mean: float
    r_mean: float
    y_mean: float
    atoms: tuple[tuple[float, float, float, float], ...] | None = None

    def __post_init__(self):
        if self.kind in (KIND_BERNOULLI, KIND_SCALED_UNIFORM):
            for name in ("x_mean", "r_mean", "y_mean"):
                m = getattr(self, name)
                if not (_is_real(m) and 0.0 <= m <= 1.0):
                    raise ValueError(f"{name} must be a number in [0, 1], got {m!r}")
                object.__setattr__(self, name, float(m))
        elif self.kind == KIND_JOINT_TABLE:
            if not self.atoms:
                raise ValueError("joint-discrete-table arm needs at least one atom")
            check_simplex([a[0] for a in self.atoms])
            for _, x, r, y in self.atoms:
                if not (0.0 <= x <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= y <= 1.0):
                    raise ValueError("atom values must lie in [0, 1]")
        else:
            raise ValueError(f"unknown arm kind: {self.kind!r}")

    @classmethod
    def bernoulli(cls, x_mean: float, r_mean: float, y_mean: float) -> "ArmSpec":
        return cls(KIND_BERNOULLI, x_mean, r_mean, y_mean)

    @classmethod
    def scaled_uniform(cls, x_mean: float, r_mean: float, y_mean: float) -> "ArmSpec":
        return cls(KIND_SCALED_UNIFORM, x_mean, r_mean, y_mean)

    @classmethod
    def table(cls, atoms: Sequence[tuple[float, float, float, float]]) -> "ArmSpec":
        atoms = tuple((float(p), float(x), float(r), float(y)) for p, x, r, y in atoms)
        probs = np.array([a[0] for a in atoms])
        means = tuple(
            float(np.dot(probs, [a[i] for a in atoms])) for i in (1, 2, 3)
        )
        return cls(KIND_JOINT_TABLE, *means, atoms=atoms)

    @property
    def means(self) -> tuple[float, float, float]:
        """True (E[X], E[R], E[Y]) of this arm.

        Exact for every family: the table constructor stores atom-weighted
        means and the uniform family is parameterized by its mean.
        """
        return (self.x_mean, self.r_mean, self.y_mean)

    def sample(self, rng: np.random.Generator) -> Outcome:
        """Draw one outcome; consumes exactly three uniforms from ``rng``."""
        return Sampler((self,)).sample(0, rng)


class Sampler:
    """Outcome sampling for a fixed arm list: (m, 3) uniforms to (m, 3) outcomes.

    Row i of a draw is the (x, r, y) outcome of arm ``pulled[i]`` computed
    from uniform row ``u[i]``: Bernoulli coordinates are ``u < mean``,
    scaled-uniform ones ``lo + width * u``, and a table arm picks the atom
    that ``u[i, 0]`` selects from its cumulative probabilities.  Every arm
    kind consumes the whole row, so a replayed stream stays aligned.
    """

    def __init__(self, arms: Sequence[ArmSpec]):
        self.arms = tuple(arms)
        self._means = np.array([arm.means for arm in self.arms], dtype=np.float64)
        self._lo = np.maximum(0.0, 2.0 * self._means - 1.0)
        self._width = np.minimum(1.0, 2.0 * self._means) - self._lo
        self._tables = {
            k: (np.cumsum([float(a[0]) for a in arm.atoms]),
                np.array([a[1:] for a in arm.atoms], dtype=np.float64))
            for k, arm in enumerate(self.arms)
            if arm.kind == KIND_JOINT_TABLE
        }
        kinds = {arm.kind for arm in self.arms}
        # one vectorized expression when every arm shares a parametric kind
        self._kind = kinds.pop() if len(kinds) == 1 and not self._tables else None

    def draw(self, pulled: np.ndarray, u: np.ndarray) -> np.ndarray:
        """New (m, 3) array of the outcomes of arms ``pulled`` from (m, 3) uniforms."""
        if self._kind is not None:
            return self._draw(self._kind, pulled, u)
        v = np.empty_like(u)
        for k, arm in enumerate(self.arms):
            mask = pulled == k
            if mask.any():
                v[mask] = self._draw(arm.kind, k, u[mask])
        return v

    def sample(self, arm: int, rng: np.random.Generator) -> Outcome:
        """One outcome of ``arm``; consumes exactly three uniforms from ``rng``."""
        return Outcome(*self.draw(np.array([arm]), rng.random((1, 3)))[0].tolist())

    def _draw(self, kind: str, pulled, u: np.ndarray) -> np.ndarray:
        if kind == KIND_BERNOULLI:
            return (u < self._means[pulled]).astype(np.float64)
        if kind == KIND_SCALED_UNIFORM:
            return self._lo[pulled] + self._width[pulled] * u
        cum, values = self._tables[pulled]  # a table arm is drawn alone
        return values[categorical(cum, u[:, 0])]


def categorical(cum: np.ndarray, u):
    """Index drawn by uniform(s) ``u`` from cumulative probabilities ``cum``.

    The last index absorbs any rounding gap between ``cum[-1]`` and 1.
    """
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


@dataclass(frozen=True)
class Instance:
    """A K-armed bandit instance with a penalty-rate level c.

    ``c`` is the admissible expected penalty per unit of budget.  Penalty
    rates E[Y]/E[X] range over [0, 1/mu_min], so c above 1 is meaningful (a
    slack constraint); the CLI config schema is stricter and keeps c in
    (0, 1].  Arms with zero expected cost are representable (their episodes
    never deplete the budget and must be run with an explicit epoch cap);
    rate computations and bound derivation reject them.
    """

    arms: tuple[ArmSpec, ...]
    c: float

    def __init__(self, arms: Sequence[ArmSpec], c: float):
        if len(arms) < 1:
            raise ValueError("instance needs at least one arm")
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(f"c must be a finite positive number, got {c}")
        object.__setattr__(self, "arms", tuple(arms))
        object.__setattr__(self, "c", float(c))

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    def true_means(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-arm (E[X], E[R], E[Y]) as three length-K arrays."""
        m = np.array([arm.means for arm in self.arms], dtype=np.float64)
        return m[:, 0], m[:, 1], m[:, 2]


@dataclass(frozen=True)
class Bounds:
    """Problem constants: cost floor, rate ceilings, and the Slater margin."""

    mu_min: float
    r_max: float
    y_max: float
    epsilon: float

    def __post_init__(self):
        if not self.mu_min > 0.0:
            raise ValueError("mu_min must be positive")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")


def derive_bounds(instance: Instance) -> Bounds:
    """Compute :class:`Bounds` from ground-truth means.

    mu_min is the smallest expected cost, r_max / y_max the largest reward /
    penalty rate, and epsilon the best margin max_k (c E[X_k] - E[Y_k]).

    Raises
    ------
    SlaterViolation
        If no arm satisfies E[Y] < c E[X] strictly.
    ValueError
        If some arm has zero expected cost (rates would be infinite).
    """
    ex, er, ey = instance.true_means()
    if np.any(ex <= 0.0):
        raise ValueError("all arms need positive expected cost to derive bounds")
    epsilon = float(np.max(instance.c * ex - ey))
    if epsilon <= 0.0:
        raise SlaterViolation(
            f"no arm satisfies E[Y] < c E[X]; best margin is {epsilon}"
        )
    return Bounds(
        mu_min=float(np.min(ex)),
        r_max=float(np.max(er / ex)),
        y_max=float(np.max(ey / ex)),
        epsilon=epsilon,
    )


@dataclass(frozen=True)
class EpisodeResult:
    """Totals and per-arm tallies of one budget-limited episode."""

    n_pulls: int
    total_cost: float
    total_reward: float
    total_penalty: float
    pulls_per_arm: np.ndarray
    cost_per_arm: np.ndarray
    q_final: float
    q_max: float
    capped: bool = False


class BanditPolicy(ABC):
    """Causal arm-selection contract.

    ``select`` may depend only on outcomes already passed to ``observe``
    (and on the policy's own random stream); the runner calls them in strict
    select/observe alternation.  ``queue`` exposes the policy's virtual-queue
    value, 0.0 for policies that do not track one.
    """

    queue: float = 0.0

    @abstractmethod
    def select(self) -> int:
        """Return the arm index to pull at the current epoch."""

    @abstractmethod
    def observe(self, arm: int, outcome: Outcome) -> None:
        """Record the outcome of the pull chosen by the last ``select``."""


def episode_env_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Environment stream for one episode, a pure function of (seed, run)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, run_index, 0)))


def episode_policy_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Policy-side stream for one episode (e.g. randomized selection)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, run_index, 1)))


def episode_cap(instance: Instance, budget: float, cap: int | None) -> int:
    """Epoch limit of an episode with budget B > 0.

    ``cap`` when given, else ten times a high-probability bound on the
    episode length, ``10 * ceil(2 B / mu_min)``.
    """
    if not budget > 0.0:
        raise ValueError("budget must be positive")
    if cap is None:
        mu_min = float(np.min(instance.true_means()[0]))
        if mu_min <= 0.0:
            raise ValueError("instance has a zero-mean cost arm; pass an explicit cap")
        return 10 * math.ceil(2.0 * budget / mu_min)
    if not (_is_int(cap) and cap >= 1):
        raise ValueError(f"cap must be at least 1 and an integer, got {cap!r}")
    return cap


def run_episode(
    instance: Instance,
    policy: BanditPolicy,
    budget: float,
    rng: np.random.Generator,
    cap: int | None = None,
) -> EpisodeResult:
    """Run one episode until the budget is strictly exceeded.

    The pull that first makes cumulative cost exceed ``budget`` is the last
    epoch; its reward and penalty are counted.  If ``cap`` epochs elapse with
    the budget not yet depleted, :class:`EpisodeOverrun` is raised with the
    partial result attached.

    Parameters
    ----------
    instance, policy, budget
        Environment, arm-selection policy, and budget B > 0.
    rng
        Environment stream; three uniforms are consumed per epoch.
    cap
        Maximum number of epochs; defaults to ``10 * ceil(2 B / mu_min)``.
    """
    cap = episode_cap(instance, budget, cap)
    k_arms = instance.n_arms
    sampler = Sampler(instance.arms)
    pulls = np.zeros(k_arms, dtype=np.int64)
    cost_arm = np.zeros(k_arms, dtype=np.float64)
    total_cost = 0.0
    total_reward = 0.0
    total_penalty = 0.0
    q_max = 0.0
    n = 0

    while n < cap:
        arm = policy.select()
        if not 0 <= arm < k_arms:
            raise IndexError(f"policy selected arm {arm} outside [0, {k_arms})")
        outcome = sampler.sample(arm, rng)
        policy.observe(arm, outcome)
        n += 1
        pulls[arm] += 1
        cost_arm[arm] += outcome.x
        total_cost += outcome.x
        total_reward += outcome.r
        total_penalty += outcome.y
        q = policy.queue
        if q > q_max:
            q_max = q
        if total_cost > budget:
            break

    result = EpisodeResult(
        n_pulls=n,
        total_cost=total_cost,
        total_reward=total_reward,
        total_penalty=total_penalty,
        pulls_per_arm=pulls,
        cost_per_arm=cost_arm,
        q_final=policy.queue,
        q_max=q_max,
        capped=not total_cost > budget,
    )
    if result.capped:
        raise EpisodeOverrun(
            f"budget not depleted after {cap} epochs (total cost {total_cost})", result
        )
    return result
