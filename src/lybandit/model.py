"""Bandit environment: arms, instances, and the budget-limited episode runner.

An episode repeatedly pulls arms of a K-armed bandit where each pull draws a
joint (cost, reward, penalty) outcome supported on [0, 1], and stops at the
first epoch whose cumulative cost strictly exceeds the budget.  The reward and
penalty of that final, budget-crossing pull are both collected.

:func:`check_int` and :func:`check_real` are the package's one rule for
integer and real-valued inputs.
"""

from __future__ import annotations

import functools
import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, NamedTuple, Sequence, Sized

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
    "episode_rngs",
    "run_episode",
]

KIND_BERNOULLI = "independent-bernoulli"
KIND_SCALED_UNIFORM = "independent-scaled-uniform"
KIND_JOINT_TABLE = "joint-discrete-table"

# tolerance on the sum of every probability vector
_SIMPLEX_TOL = 1e-9
_MEANS = ("x_mean", "r_mean", "y_mean")


def _is_real(value) -> bool:
    """True for an int or float (numpy scalars included), False for a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """True for an int (numpy integers included), False for a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_int(value, name: str, least: int) -> None:
    """Raise one ValueError unless ``value`` is an integer (not a bool) >= ``least``."""
    if not (_is_int(value) and value >= least):
        raise ValueError(f"{name} must be at least {least} and an integer, got {value!r}")


def check_real(value, name: str, low: float, high: float = math.inf,
               open_low: bool = False) -> float:
    """Return ``value`` as a float, or raise one ValueError naming ``name``.

    Accepts a finite real number (numpy scalars included), not a bool, in
    [low, high], or in (low, high] with ``open_low``.  This is the one rule
    for every real-valued parameter of the package.
    """
    # the abs bound also rules out NaN, +-inf and ints too large for a float
    if (_is_real(value) and abs(value) <= sys.float_info.max and value <= high
            and (value > low if open_low else value >= low)):
        return float(value)
    interval = (f"{'(' if open_low else '['}{low:g}, {high:g}"
                f"{']' if high < math.inf else ')'}")
    raise ValueError(f"{name} must be a finite number in {interval}, got {value!r}")


def check_simplex(p) -> np.ndarray:
    """Validate and return ``p`` as a probability vector summing to 1 within 1e-9."""
    # as objects, a ragged nest is a vector of sequences, not numpy's own error
    if np.ndim(np.asarray(p, dtype=object)) != 1 or len(p) < 1 or any(map(np.ndim, p)):
        raise ValueError("p must be a one-dimensional probability vector")
    p = np.array([check_real(v, "probability", 0.0) for v in p])
    if not abs(float(p.sum()) - 1.0) <= _SIMPLEX_TOL:
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
    uniforms per outcome whatever the arm kind.  Every mean and atom entry is
    checked with :func:`check_real`.  A table arm computes its means from its
    atoms, whatever means it was given.
    """

    kind: str
    x_mean: float
    r_mean: float
    y_mean: float
    atoms: tuple[tuple[float, float, float, float], ...] | None = None

    def __post_init__(self):
        if self.kind == KIND_JOINT_TABLE:
            atoms = tuple(self.atoms) if isinstance(self.atoms, Iterable) else (self.atoms,)
            if not atoms:
                raise ValueError("joint-discrete-table arm needs at least one atom")
            for atom in atoms:
                if not (isinstance(atom, Sized) and len(atom) == 4):
                    raise ValueError(f"a table atom is (prob, x, r, y), got {atom!r}")
            atoms = tuple(tuple(check_real(v, "atom entry", 0.0, 1.0) for v in atom)
                          for atom in atoms)
            probs = check_simplex([a[0] for a in atoms])
            means = [float(np.dot(probs, [a[i] for a in atoms])) for i in (1, 2, 3)]
            object.__setattr__(self, "atoms", atoms)
        elif self.kind in (KIND_BERNOULLI, KIND_SCALED_UNIFORM):
            means = [check_real(getattr(self, name), name, 0.0, 1.0) for name in _MEANS]
        else:
            raise ValueError(f"unknown arm kind: {self.kind!r}")
        for name, m in zip(_MEANS, means):
            object.__setattr__(self, name, m)

    @classmethod
    def bernoulli(cls, x_mean: float, r_mean: float, y_mean: float) -> "ArmSpec":
        return cls(KIND_BERNOULLI, x_mean, r_mean, y_mean)

    @classmethod
    def scaled_uniform(cls, x_mean: float, r_mean: float, y_mean: float) -> "ArmSpec":
        return cls(KIND_SCALED_UNIFORM, x_mean, r_mean, y_mean)

    @classmethod
    def table(cls, atoms: Sequence[tuple[float, float, float, float]]) -> "ArmSpec":
        # the means given here are replaced by those of the atoms
        return cls(KIND_JOINT_TABLE, 0.0, 0.0, 0.0, atoms=atoms)

    @property
    def means(self) -> tuple[float, float, float]:
        """True (E[X], E[R], E[Y]) of this arm.

        Exact for every family: a table arm stores its atom-weighted means and
        the uniform family is parameterized by its mean.
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
            k: (np.cumsum([a[0] for a in arm.atoms]),
                np.array([a[1:] for a in arm.atoms], dtype=np.float64))
            for k, arm in enumerate(self.arms)
            if arm.kind == KIND_JOINT_TABLE
        }
        kinds = {arm.kind for arm in self.arms}
        # one vectorized pass when every arm shares a parametric kind
        self._kind = kinds.pop() if len(kinds) == 1 and not self._tables else None
        # the kept (m, 3) result and scratch buffers of draw
        self._out = self._tmp = np.empty((0, 3))

    def draw(self, pulled: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(m, 3) outcomes of arms ``pulled`` from (m, 3) uniforms; the next call overwrites it."""
        if len(self._out) != len(pulled):
            self._out, self._tmp = np.empty((2, len(pulled), 3))
        if self._kind is not None:
            return self._fill(self._kind, pulled, u, self._out, self._tmp)
        for k, arm in enumerate(self.arms):
            mask = pulled == k
            if mask.any():
                self._out[mask] = self._fill(arm.kind, pulled[mask], u[mask])
        return self._out

    def sample(self, arm: int, rng: np.random.Generator) -> Outcome:
        """One outcome of ``arm``; consumes exactly three uniforms from ``rng``."""
        return Outcome(*self.draw(np.array([arm]), rng.random((1, 3)))[0].tolist())

    def _fill(self, kind: str, pulled: np.ndarray, u: np.ndarray, out=None, tmp=None):
        """Outcomes of arms ``pulled``, all of ``kind``, written into ``out`` (new if None)."""
        if kind == KIND_BERNOULLI:
            return np.less(u, np.take(self._means, pulled, axis=0, out=tmp), out=out)
        if kind == KIND_SCALED_UNIFORM:
            tmp = np.multiply(np.take(self._width, pulled, axis=0, out=tmp), u, out=tmp)
            return np.add(np.take(self._lo, pulled, axis=0, out=out), tmp, out=out)
        cum, values = self._tables[pulled[0]]  # a table arm is drawn alone
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
        arm_specs = tuple(arms) if isinstance(arms, Iterable) else ()
        if not arm_specs or not all(isinstance(arm, ArmSpec) for arm in arm_specs):
            raise ValueError(f"arms must be a non-empty sequence of ArmSpec, got {arms!r}")
        object.__setattr__(self, "arms", arm_specs)
        object.__setattr__(self, "c", check_real(c, "c", 0.0, open_low=True))

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    def true_means(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-arm (E[X], E[R], E[Y]) as three length-K arrays."""
        m = np.array([arm.means for arm in self.arms], dtype=np.float64)
        return m[:, 0], m[:, 1], m[:, 2]

    def rate_means(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`true_means` for computing rates, which divide by E[X].

        Raises ValueError if some arm has zero expected cost.
        """
        ex, er, ey = self.true_means()
        if np.any(ex <= 0.0):
            raise ValueError("rates need positive expected cost for every arm")
        return ex, er, ey


@dataclass(frozen=True)
class Bounds:
    """Problem constants: cost floor, rate ceilings, and the Slater margin."""

    mu_min: float
    r_max: float
    y_max: float
    epsilon: float

    def __post_init__(self):
        for name, open_low in (("mu_min", True), ("r_max", False), ("y_max", False),
                               ("epsilon", True)):
            value = check_real(getattr(self, name), name, 0.0, open_low=open_low)
            object.__setattr__(self, name, value)


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
    ex, er, ey = instance.rate_means()
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


# numpy's SeedSequence constants (O'Neill's seed_seq_fe hash, pool of 4 words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of ``n`` >= 0 (0 is one word)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_seeds(entropy: list, n: int) -> np.ndarray:
    """(n, 4) uint64 ``SeedSequence(entropy_i).generate_state(4, uint64)`` of n rows.

    ``entropy`` holds the assembled uint32 words, each a Python int or an (n,)
    uint64 array: the hash runs on all rows at once, in 64-bit arithmetic
    masked to 32 bits.
    """
    entropy = entropy + [0] * (4 - len(entropy))  # short entropy hashes zeros into the pool
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        out = (_MIX_L * x - _MIX_R * y) & _MASK32
        return out ^ (out >> 16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    words, const = [], _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        words.append(value ^ (value >> 16))
    seeds = np.empty((n, 4), dtype=np.uint64)
    for i in range(4):
        seeds[:, i] = words[2 * i] | words[2 * i + 1] << 32
    return seeds


@functools.cache
def _seed_type() -> type:
    """Seed type of :func:`episode_rngs`, made on first use: it loads ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class _Seed(ISeedSequence):
        """A PCG64 seed whose four uint64 words are already hashed."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):  # the one request PCG64 makes
                raise NotImplementedError("only PCG64's four uint64 words are hashed")
            return self.state

    return _Seed


def episode_rngs(master_seed: int, run_start: int, m: int,
                 stream: int) -> list[np.random.Generator]:
    """Stream ``stream`` (0 environment, 1 policy) of runs ``run_start .. run_start + m - 1``.

    Run i's generator has the state of ``default_rng((master_seed, i, stream))``,
    the generator :func:`episode_env_rng` / :func:`episode_policy_rng` return;
    its seed gives PCG64 its four words and nothing else.  The seed hash runs
    on all m rows in one vectorized pass, in stretches that do not cross a
    multiple of 2**32, so the high words of the run index are the same within
    each.
    """
    check_int(master_seed, "master_seed", 0)
    check_int(run_start, "run_start", 0)
    check_int(m, "m", 1)
    check_int(stream, "stream", 0)
    master_seed, run, m, stream = map(int, (master_seed, run_start, m, stream))
    seed, gens, stop = _seed_type(), [], run + m
    while run < stop:
        n = min(stop, (run | _MASK32) + 1) - run
        first = run & _MASK32
        low = np.arange(first, first + n, dtype=np.uint64)
        high = _words(run >> 32) if run >> 32 else []
        states = _pcg64_seeds(_words(master_seed) + [low] + high + _words(stream), n)
        gens += [np.random.Generator(np.random.PCG64(seed(state))) for state in states]
        run += n
    return gens


def episode_env_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Environment stream for one episode: ``default_rng((master_seed, run_index, 0))``."""
    check_int(master_seed, "master_seed", 0)
    check_int(run_index, "run_index", 0)
    return np.random.default_rng((master_seed, run_index, 0))


def episode_policy_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Policy-side stream for one episode: ``default_rng((master_seed, run_index, 1))``."""
    check_int(master_seed, "master_seed", 0)
    check_int(run_index, "run_index", 0)
    return np.random.default_rng((master_seed, run_index, 1))


def episode_cap(instance: Instance, budget: float, cap: int | None) -> int:
    """Epoch limit of an episode with a finite budget B > 0.

    ``cap`` when given, else ten times a high-probability bound on the
    episode length, ``10 * ceil(2 B / mu_min)``, which must be finite.
    """
    # an infinite budget is never exceeded: every episode would run to the cap
    budget = check_real(budget, "budget", 0.0, open_low=True)
    if cap is None:
        mu_min = float(np.min(instance.true_means()[0]))
        if mu_min <= 0.0:
            raise ValueError("instance has a zero-mean cost arm; pass an explicit cap")
        bound = 2.0 * budget / mu_min
        if not math.isfinite(bound):
            raise ValueError(f"episode bound 2 B / mu_min overflows at B = {budget} and "
                             f"mu_min = {mu_min}; pass an explicit cap")
        return 10 * math.ceil(bound)
    check_int(cap, "cap", 1)
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
