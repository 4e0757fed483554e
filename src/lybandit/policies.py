"""Arm-selection policies: virtual queue, drift-plus-penalty rules, baselines.

The constrained policies steer a virtual queue that accumulates penalty in
excess of a (slightly tightened) admissible rate:

    q' = max(0, q + y - (c - delta) x)

and pick, each epoch, the arm minimizing a drift-plus-penalty score

    psi(k) = -V * reward_rate(k) + q * penalty_rate(k)

with V trading reward against constraint pressure.  The offline rule uses
true rates; the online rule replaces them with clamped empirical rates minus
confidence-radius corrections so the score is an optimistic (low) estimate.
Pinning the queue at zero turns the online rule into a plain budgeted UCB
policy with no penalty constraint.

The online index is computed in factored form,

    gamma(k) = A(k) + q B(k) - sqrt(ln n) (C(k) +/- q D(k)),

where A..D depend only on arm k's own tallies.  A pull changes one arm's
terms, so each epoch the online rule recomputes A..D at the entries pulled
in the previous epoch only (O(m) work over m episodes) and spends its
full-width passes on combining them with the queue and the epoch count.

Each built-in policy is written once, in vector form over m independent
episodes (:class:`VectorPolicy`).  The lockstep engine runs it on a whole
batch; the scalar ``select`` / ``observe`` of :class:`BanditPolicy` run the
same code with m = 1, so both paths share every floating-point operation.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from dataclasses import dataclass

import numpy as np

from .model import BanditPolicy, Bounds, Instance, Outcome, categorical, check_simplex
from .model import _is_int, _is_real

__all__ = [
    "DeltaOutOfRange",
    "LyParams",
    "LyOffPolicy",
    "LyOnPolicy",
    "PolicySpec",
    "StaticPolicy",
    "StationaryPolicy",
    "VectorPolicy",
    "confidence_radius",
    "denominator_floor",
    "exploration_schedule",
    "param_schedule",
]

VARIANT_LCB_BOTH = "lcb-both"
VARIANT_LITERAL = "literal-paper"
_VARIANTS = (VARIANT_LCB_BOTH, VARIANT_LITERAL)
SCHEDULE_SQRT = "sqrt"
SCHEDULE_SQRT_LOG = "sqrt-log"
# tolerance on the sum of a stationary mixture p
_PROB_TOL = 1e-9
_LCB_TOL = 1e-9
_ONE_ROW = np.ones(1, dtype=bool)


class DeltaOutOfRange(ValueError):
    """Scheduled queue tightening delta reached or exceeded c."""


# ---------------------------------------------------------------------------
# rule arithmetic, elementwise on arrays of any broadcastable shape
# ---------------------------------------------------------------------------


def _queue_step(q, x, y, cd):
    """One virtual-queue step q' = max(0, q + y - cd x) with cd = c - delta.

    A zero outcome (x = y = 0) leaves q unchanged bit for bit.
    """
    return np.maximum(0.0, q + y - cd * x)


def _score(v, q, r_rate, y_rate):
    """Drift-plus-penalty score -V r + q y of arms with the given rates."""
    return -v * r_rate + q * y_rate


def _unit_radius(t, alpha):
    """Confidence radius per unit sqrt(ln n): sqrt(2 alpha / t)."""
    return np.sqrt(2.0 * alpha / t)


def _empirical_rates(t, sum_x, sum_r, sum_y, floor):
    """Clamped empirical (mean cost, reward rate, penalty rate).

    Each mean is clipped to at most 1; the cost mean is additionally floored
    at ``floor`` so the rate denominators stay positive even when every cost
    sample was zero.
    """
    x_hat = np.maximum(floor, np.minimum(1.0, sum_x / t))
    r_hat = np.minimum(1.0, sum_r / t) / x_hat
    y_hat = np.minimum(1.0, sum_y / t) / x_hat
    return x_hat, r_hat, y_hat


def _index_terms(t, sum_x, sum_r, sum_y, v, alpha, floor):
    """Per-(row, arm) terms (A, B, C, D) of the factored online index.

    A = -V r_hat, B = y_hat, C = V w (1 + r_hat) and D = w (1 + y_hat) with
    w = sqrt(2 alpha / t) / x_hat.  They depend only on one arm's own tallies,
    so a pull changes the terms of that (row, arm) entry alone.
    """
    x_hat, r_hat, y_hat = _empirical_rates(t, sum_x, sum_r, sum_y, floor)
    w = _unit_radius(t, alpha) / x_hat
    return -v * r_hat, y_hat, v * w * (1.0 + r_hat), w * (1.0 + y_hat)


def _combine(terms, q, log_n_prev, variant, out=None, work=None):
    """Index gamma = A + q B - sqrt(ln n) (C +/- q D) from the terms.

    The queue-side term is subtracted (``lcb-both``, a true lower confidence
    bound) or added (``literal-paper``).  ``q=None`` stands for a queue
    pinned at zero and gives A - sqrt(ln n) C, the same argmin as q = 0.
    ``out`` and ``work`` are optional buffers of the result's shape.
    """
    a, b, c, d = terms
    s = math.sqrt(log_n_prev)
    if q is None:
        gamma = np.multiply(c, -s, out=out)
        return np.add(gamma, a, out=out)
    unc = np.multiply(q, d, out=work)
    unc = (np.add if variant == VARIANT_LCB_BOTH else np.subtract)(c, unc, out=work)
    unc = np.multiply(unc, s, out=work)
    gamma = np.multiply(q, b, out=out)
    gamma = np.add(gamma, a, out=out)
    return np.subtract(gamma, unc, out=out)


def denominator_floor(budget: float) -> float:
    """Floor for the empirical mean cost, keeping rates finite."""
    return max(1.0 / budget, 1e-6)


def confidence_radius(t: int, n: float, alpha: float) -> float:
    """Uncertainty width sqrt(2 alpha ln(n) / t) for an arm pulled t times."""
    if not t >= 1:
        raise ValueError("confidence radius needs at least one pull")
    if not n >= 1:
        raise ValueError("epoch must be at least 1")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    return math.sqrt(math.log(n)) * float(_unit_radius(t, alpha))


@dataclass(frozen=True)
class LyParams:
    """Design parameters of the drift-plus-penalty policies."""

    v: float
    delta: float = 0.0
    alpha: float = 2.0
    exploration_pulls: int = 1
    index_variant: str = VARIANT_LCB_BOTH

    def __post_init__(self):
        if not self.v > 0.0:
            raise ValueError("v must be positive")
        if not self.delta >= 0.0:
            raise ValueError("delta must be nonnegative")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if not (_is_int(self.exploration_pulls) and self.exploration_pulls >= 1):
            raise ValueError("exploration_pulls must be an integer of at least 1")
        if self.index_variant not in _VARIANTS:
            raise ValueError(f"unknown index variant: {self.index_variant!r}")


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def exploration_schedule(budget: float, bounds: Bounds, alpha: float) -> int:
    """Theoretical initial per-arm pull count.

    Sizes the phase as ceil(beta0 ln(2 B / mu_min)) with
    beta0 = 32 alpha (1 + y_max)^2 / (mu_min^2 eps^2), clamped to at least
    one pull.  The count is orders of magnitude beyond desk-scale budgets and
    exists for fidelity experiments.
    """
    beta0 = (
        32.0
        * alpha
        * (1.0 + bounds.y_max) ** 2
        / (bounds.mu_min**2 * bounds.epsilon**2)
    )
    count = math.ceil(beta0 * math.log(2.0 * budget / bounds.mu_min))
    return max(1, count)


def param_schedule(
    budget: float, v0: float, delta0: float, schedule: str, c: float
) -> tuple[float, float]:
    """Budget-indexed (V, delta) pair of the named schedule.

    ``"sqrt"``:     V = v0 sqrt(B), delta = delta0 / sqrt(B).
    ``"sqrt-log"``: V = v0 sqrt(B ln B), delta = delta0 sqrt(ln B / B).
    """
    if not budget > 1.0:
        raise ValueError("budget must exceed 1 so ln(B) is positive")
    if not (v0 > 0.0 and delta0 >= 0.0):
        raise ValueError("v0 must be positive and delta0 nonnegative")
    if schedule == SCHEDULE_SQRT:
        v = v0 * math.sqrt(budget)
        delta = delta0 / math.sqrt(budget)
    elif schedule == SCHEDULE_SQRT_LOG:
        log_b = math.log(budget)
        v = v0 * math.sqrt(budget * log_b)
        delta = delta0 * math.sqrt(log_b / budget)
    else:
        raise ValueError(f"unknown schedule: {schedule!r}")
    if delta >= c:
        raise DeltaOutOfRange(
            f"scheduled delta {delta:.6g} is not below c = {c}; "
            "lower delta0 or raise the budget"
        )
    return v, delta


# ---------------------------------------------------------------------------
# policy objects
# ---------------------------------------------------------------------------


class VectorPolicy(BanditPolicy):
    """A built-in policy in vector form over m independent episodes (rows).

    A driver calls :meth:`start` once, then per epoch :meth:`select_batch`
    and :meth:`observe_batch`.  The driver keeps each row's per-arm pull and
    cost tallies and hands them to ``select_batch``; rows whose episode has
    ended receive zero outcomes, which leave every rule's state unchanged.
    ``q`` holds each row's virtual queue (zero for rules without one).

    The scalar :meth:`select` / :meth:`observe` are the m = 1 case, with the
    tallies kept here.  Rules with ``uses_stream`` consume one policy uniform
    per row and epoch, drawn at m = 1 from ``rng``; drivers open policy
    streams only for them.
    """

    uses_stream = False
    q0 = 0.0

    def __init__(self, n_arms: int, rng: np.random.Generator | None = None):
        self._rng = rng
        self._n = 0
        self._pulls = np.zeros((1, n_arms))
        self._cost = np.zeros((1, n_arms))
        self.start(1)

    def start(self, m: int, truth: Instance | None = None) -> None:
        """Reset the per-row state for m episodes.

        With ``truth`` given, ``lcb_ok`` records per row whether an
        optimistic index stayed at or below the true-mean score at every
        decision (rules without such an index leave it all True); otherwise
        ``lcb_ok`` is None.
        """
        self.q = np.full(m, self.q0)
        self.lcb_ok = None if truth is None else np.ones(m, dtype=bool)

    @abstractmethod
    def select_batch(self, n: int, pulls, cost, live, u) -> np.ndarray:
        """Arm index of every row at the epoch after ``n`` completed pulls.

        ``pulls`` and ``cost`` are the (m, K) per-arm tallies, ``live`` the
        (m,) mask of running episodes and ``u`` the (m,) policy uniforms
        (None unless ``uses_stream``).
        """

    def observe_batch(self, arms, x, r, y) -> None:
        """Record the (m,) outcomes of the pulled ``arms``."""

    @property
    def queue(self) -> float:
        return float(self.q[0])

    def select(self) -> int:
        u = self._rng.random(1) if self.uses_stream else None
        return int(self.select_batch(self._n, self._pulls, self._cost, _ONE_ROW, u)[0])

    def observe(self, arm: int, outcome: Outcome) -> None:
        x, r, y = (np.array([value]) for value in outcome)
        self.observe_batch(np.array([arm]), x, r, y)
        self._n += 1
        self._pulls[0, arm] += 1.0
        self._cost[0, arm] += outcome.x


class StationaryPolicy(VectorPolicy):
    """Pull arm k with probability p_k, independently each epoch."""

    uses_stream = True

    def __init__(self, p, rng: np.random.Generator | None):
        self._cum = np.cumsum(check_simplex(p, _PROB_TOL))
        super().__init__(self._cum.size, rng)

    def select_batch(self, n, pulls, cost, live, u):
        return categorical(self._cum, u)


class StaticPolicy(VectorPolicy):
    """Always pull one fixed arm."""

    def __init__(self, arm: int):
        self._arm = int(arm)
        if self._arm < 0:
            raise ValueError(f"arm index must be nonnegative, got {arm}")
        # the scalar tallies only ever see this one arm
        super().__init__(self._arm + 1)

    def select_batch(self, n, pulls, cost, live, u):
        return np.full(live.shape[0], self._arm, dtype=np.int64)


class LyOffPolicy(VectorPolicy):
    """Offline drift-plus-penalty policy driven by true rates."""

    def __init__(
        self,
        instance: Instance,
        v: float,
        delta: float,
        q0: float = 0.0,
    ):
        if not 0.0 <= delta < instance.c:
            raise DeltaOutOfRange(f"delta must lie in [0, c), got {delta}")
        if q0 < 0.0:
            raise ValueError("queue value must be nonnegative")
        ex, er, ey = instance.true_means()
        if np.any(ex <= 0.0):
            raise ValueError("offline policy needs positive expected costs")
        # scores are q y + (-V r) in a kept (m, K) buffer (see LyOnPolicy.start);
        # addition commutes, so they equal _score's -V r + q y bit for bit
        self._neg_vr = -float(v) * (er / ex)
        self._y_rates = ey / ex
        self._cd = instance.c - delta
        self.q0 = float(q0)
        super().__init__(instance.n_arms)

    def start(self, m: int, truth: Instance | None = None) -> None:
        super().start(m, truth)
        self._scores = np.empty((m, self._y_rates.size))

    def scores(self) -> np.ndarray:
        """(m, K) score of each arm at each row's queue; the next call overwrites it."""
        np.multiply(self.q[:, None], self._y_rates, out=self._scores)
        return np.add(self._scores, self._neg_vr, out=self._scores)

    def select_batch(self, n, pulls, cost, live, u):
        return np.argmin(self.scores(), axis=1)

    def observe_batch(self, arms, x, r, y):
        self.q = _queue_step(self.q, x, y, self._cd)


class LyOnPolicy(VectorPolicy):
    """Online drift-plus-penalty policy with optimistic empirical indices.

    Pulls every arm ``exploration_pulls`` times round-robin, then minimizes
    the confidence-adjusted index each epoch.  With ``queue_enabled=False``
    the queue is pinned at zero, which is the unconstrained budgeted-UCB
    reduction.  Per-arm reward and penalty sums are kept here; pull counts
    and cost sums are the driver's tallies.

    The index is kept in factored form: ``terms`` holds the (m, K) arrays
    (A, B, C, D) of :func:`_index_terms` (None before the first decision
    after exploration, which builds them from the tallies).  Each later
    decision first recomputes only the entries pulled since the previous
    one, found through the flat indices ``row * K + arm`` that
    :meth:`observe_batch` records, which is O(m) work; only the combine step
    and the argmin run over all (m, K) entries.  ``index`` is the buffer the
    combine step writes, so after a decision it holds the index minimized.
    """

    def __init__(
        self,
        n_arms: int,
        c: float,
        params: LyParams,
        budget: float,
        queue_enabled: bool = True,
    ):
        if queue_enabled and not 0.0 <= params.delta < c:
            raise DeltaOutOfRange(f"delta must lie in [0, c), got {params.delta}")
        self._k = int(n_arms)
        self._params = params
        self._floor = denominator_floor(budget)
        self._cd = c - params.delta
        self._explore_total = self._k * params.exploration_pulls
        self._queue_enabled = queue_enabled
        super().__init__(self._k)

    def start(self, m: int, truth: Instance | None = None) -> None:
        super().start(m, truth)
        self._row_base = np.arange(m) * self._k
        self.sum_r = np.zeros((m, self._k))
        self.sum_y = np.zeros((m, self._k))
        self.terms = None
        self._pulled = None
        # the index and its work buffer live as long as the batch: freeing
        # per-epoch (m, K) temporaries let the C allocator return their pages
        # to the system and fault them in again every epoch (measured on a
        # process's first K=50, 1024-episode batch: about 250,000 page faults
        # with per-epoch temporaries, about 3,400 with kept buffers)
        self.index = np.empty((m, self._k))
        self._work = np.empty((m, self._k))
        if truth is not None:
            ex, er, ey = truth.true_means()
            self._true_rates = (er / ex, ey / ex)

    def select_batch(self, n, pulls, cost, live, u):
        if n < self._explore_total:
            return np.full(live.shape[0], n % self._k, dtype=np.int64)
        params = self._params
        # rows that ended inside exploration carry zero pull counts; the
        # floor touches only those (live rows have every arm pulled)
        if self.terms is None:
            self.terms = _index_terms(
                np.maximum(pulls, 1.0), cost, self.sum_r, self.sum_y,
                params.v, params.alpha, self._floor,
            )
        elif self._pulled is not None:
            flat = self._pulled
            fresh = _index_terms(
                np.maximum(pulls.take(flat), 1.0),
                cost.take(flat),
                self.sum_r.take(flat),
                self.sum_y.take(flat),
                params.v, params.alpha, self._floor,
            )
            for term, value in zip(self.terms, fresh):
                term.put(flat, value)
        self._pulled = None
        q_col = self.q[:, None] if self._queue_enabled else None
        gamma = _combine(
            self.terms, q_col, math.log(n), params.index_variant, self.index, self._work
        )
        if self.lcb_ok is not None:
            psi_true = _score(params.v, self.q[:, None], *self._true_rates)
            self.lcb_ok &= (gamma <= psi_true + _LCB_TOL).all(axis=1) | ~live
        return np.argmin(gamma, axis=1)

    def observe_batch(self, arms, x, r, y):
        flat = self._row_base + arms
        self.sum_r.reshape(-1)[flat] += r
        self.sum_y.reshape(-1)[flat] += y
        if self.terms is not None:
            # entries whose tallies change; refreshed at the next decision
            pending = self._pulled
            self._pulled = flat if pending is None else np.concatenate((pending, flat))
        if self._queue_enabled:
            self.q = _queue_step(self.q, x, y, self._cd)


# ---------------------------------------------------------------------------
# declarative policy description (used by the batch harness and the CLI)
# ---------------------------------------------------------------------------

POLICY_TYPES = ("stationary", "lyoff", "lyon", "ucb_bwi", "static")


@dataclass(frozen=True)
class PolicySpec:
    """Everything needed to build a fresh policy for one episode.

    ``p`` (stationary) may be left None to use the oracle mixture; ``arm``
    (static) is a zero-based index.  ``exploration`` is a fixed per-arm pull
    count or the string ``"theoretical"``.

    ``schedule`` picks the budget-indexed (V, delta) forms for the online
    policy: ``"sqrt"`` (default) uses V = v0 sqrt(B), delta = delta0/sqrt(B);
    ``"sqrt-log"`` uses the log-augmented V = v0 sqrt(B ln B),
    delta = delta0 sqrt(ln B / B).  The default reproduces the reference
    experiment behavior: with the log-augmented delta, any delta0 large
    enough to drive the violation negative makes the tightened constraint
    infeasible outright at desk-scale budgets, collapsing the policy onto
    the lowest-penalty arm.  The offline policy always uses the sqrt forms.
    """

    name: str
    type: str
    arm: int | None = None
    p: tuple[float, ...] | None = None
    v0: float = 1.0
    delta0: float = 0.5
    alpha: float = 2.0
    index_variant: str = VARIANT_LCB_BOTH
    exploration: int | str = 1
    schedule: str = SCHEDULE_SQRT

    def __post_init__(self):
        if self.type not in POLICY_TYPES:
            raise ValueError(f"unknown policy type: {self.type!r}")
        if self.type == "static" and self.arm is None:
            raise ValueError("static policy needs an arm index")
        if not (self.arm is None or _is_int(self.arm)):
            raise ValueError(f"arm must be an integer index, got {self.arm!r}")
        e = self.exploration
        if isinstance(e, bool) or not (isinstance(e, int) or e == "theoretical"):
            raise ValueError("exploration must be a pull count or 'theoretical'")
        if isinstance(e, int) and e < 1:
            raise ValueError("exploration pull count must be at least 1")
        if self.schedule not in (SCHEDULE_SQRT, SCHEDULE_SQRT_LOG):
            raise ValueError(f"unknown schedule: {self.schedule!r}")
        if self.p is not None:
            if self.type != "stationary":
                raise ValueError("p is only valid for stationary policies")
            # stored as a tuple of floats, so a spec given a list stays hashable
            p = check_simplex(self.p, _PROB_TOL)
            object.__setattr__(self, "p", tuple(p.tolist()))
        for key in ("v0", "delta0", "alpha"):
            value = getattr(self, key)
            if not _is_real(value):
                raise ValueError(f"{key} must be a number, got {value!r}")
            object.__setattr__(self, key, float(value))
        if not (math.isfinite(self.v0) and self.v0 > 0.0):
            raise ValueError(f"v0 must be a positive number, got {self.v0}")
        if not (math.isfinite(self.delta0) and self.delta0 >= 0.0):
            raise ValueError(f"delta0 must be a nonnegative number, got {self.delta0}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be a positive number, got {self.alpha}")
        if self.index_variant not in _VARIANTS:
            raise ValueError(f"unknown index variant: {self.index_variant!r}")

    def check_arms(self, n_arms: int) -> None:
        """Raise ValueError unless the static arm and ``p`` fit ``n_arms`` arms."""
        if self.type == "static" and not 0 <= self.arm < n_arms:
            raise ValueError(
                f"policy {self.name!r}: static arm index {self.arm} is out of "
                f"range for {n_arms} arms"
            )
        if self.p is not None and len(self.p) != n_arms:
            raise ValueError(
                f"policy {self.name!r}: p has {len(self.p)} entries for {n_arms} arms"
            )

    def ly_params(self, budget: float, c: float, bounds: Bounds | None) -> LyParams:
        """Resolve (V, delta, exploration) for the given budget."""
        schedule = SCHEDULE_SQRT if self.type == "lyoff" else self.schedule
        # the unconstrained reduction does not tighten its (pinned) queue
        delta0 = 0.0 if self.type == "ucb_bwi" else self.delta0
        v, delta = param_schedule(budget, self.v0, delta0, schedule, c)
        pulls = self.exploration
        if pulls == "theoretical":
            if bounds is None:
                raise ValueError("theoretical exploration needs derived bounds")
            pulls = exploration_schedule(budget, bounds, self.alpha)
        return LyParams(v=v, delta=delta, alpha=self.alpha, exploration_pulls=pulls,
                        index_variant=self.index_variant)

    def build(
        self,
        instance: Instance,
        budget: float,
        policy_rng: np.random.Generator,
        p_default: np.ndarray | None = None,
        bounds: Bounds | None = None,
    ) -> VectorPolicy:
        """Construct a per-episode policy object.

        ``policy_rng`` feeds the scalar ``select`` of the stationary policy;
        a lockstep driver passes None and supplies uniforms per batch.
        """
        if self.type == "static":
            return StaticPolicy(self.arm)
        if self.type == "stationary":
            p = self.p if self.p is not None else p_default
            if p is None:
                raise ValueError("stationary policy needs p or an oracle default")
            return StationaryPolicy(p, policy_rng)
        params = self.ly_params(budget, instance.c, bounds)
        if self.type == "lyoff":
            return LyOffPolicy(instance, params.v, params.delta)
        return LyOnPolicy(
            instance.n_arms,
            instance.c,
            params,
            budget,
            queue_enabled=(self.type == "lyon"),
        )
